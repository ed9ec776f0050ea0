"""Cross-view quadratic discriminant analysis.

Models the cross-view difference g - q of same-identity pairs and of
different-identity pairs as two zero-mean Gaussians with covariances S_I and
S_E, learns the subspace W from the generalized eigenproblem
S_E w = lambda S_I w (keeping eigenvalues clearly above 1), and scores a
pair by the quadratic form

    s(g, q) = (g - q)^T W M W^T (g - q),
    M = (W^T S_I W)^-1 - (W^T S_E W)^-1   (symmetrized)

so lower scores mean more similar and M may be indefinite. Both covariances
come from a closed-form expansion over per-identity sums rather than explicit
pair enumeration; synth.oracle_pairwise_covariances re-derives them the slow
way for cross-checking. linalg.ridged ridges S_E and S_I with one shared
scale, their mean trace over d, and W^T S_I W, W^T S_E W with theirs over r.

score_matrix scores every probe q against every gallery entry g without a
pair loop or a difference tensor. With z = W^T x it expands

    s(g, q) = z_q^T M z_q + z_g^T M z_g - 2 z_q^T M z_g,

one GEMM for the cross term and a row-wise sum per self term. The gallery is
coded, projected and centred on its mean projected row (s depends on g - q
only) once; each block of probes then codes and projects only its own rows.
Equal rows score alike: each distinct raw row (-0.0 counted as 0.0) is
projected and scored once, and a probe found among the gallery's sorted row
keys scores exactly 0.0, as `score`, the pair oracle, does. cmc's
first-index tie-break relies on both.
"""

from dataclasses import dataclass

import numpy as np

from . import dataio, linalg
from .errors import (
    DegenerateMetric,
    InvalidConfig,
    MissingView,
    NonFiniteValue,
    ShapeMismatch,
    TooFewIdentities,
)

DEFAULT_RIDGE = 1e-3
DEFAULT_MAX_RANK = 64
# Where both covariances are ridge only the eigenvalue is exactly 1, scattered
# by rounding (to 1e-10 at d = 2048); a kept direction must clear 1 by more.
UNIT_EIGENVALUE_TOL = 1e-8


@dataclass
class XqdaModel:
    """Learned subspace and metric kernel for the cross-view score."""

    w: np.ndarray        # d x r
    m: np.ndarray        # r x r symmetric
    fallback: bool = False

    @property
    def rank(self):
        return self.w.shape[1]


def build_difference_covariances(features, identities, views):
    """(S_I, S_E): second moments of same/different-identity cross-view pairs.

    Uses the class-mean expansion: with per-identity view sums s1_i, s2_i,
    counts n1_i, n2_i, and per-view raw second moments, the sum over pairs of
    (g - q)(g - q)^T needs no pair loop. Extra-personal pairs are all pairs
    minus the same-identity ones. Each view's rows are a slice when the rows
    come grouped, view 1 then view 2, and are gathered once otherwise.
    """
    features = np.asarray(features, dtype=np.float64)
    identities = np.asarray(identities)
    views = np.asarray(views)
    if features.ndim != 2 or len(identities) != features.shape[0] or len(views) != features.shape[0]:
        raise ShapeMismatch("features, identities, and views must be row-aligned")
    first, codes = dataio.first_appearance_codes(identities)
    if len(first) < 2:
        raise TooFewIdentities("need at least two identities for extra-personal pairs")
    in1, in2 = views == 1, views == 2
    n1 = np.bincount(codes[in1], minlength=len(first)).astype(np.float64)
    n2 = np.bincount(codes[in2], minlength=len(first)).astype(np.float64)
    lacking = identities[first[(n1 == 0) | (n2 == 0)]].tolist()
    if lacking:
        raise MissingView(f"identity {lacking[0]!r} lacks a sample in one view")
    k = int(np.count_nonzero(in1))
    if in1[:k].all() and in2[k:].all():
        v1, v2 = features[:k], features[k:]
    else:
        v1, v2 = features[in1], features[in2]
    id1, id2, dim = codes[in1], codes[in2], features.shape[1]

    # np.add.at adds the rows in order, as a per-identity sum(axis=0) would.
    sums1 = np.zeros((len(n1), dim))
    sums2 = np.zeros((len(n2), dim))
    np.add.at(sums1, id1, v1)
    np.add.at(sums2, id2, v2)

    # Per-row weights: how many counterpart-view samples share the identity.
    w1 = n2[id1]
    w2 = n1[id2]

    intra_sum = (v1 * w1[:, None]).T @ v1 + (v2 * w2[:, None]).T @ v2
    intra_sum -= sums1.T @ sums2 + sums2.T @ sums1
    intra_pairs = float(n1 @ n2)

    total1 = v1.sum(axis=0)
    total2 = v2.sum(axis=0)
    all_sum = len(v2) * (v1.T @ v1) + len(v1) * (v2.T @ v2)
    all_sum -= np.outer(total1, total2) + np.outer(total2, total1)
    extra_pairs = float(len(v1) * len(v2) - intra_pairs)

    intra = intra_sum / intra_pairs
    extra = (all_sum - intra_sum) / extra_pairs
    return (intra + intra.T) / 2.0, (extra + extra.T) / 2.0


def fit_xqda(features, identities, views, ridge=DEFAULT_RIDGE,
             max_rank=DEFAULT_MAX_RANK) -> XqdaModel:
    """Learn the XQDA subspace and kernel from labelled cross-view features.

    Directions with generalized eigenvalue above 1 + UNIT_EIGENVALUE_TOL separate
    extra-personal from intra-personal variation and are kept (up to
    max_rank); if none qualify the strongest direction is kept anyway and
    the model is flagged as a fallback. The ridge is isotropic, so raw column
    scale weighs in the metric: a caller that concatenates feature blocks
    balances their scales first.
    """
    if max_rank < 1:
        raise InvalidConfig(f"max_rank must be >= 1, got {max_rank}")
    intra, extra = build_difference_covariances(features, identities, views)
    extra_r, intra_r = linalg.ridged(ridge, extra, intra)  # a bad ridge before a degenerate metric
    if np.trace(intra) + np.trace(extra) <= 0.0:
        raise DegenerateMetric("both difference covariances vanish")

    solution = linalg.gen_eigh(extra_r, intra_r)
    keep = int(np.sum(solution.values > 1.0 + UNIT_EIGENVALUE_TOL))
    fallback = keep == 0
    rank = max(min(keep, max_rank), 1)
    w = solution.vectors[:, :rank]

    proj_intra, proj_extra = linalg.ridged(ridge, w.T @ intra @ w, w.T @ extra @ w)
    kernel = linalg.psd_power(proj_intra, -1) - linalg.psd_power(proj_extra, -1)
    kernel = (kernel + kernel.T) / 2.0
    return XqdaModel(w=w.copy(), m=kernel, fallback=fallback)  # not a view of all d x d vectors


def score(model: XqdaModel, gallery, query) -> float:
    """Quadratic cross-view score; lower means more similar, zero on equal."""
    gallery = np.asarray(gallery, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if gallery.shape != query.shape or gallery.shape != (model.w.shape[0],):
        raise ShapeMismatch(
            f"expected two {model.w.shape[0]}-d vectors, got {gallery.shape} and {query.shape}"
        )
    z = model.w.T @ (gallery - query)
    return float(z @ model.m @ z)


def _keyed_rows(model, rows, name):
    """Checked rows and one void key per row; + 0.0 turns -0.0 into 0.0 so
    that equal rows have equal bytes."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.w.shape[0]:
        raise ShapeMismatch(f"{name} must be rows of {model.w.shape[0]} features, got {rows.shape}")
    if not np.isfinite(rows).all():
        raise NonFiniteValue(f"{name} has a NaN or infinite entry")
    rows = rows + 0.0
    return rows, rows.view(f"V{8 * rows.shape[1]}").ravel()


def score_matrix(model: XqdaModel, gallery, probes) -> np.ndarray:
    """All probe-vs-gallery scores at once; rows are probes.

    Each distinct row is projected and scored once, so equal gallery rows
    give equal columns, equal probes give equal rows, and a probe equal to
    a gallery row scores exactly 0.0, as `score` does.
    """
    return _gallery_scorer(model, gallery)(probes)


def _gallery_scorer(model, gallery):
    """score_matrix's gallery work, done once: its distinct rows are coded,
    projected, centred on their mean and given their self terms. Returns
    probes -> scores, which codes and projects only the probes."""
    gallery, keys = _keyed_rows(model, gallery, "gallery")
    first, gcode = dataio.first_appearance_codes(keys)
    order = np.argsort(keys[first])
    sorted_keys = keys[first[order]]
    zg = gallery[first] @ model.w
    centre = zg.mean(axis=0) if len(zg) else 0.0  # the score depends on g - q only
    zg -= centre
    gself = np.einsum("ur,ur->u", zg @ model.m, zg)
    gcode = None if np.array_equal(gcode, np.arange(len(gcode))) else gcode

    def scores(probes):
        probes, keys = _keyed_rows(model, probes, "probes")
        pfirst, pcode = dataio.first_appearance_codes(keys)
        keys = keys[pfirst]
        zq = probes[pfirst] @ model.w - centre
        zqm = zq @ model.m
        block = zqm @ zg.T
        block *= -2.0
        block += np.einsum("ur,ur->u", zqm, zq)[:, None]
        block += gself[None, :]
        if len(order):  # probes equal to a gallery row, found among its sorted keys
            at = np.minimum(np.searchsorted(sorted_keys, keys), len(order) - 1)
            same = np.flatnonzero(sorted_keys[at] == keys)
            block[same, order[at[same]]] = 0.0
        if np.array_equal(pcode, np.arange(len(pcode))):
            return block if gcode is None else block[:, gcode]
        return block[pcode] if gcode is None else block[np.ix_(pcode, gcode)]

    return scores
