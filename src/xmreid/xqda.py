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
way for cross-checking.
"""

from dataclasses import dataclass

import numpy as np

from . import dataio, linalg
from .errors import (
    DegenerateMetric,
    InvalidConfig,
    MalformedHeader,
    MissingView,
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


def _check_inputs(features, identities, views):
    features = np.asarray(features, dtype=np.float64)
    identities = np.asarray(identities)
    views = np.asarray(views)
    if features.ndim != 2 or len(identities) != features.shape[0] or len(views) != features.shape[0]:
        raise ShapeMismatch("features, identities, and views must be row-aligned")
    unique = list(dict.fromkeys(identities.tolist()))
    if len(unique) < 2:
        raise TooFewIdentities("need at least two identities for extra-personal pairs")
    for identity in unique:
        mask = identities == identity
        present = set(views[mask].tolist())
        if not {1, 2} <= present:
            raise MissingView(f"identity {identity!r} lacks a sample in one view")
    return features, identities, views, unique


def build_difference_covariances(features, identities, views):
    """(S_I, S_E): second moments of same/different-identity cross-view pairs.

    Uses the class-mean expansion: with per-identity view sums s1_i, s2_i,
    counts n1_i, n2_i, and per-view raw second moments, the sum over pairs of
    (g - q)(g - q)^T needs no pair loop. Extra-personal pairs are all pairs
    minus the same-identity ones.
    """
    features, identities, views, unique = _check_inputs(features, identities, views)
    dim = features.shape[1]
    v1 = features[views == 1]
    v2 = features[views == 2]
    id1 = identities[views == 1]
    id2 = identities[views == 2]

    n1 = np.array([(id1 == i).sum() for i in unique], dtype=np.float64)
    n2 = np.array([(id2 == i).sum() for i in unique], dtype=np.float64)
    sums1 = np.stack([v1[id1 == i].sum(axis=0) for i in unique])
    sums2 = np.stack([v2[id2 == i].sum(axis=0) for i in unique])

    # Per-row weights: how many counterpart-view samples share the identity.
    lookup = {identity: row for row, identity in enumerate(unique)}
    w1 = np.array([n2[lookup[i]] for i in id1.tolist()])
    w2 = np.array([n1[lookup[i]] for i in id2.tolist()])

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


def _shared_ridge(first, second, ridge):
    # One scale for both matrices: mean trace over dimension. A per-matrix
    # scale would vanish with the intra-covariance (identical views), leaving
    # the generalized eigenproblem ill-posed.
    dim = first.shape[0]
    scale = ridge * (np.trace(first) + np.trace(second)) / (2.0 * dim)
    eye = scale * np.eye(dim)
    return first + eye, second + eye


def fit_xqda(features, identities, views, ridge=DEFAULT_RIDGE,
             max_rank=DEFAULT_MAX_RANK, zscore=False) -> XqdaModel:
    """Learn the XQDA subspace and kernel from labelled cross-view features.

    Directions with generalized eigenvalue above 1 + UNIT_EIGENVALUE_TOL separate
    extra-personal from intra-personal variation and are kept (up to
    max_rank); if none qualify the strongest direction is kept anyway and
    the model is flagged as a fallback. Optional per-dimension z-scoring is
    folded into W so scoring still consumes raw features.
    """
    if not (np.isfinite(ridge) and ridge >= 0):
        raise InvalidConfig(f"ridge must be finite and >= 0, got {ridge}")
    if max_rank < 1:
        raise InvalidConfig(f"max_rank must be >= 1, got {max_rank}")
    features, identities, views, _ = _check_inputs(features, identities, views)

    scale = None
    work = features
    if zscore:
        scale = features.std(axis=0)
        scale[scale < 1e-12] = 1.0  # near-constant columns stay unscaled
        work = (features - features.mean(axis=0)) / scale

    intra, extra = build_difference_covariances(work, identities, views)
    if np.trace(intra) + np.trace(extra) <= 0.0:
        raise DegenerateMetric("both difference covariances vanish")

    extra_r, intra_r = _shared_ridge(extra, intra, ridge)
    solution = linalg.gen_eigh(extra_r, intra_r)
    keep = int(np.sum(solution.values > 1.0 + UNIT_EIGENVALUE_TOL))
    fallback = keep == 0
    rank = max(min(keep, max_rank), 1)
    w = solution.vectors[:, :rank].copy()

    proj_intra, proj_extra = _shared_ridge(w.T @ intra @ w, w.T @ extra @ w, ridge)
    kernel = linalg.psd_power(proj_intra, -1) - linalg.psd_power(proj_extra, -1)
    kernel = (kernel + kernel.T) / 2.0

    if scale is not None:
        w = w / scale[:, None]
    return XqdaModel(w=w, m=kernel, fallback=fallback)


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


def score_matrix(model: XqdaModel, gallery, probes) -> np.ndarray:
    """All probe-vs-gallery scores at once; rows are probes."""
    gallery = np.asarray(gallery, dtype=np.float64)
    probes = np.asarray(probes, dtype=np.float64)
    zg = gallery @ model.w
    zq = probes @ model.w
    diff = zq[:, None, :] - zg[None, :, :]
    return np.einsum("pgr,rs,pgs->pg", diff, model.m, diff)


# -- model file ------------------------------------------------------------------

XQDA_MAGIC = "XMREID-XQDA 3"
_SHAPES = {"w": ("d", "r"), "m": ("r", "r"), "fallback": ()}


def save_model(model: XqdaModel, path):
    dataio.save_blocks(path, XQDA_MAGIC, {name: getattr(model, name) for name in _SHAPES})


def load_model(path) -> XqdaModel:
    blocks, _ = dataio.load_blocks(path, XQDA_MAGIC, _SHAPES)
    if blocks["fallback"] not in (0.0, 1.0):
        raise MalformedHeader(f"{path}: fallback must be 0 or 1")
    blocks["fallback"] = bool(blocks["fallback"])
    return XqdaModel(**blocks)
