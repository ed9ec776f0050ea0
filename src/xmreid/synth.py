"""Synthetic paired-modality data and independent brute-force oracles.

The generator draws one latent per identity, shifts it per camera view, and
mixes it through fixed random full-rank maps into the vision and language
feature spaces, with per-sample Gaussian noise at modality-specific scales:

    z_id ~ N(0, I_s);  z_view = z_id + shift_view
    x = A z_view + sigma_x * eps;   y = B z_view + sigma_y * eps

Language noise defaults to twice the vision noise so the language-only
scenario lands below vision-only, mirroring the qualitative gap seen on real
data. Two optional structure terms (both default to zero, reducing to the
plain formula above) make multi-modal fusion genuinely informative:

  * private latent dims: identity traits only one modality observes; A sees
    the shared plus vision-private components, B the shared plus
    language-private ones. These are what language-only matching exploits
    beyond the shared factors, and why full concatenation beats vision alone.
  * per-sample nuisance: a disturbance u drawn per sample that leaks into
    both x and y of that sample (a description is written about one specific
    image, so pose/occlusion effects correlate the modalities). A metric
    over concatenated features can cancel it; single-modality metrics
    cannot.
  * vision leak: vision observes the language-private traits faintly (a
    barely visible logo that the annotator still mentions). The query's
    canonical language projection then matches a weak but genuine signal in
    the gallery's vision features, which is what lets a language-enriched
    query beat the vision-only query at first order.

With both terms on, the scenario ordering VxL < LxL < VxV < VxVL < VLxVL
holds by construction instead of by luck. Every draw comes from a keyed
Philox stream (see rng.py) so files are byte-reproducible and generation can
be partitioned per identity.

The oracles at the bottom are deliberately naive re-derivations (grid search,
explicit pair enumeration, Monte Carlo, and the row-by-row Cholesky,
triangular substitution and cyclic Jacobi that `linalg` replaced with LAPACK,
and the sample-at-a-time text CNN backpropagation that `textcnn` replaced
with batched GEMMs) that never share a code path with the modules they check
beyond numpy itself.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng as streams
from .dataio import AttributeTable, Dataset, SplitAssignment
from .errors import (DimensionNotTwo, InvalidConfig, MissingView, NoConvergence,
                     NotPositiveDefinite, TooFewIdentities, TooLarge)
from .textcnn import Gradients

_FILLER = ("a", "the", "with", "and", "wearing", "person", "seen", "is")
_COLORS = ("red", "blue", "green", "black", "white", "grey", "brown", "purple",
           "olive", "teal", "maroon", "navy")
_GARMENTS = ("shirt", "jacket", "jeans", "skirt", "coat", "scarf", "boots",
             "sneakers", "hat", "bag", "glasses", "gloves")


@dataclass
class SynthConfig:
    identity_count: int = 50
    samples_per_view: int = 4
    latent_dim: int = 5               # shared between the modalities
    vision_private_dim: int = 0       # identity traits only vision observes
    language_private_dim: int = 0     # identity traits only language observes
    vision_dim: int = 32
    language_dim: int = 16
    vision_noise: float = 0.5
    language_noise: float = 1.0
    view_shift: float = 0.5
    nuisance_dim: int = 0             # per-sample disturbance shared by x and y
    nuisance_scale: float = 0.0
    vision_leak: float = 0.0          # how faintly vision sees language-private traits
    attribute_bits: int = 15
    num_splits: int = 20
    train_fraction: float = 0.5
    seed: int = 42

    def validate(self):
        counts = (self.identity_count, self.samples_per_view, self.latent_dim,
                  self.vision_dim, self.language_dim, self.attribute_bits,
                  self.num_splits)
        if any(c < 1 for c in counts):
            raise InvalidConfig("all counts must be >= 1")
        if min(self.vision_private_dim, self.language_private_dim, self.nuisance_dim) < 0:
            raise InvalidConfig("private latent and nuisance dims must be >= 0")
        scales = (self.vision_noise, self.language_noise, self.view_shift,
                  self.nuisance_scale, self.vision_leak)
        if any(s < 0 for s in scales):
            raise InvalidConfig("noise and shift scales must be >= 0")
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig("train_fraction must lie strictly inside (0, 1)")
        if self.identity_count > 2 ** self.attribute_bits:
            raise InvalidConfig("not enough attribute patterns for unique identities")


def reference_config() -> SynthConfig:
    """Calibrated benchmark config for the five-scenario ordering.

    Frozen after a seed sweep (master seeds 40..45 all give the strict
    ordering VxL < LxL < VxV < VxVL < VLxVL with VLxVL at least 20 points
    above VxV): vision leak plus per-sample nuisance supply the two effects
    the ordering depends on, and the matching CCA rank for evaluation is
    latent_dim + language_private_dim = 7.
    """
    return SynthConfig(
        identity_count=60,
        samples_per_view=6,
        latent_dim=3,
        vision_private_dim=3,
        language_private_dim=4,
        vision_dim=24,
        language_dim=14,
        vision_noise=0.6,
        language_noise=1.0,
        nuisance_dim=26,
        nuisance_scale=0.7,
        vision_leak=0.5,
        num_splits=20,
        seed=42,
    )


def reference_cca_rank(config: SynthConfig) -> int:
    """Canonical pairs worth keeping: shared plus leaked language-private."""
    return config.latent_dim + config.language_private_dim


def reference_attribute_config() -> SynthConfig:
    """Single-shot, attribute-heavy config for the bit-flip degradation runs.

    Vision noise is high enough that attributes dominate the fused feature,
    mirroring the regime where annotations are worth more than pixels.
    """
    return SynthConfig(
        identity_count=60,
        samples_per_view=1,
        latent_dim=3,
        vision_private_dim=3,
        language_private_dim=0,
        vision_dim=24,
        language_dim=8,
        vision_noise=2.0,
        language_noise=2.0,
        attribute_bits=15,
        num_splits=10,
        seed=42,
    )


def identity_label(index):
    return f"id{index:04d}"


def gen_paired(config: SynthConfig) -> Dataset:
    """Seed-deterministic paired vision/language dataset.

    The full identity latent is [shared | vision-private | language-private];
    the vision mixing sees the first two blocks, the language mixing the
    first and third. With zero private dims both modalities observe the same
    latent vector. Rows run identity by identity, view 1 before view 2.
    """
    config.validate()
    shared = config.latent_dim
    x_dims = shared + config.vision_private_dim
    total = x_dims + config.language_private_dim
    x_slice = np.arange(x_dims)
    y_slice = np.concatenate([np.arange(shared), np.arange(x_dims, total)])

    mix = streams.stream(config.seed, streams.MIXING)
    a = mix.standard_normal((config.vision_dim, x_dims))
    b = mix.standard_normal((config.language_dim, y_slice.size))
    shifts = {
        1: config.view_shift * mix.standard_normal(total),
        2: config.view_shift * mix.standard_normal(total),
    }
    nuis = config.nuisance_dim if config.nuisance_scale > 0.0 else 0
    if nuis:
        c_x = mix.standard_normal((config.vision_dim, nuis))
        c_y = mix.standard_normal((config.language_dim, nuis))
    leak = config.vision_leak if config.language_private_dim else 0.0
    if leak > 0.0:
        a_leak = mix.standard_normal((config.vision_dim, config.language_private_dim))
        yp_slice = np.arange(x_dims, total)
    rows = []
    for idx in range(config.identity_count):
        gen = streams.stream(config.seed, streams.LATENT, idx)
        latent = gen.standard_normal(total)
        label = identity_label(idx)
        for view in (1, 2):
            shifted = latent + shifts[view]
            for _ in range(config.samples_per_view):
                x = a @ shifted[x_slice] + config.vision_noise * gen.standard_normal(config.vision_dim)
                y = b @ shifted[y_slice] + config.language_noise * gen.standard_normal(config.language_dim)
                if leak > 0.0:
                    x += leak * (a_leak @ shifted[yp_slice])
                if nuis:
                    u = config.nuisance_scale * gen.standard_normal(nuis)
                    x += c_x @ u
                    y += c_y @ u
                rows.append((label, view, x, y))
    ids, views, xs, ys = zip(*rows)
    return Dataset(identities=np.array(ids), views=np.array(views),
                   vision=np.array(xs), language=np.array(ys))


def gen_attributes(config: SynthConfig) -> AttributeTable:
    """Unique random bit vectors, one per identity."""
    config.validate()
    gen = streams.stream(config.seed, streams.ATTRIBUTES)
    table = AttributeTable(width=config.attribute_bits)
    seen = set()
    for idx in range(config.identity_count):
        while True:
            bits = gen.integers(0, 2, size=config.attribute_bits, dtype=np.uint8)
            key = bits.tobytes()
            if key not in seen:
                seen.add(key)
                break
        table.bits[identity_label(idx)] = bits
    return table


def gen_splits(config: SynthConfig):
    """Random train/test partitions of the identities."""
    config.validate()
    labels = [identity_label(i) for i in range(config.identity_count)]
    n_train = round(config.train_fraction * config.identity_count)
    n_train = min(max(n_train, 1), config.identity_count - 1)
    splits = []
    for index in range(1, config.num_splits + 1):
        gen = streams.stream(config.seed, streams.SPLIT_GEN, index)
        order = gen.permutation(config.identity_count)
        roles = {}
        for rank, which in enumerate(order):
            roles[labels[which]] = "train" if rank < n_train else "test"
        splits.append(SplitAssignment(index=index, roles=dict(sorted(roles.items()))))
    return splits


def gen_corpus(config: SynthConfig):
    """Toy descriptions: each identity keeps a signature colour+garment pair
    per view, wrapped in shuffled filler words."""
    config.validate()
    gen = streams.stream(config.seed, streams.CORPUS)
    records = []
    for idx in range(config.identity_count):
        label = identity_label(idx)
        colour = _COLORS[idx % len(_COLORS)]
        garment = _GARMENTS[(idx // len(_COLORS)) % len(_GARMENTS)]
        for view in (1, 2):
            filler = list(_FILLER)
            gen.shuffle(filler)
            extra = _COLORS[int(gen.integers(0, len(_COLORS)))]
            words = filler[:3] + [colour, garment] + filler[3:5] + [extra]
            records.append((label, view, " ".join(words)))
    return records


def gen_vocabulary_embeddings(config: SynthConfig, dim=12):
    """Random embedding table covering the toy corpus vocabulary."""
    from .dataio import EmbeddingTable

    gen = streams.stream(config.seed, streams.CORPUS, 1)
    table = EmbeddingTable(dimension=dim)
    for token in (*_FILLER, *_COLORS, *_GARMENTS):
        table.vectors[token] = gen.standard_normal(dim)
    return table


# -- oracles ----------------------------------------------------------------------

def oracle_cca_grid(x, y, step_degrees=0.5):
    """Best empirical correlation over a dense grid of 2-D direction pairs.

    Exhaustive stand-in for the first canonical correlation: every direction
    is unit-variance scaled, and the maximum absolute correlation over the
    grid is returned. Only defined for two-dimensional views.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != 2 or y.shape[1] != 2:
        raise DimensionNotTwo("grid oracle requires samples-by-2 matrices")
    angles = np.deg2rad(np.arange(0.0, 180.0, step_degrees))
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def normalized(view):
        proj = (view - view.mean(axis=0)) @ directions.T
        norms = np.linalg.norm(proj, axis=0)
        return proj / np.maximum(norms, 1e-300)

    corr = normalized(x).T @ normalized(y)
    return float(np.abs(corr).max())


def oracle_pairwise_covariances(features, identities, views, pair_cap=10_000):
    """Difference covariances by explicit pair enumeration.

    Loops over every same-identity and different-identity cross-view pair and
    averages the outer products of the differences, exactly as defined. Kept
    deliberately quadratic; refuses datasets beyond pair_cap pairs.
    """
    features = np.asarray(features, dtype=np.float64)
    identities = list(identities)
    views = list(views)
    if len(set(identities)) < 2:
        raise TooFewIdentities("need at least two identities to form extra-personal pairs")
    first = [i for i, v in enumerate(views) if v == 1]
    second = [i for i, v in enumerate(views) if v == 2]
    for identity in set(identities):
        if not any(identities[i] == identity for i in first) or not any(
            identities[i] == identity for i in second
        ):
            raise MissingView(f"identity {identity!r} is missing a view")
    if len(first) * len(second) > pair_cap:
        raise TooLarge(f"{len(first) * len(second)} pairs exceed the cap {pair_cap}")

    dim = features.shape[1]
    intra = np.zeros((dim, dim))
    extra = np.zeros((dim, dim))
    intra_n = 0
    extra_n = 0
    for g in first:
        for q in second:
            diff = features[g] - features[q]
            outer = np.outer(diff, diff)
            if identities[g] == identities[q]:
                intra += outer
                intra_n += 1
            else:
                extra += outer
                extra_n += 1
    return intra / intra_n, extra / extra_n


def oracle_cmc_chance(gallery_size, probes, trials, rng):
    """Monte Carlo CMC under i.i.d. random scores; analytic target is K/G."""
    if trials < 1 or probes < 1:
        raise InvalidConfig("probes and trials must be >= 1")
    total = probes * trials
    counts = np.zeros(gallery_size, dtype=np.int64)
    chunk = max(1, min(total, 200_000 // max(gallery_size, 1)))
    done = 0
    while done < total:
        take = min(chunk, total - done)
        scores = rng.random((take, gallery_size))
        # correct entry fixed at column 0; rank = 1 + number of better scores
        ranks = 1 + (scores < scores[:, :1]).sum(axis=1)
        counts += np.bincount(ranks, minlength=gallery_size + 1)[1:]
        done += take
    return np.cumsum(counts) / total


# -- solver oracles -----------------------------------------------------------
# Explicit O(n^3) algorithms in float64, one Python-level step per pivot,
# substitution row or rotation, so every intermediate is easy to audit.

PIVOT_RTOL = 1e-12
JACOBI_OFF_RTOL = 1e-12
JACOBI_SWEEP_CAP = 100


def oracle_cholesky(a):
    """Row-by-row Cholesky factor L with L L^T = A.

    Raises NotPositiveDefinite when a pivot falls at or below
    1e-12 * trace(A)/n.
    """
    a = np.asarray(a, dtype=np.float64)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    pivot_floor = max(PIVOT_RTOL * np.trace(a) / n, 0.0)
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= pivot_floor:
            raise NotPositiveDefinite(f"pivot {pivot:.6e} at column {j}")
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def _offdiag_norm(a) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _rotate(a, vecs, p, q):
    # One Jacobi rotation zeroing a[p, q], accumulated into vecs.
    apq = a[p, q]
    if apq == 0.0:
        return
    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
    sign = 1.0 if theta >= 0.0 else -1.0
    t = sign / (abs(theta) + math.hypot(1.0, theta))
    c = 1.0 / math.hypot(1.0, t)
    s = t * c

    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    a[p, q] = a[q, p] = 0.0

    v_p = vecs[:, p].copy()
    v_q = vecs[:, q].copy()
    vecs[:, p] = c * v_p - s * v_q
    vecs[:, q] = s * v_p + c * v_q


def _fix_signs(vecs):
    # Deterministic orientation: first non-negligible component made positive.
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        floor = 1e-12 * np.abs(col).max()
        for value in col:
            if abs(value) > floor:
                if value < 0.0:
                    vecs[:, j] = -col
                break


def oracle_jacobi_eigh(a):
    """(values, vectors) of a symmetric matrix by cyclic Jacobi sweeps.

    Converged when the off-diagonal Frobenius norm falls below
    1e-12 * ||A||_F; raises NoConvergence if JACOBI_SWEEP_CAP sweeps are not
    enough. Eigenvalues come back descending and ties keep their order of
    emergence from the sweep; each eigenvector has its first non-negligible
    component positive.
    """
    a = np.asarray(a, dtype=np.float64)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    work = a.copy()
    vecs = np.eye(n)
    off_floor = JACOBI_OFF_RTOL * np.linalg.norm(a)
    converged = _offdiag_norm(work) <= off_floor
    for _ in range(JACOBI_SWEEP_CAP):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(work, vecs, p, q)
        converged = _offdiag_norm(work) <= off_floor
    if not converged:
        raise NoConvergence(f"off-diagonal mass remains after {JACOBI_SWEEP_CAP} sweeps")
    values = np.diag(work).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vecs = vecs[:, order]
    _fix_signs(vecs)
    return values, vecs


def _solve_lower(lower, b):
    # X with L X = B by forward substitution; B may be a vector or matrix.
    b = np.asarray(b, dtype=np.float64)
    x = b.reshape(b.shape[0], -1).copy()
    for i in range(lower.shape[0]):
        x[i] = (x[i] - lower[i, :i] @ x[:i]) / lower[i, i]
    return x.reshape(b.shape)


def _solve_lower_transpose(lower, b):
    # X with L^T X = B by back substitution.
    b = np.asarray(b, dtype=np.float64)
    x = b.reshape(b.shape[0], -1).copy()
    for i in reversed(range(lower.shape[0])):
        x[i] = (x[i] - lower[i + 1:, i] @ x[i + 1:]) / lower[i, i]
    return x.reshape(b.shape)


def oracle_gen_eigh(a, b):
    """(values, vectors) with A v = lambda B v, B positive definite.

    Reduction by the oracle Cholesky B = L L^T, Jacobi on L^-1 A L^-T by
    substitution, and back-substitution V = L^-T V~; columns of V are
    B-orthonormal and eigenvalues come back descending.
    """
    lower = oracle_cholesky(b)
    half = _solve_lower(lower, a)
    # The Jacobi oracle symmetrizes the reduced matrix.
    values, inner = oracle_jacobi_eigh(_solve_lower(lower, half.T).T)
    vecs = _solve_lower_transpose(lower, inner)
    _fix_signs(vecs)
    return values, vecs


# -- text CNN oracle ---------------------------------------------------------------
# One sample at a time: a tensordot per channel response, outer products for
# the FC gradients and one window copy per active channel for the kernels.


def oracle_cnn_loss_and_gradients(model, tensor, label, dropout_mask=None):
    """(loss, Gradients) of one sample; a given dropout_mask (H booleans,
    True = kept) applies inverted dropout at the model's rate."""
    cfg = model.config
    x = tensor.values
    windows = sliding_window_view(x, cfg.kernel_width, axis=1)  # E x P x w
    pre = np.tensordot(model.conv_w, windows, axes=[(1, 2), (0, 2)]) + model.conv_b[:, None]
    conv = np.maximum(pre, 0.0)
    argmax = conv.argmax(axis=1)
    pooled = conv[np.arange(conv.shape[0]), argmax]
    fc1 = np.maximum(model.fc1_w @ pooled + model.fc1_b, 0.0)
    hidden = fc1
    if dropout_mask is not None:
        hidden = fc1 * dropout_mask / (1.0 - cfg.dropout)
    logits = model.fc2_w @ hidden + model.fc2_b

    shift = logits - logits.max()
    exp = np.exp(shift)
    total = exp.sum()
    loss = math.log(total) - shift[label]
    dlogits = exp / total
    dlogits[label] -= 1.0

    dfc2_w = np.outer(dlogits, hidden)
    dhidden = model.fc2_w.T @ dlogits
    if dropout_mask is not None:
        dhidden = dhidden * dropout_mask / (1.0 - cfg.dropout)
    dfc1_pre = dhidden * (fc1 > 0.0)
    dfc1_w = np.outer(dfc1_pre, pooled)
    dpooled = model.fc1_w.T @ dfc1_pre

    # A zero pooled value means the whole channel was clipped by the ReLU.
    dpeak = dpooled * (pooled > 0.0)
    dconv_w = np.zeros_like(model.conv_w)
    for channel in np.nonzero(dpeak)[0]:
        start = argmax[channel]
        dconv_w[channel] = dpeak[channel] * x[:, start : start + cfg.kernel_width]
    return loss, Gradients(dconv_w, dpeak, dfc1_w, dfc1_pre, dfc2_w, dlogits)
