"""Regularized canonical correlation analysis and scenario feature fusion.

CCA finds paired projections W_x, W_y maximizing tr(W_x^T S_xy W_y) under the
unit-variance constraints W_x^T S_xx W_x = W_y^T S_yy W_y = I. We solve it by
whitening both covariances with pseudo-inverse square roots and taking the
eigendecomposition of the whitened cross-covariance's Gram matrix, which is
the generalized-eigenproblem route expressed through the plain symmetric
solver. Covariances carry a relative ridge so 2048-dimensional features with
few training samples stay invertible.

SCENARIO_SPEC is the one table of the six evaluation scenarios: vision-only,
language-only, cross-modal, query-enriched, full concatenation, and
vision-plus-attributes. fuse() builds their gallery/query vectors from it.
"""

from dataclasses import dataclass

import numpy as np

from . import dataio, linalg
from .errors import (
    InvalidConfig,
    KOutOfRange,
    MissingModality,
    MissingModel,
    ShapeMismatch,
    TooFewSamples,
)

DEFAULT_RIDGE = 1e-4
DEFAULT_RANK_BUDGET = 128

GALLERY = "gallery"
QUERY = "query"

# Per side, the parts a scenario concatenates in order (cca_x/cca_y: the
# canonical projections W_x^T x, W_y^T y). The order keys the rng streams.
SCENARIO_SPEC = {
    "VxV": {GALLERY: ("vision",), QUERY: ("vision",)},
    "LxL": {GALLERY: ("language",), QUERY: ("language",)},
    "VxL": {GALLERY: ("cca_x",), QUERY: ("cca_y",)},
    "VxVL": {GALLERY: ("vision", "cca_x"), QUERY: ("vision", "cca_y")},
    "VLxVL": {GALLERY: ("vision", "language"), QUERY: ("vision", "language")},
    "VAxVA": {GALLERY: ("vision", "attribute"), QUERY: ("vision", "attribute")},
}
SCENARIOS = tuple(SCENARIO_SPEC)
# The fuse() keyword, i.e. the dataset record field, each part is built from.
PART_SOURCES = {"vision": "vision", "language": "language", "attribute": "attributes",
                "cca_x": "vision", "cca_y": "language"}


def scenario_sources(scenario):
    """The record fields a scenario reads on either side, sorted."""
    return sorted({PART_SOURCES[p] for side in SCENARIO_SPEC[scenario].values() for p in side})


@dataclass
class CcaModel:
    """Paired projections with their canonical correlations and centerings."""

    w_x: np.ndarray          # d_x x k
    w_y: np.ndarray          # d_y x k
    correlations: np.ndarray  # k, descending, in [0, 1]
    mean_x: np.ndarray
    mean_y: np.ndarray
    ridge: float

    @property
    def k(self):
        return self.w_x.shape[1]


def regularized_cov(x, ridge) -> np.ndarray:
    """Population covariance (divisor n) plus ridge * (trace/d) * I."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise TooFewSamples(f"need a samples-by-dim matrix with >= 2 rows, got {x.shape}")
    if ridge < 0:
        raise InvalidConfig(f"ridge must be >= 0, got {ridge}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    dim = cov.shape[0]
    return cov + ridge * (np.trace(cov) / dim) * np.eye(dim)


def _complete_orthonormal(columns, index, dim):
    # Fallback direction for a vanishing correlation: any unit vector
    # orthogonal to the columns already placed.
    for basis in range(dim):
        candidate = np.zeros(dim)
        candidate[basis] = 1.0
        candidate -= columns[:, :index] @ (columns[:, :index].T @ candidate)
        norm = np.linalg.norm(candidate)
        if norm > 1e-8:
            return candidate / norm
    raise KOutOfRange("cannot complete an orthonormal set; k exceeds the usable rank")


def fit_cca(x, y, k=None, ridge=DEFAULT_RIDGE, zscore=False) -> CcaModel:
    """Top-k canonical projection pairs of row-aligned sample matrices.

    k defaults to min(d_x, d_y, DEFAULT_RANK_BUDGET).
    Whitening uses pseudo-inverse square roots (eigenvalues below 1e-10 of
    the largest are treated as null directions), and the returned
    correlations are clipped into [0, 1]. Correlations are invariant to
    per-dimension z-scoring; the flag only changes the ridge geometry and is
    folded into the projections so project() still consumes raw features.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"X and Y must be row-aligned, got {x.shape} and {y.shape}")
    if x.shape[0] < 2:
        raise TooFewSamples("CCA needs at least 2 paired samples")
    if k is None:
        k = min(x.shape[1], y.shape[1], DEFAULT_RANK_BUDGET)
    if not 1 <= k <= min(x.shape[1], y.shape[1]):
        raise KOutOfRange(f"k={k} outside 1..{min(x.shape[1], y.shape[1])}")

    mean_x = x.mean(axis=0)
    mean_y = y.mean(axis=0)
    scale_x = scale_y = None
    if zscore:
        scale_x = linalg.column_scale(x)
        scale_y = linalg.column_scale(y)
        x = x / scale_x
        y = y / scale_y

    cov_xx = regularized_cov(x, ridge)
    cov_yy = regularized_cov(y, ridge)
    cov_xy = (x - x.mean(axis=0)).T @ (y - y.mean(axis=0)) / x.shape[0]

    white_x = linalg.psd_power(cov_xx, -0.5)
    white_y = linalg.psd_power(cov_yy, -0.5)
    coupling = white_x @ cov_xy @ white_y
    gram = coupling @ coupling.T
    values, u_vecs = linalg.eigh((gram + gram.T) / 2.0)

    rho = np.sqrt(np.clip(values[:k], 0.0, None))
    u_k = u_vecs[:, :k]
    v_k = np.zeros((y.shape[1], k))
    for i in range(k):
        candidate = coupling.T @ u_k[:, i]
        norm = np.linalg.norm(candidate)
        if norm > 1e-12:
            v_k[:, i] = candidate / norm
        else:
            v_k[:, i] = _complete_orthonormal(v_k, i, y.shape[1])

    w_x = white_x @ u_k
    w_y = white_y @ v_k
    if zscore:
        w_x = w_x / scale_x[:, None]
        w_y = w_y / scale_y[:, None]
    return CcaModel(
        w_x=w_x,
        w_y=w_y,
        correlations=np.clip(rho, 0.0, 1.0),
        mean_x=mean_x,
        mean_y=mean_y,
        ridge=ridge,
    )


def project(model: CcaModel, side, features):
    """W^T (feature - mean) for the chosen side ('x' or 'y').

    Accepts a single vector or a samples-by-dim matrix.
    """
    if side == "x":
        w, mean = model.w_x, model.mean_x
    elif side == "y":
        w, mean = model.w_y, model.mean_y
    else:
        raise InvalidConfig(f"side must be 'x' or 'y', got {side!r}")
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"feature dim {features.shape[-1]} != model dim {w.shape[0]}")
    return (features - mean) @ w


def fuse(scenario, vision=None, language=None, model=None, side=GALLERY, attributes=None):
    """Concatenate the parts SCENARIO_SPEC lists for one side of a scenario.

    Each modality is a single vector or a rows-by-dim matrix; the result has
    the same leading shape. cca_x/cca_y parts need a fitted CCA model.
    """
    if scenario not in SCENARIO_SPEC:
        raise InvalidConfig(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    if side not in (GALLERY, QUERY):
        raise InvalidConfig(f"side must be '{GALLERY}' or '{QUERY}', got {side!r}")
    parts = SCENARIO_SPEC[scenario][side]
    if model is None and any(part.startswith("cca_") for part in parts):
        raise MissingModel(f"scenario {scenario} needs a fitted CCA model")
    given = {"vision": vision, "language": language, "attributes": attributes}
    pieces = []
    for part in parts:
        value = given[PART_SOURCES[part]]
        if value is None:
            raise MissingModality(f"scenario {scenario} ({side}) needs {PART_SOURCES[part]}")
        value = np.asarray(value, dtype=np.float64)
        if part == "attribute":
            value = 2.0 * value - 1.0  # bits onto {-1, +1}
        elif part.startswith("cca_"):
            value = project(model, part[-1], value)
        pieces.append(value)
    return np.concatenate(pieces, axis=-1)


# -- model file ------------------------------------------------------------------

CCA_MAGIC = "XMREID-CCA 2"
_SHAPES = {"w_x": ("d_x", "k"), "w_y": ("d_y", "k"), "correlations": ("k",),
           "mean_x": ("d_x",), "mean_y": ("d_y",), "ridge": ()}


def save_model(model: CcaModel, path):
    dataio.save_blocks(path, CCA_MAGIC, {name: getattr(model, name) for name in _SHAPES})


def load_model(path) -> CcaModel:
    blocks, _ = dataio.load_blocks(path, CCA_MAGIC, _SHAPES)
    blocks["ridge"] = float(blocks["ridge"])
    return CcaModel(**blocks)
