"""Regularized canonical correlation analysis and scenario feature fusion.

CCA finds paired projections W_x, W_y maximizing tr(W_x^T S_xy W_y) under the
unit-variance constraints W_x^T S_xx W_x = W_y^T S_yy W_y = I. We solve it by
whitening both covariances with pseudo-inverse square roots and taking one
thin SVD of the whitened cross-covariance S_xx^-1/2 S_xy S_yy^-1/2: its
singular values are the canonical correlations and its singular vector pairs,
mapped back through the whitening, are W_x and W_y. Covariances carry a
relative ridge so 2048-dimensional features with few training samples stay
invertible.

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
# The fuse() keyword, i.e. the dataset column, each part is built from.
PART_SOURCES = {"vision": "vision", "language": "language", "attribute": "attributes",
                "cca_x": "vision", "cca_y": "language"}


def scenario_sources(scenario):
    """The dataset columns a scenario reads on either side, sorted."""
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
    if not (np.isfinite(ridge) and ridge >= 0):
        raise InvalidConfig(f"ridge must be finite and >= 0, got {ridge}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    dim = cov.shape[0]
    return cov + ridge * (np.trace(cov) / dim) * np.eye(dim)


def fit_cca(x, y, k=None, ridge=DEFAULT_RIDGE) -> CcaModel:
    """Top-k canonical projection pairs of row-aligned sample matrices.

    k defaults to min(d_x, d_y, DEFAULT_RANK_BUDGET).
    Whitening uses pseudo-inverse square roots (eigenvalues below 1e-10 of
    the largest are treated as null directions); the canonical pairs are the
    leading singular vector pairs of the whitened cross-covariance, and the
    returned correlations are its singular values clipped into [0, 1].
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
    white_x = linalg.psd_power(regularized_cov(x, ridge), -0.5)
    white_y = linalg.psd_power(regularized_cov(y, ridge), -0.5)
    cov_xy = (x - mean_x).T @ (y - mean_y) / x.shape[0]
    u, rho, vt = linalg.svd(white_x @ cov_xy @ white_y)
    return CcaModel(
        w_x=white_x @ u[:, :k],
        w_y=white_y @ vt[:k].T,
        correlations=np.clip(rho[:k], 0.0, 1.0),
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
