"""Regularized canonical correlation analysis for the cross-modal embedding.

CCA finds paired projections W_x, W_y maximizing tr(W_x^T S_xy W_y) under the
unit-variance constraints W_x^T S_xx W_x = W_y^T S_yy W_y = I. We solve it by
whitening both covariances with pseudo-inverse square roots and taking one
thin SVD of the whitened cross-covariance S_xx^-1/2 S_xy S_yy^-1/2: its
singular values are the canonical correlations and its singular vector pairs,
mapped back through the whitening, are W_x and W_y. Each side is centred
once; linalg.ridged ridges S_xx and S_yy each on its own trace/d, so 2048-d
features with few training samples stay invertible. Which scenarios use the
projections, and beside which other parts, is evaluation.SCENARIO_SPEC's to say.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidConfig, KOutOfRange, ShapeMismatch, TooFewSamples

DEFAULT_RIDGE = 1e-4
DEFAULT_RANK_BUDGET = 128


@dataclass
class CcaModel:
    """Paired projections with their canonical correlations and centerings."""

    w_x: np.ndarray          # d_x x k
    w_y: np.ndarray          # d_y x k
    correlations: np.ndarray  # k, descending, in [0, 1]
    mean_x: np.ndarray
    mean_y: np.ndarray

    @property
    def k(self):
        return self.w_x.shape[1]


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

    mean_x, mean_y = x.mean(axis=0), y.mean(axis=0)
    xc, yc, n = x - mean_x, y - mean_y, x.shape[0]  # centred once for all three covariances
    white_x = linalg.psd_power(linalg.ridged(ridge, xc.T @ xc / n)[0], -0.5)
    white_y = linalg.psd_power(linalg.ridged(ridge, yc.T @ yc / n)[0], -0.5)
    u, rho, vt = linalg.svd(white_x @ (xc.T @ yc / n) @ white_y)
    return CcaModel(
        w_x=white_x @ u[:, :k],
        w_y=white_y @ vt[:k].T,
        correlations=np.clip(rho[:k], 0.0, 1.0),
        mean_x=mean_x,
        mean_y=mean_y,
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
