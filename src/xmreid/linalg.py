"""Dense linear algebra for the learning stages.

Each solver is a thin wrapper over numpy's LAPACK under one contract: input
must be finite and, for all but svd(), symmetric within a 1e-9 relative
tolerance (it is then symmetrized as (A + A^T)/2); eigen- and singular values
come back descending with each eigenvector (each left singular vector) having
its first non-negligible component positive; and LAPACK failures surface as
package errors. The from-scratch row-by-row Cholesky, triangular substitution
and cyclic Jacobi these replaced are kept in `synth` as oracles. ridged() is
the one ridge rule of CCA and XQDA: ridge * (mean trace over d) * I, one per set.
"""

from typing import NamedTuple

import numpy as np

from .errors import (InvalidConfig, NoConvergence, NonFiniteValue, NotPositiveDefinite, NotSquare,
                     NotSymmetric)

SYMMETRY_RTOL = 1e-9
PIVOT_RTOL = 1e-12
RANGE_RTOL = 1e-10


class EigenResult(NamedTuple):
    """Eigenvalues sorted descending; vectors[:, i] pairs with values[i]."""

    values: np.ndarray
    vectors: np.ndarray


def symmetrized(a) -> np.ndarray:
    """(A + A^T)/2 of a finite square matrix whose asymmetry is below tolerance, or A
    itself if A == A^T bit for bit; norms are taken on A * 2^-e, e max|A|'s exponent."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteValue("matrix has a NaN or infinite entry")
    if not (a.view(np.int64) != a.view(np.int64).T).any():
        return a
    exponent = -np.frexp(max(a.max(), -a.min()))[1]
    size = np.linalg.norm(np.ldexp(a, exponent))
    with np.errstate(over="ignore"):  # an infinite difference is asymmetric anyway
        out = a - a.T
    skew = np.linalg.norm(np.ldexp(out, exponent, out=out))
    if skew > SYMMETRY_RTOL * size:
        raise NotSymmetric(f"relative asymmetry {skew / size:.3e} exceeds {SYMMETRY_RTOL:g}")
    return np.divide(np.add(a, a.T, out=out), 2.0, out=out)


def ridged(ridge, *matrices):
    """Each of k d x d matrices plus e * I, e = ridge * (sum of traces) / (k * d).

    A vanishing matrix (XQDA's S_I on identical views) still gets the shared e.
    A NaN, infinite or negative ridge, or an e that overflows, is InvalidConfig.
    """
    if not (np.isfinite(ridge) and ridge >= 0):
        raise InvalidConfig(f"ridge must be finite and >= 0, got {ridge}")
    dim = matrices[0].shape[0]
    trace = sum(float(np.trace(m)) for m in matrices)
    scale = float(ridge) * trace / (len(matrices) * dim)
    if not np.isfinite(scale) and np.isfinite(trace):
        raise InvalidConfig(f"ridge {ridge} overflows when scaled by the mean trace over d")
    return tuple(m + scale * np.eye(dim) for m in matrices)


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = A.

    Rejects matrices that are not positive definite: any pivot L[j, j]^2 at
    or below 1e-12 * trace(A)/n fails, so semidefinite input is reported
    rather than silently factored into garbage.
    """
    a = symmetrized(a)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"LAPACK Cholesky failed: {exc}") from None
    pivots = np.diag(lower) ** 2
    small = pivots <= max(PIVOT_RTOL * np.trace(a) / a.shape[0], 0.0)
    if small.any():
        j = int(np.argmax(small))
        raise NotPositiveDefinite(f"pivot {pivots[j]:.6e} at column {j}")
    return lower


def _fix_signs(vecs):
    # Deterministic orientation: first non-negligible component made positive.
    # Returns the mask of flipped columns.
    if not vecs.size:
        return np.zeros(vecs.shape[1], dtype=bool)
    mags = np.abs(vecs)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0.0
    vecs[:, flip] *= -1.0
    return flip


def eigh(a) -> EigenResult:
    """Eigendecomposition of a symmetric matrix by LAPACK's symmetric solver.

    Eigenvalues come back descending (a stable sort, so equal values keep
    LAPACK's order) and each eigenvector has its first non-negligible
    component positive. Raises NoConvergence if LAPACK fails.
    """
    a = symmetrized(a)
    try:
        values, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from None
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vecs = vecs[:, order]
    _fix_signs(vecs)
    return EigenResult(values=values, vectors=vecs)


def gen_eigh(a, b) -> EigenResult:
    """Solve A v = lambda B v for symmetric A and positive-definite B.

    Reduction: B = L L^T, then the standard problem on C = L^-1 A L^-T and
    back-substitution V = L^-T V~ (eigh checks and symmetrizes C). Columns of
    V are B-orthonormal (V^T B V = I) and eigenvalues come back descending.
    """
    a = symmetrized(a)
    lower = cholesky(b)
    if a.shape != lower.shape:
        raise NotSquare(f"A is {a.shape} but B is {lower.shape}")
    half = np.linalg.solve(lower, a)
    inner = eigh(np.linalg.solve(lower, half.T).T)
    vecs = np.linalg.solve(lower.T, inner.vectors)
    _fix_signs(vecs)
    return EigenResult(values=inner.values, vectors=vecs)


def svd(a):
    """Thin SVD A = U diag(s) V^T of a finite matrix, singular values descending.

    Each column of U has its first non-negligible component positive and the
    matching row of V^T is flipped with it, so U diag(s) V^T still equals A.
    Raises NonFiniteValue on a NaN/inf entry and NoConvergence if LAPACK fails.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NonFiniteValue("matrix has a NaN or infinite entry")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD failed: {exc}") from None
    vt[_fix_signs(u)] *= -1.0
    return u, s, vt


def psd_power(a, p) -> np.ndarray:
    """Symmetric power A^p of a PSD matrix, restricted to its numerical range.

    Eigenvalues below RANGE_RTOL * lambda_max are treated as zero rank and
    dropped, which is the standard guard when samples < dimensions. With
    p = -1 this is the pseudo-inverse, with p = -1/2 the pseudo-inverse
    square root.
    """
    values, vectors = eigh(a)
    top = values[0] if values.size else 0.0
    keep = values > max(RANGE_RTOL * top, 0.0)
    if not np.any(keep):
        return np.zeros_like(np.asarray(a, dtype=np.float64))
    kept_vecs = vectors[:, keep]
    return (kept_vecs / values[keep] ** -p) @ kept_vecs.T
