"""Tour of the dense symmetric solver stack.

Everything downstream (CCA whitening, XQDA metric learning) reduces to three
primitives: Cholesky factorization, the symmetric eigenproblem, and the
generalized symmetric-definite eigenproblem. This script exercises each one
and prints the residuals the test suite holds them to.
"""

import numpy as np

from xmreid import linalg

rng = np.random.default_rng(0)

print("== Cholesky ==")
a = np.array([[4.0, 2.0], [2.0, 3.0]])
lower = linalg.cholesky(a)
print("A =\n", a)
print("L =\n", lower)
print("reconstruction error:", np.linalg.norm(lower @ lower.T - a))

print("\nan indefinite matrix is rejected:")
try:
    linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
except Exception as exc:
    print(" ", type(exc).__name__, "-", exc)

print("\n== symmetric eigendecomposition (LAPACK) ==")
m = rng.standard_normal((6, 6))
sym = (m + m.T) / 2.0
values, vectors = linalg.eigh(sym)
print("eigenvalues (descending):", np.round(values, 4))
print("reconstruction  |A - V diag(v) V^T| =",
      np.linalg.norm(sym - vectors @ np.diag(values) @ vectors.T))
print("orthogonality   |V^T V - I|         =",
      np.linalg.norm(vectors.T @ vectors - np.eye(6)))
print("trace check     |sum(v) - tr(A)|    =", abs(values.sum() - np.trace(sym)))

print("\n== generalized problem A v = lambda B v ==")
c = rng.standard_normal((5, 5))
b = c @ c.T + 5.0 * np.eye(5)
m = rng.standard_normal((5, 5))
a = (m + m.T) / 2.0
values, vectors = linalg.gen_eigh(a, b)
print("eigenvalues:", np.round(values, 4))
print("residual  |A V - B V diag(v)| =",
      np.linalg.norm(a @ vectors - (b @ vectors) * values))
print("B-orthonormality |V^T B V - I| =",
      np.linalg.norm(vectors.T @ b @ vectors - np.eye(5)))

print("\ndiagonal pair sanity: A=diag(2,1), B=diag(1,4) -> eigenvalues (2, 0.25)")
print("  got:", linalg.gen_eigh(np.diag([2.0, 1.0]), np.diag([1.0, 4.0])).values)
