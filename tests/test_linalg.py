import math

import numpy as np
import pytest

from xmreid import linalg, synth
from xmreid.errors import (
    NoConvergence,
    NonFiniteValue,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
)


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return (m + m.T) / 2.0


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


class TestCholesky:
    def test_identity(self):
        lower = linalg.cholesky(np.eye(3))
        assert np.array_equal(lower, np.eye(3))

    def test_hand_factorization(self):
        # [[4,2],[2,3]] factors as [[2,0],[1,sqrt(2)]]; checked by L L^T.
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = linalg.cholesky(a)
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(lower, expected, rtol=0, atol=1e-14)
        assert np.allclose(lower @ lower.T, a, rtol=1e-10)

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        # LAPACK factors this one, but its second pivot (1e-13) is below
        # 1e-12 * trace/n.
        with pytest.raises(NotPositiveDefinite, match="at column 1"):
            linalg.cholesky(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))

    def test_not_square(self):
        with pytest.raises(NotSquare):
            linalg.cholesky(np.ones((2, 3)))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            linalg.cholesky(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8, 12):
            a = random_spd(rng, n)
            lower = linalg.cholesky(a)
            err = np.linalg.norm(lower @ lower.T - a) / np.linalg.norm(a)
            assert err < 1e-10
            assert np.allclose(np.triu(lower, 1), 0.0)

    def test_roundtrip_from_lower(self):
        # cholesky(L L^T) recovers L for random lower-triangular L with
        # positive diagonal.
        rng = np.random.default_rng(11)
        for n in (2, 4, 7):
            lower = np.tril(rng.standard_normal((n, n)))
            lower[np.diag_indices(n)] = rng.uniform(0.5, 2.0, size=n)
            recovered = linalg.cholesky(lower @ lower.T)
            assert np.linalg.norm(recovered - lower) / np.linalg.norm(lower) < 1e-10


class TestEigh:
    def test_diagonal(self):
        res = linalg.eigh(np.diag([3.0, 1.0]))
        assert np.array_equal(res.values, [3.0, 1.0])
        assert np.array_equal(res.vectors, np.eye(2))

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]] is l^2 - 4l + 3
        res = linalg.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(res.values, [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert np.allclose(res.vectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
        assert np.allclose(res.vectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            a = random_symmetric(rng, n)
            res = linalg.eigh(a)
            norm_a = np.linalg.norm(a)
            resid = np.linalg.norm(a @ res.vectors - res.vectors * res.values)
            assert resid <= 1e-10 * max(norm_a, 1e-30)
            ortho = np.linalg.norm(res.vectors.T @ res.vectors - np.eye(n))
            assert ortho <= 1e-10

    def test_values_descending_and_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_symmetric(rng, 9)
            res = linalg.eigh(a)
            assert np.all(np.diff(res.values) <= 1e-12)
            assert abs(res.values.sum() - np.trace(a)) <= 1e-10 * abs(np.trace(a))

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        res = linalg.eigh(random_symmetric(rng, 6))
        for j in range(6):
            col = res.vectors[:, j]
            lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
            assert lead > 0
        # Leading entries below 1e-12 * max|column| do not decide the sign.
        vecs = np.array([[-1e-13, 3e-13, 0.0],
                         [0.0, -0.8, 0.0],
                         [-0.6, 0.6, 0.0],
                         [0.8, 0.0, 0.0]])
        linalg._fix_signs(vecs)
        assert np.array_equal(vecs, [[1e-13, -3e-13, 0.0],
                                     [0.0, 0.8, 0.0],
                                     [0.6, -0.6, 0.0],
                                     [-0.8, 0.0, 0.0]])
        # Same orientation as the per-element loop of the oracle.
        vecs = rng.standard_normal((40, 30))
        vecs[:3] *= rng.choice([0.0, 1e-14, 1e-11], size=(3, 30))
        expected = vecs.copy()
        synth._fix_signs(expected)
        linalg._fix_signs(vecs)
        assert np.array_equal(vecs, expected)
        # svd orients U's columns the same way and flips V^T's rows with them.
        for shape in ((7, 4), (4, 7)):
            a = rng.standard_normal(shape)
            u, s, vt = linalg.svd(a)
            expected = u.copy()
            linalg._fix_signs(expected)
            assert np.array_equal(u, expected)
            assert np.all(np.diff(s) <= 0.0)
            assert np.allclose((u * s) @ vt, a, atol=1e-12)

    def test_zero_matrix(self):
        res = linalg.eigh(np.zeros((4, 4)))
        assert np.array_equal(res.values, np.zeros(4))


class TestGenEigh:
    def test_identity_b_matches_eigh(self):
        rng = np.random.default_rng(13)
        a = random_symmetric(rng, 5)
        plain = linalg.eigh(a)
        gen = linalg.gen_eigh(a, np.eye(5))
        assert np.allclose(gen.values, plain.values, atol=1e-12)
        assert np.allclose(gen.vectors, plain.vectors, atol=1e-10)

    def test_diagonal_pair(self):
        res = linalg.gen_eigh(np.diag([2.0, 1.0]), np.diag([1.0, 4.0]))
        assert np.allclose(res.values, [2.0, 0.25], atol=1e-12)

    def test_residual_and_b_orthogonality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = random_symmetric(rng, n)
            b = random_spd(rng, n)
            res = linalg.gen_eigh(a, b)
            resid = np.linalg.norm(a @ res.vectors - (b @ res.vectors) * res.values)
            assert resid <= 1e-9 * max(np.linalg.norm(a), 1e-30)
            gram = res.vectors.T @ b @ res.vectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-9

    def test_indefinite_b_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.gen_eigh(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestHelpers:
    def test_inverse_sqrt_psd(self):
        rng = np.random.default_rng(23)
        a = random_spd(rng, 5)
        w = linalg.psd_power(a, -0.5)
        assert np.allclose(w @ a @ w, np.eye(5), atol=1e-9)

    def test_pseudo_inverse_drops_null_space(self):
        a = np.diag([2.0, 1.0, 0.0])
        inv = linalg.psd_power(a, -1)
        assert np.allclose(inv, np.diag([0.5, 1.0, 0.0]), atol=1e-12)


class TestFailures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[0, 2] = a[2, 0] = bad
        with pytest.raises(NonFiniteValue):
            linalg.cholesky(a)
        with pytest.raises(NonFiniteValue):
            linalg.eigh(a)
        with pytest.raises(NonFiniteValue):
            linalg.gen_eigh(a, np.eye(3))
        with pytest.raises(NonFiniteValue):
            linalg.gen_eigh(np.eye(3), a)
        with pytest.raises(NonFiniteValue):
            linalg.svd(a[:, :2])

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "svd", lambda a, full_matrices: fail(a))
        with pytest.raises(NoConvergence):
            linalg.eigh(np.eye(2))
        with pytest.raises(NoConvergence):
            linalg.gen_eigh(np.eye(2), np.eye(2))
        with pytest.raises(NoConvergence):
            linalg.svd(np.eye(2))


def neighbour_gaps(values):
    """Distance from each eigenvalue to its nearest neighbour."""
    gaps = np.full(values.size, np.inf)
    if values.size > 1:
        step = np.abs(np.diff(values))
        gaps[:-1] = step
        gaps[1:] = np.minimum(gaps[1:], step)
    return gaps


def assert_matches_oracle(fast, oracle, norm_a):
    values, vectors = fast
    o_values, o_vectors = oracle
    assert np.abs(values - o_values).max() <= 1e-10 * norm_a
    # Eigenvectors are defined up to sign (fixed by both) only where the
    # eigenvalue is separated; the perturbation bound scales with 1/gap.
    gaps = neighbour_gaps(values)
    separated = gaps > 1e-8 * norm_a
    assert separated.any()
    err = np.linalg.norm(vectors - o_vectors, axis=0)
    assert np.all(err[separated] <= 1e-10 * norm_a / gaps[separated])


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [1, 7, 32, 128])
    def test_eigh_matches_jacobi(self, n):
        a = random_symmetric(np.random.default_rng(29 + n), n)
        fast = linalg.eigh(a)
        assert_matches_oracle(fast, synth.oracle_jacobi_eigh(a), np.linalg.norm(a))

    @pytest.mark.parametrize("n", [1, 7, 32, 128])
    def test_gen_eigh_matches_oracle(self, n):
        rng = np.random.default_rng(31 + n)
        a = random_symmetric(rng, n)
        b = random_spd(rng, n)
        assert np.allclose(linalg.cholesky(b), synth.oracle_cholesky(b),
                           rtol=0, atol=1e-12 * np.linalg.norm(b))
        fast = linalg.gen_eigh(a, b)
        assert_matches_oracle(fast, synth.oracle_gen_eigh(a, b), np.linalg.norm(a))

    @pytest.mark.parametrize("n", [256, 1024])
    def test_large_fast_path_residuals(self, n):
        rng = np.random.default_rng(37 + n)
        a = random_symmetric(rng, n)
        b = random_spd(rng, n)
        norm_a = np.linalg.norm(a)
        values, vectors = linalg.eigh(a)
        assert np.all(np.diff(values) <= 0.0)
        assert np.linalg.norm(a @ vectors - vectors * values) <= 1e-10 * norm_a
        assert np.linalg.norm(vectors.T @ vectors - np.eye(n)) <= 1e-10
        values, vectors = linalg.gen_eigh(a, b)
        assert np.linalg.norm(a @ vectors - (b @ vectors) * values) <= 1e-10 * norm_a
        assert np.linalg.norm(vectors.T @ b @ vectors - np.eye(n)) <= 1e-10
