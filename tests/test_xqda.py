import numpy as np
import pytest

from xmreid import synth, xqda
from xmreid.errors import (
    DegenerateMetric,
    InvalidConfig,
    MissingView,
    ShapeMismatch,
    TooFewIdentities,
)
from xmreid.rng import stream


def random_reid_data(rng, n_ids=6, per_view=3, dim=4, spread=3.0, noise=0.5):
    """Cross-view samples: identity centers apart, per-sample noise within."""
    features, identities, views = [], [], []
    centers = spread * rng.standard_normal((n_ids, dim))
    for i in range(n_ids):
        for view in (1, 2):
            for _ in range(per_view):
                features.append(centers[i] + noise * rng.standard_normal(dim))
                identities.append(f"p{i}")
                views.append(view)
    return np.array(features), identities, views


class TestDifferenceCovariances:
    def test_matches_enumeration_minimal(self):
        # two identities, one sample per view: the closed form must equal the
        # explicit pair loops bit for bit (same additions, same divisor)
        rng = stream(41, 1)
        feats, ids, views = random_reid_data(rng, n_ids=2, per_view=1, dim=3)
        intra, extra = xqda.build_difference_covariances(feats, ids, views)
        o_intra, o_extra = synth.oracle_pairwise_covariances(feats, ids, views)
        assert np.allclose(intra, o_intra, atol=1e-12)
        assert np.allclose(extra, o_extra, atol=1e-12)

    def test_matches_enumeration_random(self):
        rng = stream(41, 2)
        for trial in range(20):
            n_ids = int(rng.integers(2, 11))
            per_view = int(rng.integers(1, 5))
            feats, ids, views = random_reid_data(
                rng, n_ids=n_ids, per_view=per_view, dim=int(rng.integers(2, 6))
            )
            intra, extra = xqda.build_difference_covariances(feats, ids, views)
            o_intra, o_extra = synth.oracle_pairwise_covariances(feats, ids, views)
            scale = max(np.linalg.norm(o_intra), np.linalg.norm(o_extra), 1.0)
            assert np.linalg.norm(intra - o_intra) <= 1e-9 * scale
            assert np.linalg.norm(extra - o_extra) <= 1e-9 * scale

    def test_identical_samples_give_zero(self):
        feats = np.ones((8, 3))
        ids = ["a", "a", "b", "b"] * 2
        views = [1, 2, 1, 2, 1, 2, 1, 2]
        intra, extra = xqda.build_difference_covariances(feats, ids, views)
        assert np.array_equal(intra, np.zeros((3, 3)))
        assert np.array_equal(extra, np.zeros((3, 3)))

    def test_missing_view(self):
        feats = np.zeros((3, 2))
        with pytest.raises(MissingView):
            xqda.build_difference_covariances(feats, ["a", "a", "b"], [1, 2, 1])

    def test_single_identity(self):
        feats = np.zeros((2, 2))
        with pytest.raises(TooFewIdentities):
            xqda.build_difference_covariances(feats, ["a", "a"], [1, 2])
        with pytest.raises(TooFewIdentities):
            synth.oracle_pairwise_covariances(feats, ["a", "a"], [1, 2])


class TestFit:
    def test_separated_clusters_yield_discriminative_rank(self):
        rng = stream(42, 1)
        feats, ids, views = random_reid_data(rng, n_ids=2, per_view=2, dim=3,
                                             spread=5.0, noise=0.2)
        intra, extra = xqda.build_difference_covariances(feats, ids, views)
        model = xqda.fit_xqda(feats, ids, views)
        # direct generalized-eigenvalue oracle on the 3x3 pair
        from xmreid import linalg
        ridge = xqda.DEFAULT_RIDGE
        reference = linalg.gen_eigh(
            extra + ridge * np.trace(extra) / 3 * np.eye(3),
            intra + ridge * np.trace(intra) / 3 * np.eye(3),
        )
        assert reference.values[0] > 1.0
        assert model.rank >= 1
        assert not model.fallback

    def test_pure_noise_falls_back(self):
        # identical statistics in both classes: all eigenvalues ~1
        rng = stream(42, 2)
        feats = rng.standard_normal((400, 3))
        ids = [f"p{i % 10}" for i in range(400)]
        views = [1 if (i // 10) % 2 == 0 else 2 for i in range(400)]
        model = xqda.fit_xqda(feats, ids, views)
        scores = [
            xqda.score(model, rng.standard_normal(3), rng.standard_normal(3))
            for _ in range(50)
        ]
        assert np.max(np.abs(scores)) < 1.0
        assert model.rank >= 1

    @pytest.mark.parametrize("ridge", [-1e-3, np.nan, np.inf])
    def test_bad_ridge_rejected(self, ridge):
        feats, ids, views = random_reid_data(stream(42, 6))
        with pytest.raises(InvalidConfig):
            xqda.fit_xqda(feats, ids, views, ridge=ridge)

    def test_beats_euclidean_on_anisotropic_noise(self):
        # identity signal in few dimensions, heavy shared noise elsewhere:
        # Euclidean ranks poorly, the learned metric recovers the signal
        rng = stream(42, 3)
        n_ids, per_view, dim = 20, 2, 8
        centers = np.zeros((n_ids, dim))
        centers[:, :2] = 4.0 * rng.standard_normal((n_ids, 2))
        feats, ids, views = [], [], []
        for i in range(n_ids):
            for view in (1, 2):
                for _ in range(per_view):
                    noise = np.concatenate(
                        [0.3 * rng.standard_normal(2), 6.0 * rng.standard_normal(dim - 2)]
                    )
                    feats.append(centers[i] + noise)
                    ids.append(f"p{i}")
                    views.append(view)
        feats = np.array(feats)
        model = xqda.fit_xqda(feats, ids, views)

        gallery_rows = [i for i, v in enumerate(views) if v == 1]
        probe_rows = [i for i, v in enumerate(views) if v == 2]

        def rank1(scorer):
            hits = 0
            for p in probe_rows:
                scores = np.array([scorer(feats[g], feats[p]) for g in gallery_rows])
                best = gallery_rows[int(np.argmin(scores))]
                hits += ids[best] == ids[p]
            return hits / len(probe_rows)

        euclidean = rank1(lambda g, q: float(np.sum((g - q) ** 2)))
        learned = rank1(lambda g, q: xqda.score(model, g, q))
        assert learned > euclidean

    def test_rank_matches_eigenvalue_threshold(self):
        # kept columns correspond exactly to generalized eigenvalues > 1,
        # capped by max_rank
        from xmreid import linalg
        rng = stream(42, 4)
        feats, ids, views = random_reid_data(rng, n_ids=8, per_view=2, dim=6,
                                             spread=2.0, noise=0.8)
        intra, extra = xqda.build_difference_covariances(feats, ids, views)
        ridge = xqda.DEFAULT_RIDGE
        scale = ridge * (np.trace(intra) + np.trace(extra)) / (2.0 * 6)
        eye = scale * np.eye(6)
        reference = linalg.gen_eigh(extra + eye, intra + eye)
        expected = max(min(int(np.sum(reference.values > 1.0)), 3), 1)
        model = xqda.fit_xqda(feats, ids, views, max_rank=3)
        assert model.rank == expected

    def test_degenerate_when_everything_identical(self):
        feats = np.ones((8, 3))
        ids = ["a", "a", "b", "b"] * 2
        views = [1, 2, 1, 2, 1, 2, 1, 2]
        with pytest.raises(DegenerateMetric):
            xqda.fit_xqda(feats, ids, views)


class TestScore:
    def make_model(self, dim=4, rank=2):
        rng = stream(43, 1)
        feats, ids, views = random_reid_data(rng, n_ids=5, per_view=2, dim=dim)
        return xqda.fit_xqda(feats, ids, views, max_rank=rank), feats

    def test_zero_on_equal(self):
        model, feats = self.make_model()
        for row in feats[:10]:
            assert xqda.score(model, row, row) == 0.0

    def test_symmetry(self):
        model, _ = self.make_model()
        rng = stream(43, 2)
        for _ in range(100):
            g = rng.standard_normal(4)
            q = rng.standard_normal(4)
            assert xqda.score(model, g, q) == xqda.score(model, q, g)

    def test_translation_invariance(self):
        model, _ = self.make_model()
        rng = stream(43, 3)
        shift = rng.standard_normal(4) * 10.0
        for _ in range(50):
            g = rng.standard_normal(4)
            q = rng.standard_normal(4)
            base = xqda.score(model, g, q)
            moved = xqda.score(model, g + shift, q + shift)
            assert abs(base - moved) <= 1e-9 * max(abs(base), 1.0)

    def test_hand_indefinite_kernel(self):
        # W = I, M = diag(1, -1): difference (1, 1) scores exactly zero
        model = xqda.XqdaModel(w=np.eye(2), m=np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert xqda.score(model, np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 0.0

    def test_score_matrix_matches_loops(self):
        model, feats = self.make_model()
        gallery = feats[:6]
        probes = feats[6:12]
        matrix = xqda.score_matrix(model, gallery, probes)
        for p in range(6):
            for g in range(6):
                assert abs(matrix[p, g] - xqda.score(model, gallery[g], probes[p])) < 1e-10

    def test_shape_mismatch(self):
        model, _ = self.make_model()
        with pytest.raises(ShapeMismatch):
            xqda.score(model, np.zeros(3), np.zeros(4))


class TestZscore:
    def test_scaled_features_score_identically(self):
        rng = stream(44, 1)
        feats, ids, views = random_reid_data(rng, n_ids=6, per_view=2, dim=4)
        scales = np.array([1.0, 10.0, 0.1, 100.0])
        model_raw = xqda.fit_xqda(feats * scales, ids, views, zscore=True)
        model_unit = xqda.fit_xqda(feats, ids, views, zscore=True)
        g, q = feats[0], feats[5]
        a = xqda.score(model_raw, g * scales, q * scales)
        b = xqda.score(model_unit, g, q)
        assert abs(a - b) < 1e-8 * max(abs(a), 1.0)


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        rng = stream(45, 1)
        feats, ids, views = random_reid_data(rng)
        model = xqda.fit_xqda(feats, ids, views)
        path = tmp_path / "model.xqda"
        xqda.save_model(model, path)
        loaded = xqda.load_model(path)
        assert np.array_equal(loaded.w, model.w)
        assert np.array_equal(loaded.m, model.m)
        again = tmp_path / "model2.xqda"
        xqda.save_model(loaded, again)
        assert path.read_bytes() == again.read_bytes()
