import tracemalloc

import numpy as np
import pytest

from xmreid import synth, xqda
from xmreid.errors import (
    DegenerateMetric,
    InvalidConfig,
    MissingView,
    NonFiniteValue,
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

    def test_matches_enumeration_shuffled_rows(self):
        # identities interleaved and views mixed, as a split's rows arrive
        rng = stream(41, 3)
        for trial in range(10):
            feats, ids, views = random_reid_data(rng, n_ids=int(rng.integers(2, 9)),
                                                 per_view=int(rng.integers(1, 4)), dim=3)
            order = rng.permutation(len(ids))
            feats = feats[order]
            ids = [ids[i] for i in order]
            views = [views[i] for i in order]
            intra, extra = xqda.build_difference_covariances(feats, ids, views)
            o_intra, o_extra = synth.oracle_pairwise_covariances(feats, ids, views)
            scale = max(np.linalg.norm(o_intra), np.linalg.norm(o_extra), 1.0)
            assert np.linalg.norm(intra - o_intra) <= 1e-9 * scale
            assert np.linalg.norm(extra - o_extra) <= 1e-9 * scale

    def test_view_slices_match_the_gather_path(self):
        # random_reid_data interleaves each identity's view-1 and view-2 rows,
        # so they are gathered per view; a stable sort by view groups the same
        # rows, in the same order within each view, so they are sliced instead.
        # Dropping rows 0, 21 and 22 leaves identities with unequal view counts.
        # TestFit::test_view_grouped_rows_are_not_copied bounds the slices' memory.
        rng = stream(41, 4)
        feats, ids, views = random_reid_data(rng, n_ids=7, per_view=3, dim=5)
        keep = np.delete(np.arange(len(ids)), [0, 21, 22])
        feats, ids, views = feats[keep], np.array(ids)[keep], np.array(views)[keep]
        by_view = np.argsort(views, kind="stable")
        grouped = feats[by_view]
        sliced = xqda.build_difference_covariances(grouped, ids[by_view], views[by_view])
        gathered = xqda.build_difference_covariances(feats, ids, views)
        for a, b in zip(sliced, gathered):
            assert a.tobytes() == b.tobytes()
        shuffle = rng.permutation(len(ids))
        shuffled = xqda.build_difference_covariances(feats[shuffle], ids[shuffle], views[shuffle])
        for a, b in zip(sliced, shuffled):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

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

    def test_missing_view_names_the_first_lacking_identity(self):
        feats = np.zeros((6, 2))
        with pytest.raises(MissingView, match="'c'"):
            xqda.build_difference_covariances(feats, ["a", "c", "a", "b", "d", "b"],
                                              [1, 2, 2, 1, 1, 2])

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

    def test_one_input_pass_per_fit(self, monkeypatch):
        # fit_xqda validates and codes the identities once, in the covariance builder.
        feats, ids, views = random_reid_data(stream(42, 3))
        calls = []
        code = xqda.dataio.first_appearance_codes
        monkeypatch.setattr(xqda.dataio, "first_appearance_codes",
                            lambda *a: calls.append(1) or code(*a))
        xqda.fit_xqda(feats, ids, views)
        assert len(calls) == 1

    def test_view_grouped_rows_are_not_copied(self):
        # 2,000 rows per view x 256-d: each view block is 3.9 MiB. A fit on
        # view-grouped rows peaked at 6.9 MiB (its one weighted view-sized
        # temporary, the per-identity sums and d x d matrices); gathering both
        # views, as every fit did before, peaked at 14.8 MiB. The bound of 2.5
        # blocks (9.8 MiB) admits no copy of either view.
        rng = stream(42, 6)
        n_ids, per_view, dim = 500, 4, 256
        centres = rng.standard_normal((n_ids, dim))
        of_row = np.tile(np.repeat(np.arange(n_ids), per_view), 2)
        feats = centres[of_row] + rng.standard_normal((len(of_row), dim))
        ids = np.array([f"p{i}" for i in range(n_ids)])[of_row]
        views = np.repeat([1, 2], n_ids * per_view)
        block = feats.nbytes / 2
        tracemalloc.start()
        try:
            model = xqda.fit_xqda(feats, ids, views)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.rank >= 1
        assert peak < 2.5 * block

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

    def test_identical_views_fit_through_the_shared_ridge(self):
        # S_I is exactly zero; only a ridge scaled by the mean trace of S_E and
        # S_I keeps it positive definite (a per-matrix scale would be zero)
        rng = stream(42, 7)
        once = rng.standard_normal((6, 3))
        feats = np.vstack([once, once])
        ids = [f"p{i}" for i in range(6)] * 2
        views = [1] * 6 + [2] * 6
        intra, extra = xqda.build_difference_covariances(feats, ids, views)
        assert not intra.any() and extra.any()
        model = xqda.fit_xqda(feats, ids, views)
        assert model.rank >= 1
        assert np.isfinite(model.w).all() and np.isfinite(model.m).all()

    @pytest.mark.parametrize("ridge", [-1e-3, np.nan, np.inf])
    def test_bad_ridge_rejected(self, ridge):
        feats, ids, views = random_reid_data(stream(42, 6))
        with pytest.raises(InvalidConfig):
            xqda.fit_xqda(feats, ids, views, ridge=ridge)
        with pytest.raises(InvalidConfig):  # the ridge is at fault before the metric degenerates
            xqda.fit_xqda(np.ones_like(feats), ids, views, ridge=ridge)

    def test_overflowing_ridge_rejected(self):
        feats, ids, views = random_reid_data(stream(42, 6))
        with pytest.raises(InvalidConfig, match="ridge 1e\\+308 overflows"):
            xqda.fit_xqda(10.0 * feats, ids, views, ridge=1e308)

    @pytest.mark.parametrize("max_rank", [0, -1])
    def test_max_rank_below_one_rejected(self, max_rank):
        feats, ids, views = random_reid_data(stream(42, 6))
        with pytest.raises(InvalidConfig, match=f"max_rank must be >= 1, got {max_rank}"):
            xqda.fit_xqda(feats, ids, views, max_rank=max_rank)

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


def random_model(rng, dim, rank):
    """A model with a random subspace and a random indefinite kernel."""
    kernel = rng.standard_normal((rank, rank))
    return xqda.XqdaModel(w=rng.standard_normal((dim, rank)) / np.sqrt(dim),
                          m=(kernel + kernel.T) / 2.0)


class TestScoreMatrix:
    def test_matches_pair_oracle_at_size(self):
        rng = stream(43, 4)
        dim, rank, probes, gallery = 128, 64, 300, 400
        model = random_model(rng, dim, rank)
        assert np.linalg.eigvalsh(model.m).min() < 0.0 < np.linalg.eigvalsh(model.m).max()
        # features away from the origin, where the expansion's terms cancel most
        offset = 3.0 * rng.standard_normal(dim)
        g = offset + rng.standard_normal((gallery, dim))
        q = offset + rng.standard_normal((probes, dim))
        matrix = xqda.score_matrix(model, g, q)
        assert matrix.shape == (probes, gallery)
        oracle = np.array([[xqda.score(model, gg, qq) for gg in g] for qq in q])
        norm_m = np.linalg.norm(model.m, 2)
        sq_g = np.sum((g @ model.w) ** 2, axis=1)
        sq_q = np.sum((q @ model.w) ** 2, axis=1)
        bound = 1e-13 * (sq_q[:, None] + sq_g[None, :]) * norm_m
        assert np.all(np.abs(matrix - oracle) <= bound)

    def test_equal_rows_score_equal_and_zero(self):
        # Copies sit at the first and last rows, where BLAS tiles split; at
        # d = 39, r = 35 equal rows projected by separate GEMMs round apart.
        rng = stream(43, 5)
        model = random_model(rng, 39, 35)
        g = rng.standard_normal((50, 39))
        g[[7, 19, 31, 49]] = g[0]
        q = rng.standard_normal((30, 39))
        q[[4, 29]] = q[0]
        q[20] = g[0]
        q[25] = g[40]
        matrix = xqda.score_matrix(model, g, q)
        for column in (7, 19, 31, 49):
            assert np.array_equal(matrix[:, column], matrix[:, 0])
        for row in (4, 29):
            assert np.array_equal(matrix[row], matrix[0])
        for row, columns in ((20, (0, 7, 19, 31, 49)), (25, (40,))):
            assert all(matrix[row, c] == 0.0 for c in columns)
            assert xqda.score(model, g[columns[0]], q[row]) == 0.0
        assert np.count_nonzero(matrix == 0.0) == 5 + 1

    def test_negative_zero_is_zero(self):
        rng = stream(43, 10)
        model = random_model(rng, 39, 35)
        g = rng.standard_normal((40, 39))
        g[:, ::3] = 0.0
        q = g.copy()
        q[:, ::3] = -0.0
        matrix = xqda.score_matrix(model, g, q)
        assert np.array_equal(matrix, xqda.score_matrix(model, g, g))
        assert np.all(np.diag(matrix) == 0.0)

    def test_memory_stays_at_the_output_size(self):
        # the P x G x r difference tensor would take 512 MB here
        rng = stream(43, 6)
        model = random_model(rng, 64, 64)
        g = rng.standard_normal((1000, 64))
        q = rng.standard_normal((1000, 64))
        tracemalloc.start()
        try:
            xqda.score_matrix(model, g, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_gallery_scorer_matches_pair_oracle_in_blocks(self):
        # Gallery rows 13, 41 and 59 repeat row 2. Probes 1, 3 and 22 repeat
        # probe 0, within a block of 7 and across blocks. Probes 9, 10 and 16
        # copy gallery rows 2, 44 and 5, the last with -0.0 for each 0.0.
        rng = stream(43, 11)
        model = random_model(rng, 39, 35)
        g = rng.standard_normal((60, 39))
        g[[13, 41, 59]] = g[2]
        g[5, ::4] = 0.0
        q = rng.standard_normal((30, 39))
        q[[1, 3, 22]] = q[0]
        q[[9, 10, 16]] = g[[2, 44, 5]]
        q[16, ::4] = -0.0
        oracle = np.array([[xqda.score(model, gg, qq) for gg in g] for qq in q])
        sq_g = np.sum((g @ model.w) ** 2, axis=1)
        sq_q = np.sum((q @ model.w) ** 2, axis=1)
        bound = 1e-12 * (sq_q[:, None] + sq_g[None, :]) * np.linalg.norm(model.m, 2)
        zeros = [(9, c) for c in (2, 13, 41, 59)] + [(10, 44), (16, 5)]
        orders = []
        for rows in (1, 7, len(q)):
            scorer = xqda._gallery_scorer(model, g)
            matrix = np.vstack([scorer(q[lo:lo + rows]) for lo in range(0, len(q), rows)])
            assert np.all(np.abs(matrix - oracle) <= bound)
            assert all(matrix[p, c] == 0.0 == oracle[p, c] for p, c in zeros)
            assert np.count_nonzero(matrix == 0.0) == len(zeros)
            for column in (13, 41, 59):
                assert np.array_equal(matrix[:, column], matrix[:, 2])
            for row in (1, 3):
                assert np.array_equal(matrix[row], matrix[0])
            orders.append(np.argsort(matrix, axis=1, kind="stable"))
            assert np.array_equal(orders[-1][22], orders[-1][0])
        assert all(np.array_equal(order, orders[0]) for order in orders[1:])

    def test_empty_sides(self):
        model = random_model(stream(43, 7), 4, 2)
        assert xqda.score_matrix(model, np.zeros((0, 4)), np.ones((3, 4))).shape == (3, 0)
        assert xqda.score_matrix(model, np.ones((2, 4)), np.zeros((0, 4))).shape == (0, 2)

    @pytest.mark.parametrize("gallery_shape, probe_shape", [
        ((5,), (3, 5)), ((4, 5), (5,)), ((4, 6), (3, 5)), ((4, 5), (3, 4)), ((2, 5, 1), (3, 5)),
    ])
    def test_shape_mismatch(self, gallery_shape, probe_shape):
        model = random_model(stream(43, 8), 5, 2)
        with pytest.raises(ShapeMismatch):
            xqda.score_matrix(model, np.zeros(gallery_shape), np.zeros(probe_shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN probe bitwise equal to a NaN gallery row must not score 0.0
        model = random_model(stream(43, 9), 3, 2)
        rows = np.ones((2, 3))
        rows[1, 2] = bad
        with pytest.raises(NonFiniteValue):
            xqda.score_matrix(model, rows, np.ones((1, 3)))
        with pytest.raises(NonFiniteValue):
            xqda.score_matrix(model, np.ones((1, 3)), rows)
        with pytest.raises(NonFiniteValue):
            xqda.score_matrix(model, rows, rows)
