import math
import tracemalloc

import numpy as np
import pytest

from xmreid import cca, dataio, evaluation, synth, xqda
from xmreid.errors import (
    EmptyGallery,
    InvalidConfig,
    MissingModality,
    MissingView,
    NonFiniteValue,
    NOutOfRange,
    ProbeIdentityAbsent,
    ShapeMismatch,
)
from xmreid.rng import EVAL, stream


class TestCmc:
    def test_perfect_scorer(self):
        scores = np.ones((3, 3))
        scores[np.diag_indices(3)] = 0.0
        result = evaluation.cmc(scores, np.array(list("abc")), np.array(list("abc")))
        assert result.accuracies[0] == 1.0

    def test_hand_ranking(self):
        # probe rows sorted ascending: ranks of the matched entries are 2, 2, 1
        scores = np.array([[0.2, 0.1, 0.9], [0.5, 0.4, 0.3], [0.7, 0.8, 0.6]])
        ids = np.array(list("abc"))
        result = evaluation.cmc(scores, ids, ids)
        assert np.allclose(result.accuracies, [1.0 / 3.0, 1.0, 1.0])

    def test_tie_break_by_gallery_index(self):
        scores = np.array([[0.5, 0.5]])
        result_first = evaluation.cmc(scores, np.array(["p", "x"]), np.array(["p"]))
        assert result_first.accuracies[0] == 1.0
        result_second = evaluation.cmc(scores, np.array(["x", "p"]), np.array(["p"]))
        assert result_second.accuracies[0] == 0.0

    def test_monotone_and_terminal(self):
        rng = stream(52, 1)
        gallery_ids = np.array([f"g{i}" for i in range(20)])
        probe_ids = np.array([f"g{i}" for i in range(20)])
        for _ in range(10):
            scores = rng.random((20, 20))
            result = evaluation.cmc(scores, gallery_ids, probe_ids)
            assert np.all(np.diff(result.accuracies) >= 0.0)
            assert result.accuracies[-1] == 1.0

    def test_monotone_transform_invariance(self):
        rng = stream(52, 2)
        gallery_ids = np.array([f"g{i}" for i in range(12)])
        scores = rng.random((12, 12))
        base = evaluation.cmc(scores, gallery_ids, gallery_ids)
        cubed = evaluation.cmc(scores**3, gallery_ids, gallery_ids)
        exped = evaluation.cmc(np.exp(scores), gallery_ids, gallery_ids)
        assert np.array_equal(base.accuracies, cubed.accuracies)
        assert np.array_equal(base.accuracies, exped.accuracies)

    def test_random_scores_match_chance_law(self):
        # rank of the correct entry is uniform -> CMC(K) = K/G
        rng = stream(52, 3)
        g = 100
        gallery_ids = np.array([f"g{i}" for i in range(g)])
        rows = 100_000
        hits = np.zeros(g)
        done = 0
        while done < rows:
            take = min(2000, rows - done)
            scores = rng.random((take, g))
            probe_ids = gallery_ids[rng.integers(0, g, size=take)]
            result = evaluation.cmc(scores, gallery_ids, probe_ids)
            hits += result.accuracies * take
            done += take
        empirical = hits / rows
        target = np.arange(1, g + 1) / g
        assert np.max(np.abs(empirical - target)) < 0.01

    def test_matches_stable_sort_ranking_with_ties(self):
        # oracle: per probe, stable-sort the gallery and take the first hit
        rng = stream(52, 5)
        probes, gallery = 500, 400
        scores = rng.integers(0, 6, size=(probes, gallery)).astype(np.float64)
        gallery_ids = np.array([f"g{i}" for i in rng.integers(0, 150, size=gallery)])
        probe_ids = gallery_ids[rng.integers(0, gallery, size=probes)]
        ranks = np.array([
            np.nonzero(gallery_ids[np.argsort(row, kind="stable")] == pid)[0][0] + 1
            for row, pid in zip(scores, probe_ids)
        ])
        expected = np.cumsum(np.bincount(ranks, minlength=gallery + 1)[1:]) / probes
        result = evaluation.cmc(scores, gallery_ids, probe_ids)
        assert np.array_equal(result.accuracies, expected)

    def test_infinite_scores_keep_the_tie_break(self):
        scores = np.array([[np.inf, np.inf, 1.0], [np.inf, np.inf, np.inf]])
        result = evaluation.cmc(scores, np.array(["x", "p", "y"]), np.array(["p", "p"]))
        # probe 1 ranks p after 1.0 and the earlier inf; probe 2 only after x
        assert np.allclose(result.accuracies, [0.0, 0.5, 1.0])

    def test_nan_score_rejected(self):
        with pytest.raises(NonFiniteValue):
            evaluation.cmc(np.array([[np.nan, 0.0]]), np.array(["a", "b"]), np.array(["a"]))

    def test_probe_identity_absent(self):
        with pytest.raises(ProbeIdentityAbsent, match="identity 'z' not"):
            evaluation.cmc(np.zeros((1, 2)), np.array(["a", "b"]), np.array(["z"]))

    def test_agrees_with_chance_oracle(self):
        oracle = synth.oracle_cmc_chance(10, probes=1, trials=200_000, rng=stream(52, 4))
        assert abs(oracle[0] - 0.1) < 0.005
        assert oracle[-1] == 1.0
        assert np.all(np.diff(oracle) >= 0.0)


class TestFlipAttributes:
    def test_zero_flips(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = evaluation.flip_attributes(bits, 0, stream(53, 1))
        assert np.array_equal(out, bits)

    def test_full_complement(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = evaluation.flip_attributes(bits, 4, stream(53, 2))
        assert np.array_equal(out, 1 - bits)

    def test_hamming_distance_exact(self):
        rng = stream(53, 3)
        bits = rng.integers(0, 2, size=15).astype(np.uint8)
        for _ in range(50):
            out = evaluation.flip_attributes(bits, 2, rng)
            assert int(np.sum(out != bits)) == 2

    def test_out_of_range(self):
        with pytest.raises(NOutOfRange):
            evaluation.flip_attributes(np.zeros(4, dtype=np.uint8), 5, stream(53, 4))


class TestFuse:
    fields = {"vision": np.arange(12.0).reshape(3, 4),
              "language": np.array([[5.0, 6.0], [7.0, 8.0], [9.0, 1.0]]),
              "attributes": np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=np.uint8)}
    rows = [2, 0]

    def identity_model(self):
        return cca.CcaModel(
            w_x=np.eye(4), w_y=np.eye(2),
            correlations=np.ones(2),
            mean_x=np.zeros(4), mean_y=np.zeros(2),
        )

    def fuse(self, scenario, side, fields=None, model=None):
        parts = evaluation.SCENARIO_SPEC[scenario][side]
        return evaluation._fuse(parts, fields or self.fields, self.rows, model)

    def test_concat_dimensions(self):
        rng = stream(33, 1)
        fields = {"vision": rng.standard_normal((3, 2048)),
                  "language": rng.standard_normal((3, 1024))}
        fused = self.fuse("VLxVL", evaluation.GALLERY, fields)
        assert fused.shape == (2, 3072)
        assert np.array_equal(fused[:, :2048], fields["vision"][self.rows])
        assert np.array_equal(fused[:, 2048:], fields["language"][self.rows])

    def test_vxl_identity_model(self):
        model = self.identity_model()
        gallery = self.fuse("VxL", evaluation.GALLERY, model=model)
        query = self.fuse("VxL", evaluation.QUERY, model=model)
        assert np.array_equal(gallery, self.fields["vision"][self.rows])
        assert np.array_equal(query, self.fields["language"][self.rows])

    def test_vxvl_concatenates_projection(self):
        query = self.fuse("VxVL", evaluation.QUERY, model=self.identity_model())
        assert np.array_equal(query, np.hstack([self.fields["vision"][self.rows],
                                                self.fields["language"][self.rows]]))

    def test_vaxva_bits(self):
        fused = self.fuse("VAxVA", evaluation.GALLERY)
        assert fused.dtype == np.float64
        assert np.array_equal(fused[:, 4:], [[1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def small_config(**kw):
    defaults = dict(
        identity_count=12,
        samples_per_view=2,
        latent_dim=3,
        vision_dim=8,
        language_dim=6,
        num_splits=3,
        seed=7,
    )
    defaults.update(kw)
    return synth.SynthConfig(**defaults)


class TestEvaluateScenario:
    def test_duplicated_views_give_perfect_rank1(self):
        # view-2 features identical to view-1 -> every probe matches exactly
        config = small_config(vision_noise=0.3, view_shift=0.0, samples_per_view=1)
        dataset = synth.gen_paired(config)
        # rows alternate view 1, view 2 per identity
        dataset.vision[dataset.views == 2] = dataset.vision[dataset.views == 1]
        splits = synth.gen_splits(config)
        report = evaluation.evaluate_scenario(dataset, splits, "VxV", master_seed=1)
        assert report.mean_rank(1) == 1.0

    def test_seed_determinism(self):
        config = small_config()
        dataset = synth.gen_paired(config)
        splits = synth.gen_splits(config)
        one = evaluation.evaluate_scenario(dataset, splits, "VLxVL", master_seed=5)
        two = evaluation.evaluate_scenario(dataset, splits, "VLxVL", master_seed=5)
        assert np.array_equal(one.mean, two.mean)
        assert np.array_equal(one.std, two.std)

    def test_single_split_aggregation(self):
        config = small_config(num_splits=1)
        dataset = synth.gen_paired(config)
        splits = synth.gen_splits(config)
        report = evaluation.evaluate_scenario(dataset, splits, "LxL", master_seed=2)
        assert np.array_equal(report.mean, report.per_split[0].accuracies)
        assert np.all(report.std == 0.0)

    def test_mean_between_extremes(self):
        config = small_config()
        dataset = synth.gen_paired(config)
        splits = synth.gen_splits(config)
        report = evaluation.evaluate_scenario(dataset, splits, "VxVL", master_seed=3)
        curves = np.stack([r.accuracies for r in report.per_split])
        assert np.all(report.mean >= curves.min(axis=0) - 1e-12)
        assert np.all(report.mean <= curves.max(axis=0) + 1e-12)

    def test_multi_shot_gallery(self):
        config = small_config()
        dataset = synth.gen_paired(config)
        splits = synth.gen_splits(config)
        cfg = evaluation.PipelineConfig(gallery_mode="multi")
        report = evaluation.evaluate_scenario(dataset, splits, "VxV", cfg, master_seed=3)
        assert report.per_split[0].gallery_size == list(splits[0].roles.values()).count("test")

    def test_unknown_scenario(self):
        with pytest.raises(InvalidConfig):
            evaluation.evaluate_scenario(None, [], "VxX")

    def test_unknown_gallery_mode(self):
        config = small_config()
        cfg = evaluation.PipelineConfig(gallery_mode="Multi")
        with pytest.raises(InvalidConfig):
            evaluation.evaluate_scenario(synth.gen_paired(config), synth.gen_splits(config),
                                         "VxV", cfg)

    def test_scenario_needs_a_missing_modality(self):
        config = small_config()
        dataset = synth.gen_paired(config)
        dataset.language = None
        with pytest.raises(MissingModality):
            evaluation.evaluate_scenario(dataset, synth.gen_splits(config), "LxL")


class TestScoreTies:
    def test_multi_shot_ranks_match_pairwise_scores(self, monkeypatch):
        # Gallery images duplicated across identities, and probes copied from
        # them, tie exactly under xqda.score; score_matrix must keep those
        # ties so that cmc's first-index tie-break decides as it does there.
        # The last pair puts copies at the first and last rows of the gallery
        # and probe matrices, where BLAS tiles split (at 39-d this ranked
        # differently when each matrix was projected on its own).
        config = small_config(identity_count=60, samples_per_view=3, vision_dim=39,
                              language_dim=14)
        dataset = synth.gen_paired(config)
        splits = synth.gen_splits(config)[:1]
        ids, views = dataset.identities, dataset.views
        test = {i for i, role in splits[0].roles.items() if role == "test"}
        order = [i for i in dict.fromkeys(ids.tolist()) if i in test]
        for first, second in [*zip(order[::2], order[1::2]), (order[0], order[-1])]:
            image = np.flatnonzero((ids == first) & (views == 1))[0]
            copy = np.flatnonzero((ids == second) & (views == 1))[-1]
            probe = np.flatnonzero((ids == second) & (views == 2))[-1]
            dataset.vision[[copy, probe]] = dataset.vision[image]
        cfg = evaluation.PipelineConfig(gallery_mode="multi")
        fast = evaluation.evaluate_scenario(dataset, splits, "VxV", cfg, master_seed=3)

        def pairwise(model, gallery):
            return lambda probes: np.array([[xqda.score(model, g, q) for g in gallery]
                                            for q in probes])

        monkeypatch.setattr(xqda, "_gallery_scorer", pairwise)
        slow = evaluation.evaluate_scenario(dataset, splits, "VxV", cfg, master_seed=3)
        assert np.array_equal(fast.per_split[0].accuracies, slow.per_split[0].accuracies)


class TestProbeBlocks:
    @staticmethod
    def tied_dataset():
        # One image copied into every view-1 row of the first two test
        # identities (equal gallery columns, in single and multi mode alike)
        # and into probes 6, 7 and the last, so that exact 0.0 scores and the
        # first-index tie-break fall on both sides of a block boundary.
        config = small_config(identity_count=60, samples_per_view=3, vision_dim=39,
                              language_dim=14)
        dataset = synth.gen_paired(config)
        splits = synth.gen_splits(config)[:1]
        ids, views = dataset.identities, dataset.views
        test = np.isin(ids, [i for i, role in splits[0].roles.items() if role == "test"])
        order = list(dict.fromkeys(ids[test].tolist()))
        image = np.flatnonzero((ids == order[0]) & (views == 1))[0]
        probes = np.flatnonzero(test & (views == 2))
        copies = np.flatnonzero(np.isin(ids, order[:2]) & (views == 1))
        dataset.vision[np.r_[copies, probes[[6, 7, -1]]]] = dataset.vision[image]
        return dataset, splits, len(probes), int(np.sum(test & (views == 1)))

    @pytest.mark.parametrize("mode", ["single", "multi"])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_blocks_rank_as_the_full_matrix(self, monkeypatch, mode, rows):
        dataset, splits, probe_count, images = self.tied_dataset()
        entries = images if mode == "multi" else images // 3
        cfg = evaluation.PipelineConfig(gallery_mode=mode)
        # One block of every probe: cmc over the full P x G matrix.
        monkeypatch.setattr(evaluation, "BLOCK_ENTRIES", 2**62)
        full = evaluation.evaluate_scenario(dataset, splits, "VxV", cfg, master_seed=3)

        blocks = []
        prepare = xqda._gallery_scorer

        def recording(model, gallery):
            scorer = prepare(model, gallery)

            def block(probes):
                scores = scorer(probes)
                blocks.append((len(probes), int(np.sum(scores == 0.0))))
                return scores
            return block

        # Blocks of `rows` probes; BLOCK_ENTRIES need not be a multiple of the gallery.
        monkeypatch.setattr(evaluation, "BLOCK_ENTRIES", (rows + 1) * entries - 1)
        monkeypatch.setattr(xqda, "_gallery_scorer", recording)
        blocked = evaluation.evaluate_scenario(dataset, splits, "VxV", cfg, master_seed=3)
        full_blocks, rest = divmod(probe_count, rows)
        assert rest or rows == 1  # 7 does not divide P: the last block is short
        assert [n for n, _ in blocks] == [rows] * full_blocks + [rest] * (rest > 0)
        # probes 6 and 7 each tie at 0.0 with at least the two copied identities
        assert sum(zeros for _, zeros in blocks[6 // rows:8 // rows + 1]) >= 4
        assert np.array_equal(blocked.per_split[0].accuracies, full.per_split[0].accuracies)


    def test_peak_memory_is_a_block_not_the_score_matrix(self):
        # P = G = 2000 multi-shot entries: one P x G float64 matrix is 32 MB,
        # and ranking the whole matrix at once peaked at 63 MB. 1 MB blocks
        # that each coded the whole gallery peaked at 3.0 MiB; 256 KB blocks
        # against a gallery prepared once peak at 1.4 MiB.
        config = small_config(identity_count=2000, num_splits=1)
        dataset = synth.gen_paired(config)
        cfg = evaluation.PipelineConfig(gallery_mode="multi")
        tracemalloc.start()
        try:
            report = evaluation.evaluate_scenario(dataset, synth.gen_splits(config), "VxV", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.per_split[0].probe_count, report.per_split[0].gallery_size) == (2000, 1000)
        assert peak < 16 * 2**20


class TestIdentityCoding:
    """evaluate_scenario codes identities once; labels, order and draws are
    what grouping by label in first-appearance order gave."""

    @staticmethod
    def interleaved(config):
        # Identity i keeps 1 + i % 3 of its 3 view-1 images; the rows are then
        # shuffled so that no identity's rows sit next to each other.
        dataset = synth.gen_paired(config)
        ids, views = dataset.identities, dataset.views
        rank = np.array([int(i[2:]) for i in ids.tolist()])
        within = np.zeros(len(ids), dtype=int)
        for row in range(len(ids)):
            within[row] = np.sum((ids[:row] == ids[row]) & (views[:row] == views[row]))
        keep = np.flatnonzero((views == 2) | (within <= rank % 3))
        rows = keep[np.random.default_rng(5).permutation(len(keep))]
        return dataio.Dataset(identities=ids[rows], views=views[rows],
                              vision=dataset.vision[rows], language=dataset.language[rows])

    @staticmethod
    def reference_gallery(dataset, split, mode, gen):
        """Gallery rows grouped by label through a dict, as before coding."""
        ids, views = dataset.identities, dataset.views
        test = {i for i, role in split.roles.items() if role == "test"}
        by_identity = {}
        for row in np.flatnonzero(views == 1):
            if ids[row] in test:
                by_identity.setdefault(ids[row], []).append(row)
        rows, starts = [], []
        for identity in dict.fromkeys(ids.tolist()):
            candidates = by_identity.get(identity, [])
            if candidates:
                starts.append(len(rows))
                if mode == "multi":
                    rows.extend(candidates)
                elif len(candidates) == 1:
                    rows.append(candidates[0])
                else:
                    rows.append(candidates[int(gen.integers(len(candidates)))])
        return np.array(rows), np.array(starts)

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_gallery_order_and_cmc_match_label_grouping(self, monkeypatch, mode):
        config = small_config(identity_count=30, samples_per_view=3, num_splits=2)
        dataset = self.interleaved(config)
        splits = synth.gen_splits(config)
        assert np.any(dataset.identities[1:] != dataset.identities[:-1])
        seen = []
        real = xqda.score_matrix
        prepare = xqda._gallery_scorer

        def recording(model, gallery):
            scorer = prepare(model, gallery)

            def block(probes):
                seen.append((model, gallery, probes))
                return scorer(probes)
            return block

        monkeypatch.setattr(xqda, "_gallery_scorer", recording)
        cfg = evaluation.PipelineConfig(gallery_mode=mode)
        report = evaluation.evaluate_scenario(dataset, splits, "VxV", cfg, master_seed=3)
        assert len(seen) == len(splits)  # one probe block per split
        row_of = {row.tobytes(): i for i, row in enumerate(dataset.vision)}
        counts = []
        for split, (model, gallery, probes), result in zip(splits, seen, report.per_split):
            gen = stream(3, EVAL, evaluation.SCENARIO_IDS["VxV"], 0, split.index)
            rows, starts = self.reference_gallery(dataset, split, mode, gen)
            assert [row_of[g.tobytes()] for g in gallery] == rows.tolist()
            ids = dataset.identities
            probe_ids = ids[[row_of[q.tobytes()] for q in probes]]
            scores = real(model, gallery, probes)
            if mode == "multi":
                scores = np.minimum.reduceat(scores, starts, axis=1)
            expected = evaluation.cmc(scores, ids[rows[starts]], probe_ids)
            assert np.array_equal(result.accuracies, expected.accuracies)
            counts.extend(np.diff(np.r_[starts, len(rows)]).tolist())
        if mode == "multi":
            assert set(counts) == {1, 2, 3}

    def test_missing_view_names_the_label(self):
        config = small_config()
        dataset = synth.gen_paired(config)
        splits = synth.gen_splits(config)[:1]
        train = [i for i, role in splits[0].roles.items() if role == "train"]
        keep = (dataset.identities != train[1]) | (dataset.views == 1)
        dataset = dataio.Dataset(identities=dataset.identities[keep], views=dataset.views[keep],
                                 vision=dataset.vision[keep])
        with pytest.raises(MissingView, match=f"identity '{train[1]}' lacks"):
            evaluation.evaluate_scenario(dataset, splits, "VxV")

    def test_absent_probe_names_the_label(self):
        config = small_config()
        dataset = synth.gen_paired(config)
        splits = synth.gen_splits(config)[:1]
        test = [i for i, role in splits[0].roles.items() if role == "test"]
        keep = (dataset.identities != test[1]) | (dataset.views == 2)
        dataset = dataio.Dataset(identities=dataset.identities[keep], views=dataset.views[keep],
                                 vision=dataset.vision[keep])
        for mode in ("single", "multi"):
            cfg = evaluation.PipelineConfig(gallery_mode=mode)
            with pytest.raises(ProbeIdentityAbsent, match=f"identity '{test[1]}' not"):
                evaluation.evaluate_scenario(dataset, splits, "VxV", cfg)


class TestClaimMargins:
    @staticmethod
    def reports(*r1s):
        def split(r1):
            return evaluation.CmcResult(accuracies=np.array([r1, 1.0]), probe_count=10,
                                        gallery_size=2)
        return [evaluation.SplitReport(per_split=[split(r) for r in r1], mean=None, std=None)
                for r1 in r1s]

    def test_hand_computed_pairs(self):
        # differences B - A are 0.3, 0.1, 0.4: mean 0.8 / 3, sample variance
        # 0.07 / 3, so the standard error is sqrt(0.07 / 9); C - B are all 0.1
        a, b, c = self.reports([0.2, 0.4, 0.3], [0.5, 0.5, 0.7], [0.6, 0.6, 0.8])
        margins = evaluation.claim_margins({"A": a, "B": b, "C": c}, ["A", "B", "C"])
        assert list(margins) == [("A", "B"), ("B", "C")]
        mean, se = margins[("A", "B")]
        assert abs(mean - 0.8 / 3) < 1e-12 and abs(se - math.sqrt(0.07 / 9)) < 1e-12
        mean, se = margins[("B", "C")]
        assert abs(mean - 0.1) < 1e-12 and se < 1e-12

    def test_unpaired_or_too_few(self):
        a, b, short = self.reports([0.2, 0.4], [0.5, 0.5], [0.5])
        with pytest.raises(ShapeMismatch):
            evaluation.claim_margins({"A": a, "B": short}, ["A", "B"])
        with pytest.raises(InvalidConfig):
            evaluation.claim_margins({"A": a}, ["A"])
        with pytest.raises(InvalidConfig):
            evaluation.claim_margins({"A": short, "B": short}, ["A", "B"])
        with pytest.raises(InvalidConfig):
            evaluation.claim_margins({}, [])
        with pytest.raises(InvalidConfig, match="'B'"):
            evaluation.claim_margins({"A": a}, ["A", "B"])


class TestAttributeSweep:
    def make_attributed_dataset(self, config):
        dataset = synth.gen_paired(config)
        attrs = synth.gen_attributes(config)
        dataset.attributes = np.array([attrs.get(i) for i in dataset.identities])
        return dataset

    def test_unique_attributes_no_flips_perfect(self):
        config = small_config()
        dataset = self.make_attributed_dataset(config)
        splits = synth.gen_splits(config)
        reports = evaluation.attribute_degradation_sweep(
            dataset, splits, [0], master_seed=4
        )
        assert reports[0].mean_rank(1) == 1.0

    def test_flips_degrade_rank1(self):
        # strict monotonicity over small N is asserted at acceptance scale;
        # this is the cheap contrast check
        config = small_config(vision_noise=1.5)
        dataset = self.make_attributed_dataset(config)
        splits = synth.gen_splits(config)
        reports = evaluation.attribute_degradation_sweep(
            dataset, splits, [0, 3], master_seed=4
        )
        assert reports[0].mean_rank(1) == 1.0
        assert reports[3].mean_rank(1) < 0.7 * reports[0].mean_rank(1)

    def test_repeated_flip_count(self, monkeypatch):
        config = small_config()
        dataset = self.make_attributed_dataset(config)
        monkeypatch.setattr(evaluation, "evaluate_scenario", None)  # never reached
        with pytest.raises(InvalidConfig, match="repeat"):
            evaluation.attribute_degradation_sweep(dataset, synth.gen_splits(config), [0, 1, 1])

    def test_out_of_range_flip_count_fails_before_any_fit(self, monkeypatch):
        config = small_config()
        dataset = self.make_attributed_dataset(config)
        calls = []
        fit = xqda.fit_xqda
        monkeypatch.setattr(xqda, "fit_xqda", lambda *a, **kw: calls.append(1) or fit(*a, **kw))
        width = dataset.attributes.shape[1]
        # n = width + 1 comes last: the first three would each fit every split.
        for n_values, bad in (([0, 1, 2, width + 1], width + 1), ([-1, 0], -1)):
            with pytest.raises(NOutOfRange, match=f"n={bad} outside 0..{width}"):
                evaluation.attribute_degradation_sweep(dataset, synth.gen_splits(config), n_values)
        assert calls == []
        evaluation.attribute_degradation_sweep(dataset, synth.gen_splits(config)[:1], [width])
        assert len(calls) == 1

    @pytest.mark.parametrize("scenario, field", [
        ("VxVL", "vision"), ("VLxVL", "language"), ("VAxVA", "vision"),
    ])
    def test_vision_scale_is_normalised_away(self, monkeypatch, scenario, field):
        # Each part of a fused side is divided by its training RMS norm, so
        # scaling one part by 1000 must leave every CMC rank and every
        # split's XQDA rank as it was.
        ranks = []
        fit = xqda.fit_xqda

        def recording_fit(*args, **kwargs):
            model = fit(*args, **kwargs)
            ranks.append(model.rank)
            return model

        monkeypatch.setattr(xqda, "fit_xqda", recording_fit)
        pipe = evaluation.PipelineConfig(flip_bits=2)
        for config in (small_config(identity_count=24, vision_noise=1.5),
                       small_config(vision_noise=1.5)):
            dataset = self.make_attributed_dataset(config)
            splits = synth.gen_splits(config)
            ranks.clear()
            base = evaluation.evaluate_scenario(dataset, splits, scenario, pipe, master_seed=4)
            setattr(dataset, field, getattr(dataset, field) * 1e3)
            scaled = evaluation.evaluate_scenario(dataset, splits, scenario, pipe, master_seed=4)
            assert np.array_equal(base.mean, scaled.mean)
            assert ranks[:len(splits)] == ranks[len(splits):]
