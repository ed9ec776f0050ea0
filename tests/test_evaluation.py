import numpy as np
import pytest

from xmreid import evaluation, synth, xqda
from xmreid.errors import (
    EmptyGallery,
    InvalidConfig,
    MissingModality,
    NonFiniteValue,
    NOutOfRange,
    ProbeIdentityAbsent,
    ShapeMismatch,
)
from xmreid.rng import stream


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
        with pytest.raises(ProbeIdentityAbsent):
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
        assert report.per_split[0].gallery_size == len(splits[0].test_identities())

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

    def test_vision_scale_is_normalised_away(self, monkeypatch):
        # VAxVA features are z-scored on train statistics, so scaling the
        # vision part by 1000 must leave every CMC rank and every split's
        # XQDA rank as it was.
        ranks = []
        fit = xqda.fit_xqda

        def recording_fit(*args, **kwargs):
            model = fit(*args, **kwargs)
            ranks.append(model.rank)
            return model

        monkeypatch.setattr(xqda, "fit_xqda", recording_fit)
        for config in (small_config(identity_count=24, vision_noise=1.5),
                       small_config(vision_noise=1.5)):
            dataset = self.make_attributed_dataset(config)
            splits = synth.gen_splits(config)
            ranks.clear()
            base = evaluation.attribute_degradation_sweep(dataset, splits, [2], master_seed=4)
            dataset.vision = dataset.vision * 1e3
            scaled = evaluation.attribute_degradation_sweep(dataset, splits, [2], master_seed=4)
            assert np.array_equal(base[2].mean, scaled[2].mean)
            assert ranks[:len(splits)] == ranks[len(splits):]
