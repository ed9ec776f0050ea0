import ast
from pathlib import Path

import numpy as np
import pytest

from xmreid import cca, dataio, synth
from xmreid.errors import DimensionNotTwo, InvalidConfig, NoConvergence, TooFewIdentities, TooLarge
from xmreid.rng import stream


def tiny_config(**kw):
    defaults = dict(
        identity_count=8,
        samples_per_view=2,
        latent_dim=3,
        vision_dim=6,
        language_dim=4,
        num_splits=2,
        seed=11,
    )
    defaults.update(kw)
    return synth.SynthConfig(**defaults)


class TestGenPaired:
    def test_shapes_and_counts(self):
        config = tiny_config()
        dataset = synth.gen_paired(config)
        assert len(dataset) == 8 * 2 * 2
        assert dataset.vision.shape == (32, 6)
        assert dataset.language.shape == (32, 4)
        assert len(set(dataset.identities)) == 8

    def test_seed_determinism_bytewise(self, tmp_path):
        config = tiny_config()
        paths = []
        for name in ("one.feat", "two.feat"):
            dataset = synth.gen_paired(config)
            path = tmp_path / name
            dataio.save_features(dataset.identities, dataset.views, dataset.vision, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self):
        a = synth.gen_paired(tiny_config(seed=1))
        b = synth.gen_paired(tiny_config(seed=2))
        assert not np.array_equal(a.vision[0], b.vision[0])

    def test_noiseless_shared_latent_recovered_by_cca(self):
        config = tiny_config(
            identity_count=30,
            vision_noise=0.0,
            language_noise=0.0,
            view_shift=0.0,
            latent_dim=3,
            vision_dim=6,
            language_dim=5,
        )
        dataset = synth.gen_paired(config)
        model = cca.fit_cca(dataset.vision, dataset.language, k=3, ridge=1e-9)
        assert np.all(model.correlations >= 0.999)

    def test_private_dims_reduce_cross_modal_correlation(self):
        noisy = tiny_config(identity_count=40, latent_dim=1, vision_private_dim=4,
                            language_private_dim=4, vision_noise=0.2, language_noise=0.2)
        dataset = synth.gen_paired(noisy)
        model = cca.fit_cca(dataset.vision, dataset.language, k=3, ridge=1e-6)
        assert model.correlations[0] > 0.8   # the one shared dimension
        assert model.correlations[1] < 0.75  # private structure does not align

    def test_reference_config_correlation_profile(self):
        # thresholds frozen from a 20-seed calibration run: min rho_5 0.84,
        # max rho_6 0.46; the gap cleanly separates latent rank from noise
        config = synth.SynthConfig()
        dataset = synth.gen_paired(config)
        k = config.latent_dim + 1
        model = cca.fit_cca(dataset.vision, dataset.language, k=k, ridge=1e-6)
        assert np.all(model.correlations[: config.latent_dim] >= 0.8)
        assert model.correlations[config.latent_dim] <= 0.55

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            synth.gen_paired(tiny_config(identity_count=0))
        with pytest.raises(InvalidConfig):
            synth.gen_paired(tiny_config(vision_noise=-1.0))
        for scale in (float("nan"), float("inf")):
            with pytest.raises(InvalidConfig):
                synth.gen_paired(tiny_config(nuisance_scale=scale))
        # rng.stream keys on the low 64 bits, so -1 would alias 2**64 - 1
        for seed in (-1, 2 ** 64):
            with pytest.raises(InvalidConfig, match="seed"):
                synth.gen_paired(tiny_config(seed=seed))
        tiny_config(seed=2 ** 64 - 1).validate()


class TestGenAttributes:
    def test_unique_per_identity(self):
        config = tiny_config(attribute_bits=5)
        table = synth.gen_attributes(config)
        patterns = {bits.tobytes() for bits in table.bits.values()}
        assert len(patterns) == config.identity_count
        assert table.width == 5

    def test_capacity_check(self):
        with pytest.raises(InvalidConfig):
            synth.gen_attributes(tiny_config(identity_count=8, attribute_bits=2))


class TestGenSplits:
    def test_partition(self):
        config = tiny_config()
        splits = synth.gen_splits(config)
        assert len(splits) == 2
        for split in splits:
            train = {i for i, role in split.roles.items() if role == "train"}
            test = {i for i, role in split.roles.items() if role == "test"}
            assert train.isdisjoint(test)
            assert len(train) + len(test) == config.identity_count

    def test_roundtrip_through_file(self, tmp_path):
        config = tiny_config()
        splits = synth.gen_splits(config)
        path = tmp_path / "s.split"
        dataio.save_splits(splits, path)
        again = dataio.load_splits(path)
        assert [s.roles for s in again] == [s.roles for s in splits]


class TestGenCorpus:
    def test_deterministic_and_parseable(self, tmp_path):
        config = tiny_config()
        corpus = synth.gen_corpus(config)
        assert len(corpus) == config.identity_count * 2
        path = tmp_path / "c.corpus"
        dataio.save_corpus(corpus, path)
        assert dataio.load_corpus(path) == corpus
        assert corpus == synth.gen_corpus(config)

    def test_vocabulary_covers_corpus(self):
        config = tiny_config()
        table = synth.gen_vocabulary_embeddings(config)
        for _, _, text in synth.gen_corpus(config):
            for token in text.split(" "):
                assert token in table.vectors


class TestCcaGridOracle:
    def test_identical_views(self):
        rng = stream(61, 1)
        x = rng.standard_normal((200, 2))
        assert synth.oracle_cca_grid(x, x) > 1.0 - 1e-6

    def test_independent_views_near_zero(self):
        rng = stream(61, 2)
        x = rng.standard_normal((2000, 2))
        y = rng.standard_normal((2000, 2))
        assert synth.oracle_cca_grid(x, y) <= 0.1

    def test_requires_two_dimensions(self):
        with pytest.raises(DimensionNotTwo):
            synth.oracle_cca_grid(np.zeros((5, 3)), np.zeros((5, 2)))


class TestPairwiseOracle:
    def test_too_large(self):
        feats = np.zeros((300, 2))
        ids = [f"p{i % 30}" for i in range(300)]
        views = [1 if (i // 30) % 2 == 0 else 2 for i in range(300)]
        with pytest.raises(TooLarge):
            synth.oracle_pairwise_covariances(feats, ids, views, pair_cap=100)

    def test_single_identity(self):
        with pytest.raises(TooFewIdentities):
            synth.oracle_pairwise_covariances(np.zeros((2, 2)), ["a", "a"], [1, 2])

    def test_identical_features_zero_covariances(self):
        feats = np.ones((8, 3))
        ids = ["a", "a", "b", "b"] * 2
        views = [1, 2, 1, 2, 1, 2, 1, 2]
        intra, extra = synth.oracle_pairwise_covariances(feats, ids, views)
        assert np.array_equal(intra, np.zeros((3, 3)))
        assert np.array_equal(extra, np.zeros((3, 3)))


class TestCmcChanceOracle:
    def test_chance_level(self):
        curve = synth.oracle_cmc_chance(10, probes=1, trials=1_000_000, rng=stream(62, 1))
        assert abs(curve[0] - 0.100) < 0.002
        assert curve[-1] == 1.0
        assert np.all(np.diff(curve) >= 0.0)


class TestSolverOracles:
    def test_triangular_solves(self):
        rng = np.random.default_rng(19)
        lower = np.tril(rng.standard_normal((6, 6)))
        lower[np.diag_indices(6)] = rng.uniform(1.0, 2.0, size=6)
        b = rng.standard_normal((6, 3))
        x = synth._solve_lower(lower, b)
        assert np.allclose(lower @ x, b, atol=1e-12)
        y = synth._solve_lower_transpose(lower, b)
        assert np.allclose(lower.T @ y, b, atol=1e-12)

    def test_no_convergence_is_reachable(self, monkeypatch):
        # Sanity: the cap triggers only if we artificially starve the sweeps.
        monkeypatch.setattr(synth, "JACOBI_SWEEP_CAP", 0)
        with pytest.raises(NoConvergence):
            synth.oracle_jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))


class TestOracleIndependence:
    CHECKED = {"linalg", "cca", "xqda", "evaluation", "textcnn"}

    def test_synth_imports_no_checked_module(self):
        # An oracle that imports what it checks could share the fault it
        # should catch.
        tree = ast.parse(Path(synth.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    imported.add(node.module.split(".")[-1])
                if node.level:  # `from . import x` names modules of the package
                    imported.update(alias.name for alias in node.names)
        assert imported, "the import scan found nothing"
        assert not imported & self.CHECKED
