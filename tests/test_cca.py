import numpy as np
import pytest

from xmreid import cca, synth
from xmreid.errors import (
    InvalidConfig,
    KOutOfRange,
    MissingModality,
    MissingModel,
    ShapeMismatch,
    TooFewSamples,
)
from xmreid.rng import stream


def shared_latent_pair(rng, n, d_x=2, d_y=2, noise_x=0.3, noise_y=0.3, latent_dim=1):
    z = rng.standard_normal((n, latent_dim))
    a = rng.standard_normal((latent_dim, d_x))
    b = rng.standard_normal((latent_dim, d_y))
    x = z @ a + noise_x * rng.standard_normal((n, d_x))
    y = z @ b + noise_y * rng.standard_normal((n, d_y))
    return x, y


class TestRegularizedCov:
    def test_population_divisor(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        cov = cca.regularized_cov(x, 0.0)
        assert np.array_equal(cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_ridge_scaling(self):
        # covariance is exactly the identity -> trace/d = 1 -> S + ridge*I
        x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        cov = cca.regularized_cov(x, 0.1)
        assert np.allclose(cov, 1.1 * np.eye(2), atol=1e-15)

    def test_single_sample(self):
        with pytest.raises(TooFewSamples):
            cca.regularized_cov(np.ones((1, 3)), 0.0)


class TestFitCca:
    def test_self_correlation(self):
        rng = stream(31, 1)
        x = rng.standard_normal((50, 3))
        model = cca.fit_cca(x, x, k=3, ridge=1e-6)
        assert np.all(model.correlations >= 0.999)

    def test_sign_flip_absorbed(self):
        rng = stream(31, 2)
        x = rng.standard_normal((50, 3))
        model = cca.fit_cca(x, -x, k=3, ridge=1e-6)
        assert np.all(model.correlations >= 0.999)

    def test_against_grid_oracle(self):
        rng = stream(31, 3)
        x, y = shared_latent_pair(rng, 400)
        model = cca.fit_cca(x, y, k=2, ridge=1e-6)
        best = synth.oracle_cca_grid(x, y)
        assert abs(model.correlations[0] - best) < 0.01
        assert model.correlations[1] < 0.2

    def test_whitening_constraint(self):
        rng = stream(31, 4)
        for trial in range(10):
            d = int(rng.integers(2, 21))
            n = int(rng.integers(d + 5, 80))
            x = rng.standard_normal((n, d))
            y = rng.standard_normal((n, d))
            ridge = 1e-4
            model = cca.fit_cca(x, y, k=min(d, 4), ridge=ridge)
            sxx = cca.regularized_cov(x, ridge)
            syy = cca.regularized_cov(y, ridge)
            k = model.k
            assert np.linalg.norm(model.w_x.T @ sxx @ model.w_x - np.eye(k)) < 1e-8
            assert np.linalg.norm(model.w_y.T @ syy @ model.w_y - np.eye(k)) < 1e-8

    def test_invertible_transform_invariance(self):
        rng = stream(31, 5)
        x, y = shared_latent_pair(rng, 300, d_x=4, d_y=3, latent_dim=2)
        transform = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        base = cca.fit_cca(x, y, k=3, ridge=0.0)
        moved = cca.fit_cca(x @ transform, y, k=3, ridge=0.0)
        assert np.allclose(base.correlations, moved.correlations, atol=1e-6)

    def test_broken_pairing_kills_correlation(self):
        rng = stream(31, 6)
        n = 2000
        x = rng.standard_normal((n, 3))
        y = rng.standard_normal((n, 3))
        model = cca.fit_cca(x, y, k=3, ridge=1e-8)
        assert model.correlations[0] < 3.0 / np.sqrt(n)

    def test_exchange_symmetry(self):
        rng = stream(31, 7)
        x, y = shared_latent_pair(rng, 200, d_x=3, d_y=5, latent_dim=2)
        forward = cca.fit_cca(x, y, k=3, ridge=1e-6)
        backward = cca.fit_cca(y, x, k=3, ridge=1e-6)
        assert np.allclose(forward.correlations, backward.correlations, atol=1e-8)

    def test_correlations_clipped_and_sorted(self):
        rng = stream(31, 8)
        x, y = shared_latent_pair(rng, 60, d_x=4, d_y=4, latent_dim=3, noise_x=0.05, noise_y=0.05)
        model = cca.fit_cca(x, y, k=4)
        assert np.all(model.correlations <= 1.0)
        assert np.all(model.correlations >= 0.0)
        assert np.all(np.diff(model.correlations) <= 1e-12)

    def test_zscore_leaves_correlations_and_raw_projection_valid(self):
        rng = stream(31, 10)
        x, y = shared_latent_pair(rng, 150, d_x=4, d_y=3, latent_dim=2)
        x = x * np.array([1.0, 10.0, 0.1, 100.0])
        plain = cca.fit_cca(x, y, k=2, ridge=0.0)
        scaled = cca.fit_cca(x, y, k=2, ridge=0.0, zscore=True)
        assert np.allclose(plain.correlations, scaled.correlations, atol=1e-6)
        # projections still consume raw features and satisfy unit variance
        proj = cca.project(scaled, "x", x)
        assert np.allclose(proj.var(axis=0), 1.0, atol=1e-6)

    def test_k_out_of_range(self):
        rng = stream(31, 9)
        x = rng.standard_normal((20, 3))
        with pytest.raises(KOutOfRange):
            cca.fit_cca(x, x, k=4)
        with pytest.raises(KOutOfRange):
            cca.fit_cca(x, x, k=0)

    def test_default_rank(self):
        rng = stream(31, 10)
        x, y = shared_latent_pair(rng, 30, d_x=5, d_y=3)
        assert cca.fit_cca(x, y).k == 3
        wide = rng.standard_normal((150, 130))
        assert cca.fit_cca(wide, wide[:, ::-1]).k == cca.DEFAULT_RANK_BUDGET

    def test_row_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cca.fit_cca(np.zeros((10, 2)), np.zeros((9, 2)), k=1)


class TestProject:
    def make_identity_model(self, d=3):
        return cca.CcaModel(
            w_x=np.eye(d), w_y=np.eye(d),
            correlations=np.ones(d),
            mean_x=np.zeros(d), mean_y=np.zeros(d), ridge=0.0,
        )

    def test_mean_maps_to_zero(self):
        rng = stream(32, 1)
        x, y = shared_latent_pair(rng, 40)
        model = cca.fit_cca(x, y, k=2)
        assert np.allclose(cca.project(model, "x", model.mean_x), 0.0, atol=1e-12)

    def test_identity_model_passthrough(self):
        model = self.make_identity_model()
        vec = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(cca.project(model, "x", vec), vec)

    def test_linearity_with_zero_mean(self):
        model = self.make_identity_model()
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([-1.0, 0.0, 1.0])
        left = cca.project(model, "y", a + b)
        right = cca.project(model, "y", a) + cca.project(model, "y", b)
        assert np.allclose(left, right, atol=1e-14)

    def test_dim_mismatch(self):
        model = self.make_identity_model()
        with pytest.raises(ShapeMismatch):
            cca.project(model, "x", np.zeros(4))


class TestFuse:
    vision = np.arange(4.0)
    language = np.array([5.0, 6.0])
    attributes = np.array([1, 0, 1], dtype=np.uint8)

    def identity_model(self):
        return cca.CcaModel(
            w_x=np.eye(4), w_y=np.eye(2)[:, :2],
            correlations=np.ones(2),
            mean_x=np.zeros(4), mean_y=np.zeros(2), ridge=0.0,
        )

    def test_concat_dimensions(self):
        rng = stream(33, 1)
        x = rng.standard_normal(2048)
        y = rng.standard_normal(1024)
        fused = cca.fuse("VLxVL", vision=x, language=y)
        assert fused.shape == (3072,)
        assert np.array_equal(fused[:2048], x)

    def test_vxl_identity_model(self):
        model = self.identity_model()
        gallery = cca.fuse("VxL", vision=self.vision, model=model, side="gallery")
        query = cca.fuse("VxL", language=self.language, model=model, side="query")
        assert np.array_equal(gallery, self.vision)
        assert np.array_equal(query, self.language)

    def test_vxvl_concatenates_projection(self):
        model = self.identity_model()
        query = cca.fuse(
            "VxVL", vision=self.vision, language=self.language, model=model, side="query"
        )
        assert np.array_equal(query, np.concatenate([self.vision, self.language]))

    def test_vaxva_bits(self):
        fused = cca.fuse("VAxVA", vision=self.vision, attributes=self.attributes)
        assert np.array_equal(fused[4:], [1.0, -1.0, 1.0])

    @pytest.mark.parametrize("side", [cca.GALLERY, cca.QUERY])
    @pytest.mark.parametrize("scenario", cca.SCENARIOS)
    def test_matrix_equals_rows(self, scenario, side):
        rng = stream(33, 2)
        x, y = shared_latent_pair(rng, 40, d_x=6, d_y=4, latent_dim=2)
        bits = rng.integers(0, 2, size=(40, 5)).astype(np.uint8)
        model = cca.fit_cca(x, y, k=3)
        matrix = cca.fuse(scenario, vision=x, language=y, model=model, side=side,
                          attributes=bits)
        rows = np.array([
            cca.fuse(scenario, vision=a, language=b, model=model, side=side, attributes=c)
            for a, b, c in zip(x, y, bits)
        ])
        assert matrix.shape == rows.shape
        if any(part.startswith("cca_") for part in cca.SCENARIO_SPEC[scenario][side]):
            assert np.max(np.abs(matrix - rows)) <= 1e-12 * np.max(np.abs(rows))
        else:
            assert np.array_equal(matrix, rows)

    def test_missing_modality(self):
        with pytest.raises(MissingModality):
            cca.fuse("VxL", vision=None, model=self.identity_model(), side="query")

    def test_missing_model(self):
        with pytest.raises(MissingModel):
            cca.fuse("VxL", vision=self.vision, side="gallery")

    def test_unknown_scenario(self):
        with pytest.raises(InvalidConfig):
            cca.fuse("VxX", vision=self.vision)


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        rng = stream(34, 1)
        x, y = shared_latent_pair(rng, 60, d_x=5, d_y=3, latent_dim=2)
        model = cca.fit_cca(x, y, k=2)
        path = tmp_path / "model.cca"
        cca.save_model(model, path)
        loaded = cca.load_model(path)
        assert np.array_equal(loaded.w_x, model.w_x)
        assert np.array_equal(loaded.w_y, model.w_y)
        assert np.array_equal(loaded.correlations, model.correlations)
        again = tmp_path / "model2.cca"
        cca.save_model(loaded, again)
        assert path.read_bytes() == again.read_bytes()
