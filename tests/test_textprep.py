import numpy as np
import pytest

from xmreid import textprep
from xmreid.dataio import EmbeddingTable
from xmreid.errors import InvalidConfig, UnknownMethod
from xmreid.rng import stream


def toy_table(dim=4, tokens=("a", "short", "slim", "woman", "red", "hat")):
    rng = np.random.default_rng(1)
    return EmbeddingTable(
        dimension=dim, vectors={t: rng.standard_normal(dim) for t in tokens}
    )


class TestTokenize:
    def test_sentence(self):
        assert textprep.tokenize("A short, slim woman.") == ["a", "short", "slim", "woman"]

    def test_empty(self):
        assert textprep.tokenize("") == []

    def test_hyphen_separates(self):
        assert textprep.tokenize("ice-blue jeans") == ["ice", "blue", "jeans"]

    def test_digits_kept_underscore_split(self):
        assert textprep.tokenize("t2_x") == ["t2", "x"]


class TestToTensor:
    def test_padding(self):
        table = toy_table()
        tensor = textprep.to_tensor(["a", "short", "slim"], table, max_len=70)
        assert tensor.used == 3
        assert tensor.values.shape == (4, 70)
        assert np.all(tensor.values[:, 3:] == 0.0)
        assert np.array_equal(tensor.values[:, 1], table.get("short"))

    def test_truncation_after_oov_removal(self):
        table = toy_table()
        tokens = ["a", "short"] * 40  # 80 known tokens
        tensor = textprep.to_tensor(tokens, table, max_len=70)
        assert tensor.used == 70

    def test_all_oov(self):
        tensor = textprep.to_tensor(["xyzzy", "plugh"], toy_table(), max_len=8)
        assert tensor.used == 0
        assert np.all(tensor.values == 0.0)

    def test_oov_skipped_not_zeroed(self):
        table = toy_table()
        tensor = textprep.to_tensor(["a", "xyzzy", "short"], table, max_len=5)
        assert tensor.used == 2
        assert np.array_equal(tensor.values[:, 1], table.get("short"))

    def test_deterministic(self):
        table = toy_table()
        one = textprep.to_tensor(["red", "hat"], table)
        two = textprep.to_tensor(["red", "hat"], table)
        assert np.array_equal(one.values, two.values)


class TestAugmentDrop:
    def test_cap_on_short_lists(self):
        rng = stream(0, 1)
        for _ in range(50):
            out = textprep.augment_drop(["only"], rng)
            assert out == ["only"]
        assert textprep.augment_drop([], rng) == []

    def test_subsequence_property(self):
        rng = stream(1, 2)
        tokens = [f"w{i}" for i in range(30)]
        for _ in range(200):
            out = textprep.augment_drop(tokens, rng)
            it = iter(tokens)
            assert all(t in it for t in out)

    def test_mean_removed_count(self):
        rng = stream(2, 3)
        tokens = [f"w{i}" for i in range(40)]
        removed = [40 - len(textprep.augment_drop(tokens, rng)) for _ in range(100_000)]
        assert abs(np.mean(removed) - 5.0) < 0.05


class TestAugmentSynonym:
    def test_absent_token_unchanged(self):
        rng = stream(3, 4)
        out = textprep.augment_synonym(["plain"], {"other": ("syn",)}, rng)
        assert out == ["plain"]

    def test_rank_weighting(self):
        # two synonyms at ranks 1,2 -> rank 1 chosen with probability 2/3
        rng = stream(4, 5)
        synonyms = {"hat": ("cap", "beanie")}
        picks = []
        for _ in range(300_000):
            out = textprep.augment_synonym(["hat"], synonyms, rng, replace_prob=1.0)
            picks.append(out[0] == "cap")
        assert abs(np.mean(picks) - 2.0 / 3.0) < 0.01

    def test_seed_determinism(self):
        synonyms = {"hat": ("cap", "beanie"), "red": ("crimson",)}
        tokens = ["red", "hat"] * 10
        one = textprep.augment_synonym(tokens, synonyms, stream(7, 1))
        two = textprep.augment_synonym(tokens, synonyms, stream(7, 1))
        assert one == two


class TestAugmentGaussian:
    def make_tensor(self, used=3, dim=4, max_len=10):
        values = np.zeros((dim, max_len))
        values[:, :used] = 1.0
        return textprep.DescriptionTensor(values=values, used=used)

    def test_sigma_zero_identical(self):
        tensor = self.make_tensor()
        out = textprep.augment_gaussian(tensor, 0.0, stream(5, 1))
        assert np.array_equal(out.values, tensor.values)

    def test_padding_untouched(self):
        tensor = self.make_tensor(used=3, max_len=10)
        out = textprep.augment_gaussian(tensor, 0.5, stream(5, 2))
        assert np.all(out.values[:, 3:] == 0.0)
        assert not np.array_equal(out.values[:, :3], tensor.values[:, :3])

    def test_sample_std(self):
        dim, used = 100, 100
        tensor = textprep.DescriptionTensor(values=np.zeros((dim, used)), used=used)
        rng = stream(6, 3)
        deltas = []
        for _ in range(100):
            out = textprep.augment_gaussian(tensor, 0.05, rng)
            deltas.append(out.values[:, :used])
        sample = np.concatenate([d.ravel() for d in deltas])
        assert sample.size == 1_000_000
        assert abs(sample.std() - 0.05) < 0.001

    def test_negative_sigma_rejected(self):
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidConfig):
                textprep.augment_gaussian(self.make_tensor(), sigma, stream(0, 0))


class TestAugmentCorpus:
    corpus = [("id1", 1, ["a", "short", "slim", "woman"]), ("id1", 2, ["red", "hat"])]

    def test_factor_one_unchanged(self):
        out = textprep.augment_corpus(self.corpus, "drop", 1, stream(8, 1))
        assert [(i, v, list(t)) for i, v, t in out] == [(i, v, list(t)) for i, v, t in self.corpus]

    def test_record_count(self):
        out = textprep.augment_corpus(self.corpus, "drop", 500, stream(8, 2))
        assert len(out) == 2 * 500

    def test_labels_preserved(self):
        out = textprep.augment_corpus(self.corpus, "drop", 5, stream(8, 3))
        assert [rec[0] for rec in out[:5]] == ["id1"] * 5
        assert [rec[1] for rec in out[5:]] == [2] * 5

    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            textprep.augment_corpus(self.corpus, "frobnicate", 2, stream(8, 4))

    def test_gaussian_is_tensor_level(self):
        with pytest.raises(UnknownMethod):
            textprep.augment_corpus(self.corpus, "gaussian", 2, stream(8, 5))


class TestBuildTrainingTensors:
    corpus = [("id1", 1, ["a", "short"]), ("id2", 1, ["red", "hat"])]

    def test_plain_embedding(self):
        table = toy_table()
        out = textprep.build_training_tensors(self.corpus, table, max_len=6)
        assert len(out) == 2
        assert out[0][2].used == 2

    def test_gaussian_expansion(self):
        table = toy_table()
        out = textprep.build_training_tensors(
            self.corpus, table, max_len=6, method="gaussian", factor=3, rng=stream(9, 1)
        )
        assert len(out) == 6
        clean, noisy = out[0][2], out[1][2]
        assert not np.array_equal(clean.values, noisy.values)
        assert np.all(noisy.values[:, clean.used:] == 0.0)

    def test_drop_expansion(self):
        out = textprep.build_training_tensors(
            self.corpus, toy_table(), max_len=6, method="drop", factor=4, rng=stream(9, 2)
        )
        assert len(out) == 8

    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            textprep.build_training_tensors(self.corpus, toy_table(), method="bogus", factor=2)
