import tracemalloc

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


def toy_words(**kwargs):
    return textprep.word_table(toy_table(**kwargs))


class TestWordTable:
    def test_rows_coded_by_value(self):
        # equal vectors share an id, and an all-zero or -0.0 vector is id 0,
        # the padding row; the others keep their order of first appearance
        vectors = {"a": [1.0, 2.0], "zero": [0.0, 0.0], "b": [3.0, -1.0], "again": [1.0, 2.0],
                   "negative": [-0.0, 0.0], "c": [0.5, 0.5]}
        table = EmbeddingTable(dimension=2, vectors={t: np.array(v) for t, v in vectors.items()})
        words = textprep.word_table(table)
        assert words.ids == {"a": 1, "zero": 0, "b": 2, "again": 1, "negative": 0, "c": 3}
        assert words.vectors.tobytes() == np.array(
            [[0.0, 0.0], [1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]).tobytes()

    def test_append_grows_storage_geometrically(self):
        words = toy_words()
        starts = [words.append(np.full((3, 4), float(k))) for k in range(50)]
        assert starts == list(range(7, 7 + 150, 3))
        assert len(words.vectors) == 157 and len(words.storage) < 2 * 157 + 3
        assert np.array_equal(words.vectors[7 + 3 * 49:], np.full((3, 4), 49.0))


class TestToTensor:
    def test_padding(self):
        # no padding is stored: the network pads a batch when it stacks it
        table = toy_table()
        words = textprep.word_table(table)
        tensor = textprep.to_tensor(["a", "short", "slim"], words, max_len=70)
        assert tensor.ids.shape == (3,) and tensor.ids.dtype == np.int32
        assert tensor.words is words
        assert tensor.columns().shape == (4, 3)
        assert np.array_equal(tensor.columns()[:, 1], table.vectors["short"])

    def test_truncation_after_oov_removal(self):
        tokens = ["a", "short"] * 40  # 80 known tokens
        tensor = textprep.to_tensor(tokens, toy_words(), max_len=70)
        assert len(tensor.ids) == 70
        assert tensor.columns().shape == (4, 70)

    def test_all_oov(self):
        tensor = textprep.to_tensor(["xyzzy", "plugh"], toy_words(), max_len=8)
        assert len(tensor.ids) == 0
        assert tensor.columns().shape == (4, 0)

    def test_oov_skipped_not_zeroed(self):
        table = toy_table()
        tensor = textprep.to_tensor(["a", "xyzzy", "short"], textprep.word_table(table), max_len=5)
        assert len(tensor.ids) == 2
        assert np.array_equal(tensor.columns()[:, 1], table.vectors["short"])

    def test_deterministic(self):
        words = toy_words()
        one = textprep.to_tensor(["red", "hat"], words)
        two = textprep.to_tensor(["red", "hat"], words)
        assert np.array_equal(one.ids, two.ids)


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

    @pytest.mark.parametrize("count", range(1, 7))
    def test_picks_match_weighted_choice(self, count):
        # the same picks as Generator.choice(count, p=1/r weights), drawn
        # after the replace test's rng.random(), on a twin stream
        ranked = tuple(f"s{r}" for r in range(count))
        out = textprep.augment_synonym(["w"] * 2000, {"w": ranked}, stream(8, count),
                                       replace_prob=1.0)
        twin = stream(8, count)
        weights = 1.0 / np.arange(1, count + 1)
        weights /= weights.sum()
        expected = []
        for _ in range(2000):
            twin.random()
            expected.append(ranked[int(twin.choice(count, p=weights))])
        assert out == expected

    def test_seed_determinism(self):
        synonyms = {"hat": ("cap", "beanie"), "red": ("crimson",)}
        tokens = ["red", "hat"] * 10
        one = textprep.augment_synonym(tokens, synonyms, stream(7, 1))
        two = textprep.augment_synonym(tokens, synonyms, stream(7, 1))
        assert one == two


class TestAugmentGaussian:
    def test_noisy_columns_are_new_rows(self):
        words = toy_words()
        tensor = textprep.to_tensor(["red", "hat", "red"], words)
        clean = words.vectors.copy()
        out = textprep.augment_gaussian(tensor, 0.5, stream(5, 3))
        assert out.words is words and list(out.ids) == [7, 8, 9] and out.ids.dtype == np.int32
        assert np.array_equal(words.vectors[:7], clean)
        noise = stream(5, 3).normal(0.0, 0.5, size=(4, 3))
        assert np.array_equal(out.columns(), tensor.columns() + noise)
        assert textprep.augment_gaussian(tensor, 0.0, stream(5, 4)).ids.tobytes() == tensor.ids.tobytes()
        assert len(words.vectors) == 10

    def make_tensor(self, used=3, dim=4, value=1.0):
        """used columns all equal to value, as ids into a WordTable coded by textprep.code_rows."""
        vectors, (ids,) = textprep.code_rows([np.full((used, dim), value)], dim)
        return textprep.DescriptionTensor(ids.astype(np.int32), textprep.WordTable({}, vectors))

    def test_sigma_zero_identical(self):
        tensor = self.make_tensor()
        out = textprep.augment_gaussian(tensor, 0.0, stream(5, 1))
        assert np.array_equal(out.columns(), tensor.columns())

    def test_sample_std(self):
        dim, used = 100, 100
        tensor = self.make_tensor(used=used, dim=dim, value=0.0)
        rng = stream(6, 3)
        deltas = []
        for _ in range(100):
            out = textprep.augment_gaussian(tensor, 0.05, rng)
            deltas.append(out.columns())
        sample = np.concatenate([d.ravel() for d in deltas])
        assert sample.size == 1_000_000
        assert abs(sample.std() - 0.05) < 0.001

    def test_negative_sigma_rejected(self):
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidConfig):
                textprep.augment_gaussian(self.make_tensor(), sigma, stream(0, 0))


class TestAugmentCorpus:
    corpus = [["a", "short", "slim", "woman"], ["red", "hat"]]

    def test_factor_one_unchanged(self):
        words = toy_words()
        out = textprep.build_training_tensors(self.corpus, words, method="drop", factor=1,
                                              rng=stream(8, 1))
        assert [[t.ids.tolist() for t in group] for group in out] == [
            [textprep.to_tensor(tokens, words).ids.tolist()] for tokens in self.corpus]

    def test_record_count(self):
        out = textprep.build_training_tensors(self.corpus, toy_words(), method="drop",
                                              factor=500, rng=stream(8, 2))
        assert [len(group) for group in out] == [500, 500]

    def test_labels_preserved(self):
        # a group holds only its own description's words, so its label is the description's
        words = toy_words()
        out = textprep.build_training_tensors(self.corpus, words, method="drop", factor=5,
                                              rng=stream(8, 3))
        for tokens, group in zip(self.corpus, out):
            own = {words.ids[t] for t in tokens}
            assert all(set(t.ids.tolist()) <= own and len(t.ids) for t in group)

    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            textprep.build_training_tensors(self.corpus, toy_words(), method="frobnicate",
                                            factor=2, rng=stream(8, 4))


def expected_groups(corpus, embeddings, method, factor, rng, synonyms, sigma):
    """build_training_tensors' groups made by hand on a fresh WordTable: the
    clean tensor of each description, then factor-1 unit augmentations of it,
    drawn in corpus order."""
    words = textprep.word_table(embeddings)
    groups = []
    for tokens in corpus:
        clean = textprep.to_tensor(tokens, words, 6)
        group = [clean]
        for _ in range(factor - 1 if method else 0):
            if method == "drop":
                group.append(textprep.to_tensor(textprep.augment_drop(tokens, rng), words, 6))
            elif method == "synonym":
                group.append(textprep.to_tensor(
                    textprep.augment_synonym(tokens, synonyms, rng), words, 6))
            else:
                group.append(textprep.augment_gaussian(clean, sigma, rng))
        groups.append(group)
    return groups


class TestBuildTrainingTensors:
    corpus = [["a", "short"], ["red", "hat"]]

    @pytest.mark.parametrize("factor", [1, 3])
    @pytest.mark.parametrize("method", [None, "drop", "synonym", "gaussian"])
    def test_group_layout(self, method, factor):
        # one group per description: its clean tensor, then factor-1 variants
        # of the clean description (never of the previous variant), drawn in
        # corpus order from the one stream
        corpus = [["a", "short", "slim", "woman", "red", "hat"], ["red", "hat", "a"],
                  ["woman", "xyzzy", "short", "slim"]]
        synonyms = {"red": ("hat", "slim"), "hat": ("red",), "short": ("slim", "a", "woman"),
                    "slim": ("short",), "a": ("woman",), "woman": ("a", "red")}
        embeddings = toy_table()
        words = textprep.word_table(embeddings)
        out = textprep.build_training_tensors(corpus, words, max_len=6, method=method,
                                              factor=factor, rng=stream(9, 7),
                                              synonyms=synonyms, sigma=0.3)
        expected = expected_groups(corpus, embeddings, method, factor, stream(9, 7),
                                   synonyms, 0.3)
        assert [len(group) for group in out] == [factor if method else 1] * len(corpus)
        for tokens, group, want in zip(corpus, out, expected):
            assert group[0].ids.tolist() == textprep.to_tensor(tokens, words, 6).ids.tolist()
            assert all(tensor.words is words for tensor in group)
            assert [t.ids.tolist() for t in group] == [t.ids.tolist() for t in want]
            assert [t.columns().tobytes() for t in group] == [t.columns().tobytes() for t in want]
        if method and factor > 1:  # the variants are drawn, not copies of the clean tensor
            assert any(t.ids.tolist() != group[0].ids.tolist() for group in out for t in group[1:])

    def test_plain_embedding(self):
        out = textprep.build_training_tensors(self.corpus, toy_words(), max_len=6)
        assert len(out) == 2
        assert len(out[0][0].ids) == 2

    def test_gaussian_expansion(self):
        out = textprep.build_training_tensors(
            self.corpus, toy_words(), max_len=6, method="gaussian", factor=3, rng=stream(9, 1)
        )
        assert [len(group) for group in out] == [3, 3]
        clean, noisy = out[0][0], out[0][1]
        assert not np.array_equal(clean.columns(), noisy.columns())
        assert noisy.columns().shape == clean.columns().shape == (4, 2)

    @pytest.mark.parametrize("method", [None, "gaussian"])
    def test_bad_sigma_rejected_on_every_call(self, method):
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidConfig, match="sigma must be finite"):
                textprep.build_training_tensors(self.corpus, toy_words(), max_len=6, method=method,
                                                factor=2, rng=stream(9, 1), sigma=sigma)

    def test_synonym_map_needed_only_for_variants(self):
        words = toy_words()
        out = textprep.build_training_tensors(self.corpus, words, method="synonym", factor=1)
        assert [len(group) for group in out] == [1, 1]
        with pytest.raises(InvalidConfig, match="needs a synonym map"):
            textprep.build_training_tensors(self.corpus, words, method="synonym", factor=3,
                                            rng=stream(9, 3))

    @pytest.mark.parametrize("method", ["drop", "synonym", "gaussian"])
    def test_variants_need_a_stream(self, method):
        # refused before any variant is drawn, so the table gains no noisy rows;
        # factor 1 draws none and needs no stream
        words = toy_words()
        rows = len(words.vectors)
        with pytest.raises(InvalidConfig, match="needs a random stream"):
            textprep.build_training_tensors(self.corpus, words, method=method, factor=2,
                                            synonyms={"red": ("hat",)})
        assert len(words.vectors) == rows
        out = textprep.build_training_tensors(self.corpus, words, method=method, factor=1)
        assert [len(group) for group in out] == [1, 1]

    def test_gaussian_leaves_clean_columns(self):
        # each noisy column is a new row of the run's table; the rows that
        # clean descriptions read are shared, so noise must not touch them
        table = toy_table()
        words = textprep.word_table(table)
        out = textprep.build_training_tensors(
            self.corpus, words, max_len=6, method="gaussian", factor=3, rng=stream(9, 1)
        )
        for tokens, (clean, *_) in zip(self.corpus, out):
            assert np.array_equal(clean.columns(), np.stack([table.vectors[t] for t in tokens], 1))
        assert len(words.vectors) == 1 + 6 + 2 * 2 * 2

    def test_memory_holds_only_words(self):
        # 200 eight-word descriptions at E 300: their word vectors would take
        # 3.84 MB, their ids far less, and max_len 70 must not multiply either by 70 / 8
        words = [f"w{i}" for i in range(8)]
        table = textprep.word_table(toy_table(dim=300, tokens=words))
        corpus = [words] * 200
        tracemalloc.start()
        try:
            out = textprep.build_training_tensors(corpus, table, max_len=70)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 200
        assert peak < 1.2 * 200 * 300 * 8 * 8

    def test_drop_expansion(self):
        out = textprep.build_training_tensors(
            self.corpus, toy_words(), max_len=6, method="drop", factor=4, rng=stream(9, 2)
        )
        assert [len(group) for group in out] == [4, 4]

    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            textprep.build_training_tensors(self.corpus, toy_words(), method="bogus", factor=2)
