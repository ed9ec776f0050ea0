import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from xmreid import dataio
from xmreid.errors import (
    DimensionMismatch,
    DuplicateAssignment,
    DuplicateToken,
    MalformedHeader,
    MisalignedRecords,
    NonFiniteValue,
    RaggedAttributes,
    UnknownIdentity,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFeat:
    def test_basic_parse(self, tmp_path):
        path = write(
            tmp_path / "a.feat",
            "XMREID-FEAT 1\n2 3\nid1\t1\t1 2 3\nid2\t2\t-1 0.5 2e-3\n",
        )
        records = dataio.load_features(path)
        assert len(records) == 2
        assert records[0][0] == "id1" and records[0][1] == 1
        assert np.array_equal(records[0][2], [1.0, 2.0, 3.0])
        assert records[1][2][2] == 2e-3

    def test_dimension_mismatch(self, tmp_path):
        path = write(tmp_path / "a.feat", "XMREID-FEAT 1\n1 3\nid1\t1\t1 2\n")
        with pytest.raises(DimensionMismatch):
            dataio.load_features(path)

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path / "a.feat", "XMREID-FEAT 1\n1 2\nid1\t1\t1 NaN\n")
        with pytest.raises(NonFiniteValue):
            dataio.load_features(path)

    @pytest.mark.parametrize("row", ["1_0 2\r", "1_0 2", "1 2\r", "1 \u00a02", "1 2\x0b"],
                             ids=["separator-crlf", "separator", "crlf", "nbsp", "vtab"])
    def test_separator_or_whitespace_in_real(self, tmp_path, row):
        path = write(tmp_path / "a.feat", f"XMREID-FEAT 1\n1 2\nid1\t1\t{row}\n")
        with pytest.raises(MalformedHeader):
            dataio.load_features(path)

    def test_count_disagreement(self, tmp_path):
        path = write(tmp_path / "a.feat", "XMREID-FEAT 1\n2 2\nid1\t1\t1 2\n")
        with pytest.raises(MalformedHeader):
            dataio.load_features(path)

    def test_bad_magic(self, tmp_path):
        path = write(tmp_path / "a.feat", "FEAT 1\n0 1\n")
        with pytest.raises(MalformedHeader):
            dataio.load_features(path)

    def test_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            ("person a", 1, rng.standard_normal(4)),
            ("person b", 2, rng.standard_normal(4) * 1e-7),
            ("person b", 1, rng.standard_normal(4) * 1e9),
        ]
        first = tmp_path / "one.feat"
        second = tmp_path / "two.feat"
        dataio.save_features(records, first)
        loaded = dataio.load_features(first)
        dataio.save_features(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        for orig, back in zip(records, loaded):
            assert np.array_equal(orig[2], back[2])


class TestCorpus:
    def test_roundtrip(self, tmp_path):
        records = [("id1", 1, "A short, slim woman."), ("id1", 2, "Tall man; red coat.")]
        path = tmp_path / "c.corpus"
        dataio.save_corpus(records, path)
        assert dataio.load_corpus(path) == records

    def test_text_may_contain_tabs(self, tmp_path):
        path = write(tmp_path / "c.corpus", "XMREID-CORPUS 1\nid1\t1\ta\tb\n")
        assert dataio.load_corpus(path) == [("id1", 1, "a\tb")]


class TestEmbeddings:
    def test_basic(self, tmp_path):
        path = write(tmp_path / "e.emb", "3 4\nred 1 0 0 0\nblue 0 1 0 0\nhat 0 0 1 0\n")
        table = dataio.load_embeddings(path)
        assert table.dimension == 4
        assert len(table) == 3
        assert np.array_equal(table.get("blue"), [0, 1, 0, 0])

    def test_duplicate_token(self, tmp_path):
        path = write(tmp_path / "e.emb", "2 2\nred 1 0\nred 0 1\n")
        with pytest.raises(DuplicateToken):
            dataio.load_embeddings(path)

    def test_dimension_300_fragment(self, tmp_path):
        # word2vec-style fragment at the published embedding width
        vec = " ".join(dataio.format_real(v) for v in np.linspace(-1, 1, 300))
        path = write(tmp_path / "e.emb", f"2 300\nking {vec}\nqueen {vec}\n")
        table = dataio.load_embeddings(path)
        assert table.dimension == 300
        assert table.get("king").shape == (300,)

    def test_roundtrip(self, tmp_path):
        table = dataio.EmbeddingTable(dimension=2, vectors={"a": np.array([0.1, -0.2])})
        path = tmp_path / "e.emb"
        dataio.save_embeddings(table, path)
        again = tmp_path / "e2.emb"
        dataio.save_embeddings(dataio.load_embeddings(path), again)
        assert path.read_bytes() == again.read_bytes()


class TestAttributes:
    def test_width_15(self, tmp_path):
        path = write(tmp_path / "a.attr", "XMREID-ATTR 1 15\nid1\t010110011100101\n")
        table = dataio.load_attributes(path)
        assert table.width == 15
        assert table.get("id1").sum() == 8

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path / "a.attr", "XMREID-ATTR 1 3\nid1\t01\n")
        with pytest.raises(RaggedAttributes):
            dataio.load_attributes(path)

    def test_unknown_identity(self, tmp_path):
        path = write(tmp_path / "a.attr", "XMREID-ATTR 1 2\nghost\t01\n")
        with pytest.raises(UnknownIdentity):
            dataio.load_attributes(path, known_identities={"id1"})

    def test_roundtrip(self, tmp_path):
        table = dataio.AttributeTable(width=4, bits={"id1": np.array([1, 0, 0, 1], dtype=np.uint8)})
        path = tmp_path / "a.attr"
        dataio.save_attributes(table, path)
        again = tmp_path / "a2.attr"
        dataio.save_attributes(dataio.load_attributes(path), again)
        assert path.read_bytes() == again.read_bytes()


class TestSplits:
    def test_two_way_split(self, tmp_path):
        body = "XMREID-SPLIT 1 1\n" + "".join(
            f"1\tid{i}\t{'train' if i < 316 else 'test'}\n" for i in range(632)
        )
        path = write(tmp_path / "s.split", body)
        splits = dataio.load_splits(path)
        assert len(splits) == 1
        assert len(splits[0].train_identities()) == 316
        assert len(splits[0].test_identities()) == 316
        assert set(splits[0].train_identities()).isdisjoint(splits[0].test_identities())

    def test_duplicate_assignment(self, tmp_path):
        path = write(tmp_path / "s.split", "XMREID-SPLIT 1 1\n1\tid1\ttrain\n1\tid1\ttest\n")
        with pytest.raises(DuplicateAssignment):
            dataio.load_splits(path)

    def test_unknown_identity(self, tmp_path):
        path = write(tmp_path / "s.split", "XMREID-SPLIT 1 1\n1\tghost\ttrain\n")
        with pytest.raises(UnknownIdentity):
            dataio.load_splits(path, known_identities={"id1"})

    def test_roundtrip(self, tmp_path):
        splits = [
            dataio.SplitAssignment(index=1, roles={"a": "train", "b": "test"}),
            dataio.SplitAssignment(index=2, roles={"a": "test", "b": "train"}),
        ]
        path = tmp_path / "s.split"
        dataio.save_splits(splits, path)
        again = tmp_path / "s2.split"
        dataio.save_splits(dataio.load_splits(path), again)
        assert path.read_bytes() == again.read_bytes()


class TestSynonyms:
    def test_parse(self, tmp_path):
        path = write(tmp_path / "syn.tsv", "glasses\tspectacles,eyewear\nhat\tcap\n")
        synonyms = dataio.load_synonyms(path)
        assert synonyms["glasses"] == ("spectacles", "eyewear")

    def test_duplicate_headword(self, tmp_path):
        path = write(tmp_path / "syn.tsv", "a\tb\na\tc\n")
        with pytest.raises(DuplicateToken):
            dataio.load_synonyms(path)


class TestNonUtf8:
    @pytest.mark.parametrize("load", [
        dataio.load_features, dataio.load_corpus, dataio.load_embeddings,
        dataio.load_attributes, dataio.load_splits, dataio.load_synonyms,
        lambda path: dataio.load_blocks(path, "XMREID-TEST 1", {"a": ()}),
    ])
    def test_undecodable_byte_is_malformed(self, tmp_path, load):
        path = tmp_path / "bad"
        path.write_bytes(b"XMREID-FEAT 1\n1 3\nid0\t1\t1 2 \xff\n")
        with pytest.raises(MalformedHeader, match="UTF-8"):
            load(path)


# One header integer per template; every bad spelling below is one that
# int() reads as the good value.
HEADER_INTEGERS = [
    pytest.param(dataio.load_features, "XMREID-FEAT 1\n{} 2\nid1\t1\t1 2\n", "1", id="feat-count"),
    pytest.param(dataio.load_features, "XMREID-FEAT 1\n1 {}\nid1\t1\t1 2\n", "2", id="feat-dim"),
    pytest.param(dataio.load_embeddings, "{} 2\nred 1 0\n", "1", id="emb-count"),
    pytest.param(dataio.load_embeddings, "1 {}\nred 1 0\n", "2", id="emb-dim"),
    pytest.param(dataio.load_attributes, "XMREID-ATTR 1 {}\nid1\t01\n", "2", id="attr-width"),
    pytest.param(dataio.load_splits, "XMREID-SPLIT 1 {}\n0\tid1\ttrain\n", "1", id="split-count"),
    pytest.param(dataio.load_splits, "XMREID-SPLIT 1 1\n{}\tid1\ttrain\n", "0", id="split-index"),
]
BAD_SPELLINGS = {
    "plus": lambda g: "+" + g,
    "separator": lambda g: "0_" + g,
    "carriage-return": lambda g: g + "\r",
    "arabic-indic": lambda g: chr(0x660 + int(g)),
    "fullwidth": lambda g: chr(0xFF10 + int(g)),
}


class TestHeaderIntegers:
    @pytest.mark.parametrize("load, template, good", HEADER_INTEGERS)
    def test_plain_digits_load(self, tmp_path, load, template, good):
        load(write(tmp_path / "f", template.format(good)))

    @pytest.mark.parametrize("spelling", sorted(BAD_SPELLINGS))
    @pytest.mark.parametrize("load, template, good", HEADER_INTEGERS)
    def test_other_spellings_are_malformed(self, tmp_path, load, template, good, spelling):
        bad = BAD_SPELLINGS[spelling](good)
        assert int(bad) == int(good)
        with pytest.raises(MalformedHeader):
            load(write(tmp_path / "f", template.format(bad)))

    def test_separated_count_is_not_ten_records(self, tmp_path):
        rows = "".join(f"id{i}\t1\t1 2\n" for i in range(10))
        with pytest.raises(MalformedHeader):
            dataio.load_features(write(tmp_path / "a.feat", f"XMREID-FEAT 1\n1_0 2\r\n{rows}"))

    def test_negative_split_index(self, tmp_path):
        with pytest.raises(MalformedHeader):
            dataio.load_splits(write(tmp_path / "s", "XMREID-SPLIT 1 1\n-1\tid1\ttrain\n"))


class TestFormatRow:
    EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
             1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 0.1]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES),
                    max_size=24))
    def test_equals_format_real_join(self, row):
        want = " ".join(map(dataio.format_real, row))
        assert dataio.format_row(row) == want
        assert dataio.format_row(np.array(row, dtype=np.float64)) == want

    def test_edges(self):
        want = " ".join(map(dataio.format_real, self.EDGES))
        assert dataio.format_row(self.EDGES) == want
        assert want.startswith("-0 0 4.9406564584124654e-324")


MAGIC = "XMREID-TEST 1"
SHAPES = {"k": (), "v": ("n",), "m": ("r", "n"), "t": ("r", "n", "w")}
LAYOUT = (
    "XMREID-TEST 1\n"
    "k\n70\n"
    "v 2\n0.5 -0\n"
    "m 2 2\n1 2\n3 4\n"
    "t 2 2 1\n1 2\n3 4\n"
)


class TestBlocks:
    def blocks(self):
        return {"k": 70, "v": np.array([0.5, -0.0]), "m": np.array([[1.0, 2.0], [3.0, 4.0]]),
                "t": np.arange(1.0, 5.0).reshape(2, 2, 1)}

    def test_layout(self, tmp_path):
        path = tmp_path / "a.model"
        dataio.save_blocks(path, MAGIC, self.blocks())
        assert path.read_text(encoding="utf-8") == LAYOUT
        blocks, sizes = dataio.load_blocks(path, MAGIC, SHAPES)
        assert sizes == {"n": 2, "r": 2, "w": 1}
        for name, value in self.blocks().items():
            assert blocks[name].shape == np.shape(value)
            assert np.array_equal(blocks[name], value)
        assert np.signbit(blocks["v"][1])

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                           elements=st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=3))
    def test_roundtrip_any_shapes(self, tmp_path_factory, values):
        first = tmp_path_factory.mktemp("blocks") / "first"
        second = first.with_name("second")
        blocks = {f"b{i}": value for i, value in enumerate(values)}
        shapes = {name: tuple(f"{name}.{axis}" for axis in range(value.ndim))
                  for name, value in blocks.items()}
        dataio.save_blocks(first, MAGIC, blocks)
        loaded, _ = dataio.load_blocks(first, MAGIC, shapes)
        for name, value in blocks.items():
            assert loaded[name].shape == value.shape
            assert loaded[name].tobytes() == value.tobytes()
        dataio.save_blocks(second, MAGIC, loaded)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("text", [
        pytest.param(LAYOUT.replace("XMREID-TEST 1", "XMREID-TEST 2"), id="wrong-magic"),
        pytest.param(LAYOUT.replace("v 2\n0.5 -0\n", ""), id="missing-block"),
        pytest.param(LAYOUT.replace("m 2 2", "M 2 2"), id="renamed-block"),
        pytest.param(LAYOUT.replace("k\n70\nv 2\n0.5 -0\n", "v 2\n0.5 -0\nk\n70\n"), id="out-of-order"),
        pytest.param(LAYOUT + "x\n1\n", id="extra-block"),
        pytest.param(LAYOUT + "\n", id="trailing-empty-line"),
        pytest.param(LAYOUT[:-1], id="no-final-newline"),
        pytest.param(LAYOUT[:LAYOUT.index("3 4")], id="ends-inside-a-block"),
        pytest.param(LAYOUT[:LAYOUT.index("t 2")], id="ends-before-a-block"),
        pytest.param(LAYOUT.replace("v 2", "v -2"), id="negative-dimension"),
        pytest.param(LAYOUT.replace("v 2", "v 2.0"), id="non-integer-dimension"),
        pytest.param(LAYOUT.replace("v 2", "v  2"), id="empty-dimension"),
        pytest.param(LAYOUT.replace("0.5 -0", "0.5 -0x"), id="garbled-real"),
        pytest.param(LAYOUT.replace("k\n70", "k\n7_0"), id="digit-separator"),
        pytest.param(LAYOUT.replace("0.5 -0\n", "0.5 -0\r\n"), id="carriage-return"),
        pytest.param(LAYOUT.replace("0.5 -0", "\t0.5 -0"), id="tab-before-real"),
    ])
    def test_malformed(self, tmp_path, text):
        path = write(tmp_path / "a.model", text)
        with pytest.raises(MalformedHeader):
            dataio.load_blocks(path, MAGIC, SHAPES)

    @pytest.mark.parametrize("text", [
        pytest.param(LAYOUT.replace("m 2 2", "m 2 3"), id="n-bound-to-2-by-v"),
        pytest.param(LAYOUT.replace("t 2 2 1", "t 2 2"), id="wrong-rank"),
        pytest.param(LAYOUT.replace("0.5 -0", "0.5 -0 1"), id="row-longer-than-declared"),
    ])
    def test_inconsistent_shapes(self, tmp_path, text):
        path = write(tmp_path / "a.model", text)
        with pytest.raises(DimensionMismatch):
            dataio.load_blocks(path, MAGIC, SHAPES)

    def test_oversized_empty_block(self, tmp_path):
        path = write(tmp_path / "a.model", "XMREID-TEST 1\nm 0 99999999999999999999999\n")
        with pytest.raises(MalformedHeader):
            dataio.load_blocks(path, MAGIC, {"m": ("r", "n")})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite(self, tmp_path, value):
        path = write(tmp_path / "a.model", LAYOUT.replace("k\n70", f"k\n{value}"))
        with pytest.raises(NonFiniteValue):
            dataio.load_blocks(path, MAGIC, SHAPES)


class TestAssembly:
    def test_aligned_records(self):
        vision = [("id1", 1, np.zeros(3)), ("id1", 2, np.ones(3))]
        language = [("id1", 1, np.zeros(2)), ("id1", 2, np.ones(2))]
        attrs = dataio.AttributeTable(width=2, bits={"id1": np.array([1, 0], dtype=np.uint8)})
        ds = dataio.assemble_dataset(vision=vision, language=language, attributes=attrs)
        assert len(ds) == 2
        assert ds.identities.tolist() == ["id1", "id1"]
        assert ds.views.tolist() == [1, 2]
        assert np.array_equal(ds.vision, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert ds.language.shape == (2, 2)
        assert np.array_equal(ds.attributes, [[1, 0], [1, 0]])

    def test_misaligned_rejected(self):
        vision = [("id1", 1, np.zeros(3))]
        language = [("id2", 1, np.zeros(2))]
        with pytest.raises(MisalignedRecords):
            dataio.assemble_dataset(vision=vision, language=language)

    def test_missing_attribute_row(self):
        vision = [("id1", 1, np.zeros(3))]
        attrs = dataio.AttributeTable(width=2, bits={})
        with pytest.raises(UnknownIdentity):
            dataio.assemble_dataset(vision=vision, attributes=attrs)
