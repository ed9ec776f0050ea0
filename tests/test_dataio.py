import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from xmreid import dataio, synth
from xmreid.errors import (
    DimensionMismatch,
    DuplicateAssignment,
    DuplicateToken,
    MalformedHeader,
    MisalignedRecords,
    NonFiniteValue,
    RaggedAttributes,
    UnknownIdentity,
    XmreidError,
)

FINFO = np.finfo(np.float64)
# Signed zeros, subnormals, the extremes and values with no short decimal.
EDGES = [-0.0, 0.0, 5e-324, -5e-324, FINFO.smallest_normal / 3, FINFO.max, -FINFO.max,
         FINFO.smallest_normal, 1.0, -3.0, 2.0**53, 1e16, 0.1]


def write(path, data):
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return str(path)


def reals(*values):
    return np.array(values, dtype="<f8").tobytes()


def assert_native_writable(array):
    assert array.dtype == np.float64 and array.dtype.isnative and array.flags.writeable


class TestFeat:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path / "a.feat",
                     b"XMREID-FEAT 2\n2 3\nid1\t1\nid2\t2\n" + reals(1, 2, 3, -1, 0.5, 2e-3))
        identities, views, matrix = dataio.load_features(path)
        assert identities.tolist() == ["id1", "id2"] and identities.dtype.kind == "U"
        assert views.tolist() == [1, 2] and views.dtype == np.int64
        assert np.array_equal(matrix, [[1.0, 2.0, 3.0], [-1.0, 0.5, 2e-3]])
        assert_native_writable(matrix)

    def test_no_records(self, tmp_path):
        path = tmp_path / "a.feat"
        dataio.save_features([], [], np.zeros((0, 3)), path)
        identities, views, matrix = dataio.load_features(path)
        assert identities.dtype.kind == "U" and views.dtype == np.int64
        assert identities.shape == views.shape == (0,) and matrix.shape == (0, 3)

    def test_dimension_mismatch(self, tmp_path):
        # what the loader would refuse is refused before the file is opened:
        # no columns, a row count that is not the label count, ragged columns
        path = tmp_path / "a.feat"
        for identities, views, matrix in [
            ([], [], np.zeros((0, 0))),
            (["id1"], [1], np.zeros((1, 0))),
            (["id1", "id2"], [1, 1], np.zeros((1, 3))),
            (["id1"], [1], np.zeros((2, 3))),
            (["id1"], [1], np.zeros(3)),
            (["id1", "id2"], [1], np.zeros((2, 3))),
        ]:
            with pytest.raises(DimensionMismatch):
                dataio.save_features(identities, views, matrix, path)
            assert not path.exists()

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path / "a.feat", b"XMREID-FEAT 2\n1 2\nid1\t1\n" + reals(1, np.nan))
        with pytest.raises(NonFiniteValue):
            dataio.load_features(path)

    def test_count_disagreement(self, tmp_path):
        path = write(tmp_path / "a.feat", b"XMREID-FEAT 2\n2 2\nid1\t1\n" + reals(1, 2, 3, 4))
        with pytest.raises(MalformedHeader):
            dataio.load_features(path)

    @pytest.mark.parametrize("body", [reals(1, 2, 3), reals(1, 2, 3, 4, 5)],
                             ids=["short", "long"])
    def test_body_length_must_match_header(self, tmp_path, body):
        path = write(tmp_path / "a.feat", b"XMREID-FEAT 2\n2 2\nid1\t1\nid2\t1\n" + body)
        with pytest.raises(MalformedHeader):
            dataio.load_features(path)

    def test_bad_magic(self, tmp_path):
        for text in ("FEAT 1\n0 1\n", "XMREID-FEAT 1\n1 2\nid1\t1\t1 2\n"):
            with pytest.raises(MalformedHeader):
                dataio.load_features(write(tmp_path / "a.feat", text))

    def test_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((3, 4)) * np.array([[1.0], [1e-7], [1e9]])
        first = tmp_path / "one.feat"
        second = tmp_path / "two.feat"
        dataio.save_features(["person a", "person b", "person b"], [1, 2, 1], matrix, first)
        loaded = dataio.load_features(first)
        dataio.save_features(*loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded[0].tolist() == ["person a", "person b", "person b"]
        assert loaded[1].tolist() == [1, 2, 1]
        assert loaded[2].tobytes() == matrix.tobytes()


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
        path = write(tmp_path / "e.emb", b"XMREID-EMB 1\n3 4\nred\nblue\nhat\n"
                     + reals(1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0))
        table = dataio.load_embeddings(path)
        assert table.dimension == 4
        assert len(table.vectors) == 3
        assert np.array_equal(table.vectors["blue"], [0, 1, 0, 0])
        assert_native_writable(table.vectors["hat"])

    def test_duplicate_token(self, tmp_path):
        path = write(tmp_path / "e.emb", b"XMREID-EMB 1\n2 2\nred\nred\n" + reals(1, 0, 0, 1))
        with pytest.raises(DuplicateToken):
            dataio.load_embeddings(path)

    def test_dimension_300_fragment(self, tmp_path):
        # a two-token table at the published embedding width
        body = reals(*np.linspace(-1, 1, 300)) * 2
        path = write(tmp_path / "e.emb", b"XMREID-EMB 1\n2 300\nking\nqueen\n" + body)
        table = dataio.load_embeddings(path)
        assert table.dimension == 300
        assert table.vectors["king"].shape == (300,)
        assert np.array_equal(table.vectors["queen"], np.linspace(-1, 1, 300))

    def test_headerless_word2vec_text_is_malformed(self, tmp_path):
        with pytest.raises(MalformedHeader):
            dataio.load_embeddings(write(tmp_path / "e.emb", "1 2\nred 1 0\n"))

    def test_roundtrip(self, tmp_path):
        table = dataio.EmbeddingTable(dimension=2, vectors={"a": np.array([0.1, -0.2])})
        path = tmp_path / "e.emb"
        dataio.save_embeddings(table, path)
        again = tmp_path / "e2.emb"
        dataio.save_embeddings(dataio.load_embeddings(path), again)
        assert path.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("table", [
        dataio.EmbeddingTable(dimension=0),
        dataio.EmbeddingTable(dimension=0, vectors={"a": np.zeros(0)}),
        dataio.EmbeddingTable(dimension=2, vectors={"a": np.zeros(2), "b": np.zeros(3)}),
    ], ids=["empty", "zero-width", "ragged"])
    def test_dimension_mismatch(self, tmp_path, table):
        path = tmp_path / "e.emb"
        with pytest.raises(DimensionMismatch):
            dataio.save_embeddings(table, path)
        assert not path.exists()


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
        roles = list(splits[0].roles.values())
        assert roles.count("train") == 316 and roles.count("test") == 316
        assert len(splits[0].roles) == 632

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


# Each writer, putting a label where its format splits fields or lines.
LABEL_WRITERS = {
    "feat": lambda label, path: dataio.save_features([label], [1], np.zeros((1, 2)), path),
    "corpus-identity": lambda label, path: dataio.save_corpus([(label, 1, "a coat")], path),
    "corpus-text": lambda label, path: dataio.save_corpus([("id1", 1, label)], path),
    "emb": lambda label, path: dataio.save_embeddings(
        dataio.EmbeddingTable(dimension=2, vectors={label: np.zeros(2)}), path),
    "attr": lambda label, path: dataio.save_attributes(
        dataio.AttributeTable(width=2, bits={label: np.array([0, 1])}), path),
    "split": lambda label, path: dataio.save_splits(
        [dataio.SplitAssignment(index=0, roles={label: dataio.TRAIN})], path),
}
BAD_LABELS = [(writer, label) for writer in ("feat", "corpus-identity", "attr", "split")
              for label in ("a\tb", "a\nb")] + [
    ("corpus-text", "a\nb"), ("emb", "a b"), ("emb", "a\nb")]


class TestWritersRefuseBadLabels:
    @pytest.mark.parametrize("writer, label", BAD_LABELS)
    def test_refused_before_any_file_is_opened(self, tmp_path, writer, label):
        path = tmp_path / "out"
        with pytest.raises(MalformedHeader):
            LABEL_WRITERS[writer](label, path)
        assert not path.exists()
        LABEL_WRITERS[writer]("a", path)  # the same call with a plain label writes
        assert path.exists()


# Each text writer, given what its loader would reject, and the loader's error.
SPLIT = dataio.SplitAssignment
REJECTED_CONTENT = {
    "corpus-view": (lambda path: dataio.save_corpus([("id1", 3, "a coat")], path),
                    MalformedHeader),
    "attr-bit": (lambda path: dataio.save_attributes(
        dataio.AttributeTable(width=2, bits={"a": np.array([0, 2])}), path), MalformedHeader),
    "attr-ragged": (lambda path: dataio.save_attributes(
        dataio.AttributeTable(width=3, bits={"a": np.array([0, 1])}), path), RaggedAttributes),
    "attr-width-0": (lambda path: dataio.save_attributes(dataio.AttributeTable(width=0), path),
                     MalformedHeader),
    "split-role": (lambda path: dataio.save_splits([SPLIT(0, {"a": "val"})], path),
                   MalformedHeader),
    "split-role-tab": (lambda path: dataio.save_splits([SPLIT(0, {"a": "train\ttest"})], path),
                       MalformedHeader),
    "split-negative-index": (lambda path: dataio.save_splits([SPLIT(-1, {"a": "train"})], path),
                             MalformedHeader),
    "split-repeated-index": (lambda path: dataio.save_splits(
        [SPLIT(0, {"a": "train"}), SPLIT(0, {"a": "test"})], path), DuplicateAssignment),
    "split-empty": (lambda path: dataio.save_splits([SPLIT(0, {"a": "test"}), SPLIT(1)], path),
                    MalformedHeader),
}


class TestWritersRefuseRejectedContent:
    @pytest.mark.parametrize("case", REJECTED_CONTENT)
    def test_loader_error_before_any_file_is_opened(self, tmp_path, case):
        writer, error = REJECTED_CONTENT[case]
        path = tmp_path / "out"
        with pytest.raises(error):
            writer(path)
        assert not path.exists()


class TestNonUtf8:
    @pytest.mark.parametrize("load", [
        dataio.load_features, dataio.load_corpus, dataio.load_embeddings,
        dataio.load_attributes, dataio.load_splits, dataio.load_synonyms,
        lambda path: dataio.load_blocks(path, "XMREID-TEST 1", {"a": ()}),
    ])
    def test_undecodable_byte_is_malformed(self, tmp_path, load):
        path = tmp_path / "bad"
        path.write_bytes(b"XMREID-\xff 1\n1 3\nid0\t1\n" + reals(1, 2, 3))
        with pytest.raises(MalformedHeader, match="UTF-8"):
            load(path)

    @pytest.mark.parametrize("load, data", [
        (dataio.load_features, b"XMREID-FEAT 2\n1 2\nid\xff\t1\n" + reals(1, 2)),
        (dataio.load_embeddings, b"XMREID-EMB 1\n1 2\nr\xffd\n" + reals(1, 2)),
        (lambda path: dataio.load_blocks(path, "XMREID-TEST 1", {"a": (), "b": ()}),
         b"XMREID-TEST 1\na\n" + reals(1) + b"\xff\n" + reals(2)),
    ], ids=["feat-label", "emb-token", "block-header"])
    def test_undecodable_header_line_after_a_body(self, tmp_path, load, data):
        with pytest.raises(MalformedHeader, match="UTF-8"):
            load(write(tmp_path / "bad", data))


# One header integer per template; every bad spelling below is one that
# int() reads as the good value. The body is what a good header needs.
HEADER_INTEGERS = [
    pytest.param(dataio.load_features, "XMREID-FEAT 2\n{} 2\nid1\t1\n", reals(1, 2),
                 "1", id="feat-count"),
    pytest.param(dataio.load_features, "XMREID-FEAT 2\n1 {}\nid1\t1\n", reals(1, 2),
                 "2", id="feat-dim"),
    pytest.param(dataio.load_embeddings, "XMREID-EMB 1\n{} 2\nred\n", reals(1, 0),
                 "1", id="emb-count"),
    pytest.param(dataio.load_embeddings, "XMREID-EMB 1\n1 {}\nred\n", reals(1, 0),
                 "2", id="emb-dim"),
    pytest.param(dataio.load_attributes, "XMREID-ATTR 1 {}\nid1\t01\n", b"", "2", id="attr-width"),
    pytest.param(dataio.load_splits, "XMREID-SPLIT 1 {}\n0\tid1\ttrain\n", b"", "1",
                 id="split-count"),
    pytest.param(dataio.load_splits, "XMREID-SPLIT 1 1\n{}\tid1\ttrain\n", b"", "0",
                 id="split-index"),
    # the format versions in the magic lines of the text files
    pytest.param(dataio.load_corpus, "XMREID-CORPUS {}\nid1\t1\tred coat\n", b"", "1",
                 id="corpus-version"),
    pytest.param(dataio.load_attributes, "XMREID-ATTR {} 2\nid1\t01\n", b"", "1",
                 id="attr-version"),
    pytest.param(dataio.load_splits, "XMREID-SPLIT {} 1\n0\tid1\ttrain\n", b"", "1",
                 id="split-version"),
]
BAD_SPELLINGS = {
    "plus": lambda g: "+" + g,
    "separator": lambda g: "0_" + g,
    "carriage-return": lambda g: g + "\r",
    "arabic-indic": lambda g: chr(0x660 + int(g)),
    "fullwidth": lambda g: chr(0xFF10 + int(g)),
}


class TestHeaderIntegers:
    @pytest.mark.parametrize("load, template, body, good", HEADER_INTEGERS)
    def test_plain_digits_load(self, tmp_path, load, template, body, good):
        load(write(tmp_path / "f", template.format(good).encode("utf-8") + body))

    @pytest.mark.parametrize("spelling", sorted(BAD_SPELLINGS))
    @pytest.mark.parametrize("load, template, body, good", HEADER_INTEGERS)
    def test_other_spellings_are_malformed(self, tmp_path, load, template, body, good, spelling):
        bad = BAD_SPELLINGS[spelling](good)
        assert int(bad) == int(good)
        with pytest.raises(MalformedHeader):
            load(write(tmp_path / "f", template.format(bad).encode("utf-8") + body))

    def test_separated_count_is_not_ten_records(self, tmp_path):
        rows = "".join(f"id{i}\t1\n" for i in range(10)).encode("utf-8")
        with pytest.raises(MalformedHeader):
            dataio.load_features(write(tmp_path / "a.feat",
                                       b"XMREID-FEAT 2\n1_0 2\r\n" + rows + reals(*range(20))))

    def test_negative_split_index(self, tmp_path):
        with pytest.raises(MalformedHeader):
            dataio.load_splits(write(tmp_path / "s", "XMREID-SPLIT 1 1\n-1\tid1\ttrain\n"))


class TestOversizedHeaders:
    """A header that declares more values than the file holds is malformed
    before anything of that size is allocated, however large it is."""

    BIG = pytest.mark.parametrize("count", [10**30, 10**18, 10**15, 10**9, 10**6, "9" * 5000],
                                  ids=["1e30", "1e18", "1e15", "1e9", "1e6", "5000-digits"])

    @BIG
    @pytest.mark.parametrize("magic, label, load", [
        ("XMREID-FEAT 2", "id1\t1", dataio.load_features),
        ("XMREID-EMB 1", "red", dataio.load_embeddings),
    ], ids=["feat", "emb"])
    def test_matrix_files(self, tmp_path, magic, label, load, count):
        for head in (f"{count} 2", f"1 {count}", f"{count} {count}"):
            path = write(tmp_path / "f", f"{magic}\n{head}\n{label}\n".encode("utf-8") + reals(1, 2))
            with pytest.raises(MalformedHeader):
                load(path)

    @BIG
    def test_blocks(self, tmp_path, count):
        for dims in (f"{count} {count}", f"1 {count}", f"0 {count} {count}"):
            path = write(tmp_path / "f", f"{MAGIC}\nm {dims}\n".encode("utf-8") + reals(1, 2))
            with pytest.raises(MalformedHeader):
                dataio.load_blocks(path, MAGIC, {"m": ("r", "n", "w")[:len(dims.split())]})


MATRIX_FILES = {
    "feat": (lambda rows, path: dataio.save_features(
        [f"id{i}" for i in range(len(rows))], 1 + np.arange(len(rows)) % 2, rows, path),
        lambda path: dataio.load_features(path)[2]),
    "emb": (lambda rows, path: dataio.save_embeddings(
        dataio.EmbeddingTable(dimension=rows.shape[1],
                              vectors={f"t{i}": row for i, row in enumerate(rows)}), path),
        lambda path: np.array(list(dataio.load_embeddings(path).vectors.values()))),
}
FUZZ = settings(derandomize=True, deadline=None, max_examples=100)


def non_finite_bits():
    """Any NaN or infinity as its 8 little-endian bytes: all-ones exponent,
    any sign and mantissa."""
    return st.tuples(st.integers(0, 1), st.integers(0, 2**52 - 1)).map(
        lambda sm: struct.pack("<Q", sm[0] << 63 | 0x7FF << 52 | sm[1]))


@pytest.fixture(scope="module")
def saved_matrices(tmp_path_factory):
    """kind -> (path to write mutated copies to, bytes of a saved 4 x 3 file)."""
    root = tmp_path_factory.mktemp("matrices")
    out = {}
    for kind, (save, _) in MATRIX_FILES.items():
        save(np.arange(1.0, 13.0).reshape(4, 3) / 7, root / f"saved.{kind}")
        out[kind] = (root / f"mutated.{kind}", (root / f"saved.{kind}").read_bytes())
    return out


@pytest.mark.parametrize("kind", MATRIX_FILES)
class TestMatrixBodies:
    """FEAT and EMB files under truncation, byte flips and non-finite bits."""

    def load(self, kind, path, data):
        path.write_bytes(data)
        return MATRIX_FILES[kind][1](path)

    @FUZZ
    @given(data=st.data())
    def test_any_truncation_is_malformed(self, kind, saved_matrices, data):
        path, raw = saved_matrices[kind]
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(MalformedHeader):
            self.load(kind, path, raw[:cut])

    def test_trailing_data_is_malformed(self, kind, saved_matrices):
        path, raw = saved_matrices[kind]
        with pytest.raises(MalformedHeader):
            self.load(kind, path, raw + reals(1.0))

    @FUZZ
    @given(data=st.data())
    def test_any_byte_flip_loads_or_raises_package_error(self, kind, saved_matrices, data):
        path, raw = saved_matrices[kind]
        flipped = bytearray(raw)
        where = data.draw(st.integers(0, len(raw) - 1))
        flipped[where] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[where]))
        try:
            self.load(kind, path, bytes(flipped))
        except XmreidError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_any_non_finite_value_is_rejected(self, kind, saved_matrices, data):
        path, raw = saved_matrices[kind]
        at = len(raw) - 8 * data.draw(st.integers(1, 12))
        with pytest.raises(NonFiniteValue):
            self.load(kind, path, raw[:at] + data.draw(non_finite_bits()) + raw[at + 8:])

    def test_writer_refuses_non_finite(self, kind, tmp_path):
        path = tmp_path / "out"
        with pytest.raises(NonFiniteValue):
            MATRIX_FILES[kind][0](np.array([[1.0, np.inf]]), path)
        assert not path.exists()

    def test_edges_round_trip_bit_exact(self, kind, tmp_path):
        rows = np.array(EDGES).reshape(-1, 1)
        MATRIX_FILES[kind][0](rows, tmp_path / "f")
        back = MATRIX_FILES[kind][1](tmp_path / "f")
        assert back.tobytes() == rows.tobytes()
        assert np.signbit(back[0, 0]) and back[2, 0] == 5e-324


class TestBodyReads:
    """Bodies are read in place and checked for finiteness in chunks."""

    def test_peak_memory_is_the_matrix(self, tmp_path):
        # 5000 x 1000 values, 40 MB; the file's bytes, a converted copy and a
        # full-size finiteness mask at once came to about 2.1 times that.
        matrix = np.arange(5000 * 1000, dtype=np.float64).reshape(5000, 1000)
        dataio.save_features([f"id{i}" for i in range(5000)], np.ones(5000, int), matrix,
                             tmp_path / "big.feat")
        del matrix
        tracemalloc.start()
        try:
            loaded = dataio.load_features(tmp_path / "big.feat")[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded[4999, 999] == 5000 * 1000 - 1
        assert peak < 1.1 * loaded.nbytes

    @pytest.mark.parametrize("at", [0, dataio._FINITE_CHUNK - 1, dataio._FINITE_CHUNK,
                                    2 * dataio._FINITE_CHUNK + 2])
    def test_non_finite_value_in_any_chunk(self, tmp_path, at):
        values = np.ones(2 * dataio._FINITE_CHUNK + 3)
        values[at] = np.nan
        path = tmp_path / "m.feat"
        dataio.save_features(["a"], [1], np.ones((1, values.size)), path)
        raw = path.read_bytes()
        with pytest.raises(NonFiniteValue):
            dataio.load_features(write(path, raw[:len(raw) - 8 * values.size] + values.tobytes()))


class TestRealsRoundTrip:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES),
                    min_size=1, max_size=24))
    def test_any_reals_bit_exact(self, tmp_path_factory, row):
        path = tmp_path_factory.mktemp("reals") / "a.feat"
        dataio.save_features(["id"], [1], [row], path)
        _, _, back = dataio.load_features(path)
        assert back.tobytes() == np.array([row], dtype=np.float64).tobytes()

    def test_edges_bit_exact(self, tmp_path):
        dataio.save_blocks(tmp_path / "a", MAGIC, {"e": np.array(EDGES)})
        blocks, _ = dataio.load_blocks(tmp_path / "a", MAGIC, {"e": ("n",)})
        assert blocks["e"].tobytes() == np.array(EDGES).tobytes()
        assert (tmp_path / "a").read_bytes().endswith(reals(*EDGES))


MAGIC = "XMREID-TEST 1"
SHAPES = {"k": (), "v": ("n",), "m": ("r", "n"), "t": ("r", "n", "w")}
LAYOUT = (
    b"XMREID-TEST 1\n"
    b"k\n" + reals(70)
    + b"v 2\n" + reals(0.5, -0.0)
    + b"m 2 2\n" + reals(1, 2, 3, 4)
    + b"t 2 2 1\n" + reals(1, 2, 3, 4)
)


class TestBlocks:
    def blocks(self):
        return {"k": 70, "v": np.array([0.5, -0.0]), "m": np.array([[1.0, 2.0], [3.0, 4.0]]),
                "t": np.arange(1.0, 5.0).reshape(2, 2, 1)}

    def test_layout(self, tmp_path):
        path = tmp_path / "a.model"
        dataio.save_blocks(path, MAGIC, self.blocks())
        assert path.read_bytes() == LAYOUT
        blocks, sizes = dataio.load_blocks(path, MAGIC, SHAPES)
        assert sizes == {"n": 2, "r": 2, "w": 1}
        for name, value in self.blocks().items():
            assert blocks[name].shape == np.shape(value)
            assert np.array_equal(blocks[name], value)
            assert_native_writable(blocks[name])
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

    @pytest.mark.parametrize("data", [
        pytest.param(LAYOUT.replace(b"XMREID-TEST 1", b"XMREID-TEST 2"), id="wrong-magic"),
        pytest.param(LAYOUT.replace(b"v 2\n" + reals(0.5, -0.0), b""), id="missing-block"),
        pytest.param(LAYOUT.replace(b"m 2 2", b"M 2 2"), id="renamed-block"),
        pytest.param(LAYOUT.replace(b"k\n" + reals(70) + b"v 2\n" + reals(0.5, -0.0),
                                    b"v 2\n" + reals(0.5, -0.0) + b"k\n" + reals(70)),
                     id="out-of-order"),
        pytest.param(LAYOUT + b"x\n" + reals(1), id="extra-block"),
        pytest.param(LAYOUT + b"\n", id="trailing-empty-line"),
        pytest.param(LAYOUT[:-1], id="no-final-newline"),
        pytest.param(LAYOUT[:LAYOUT.index(reals(3, 4))], id="ends-inside-a-block"),
        pytest.param(LAYOUT[:LAYOUT.index(b"t 2")], id="ends-before-a-block"),
        pytest.param(LAYOUT.replace(b"v 2", b"v -2"), id="negative-dimension"),
        pytest.param(LAYOUT.replace(b"v 2", b"v 2.0"), id="non-integer-dimension"),
        pytest.param(LAYOUT.replace(b"v 2", b"v  2"), id="empty-dimension"),
        pytest.param(LAYOUT.replace(b"v 2\n", b"v 0_2\n"), id="digit-separator"),
        pytest.param(LAYOUT.replace(b"v 2\n", b"v 2\r\n"), id="carriage-return"),
        # text where a body belongs, as in the files before the raw bodies
        pytest.param(LAYOUT.replace(reals(0.5, -0.0), b"0.5 -0x\n"), id="garbled-real"),
        pytest.param(LAYOUT.replace(reals(0.5, -0.0), b"\t" + reals(0.5, -0.0)),
                     id="tab-before-real"),
    ])
    def test_malformed(self, tmp_path, data):
        path = write(tmp_path / "a.model", data)
        with pytest.raises(MalformedHeader):
            dataio.load_blocks(path, MAGIC, SHAPES)

    @pytest.mark.parametrize("data", [
        pytest.param(LAYOUT.replace(b"m 2 2", b"m 2 3"), id="n-bound-to-2-by-v"),
        pytest.param(LAYOUT.replace(b"t 2 2 1", b"t 2 2"), id="wrong-rank"),
    ])
    def test_inconsistent_shapes(self, tmp_path, data):
        path = write(tmp_path / "a.model", data)
        with pytest.raises(DimensionMismatch):
            dataio.load_blocks(path, MAGIC, SHAPES)

    def test_oversized_empty_block(self, tmp_path):
        path = write(tmp_path / "a.model", "XMREID-TEST 1\nm 0 99999999999999999999999\n")
        with pytest.raises(MalformedHeader):
            dataio.load_blocks(path, MAGIC, {"m": ("r", "n")})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite(self, tmp_path, value):
        path = write(tmp_path / "a.model", LAYOUT.replace(reals(70), reals(float(value))))
        with pytest.raises(NonFiniteValue):
            dataio.load_blocks(path, MAGIC, SHAPES)

    def test_writer_refuses_non_finite(self, tmp_path):
        with pytest.raises(NonFiniteValue):
            dataio.save_blocks(tmp_path / "a.model", MAGIC, {"k": np.nan})
        assert not (tmp_path / "a.model").exists()


class TestFirstAppearanceCodes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=30))
    def test_matches_dict_numbering(self, values):
        lookup = {}
        expected = [lookup.setdefault(v, len(lookup)) for v in values]
        first, codes = dataio.first_appearance_codes(np.array(values, dtype=np.int64))
        assert codes.tolist() == expected
        assert first.tolist() == [values.index(v) for v in lookup]

    def test_labels_and_rows(self):
        first, codes = dataio.first_appearance_codes(np.array(["b", "a", "b", "c", "a"]))
        assert (first.tolist(), codes.tolist()) == ([0, 1, 3], [0, 1, 0, 2, 1])
        rows = np.array([[1.0, -0.0], [0.5, 2.0], [1.0, 0.0], [0.5, -2.0]]) + 0.0
        first, codes = dataio.first_appearance_codes(rows.view("V16").ravel())
        assert (first.tolist(), codes.tolist()) == ([0, 1, 3], [0, 1, 0, 2])

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_equal_values_straddle_chunks(self, monkeypatch, chunk):
        # 2,000 values in 7 runs, compared 1-3 int64s or one 16-byte row at a
        # time: equal sorted neighbours meet at chunk boundaries throughout,
        # and each run must start at its first appearance.
        monkeypatch.setattr(dataio, "_FINITE_CHUNK", chunk)
        picks = np.random.default_rng(chunk).integers(0, 7, 2000)
        lookup = {}
        expected = [lookup.setdefault(v, len(lookup)) for v in picks.tolist()]
        rows = np.random.default_rng(0).standard_normal((7, 2))[picks]
        for values in (picks, rows.view("V16").ravel()):
            first, codes = dataio.first_appearance_codes(values)
            assert codes.tolist() == expected
            assert first.tolist() == [picks.tolist().index(v) for v in lookup]

    def test_paper_size_column_pool_is_not_copied(self):
        # A 70-word batch's column pool at paper sizes: 7,001 distinct 300-d
        # columns, 16 MiB, coded within a quarter of their size.
        pool = np.random.default_rng(1).standard_normal((7001, 300))
        tracemalloc.start()
        try:
            first, codes = dataio.first_appearance_codes(pool.view("V2400").ravel())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, np.arange(7001)) and np.array_equal(codes, first)
        assert peak < 0.25 * pool.nbytes


class TestAssembly:
    """load_dataset joins FEAT and ATTR files into row-aligned columns."""

    def files(self, tmp_path, bits=None):
        vision, language, attrs = tmp_path / "v.feat", tmp_path / "l.feat", tmp_path / "a.attr"
        dataio.save_features(["id1", "id1"], [1, 2], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], vision)
        dataio.save_features(["id1", "id1"], [1, 2], np.eye(2), language)
        dataio.save_attributes(dataio.AttributeTable(width=2, bits=bits or {}), attrs)
        return vision, language, attrs

    def test_aligned_records(self, tmp_path):
        vision, language, attrs = self.files(tmp_path, bits={"id1": np.array([1, 0])})
        ds = dataio.load_dataset(vision, language=language, attributes=attrs)
        assert len(ds) == 2
        assert ds.identities.tolist() == ["id1", "id1"]
        assert ds.views.tolist() == [1, 2]
        assert np.array_equal(ds.vision, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert np.array_equal(ds.language, np.eye(2))
        assert np.array_equal(ds.attributes, [[1, 0], [1, 0]])
        assert ds.attributes.dtype == np.uint8

    def test_misaligned_rejected(self, tmp_path):
        vision, language, _ = self.files(tmp_path)
        for identities, views, match in [(["id1", "id2"], [1, 2], "at row 1:"),
                                         (["id1", "id1"], [2, 1], "at row 0:"),
                                         (["id1"], [1], "has 2 records"),
                                         (["id1"] * 3, [1, 2, 1], "has 2 records")]:
            dataio.save_features(identities, views, np.eye(len(identities)), language)
            with pytest.raises(MisalignedRecords, match=match):
                dataio.load_dataset(vision, language=language)

    def test_missing_attribute_row(self, tmp_path):
        vision, _, attrs = self.files(tmp_path)
        with pytest.raises(UnknownIdentity, match="no attribute row"):
            dataio.load_dataset(vision, attributes=attrs)

    def test_bits_spread_per_identity(self, tmp_path):
        vision, attrs = tmp_path / "v.feat", tmp_path / "a.attr"
        ids = ["b", "a", "c", "a", "b", "c"]
        dataio.save_features(ids, [1, 1, 1, 2, 2, 2], np.eye(6), vision)
        bits = {"a": np.array([1, 0]), "b": np.array([0, 1]), "c": np.array([1, 1])}
        dataio.save_attributes(dataio.AttributeTable(width=2, bits=bits), attrs)
        ds = dataio.load_dataset(vision, attributes=attrs)
        assert ds.attributes.tolist() == [bits[i].tolist() for i in ids]
        assert ds.attributes.dtype == np.uint8
        dataio.save_attributes(dataio.AttributeTable(width=2, bits={"a": bits["a"]}), attrs)
        with pytest.raises(UnknownIdentity, match="identity 'b' has no attribute row"):
            dataio.load_dataset(vision, attributes=attrs)

    def test_returns_the_loaded_arrays(self, tmp_path, monkeypatch):
        vision, language, _ = self.files(tmp_path)
        real, loaded = dataio.load_features, []

        def load_features(path):
            loaded.append(real(path))
            return loaded[-1]

        monkeypatch.setattr(dataio, "load_features", load_features)
        ds = dataio.load_dataset(vision, language=language)
        (identities, views, x), (_, _, y) = loaded
        assert ds.identities is identities and ds.views is views
        assert ds.vision is x and ds.language is y

    def test_round_trip_from_gen_paired(self, tmp_path):
        dataset = synth.gen_paired(synth.SynthConfig(identity_count=6, vision_dim=5,
                                                     language_dim=4, latent_dim=2))
        for modality in ("vision", "language"):
            dataio.save_features(dataset.identities, dataset.views, getattr(dataset, modality),
                                 tmp_path / modality)
        back = dataio.load_dataset(tmp_path / "vision", language=tmp_path / "language")
        for column in ("identities", "views", "vision", "language"):
            assert getattr(back, column).dtype == getattr(dataset, column).dtype
            assert getattr(back, column).tobytes() == getattr(dataset, column).tobytes()
