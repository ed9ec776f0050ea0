"""Bit-exact text formats and loaders.

Five line-oriented formats carry the pipeline's data:

  FEAT    ``XMREID-FEAT 1`` / ``<N> <D>`` / N lines ``id<TAB>view<TAB>v1 v2 ..``
  CORPUS  ``XMREID-CORPUS 1`` / lines ``id<TAB>view<TAB>raw description text``
  EMB     ``<V> <E>`` / V lines ``token v1 .. vE`` (word2vec text style)
  ATTR    ``XMREID-ATTR 1 <B>`` / lines ``id<TAB>b1b2..bB`` with bits in {0,1}
  SPLIT   ``XMREID-SPLIT 1 <num_splits>`` / lines ``index<TAB>id<TAB>train|test``

and one block codec carries every fitted model (CCA, XQDA, CNN):

  BLOCKS  ``<magic>`` / per block ``<name> <d0> <d1> ..`` then the array as
          d0 rows (one row for a 1-d or 0-d array) of space-separated reals

All files are UTF-8 with LF line endings; fields are separated by single
tabs, vector components by single spaces, and reals carry 17 significant
digits so that save -> load -> save is byte-identical.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateAssignment,
    DuplicateToken,
    MalformedHeader,
    MisalignedRecords,
    NonFiniteValue,
    RaggedAttributes,
    UnknownIdentity,
)

FEAT_MAGIC = "XMREID-FEAT 1"
CORPUS_MAGIC = "XMREID-CORPUS 1"
ATTR_MAGIC = "XMREID-ATTR 1"
SPLIT_MAGIC = "XMREID-SPLIT 1"

TRAIN = "train"
TEST = "test"


def format_real(x) -> str:
    """Canonical 17-significant-digit rendering; round-trips float64 exactly."""
    return format(float(x), ".17g")


def format_row(values) -> str:
    """format_real of each value, space-separated, through one %-template."""
    values = np.asarray(values, dtype=np.float64).reshape(-1).tolist()
    return " ".join(["%.17g"] * len(values)) % tuple(values)


def _parse_count(text, path, what):
    # int() would also take '_', '+', '-', surrounding whitespace and
    # non-ASCII digits; a header integer is plain ASCII digits.
    if not (text.isascii() and text.isdigit()):
        raise MalformedHeader(f"{path}: {what} must be a non-negative integer, got {text!r}")
    return int(text)


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            return handle.read().split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{path}: not valid UTF-8: {exc}") from exc


def _check_labels(labels, what, separators="\t\n"):
    """Refuse, before any file is opened, a label holding a character that
    separates its fields or lines, which the loader would split on."""
    for label in labels:
        if any(c in str(label) for c in separators):
            raise MalformedHeader(f"{what} {label!r} holds a field or line separator")


def _parse_view(token, path):
    if token not in ("1", "2"):
        raise MalformedHeader(f"{path}: view must be 1 or 2, got {token!r}")
    return int(token)


def _parse_vector(text, dim, path, lineno):
    parts = text.split(" ") if text else []
    if len(parts) != dim:
        raise DimensionMismatch(
            f"{path}:{lineno}: expected {dim} components, got {len(parts)}"
        )
    # float() would also take digit separators and surrounding whitespace;
    # every whitespace character but the space is unprintable.
    if "_" in text or not text.isprintable():
        raise MalformedHeader(f"{path}:{lineno}: '_' or stray whitespace in a real")
    try:
        values = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise MalformedHeader(f"{path}:{lineno}: unparseable real: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{path}:{lineno}: non-finite vector component")
    return values


# -- FEAT ----------------------------------------------------------------------

def load_features(path):
    """Parse a FEAT file into a list of (identity, view, vector) records."""
    lines = _read_lines(path)
    if not lines or lines[0] != FEAT_MAGIC:
        raise MalformedHeader(f"{path}: expected '{FEAT_MAGIC}' on line 1")
    head = lines[1].split(" ") if len(lines) > 1 else []
    if len(head) != 2:
        raise MalformedHeader(f"{path}: bad count/dimension line")
    count, dim = (_parse_count(h, path, "record count/dimension") for h in head)
    if dim < 1:
        raise MalformedHeader(f"{path}: invalid counts {count} x {dim}")
    body = [line for line in lines[2:] if line != ""]
    if len(body) != count:
        raise MalformedHeader(f"{path}: header says {count} records, body has {len(body)}")
    records = []
    for offset, line in enumerate(body):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedHeader(f"{path}:{offset + 3}: expected 3 tab-separated fields")
        identity, view_s, vector_s = fields
        view = _parse_view(view_s, path)
        vector = _parse_vector(vector_s, dim, path, offset + 3)
        records.append((identity, view, vector))
    return records


def save_features(records, path):
    """Write (identity, view, vector) records in canonical FEAT form."""
    records = list(records)
    _check_labels((identity for identity, _, _ in records), "identity")
    dim = len(records[0][2]) if records else 0
    rows = []
    for identity, view, vector in records:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (dim,):
            raise DimensionMismatch(f"record {identity!r} has dimension {vector.shape}")
        if not np.all(np.isfinite(vector)):
            raise NonFiniteValue(f"record {identity!r} has a non-finite component")
        if view not in (1, 2):
            raise MalformedHeader(f"record {identity!r} has view {view}")
        rows.append(f"{identity}\t{view}\t{format_row(vector)}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{FEAT_MAGIC}\n{len(records)} {dim}\n")
        for row in rows:
            handle.write(row + "\n")


# -- CORPUS --------------------------------------------------------------------

def load_corpus(path):
    """Parse a CORPUS file into (identity, view, raw text) records."""
    lines = _read_lines(path)
    if not lines or lines[0] != CORPUS_MAGIC:
        raise MalformedHeader(f"{path}: expected '{CORPUS_MAGIC}' on line 1")
    records = []
    for offset, line in enumerate(lines[1:]):
        if line == "":
            continue
        fields = line.split("\t", 2)
        if len(fields) != 3:
            raise MalformedHeader(f"{path}:{offset + 2}: expected 3 tab-separated fields")
        identity, view_s, text = fields
        records.append((identity, _parse_view(view_s, path), text))
    return records


def save_corpus(records, path):
    records = list(records)
    _check_labels((identity for identity, _, _ in records), "identity")
    _check_labels((text for _, _, text in records), "description", separators="\n")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CORPUS_MAGIC + "\n")
        for identity, view, text in records:
            handle.write(f"{identity}\t{view}\t{text}\n")


# -- EMB -----------------------------------------------------------------------

@dataclass
class EmbeddingTable:
    """Token -> fixed-dimension vector lookup."""

    dimension: int
    vectors: dict = field(default_factory=dict)

    def __contains__(self, token):
        return token in self.vectors

    def __len__(self):
        return len(self.vectors)

    def get(self, token):
        return self.vectors[token]


def load_embeddings(path) -> EmbeddingTable:
    lines = _read_lines(path)
    head = lines[0].split(" ")
    if len(head) != 2:
        raise MalformedHeader(f"{path}: bad vocabulary/dimension line")
    count, dim = (_parse_count(h, path, "vocabulary size/dimension") for h in head)
    if dim < 1:
        raise MalformedHeader(f"{path}: invalid counts {count} x {dim}")
    body = [line for line in lines[1:] if line != ""]
    if len(body) != count:
        raise MalformedHeader(f"{path}: header says {count} tokens, body has {len(body)}")
    table = EmbeddingTable(dimension=dim)
    for offset, line in enumerate(body):
        token, _, rest = line.partition(" ")
        if token in table.vectors:
            raise DuplicateToken(f"{path}:{offset + 2}: token {token!r} repeated")
        table.vectors[token] = _parse_vector(rest, dim, path, offset + 2)
    return table


def save_embeddings(table: EmbeddingTable, path):
    _check_labels(table.vectors, "token", separators=" \n")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{len(table.vectors)} {table.dimension}\n")
        for token, vector in table.vectors.items():
            handle.write(f"{token} {format_row(vector)}\n")


# -- ATTR ----------------------------------------------------------------------

@dataclass
class AttributeTable:
    """Per-identity binary attribute annotations of a common width."""

    width: int
    bits: dict = field(default_factory=dict)

    def __contains__(self, identity):
        return identity in self.bits

    def get(self, identity):
        return self.bits[identity]


def load_attributes(path, known_identities=None) -> AttributeTable:
    lines = _read_lines(path)
    head = lines[0].split(" ") if lines else []
    if len(head) != 3 or " ".join(head[:2]) != ATTR_MAGIC:
        raise MalformedHeader(f"{path}: expected '{ATTR_MAGIC} <B>' on line 1")
    width = _parse_count(head[2], path, "attribute width")
    if width < 1:
        raise MalformedHeader(f"{path}: attribute width must be >= 1")
    table = AttributeTable(width=width)
    for offset, line in enumerate(lines[1:]):
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedHeader(f"{path}:{offset + 2}: expected 2 tab-separated fields")
        identity, bit_s = fields
        if len(bit_s) != width:
            raise RaggedAttributes(
                f"{path}:{offset + 2}: row has {len(bit_s)} bits, header says {width}"
            )
        if any(c not in "01" for c in bit_s):
            raise MalformedHeader(f"{path}:{offset + 2}: bits must be 0 or 1")
        if identity in table.bits:
            raise DuplicateAssignment(f"{path}:{offset + 2}: identity {identity!r} repeated")
        if known_identities is not None and identity not in known_identities:
            raise UnknownIdentity(f"{path}:{offset + 2}: identity {identity!r} unknown")
        table.bits[identity] = np.array([int(c) for c in bit_s], dtype=np.uint8)
    return table


def save_attributes(table: AttributeTable, path):
    _check_labels(table.bits, "identity")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{ATTR_MAGIC} {table.width}\n")
        for identity, bits in table.bits.items():
            handle.write(f"{identity}\t{''.join(str(int(b)) for b in bits)}\n")


# -- SPLIT ---------------------------------------------------------------------

@dataclass
class SplitAssignment:
    """One train/test partition: every listed identity has exactly one role."""

    index: int
    roles: dict = field(default_factory=dict)

    def train_identities(self):
        return [i for i, role in self.roles.items() if role == TRAIN]

    def test_identities(self):
        return [i for i, role in self.roles.items() if role == TEST]


def load_splits(path, known_identities=None):
    lines = _read_lines(path)
    head = lines[0].split(" ") if lines else []
    if len(head) != 3 or " ".join(head[:2]) != SPLIT_MAGIC:
        raise MalformedHeader(f"{path}: expected '{SPLIT_MAGIC} <num_splits>' on line 1")
    declared = _parse_count(head[2], path, "split count")
    by_index = {}
    for offset, line in enumerate(lines[1:]):
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedHeader(f"{path}:{offset + 2}: expected 3 tab-separated fields")
        index_s, identity, role = fields
        index = _parse_count(index_s, f"{path}:{offset + 2}", "split index")
        if role not in (TRAIN, TEST):
            raise MalformedHeader(f"{path}:{offset + 2}: role must be train or test")
        if known_identities is not None and identity not in known_identities:
            raise UnknownIdentity(f"{path}:{offset + 2}: identity {identity!r} unknown")
        split = by_index.setdefault(index, SplitAssignment(index=index))
        if identity in split.roles:
            raise DuplicateAssignment(
                f"{path}:{offset + 2}: identity {identity!r} assigned twice in split {index}"
            )
        split.roles[identity] = role
    splits = [by_index[i] for i in sorted(by_index)]
    if len(splits) != declared:
        raise MalformedHeader(f"{path}: header says {declared} splits, body has {len(splits)}")
    return splits


def save_splits(splits, path):
    _check_labels((identity for split in splits for identity in split.roles), "identity")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{SPLIT_MAGIC} {len(splits)}\n")
        for split in splits:
            for identity, role in split.roles.items():
                handle.write(f"{split.index}\t{identity}\t{role}\n")


# -- model blocks ----------------------------------------------------------------

def _grid(shape):
    """A block's (rows, values per row): d0 rows from 2-d up, else one row."""
    return (shape[0], math.prod(shape[1:])) if len(shape) > 1 else (1, math.prod(shape))


def save_blocks(path, magic, blocks):
    """Write a name -> array mapping in order: the magic line, then per block
    ``<name> <d0> <d1> ..`` and the array reshaped to (d0, -1), one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(magic + "\n")
        for name, value in blocks.items():
            array = np.asarray(value, dtype=np.float64)
            handle.write(" ".join([name, *map(str, array.shape)]) + "\n")
            for row in array.reshape(_grid(array.shape)):
                handle.write(format_row(row) + "\n")


def load_blocks(path, magic, shapes):
    """Read what save_blocks wrote; returns (name -> array, dimension sizes).

    shapes maps each block name, in file order, to its dimension names, e.g.
    {"w": ("d", "r"), "m": ("r", "r")}; a dimension name must have one size
    throughout the file.
    """
    lines = _read_lines(path)
    if lines[0] != magic:
        raise MalformedHeader(f"{path}: expected '{magic}' on line 1")
    end = len(lines) - 1  # lines[end] is what follows the final newline
    cursor, blocks, sizes = 1, {}, {}
    for name, dims in shapes.items():
        head = lines[cursor].split(" ") if cursor < end else [None]
        if head[0] != name:
            raise MalformedHeader(f"{path}:{cursor + 1}: expected block {name!r}")
        shape = tuple(_parse_count(d, f"{path}:{cursor + 1}", "a dimension") for d in head[1:])
        if len(shape) != len(dims) or any(sizes.setdefault(d, n) != n for d, n in zip(dims, shape)):
            raise DimensionMismatch(f"{path}:{cursor + 1}: block {name!r} has shape {shape}, "
                                    f"expected {dims} with {sizes}")
        rows, width = _grid(shape)
        if cursor + rows >= end:
            raise MalformedHeader(f"{path}: file ends inside block {name!r}")
        values = [_parse_vector(lines[cursor + 1 + r], width, path, cursor + 2 + r)
                  for r in range(rows)]
        try:
            blocks[name] = np.array(values, dtype=np.float64).reshape(shape)
        except ValueError as exc:  # an empty block declared with oversized dimensions
            raise MalformedHeader(f"{path}:{cursor + 1}: bad shape {shape}: {exc}") from exc
        cursor += 1 + rows
    if lines[cursor:] != [""]:
        raise MalformedHeader(f"{path}:{cursor + 1}: unexpected data after the last block")
    return blocks, sizes


# -- synonym maps ----------------------------------------------------------------

def load_synonyms(path):
    """Parse ``token<TAB>syn1,syn2,..`` lines into a ranked synonym map."""
    synonyms = {}
    for offset, line in enumerate(_read_lines(path)):
        if line == "":
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[1]:
            raise MalformedHeader(f"{path}:{offset + 1}: expected 'token<TAB>syn1,syn2,..'")
        token, ranked_s = fields
        if token in synonyms:
            raise DuplicateToken(f"{path}:{offset + 1}: token {token!r} repeated")
        ranked = tuple(ranked_s.split(","))
        if len(set(ranked)) != len(ranked) or any(not s for s in ranked):
            raise MalformedHeader(f"{path}:{offset + 1}: ranked list must be non-empty and duplicate-free")
        synonyms[token] = ranked
    return synonyms


# -- dataset assembly -------------------------------------------------------------

@dataclass
class Dataset:
    """Row-aligned columns: row i observes identities[i] in camera views[i].

    vision and language are N-row feature matrices (x and y), attributes the
    N-row matrix of each row's identity bits; a modality not loaded is None.
    """

    identities: np.ndarray
    views: np.ndarray
    vision: np.ndarray | None = None
    language: np.ndarray | None = None
    attributes: np.ndarray | None = None

    def __len__(self):
        return len(self.identities)


def assemble_dataset(vision=None, language=None, attributes=None) -> Dataset:
    """Join per-modality files into one Dataset of row-aligned columns.

    When both vision and language feature lists are given they must carry the
    same (identity, view) sequence row by row; that row order is the pairing.
    Each feature list becomes one matrix and attribute bits are looked up per
    identity. Descriptions are not attached: the text CNN reads the corpus on
    its own.
    """
    base = vision if vision is not None else language
    if base is None:
        raise MisalignedRecords("need at least one of vision or language features")
    if vision is not None and language is not None:
        if len(vision) != len(language):
            raise MisalignedRecords(
                f"vision has {len(vision)} records, language has {len(language)}"
            )
        for (vid, vview, _), (lid, lview, _) in zip(vision, language):
            if vid != lid or vview != lview:
                raise MisalignedRecords(
                    f"row pairing broken at identity {vid!r}/{lid!r} view {vview}/{lview}"
                )
    identities = [identity for identity, _, _ in base]
    if attributes is not None:
        for identity in identities:
            if identity not in attributes:
                raise UnknownIdentity(f"identity {identity!r} has no attribute row")
        attributes = np.array([attributes.get(identity) for identity in identities])

    def stack(records):
        return None if records is None else np.array([vector for _, _, vector in records])

    return Dataset(identities=np.array(identities), views=np.array([view for _, view, _ in base]),
                   vision=stack(vision), language=stack(language), attributes=attributes)
