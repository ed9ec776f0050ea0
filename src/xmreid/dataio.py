"""File formats and loaders.

Three formats are UTF-8 text, one record per LF-terminated line:

  CORPUS  ``XMREID-CORPUS 1`` / lines ``id<TAB>view<TAB>raw description text``
  ATTR    ``XMREID-ATTR 1 <B>`` / lines ``id<TAB>b1b2..bB`` with bits in {0,1}
  SPLIT   ``XMREID-SPLIT 1 <num_splits>`` / lines ``index<TAB>id<TAB>train|test``

and every real-valued file is a UTF-8 text header followed by one raw
little-endian float64 body in C order:

  FEAT    ``XMREID-FEAT 2`` / ``<N> <D>`` / N lines ``id<TAB>view`` / N*D values
  EMB     ``XMREID-EMB 1`` / ``<V> <E>`` / V lines ``token`` / V*E values
  BLOCKS  ``<magic>`` / per block a line ``<name> <d0> <d1> ..`` and d0*d1*.. values;
          the blocks are the CNN model's (textcnn.save_model)

A body holds exactly the values its header declares, so truncation and
trailing data are byte-count errors, and save -> load -> save is
byte-identical. Every file is written by ``_save``.
FEAT files hold row-aligned (identities, views, matrix) columns;
load_dataset joins vision, language and ATTR files into one Dataset.
"""

import math
import os
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

FEAT_MAGIC = "XMREID-FEAT 2"
EMB_MAGIC = "XMREID-EMB 1"
CORPUS_MAGIC = "XMREID-CORPUS 1"
ATTR_MAGIC = "XMREID-ATTR 1"
SPLIT_MAGIC = "XMREID-SPLIT 1"

TRAIN = "train"
TEST = "test"
# 1 MiB of float64 per finiteness check of a body, and of bytes per coding pass.
_FINITE_CHUNK = 2**17


def format_real(x) -> str:
    """Canonical 17-significant-digit rendering; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _parse_count(text, path, what):
    # int() would also take '_', '+', '-', surrounding whitespace and
    # non-ASCII digits; a header integer is plain ASCII digits, at most 18 of
    # them, so that it fits an int64 and int() never refuses its length.
    if not (text.isascii() and text.isdigit()) or len(text) > 18:
        raise MalformedHeader(f"{path}: {what} must be a non-negative integer, got {text[:40]!r}")
    return int(text)


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            return handle.read().split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{path}: not valid UTF-8: {exc}") from exc


def _rows(path, lines, width, maxsplit=-1, first=2):
    """(path:lineno, fields) of each non-empty text line, which must split on
    tabs into exactly width fields; lines[0] is line number first."""
    for lineno, line in enumerate(lines, start=first):
        if line:
            fields = line.split("\t", maxsplit)
            if len(fields) != width:
                raise MalformedHeader(f"{path}:{lineno}: expected {width} tab-separated fields")
            yield f"{path}:{lineno}", fields


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


# -- the one writer and the raw float64 bodies --------------------------------------

def _save(path, parts):
    """Write str parts as UTF-8 text and every other part as raw <f8 values in
    C order; a non-finite value is refused before the file is opened."""
    parts = [p.encode("utf-8") if isinstance(p, str) else np.ascontiguousarray(p, dtype="<f8")
             for p in parts]
    if not all(np.isfinite(p).all() for p in parts if isinstance(p, np.ndarray)):
        raise NonFiniteValue(f"{path}: refusing to write a non-finite value")
    with open(path, "wb") as handle:
        for part in parts:
            handle.write(part)


def _lines(handle, count, path):
    """count LF-terminated UTF-8 lines read from handle, without their LFs."""
    lines = []
    for _ in range(count):
        line = handle.readline()
        if not line.endswith(b"\n"):
            raise MalformedHeader(f"{path}: file ends inside a header")
        lines.append(line)
    try:
        return b"".join(lines).decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{path}: not valid UTF-8: {exc}") from exc


def _check_magic(handle, magic, path):
    (first,) = _lines(handle, 1, path)
    if first != magic:
        raise MalformedHeader(f"{path}: expected '{magic}' on line 1")


def _reals(handle, shape, path):
    """The shape's values stored raw at the handle's position, checked to fit
    the file before anything is allocated, as a writable native float64 array
    read in place and checked for finiteness in chunks (no second copy)."""
    count = math.prod(shape)
    if 8 * count > _left(handle):
        raise MalformedHeader(f"{path}: file ends inside a body of shape {shape}")
    try:
        values = np.empty(shape, "<f8")
    except ValueError as exc:  # an empty body declared with oversized dimensions
        raise MalformedHeader(f"{path}: bad shape {shape}: {exc}") from exc
    flat = values.reshape(-1)
    if handle.readinto(flat.view(np.uint8)) != flat.nbytes:
        raise MalformedHeader(f"{path}: file ends inside a body of shape {shape}")
    for lo in range(0, count, _FINITE_CHUNK):
        if not np.isfinite(flat[lo:lo + _FINITE_CHUNK]).all():
            raise NonFiniteValue(f"{path}: non-finite value in a body of shape {shape}")
    return values.astype(np.float64, copy=False)


def _left(handle):
    """Bytes of the file after the handle's position."""
    return os.fstat(handle.fileno()).st_size - handle.tell()


def _load_matrix(path, magic, what):
    """A FEAT or EMB file's N label lines and its N x D matrix."""
    with open(path, "rb") as handle:
        _check_magic(handle, magic, path)
        head = _lines(handle, 1, path)[0].split(" ")
        if len(head) != 2:
            raise MalformedHeader(f"{path}: bad {what} line")
        count, dim = (_parse_count(h, path, what) for h in head)
        if dim < 1:
            raise MalformedHeader(f"{path}: invalid counts {count} x {dim}")
        labels = _lines(handle, count, path)
        matrix = _reals(handle, (count, dim), path)
        if _left(handle):
            raise MalformedHeader(f"{path}: {_left(handle)} bytes after the body")
    return labels, matrix


def _save_matrix(path, magic, labels, matrix):
    """Write the magic, ``<N> <D>``, one line per label, then the N x D matrix's
    body; a shape the loader would refuse is refused before the file is opened."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(labels) or matrix.shape[1] < 1:
        raise DimensionMismatch(f"{path}: {len(labels)} labels need a {len(labels)} x D matrix "
                                f"with D >= 1, got shape {matrix.shape}")
    head = f"{magic}\n{len(labels)} {matrix.shape[1]}\n" + "".join(f"{lb}\n" for lb in labels)
    _save(path, [head, matrix])


# -- FEAT ----------------------------------------------------------------------

def _feat_label(label, where):
    """(identity, view) of a FEAT label line ``id<TAB>view``."""
    fields = label.split("\t")
    if len(fields) != 2:
        raise MalformedHeader(f"{where}: label {label!r} is not 'id<TAB>view'")
    return fields[0], _parse_view(fields[1], where)


def load_features(path):
    """A FEAT file's columns: N identities (str), N views (int) and the N x D matrix."""
    labels, matrix = _load_matrix(path, FEAT_MAGIC, "record count/dimension")
    fields = [_feat_label(label, path) for label in labels]
    return (np.array([identity for identity, _ in fields], dtype=str),
            np.array([view for _, view in fields], dtype=np.int64), matrix)


def save_features(identities, views, matrix, path):
    """Write row-aligned identity and view columns and their N x D matrix."""
    if len(identities) != len(views):
        raise DimensionMismatch(f"{path}: {len(identities)} identities but {len(views)} views")
    labels = [f"{identity}\t{view}" for identity, view in zip(identities, views)]
    _check_labels(labels, "record", separators="\n")
    for label in labels:  # refuse what the loader would not read back
        _feat_label(label, "record")
    _save_matrix(path, FEAT_MAGIC, labels, matrix)


# -- CORPUS --------------------------------------------------------------------

def load_corpus(path):
    """Parse a CORPUS file into (identity, view, raw text) records."""
    return _parse_corpus(_read_lines(path), path)


def _parse_corpus(lines, path):
    if lines[0] != CORPUS_MAGIC:
        raise MalformedHeader(f"{path}: expected '{CORPUS_MAGIC}' on line 1")
    return [(identity, _parse_view(view, where), text)
            for where, (identity, view, text) in _rows(path, lines[1:], 3, maxsplit=2)]


def save_corpus(records, path):
    records = list(records)
    _check_labels((identity for identity, _, _ in records), "identity")
    _check_labels((text for _, _, text in records), "description", separators="\n")
    text = CORPUS_MAGIC + "\n" + "".join(f"{i}\t{v}\t{t}\n" for i, v, t in records)
    _parse_corpus(text.split("\n"), path)  # refuse what the loader would not read back
    _save(path, [text])


# -- EMB -----------------------------------------------------------------------

@dataclass
class EmbeddingTable:
    """An EMB file: each token's fixed-dimension vector (textprep.word_table
    makes a run's lookup table of it)."""

    dimension: int
    vectors: dict = field(default_factory=dict)


def load_embeddings(path) -> EmbeddingTable:
    tokens, matrix = _load_matrix(path, EMB_MAGIC, "vocabulary size/dimension")
    table = EmbeddingTable(dimension=matrix.shape[1])
    for lineno, (token, vector) in enumerate(zip(tokens, matrix), start=3):
        if token in table.vectors:
            raise DuplicateToken(f"{path}:{lineno}: token {token!r} repeated")
        table.vectors[token] = vector
    return table


def save_embeddings(table: EmbeddingTable, path):
    _check_labels(table.vectors, "token", separators=" \n")
    dim = table.dimension
    for token, vector in table.vectors.items():
        if np.shape(vector) != (dim,):
            raise DimensionMismatch(f"{token!r} has shape {np.shape(vector)}, not ({dim},)")
    matrix = np.array(list(table.vectors.values()), dtype=np.float64)
    _save_matrix(path, EMB_MAGIC, list(table.vectors), matrix.reshape(len(table.vectors), dim))


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
    return _parse_attributes(_read_lines(path), path, known_identities)


def _parse_attributes(lines, path, known_identities=None):
    head = lines[0].split(" ")
    if len(head) != 3 or " ".join(head[:2]) != ATTR_MAGIC:
        raise MalformedHeader(f"{path}: expected '{ATTR_MAGIC} <B>' on line 1")
    width = _parse_count(head[2], path, "attribute width")
    if width < 1:
        raise MalformedHeader(f"{path}: attribute width must be >= 1")
    table = AttributeTable(width=width)
    for where, (identity, bit_s) in _rows(path, lines[1:], 2):
        if len(bit_s) != width:
            raise RaggedAttributes(f"{where}: row has {len(bit_s)} bits, header says {width}")
        if any(c not in "01" for c in bit_s):
            raise MalformedHeader(f"{where}: bits must be 0 or 1")
        if identity in table.bits:
            raise DuplicateAssignment(f"{where}: identity {identity!r} repeated")
        if known_identities is not None and identity not in known_identities:
            raise UnknownIdentity(f"{where}: identity {identity!r} unknown")
        table.bits[identity] = np.array([int(c) for c in bit_s], dtype=np.uint8)
    return table


def save_attributes(table: AttributeTable, path):
    _check_labels(table.bits, "identity")
    rows = "".join(f"{i}\t{''.join(str(int(b)) for b in bits)}\n" for i, bits in table.bits.items())
    text = f"{ATTR_MAGIC} {table.width}\n{rows}"
    _parse_attributes(text.split("\n"), path)  # refuse what the loader would not read back
    _save(path, [text])


# -- SPLIT ---------------------------------------------------------------------

@dataclass
class SplitAssignment:
    """One train/test partition: every listed identity has exactly one role."""

    index: int
    roles: dict = field(default_factory=dict)


def load_splits(path, known_identities=None):
    return _parse_splits(_read_lines(path), path, known_identities)


def _parse_splits(lines, path, known_identities=None):
    head = lines[0].split(" ")
    if len(head) != 3 or " ".join(head[:2]) != SPLIT_MAGIC:
        raise MalformedHeader(f"{path}: expected '{SPLIT_MAGIC} <num_splits>' on line 1")
    declared = _parse_count(head[2], path, "split count")
    by_index = {}
    for where, (index_s, identity, role) in _rows(path, lines[1:], 3):
        index = _parse_count(index_s, where, "split index")
        if role not in (TRAIN, TEST):
            raise MalformedHeader(f"{where}: role must be train or test")
        if known_identities is not None and identity not in known_identities:
            raise UnknownIdentity(f"{where}: identity {identity!r} unknown")
        split = by_index.setdefault(index, SplitAssignment(index=index))
        if identity in split.roles:
            raise DuplicateAssignment(
                f"{where}: identity {identity!r} assigned twice in split {index}")
        split.roles[identity] = role
    splits = [by_index[i] for i in sorted(by_index)]
    if len(splits) != declared:
        raise MalformedHeader(f"{path}: header says {declared} splits, body has {len(splits)}")
    return splits


def save_splits(splits, path):
    _check_labels((identity for split in splits for identity in split.roles), "identity")
    rows = "".join(f"{split.index}\t{identity}\t{role}\n"
                   for split in splits for identity, role in split.roles.items())
    text = f"{SPLIT_MAGIC} {len(splits)}\n{rows}"
    _parse_splits(text.split("\n"), path)  # refuse what the loader would not read back
    _save(path, [text])


# -- model blocks ----------------------------------------------------------------

def save_blocks(path, magic, blocks):
    """Write a name -> array mapping in order: the magic line, then per block
    ``<name> <d0> <d1> ..`` and the array's values raw in C order."""
    parts = [magic + "\n"]
    for name, value in blocks.items():
        array = np.asarray(value, dtype=np.float64)
        parts += [" ".join([name, *map(str, array.shape)]) + "\n", array]
    _save(path, parts)


def load_blocks(path, magic, shapes):
    """Read what save_blocks wrote; returns (name -> array, dimension sizes).

    shapes maps each block name, in file order, to its dimension names, e.g.
    {"fc1_w": ("hidden_dim", "kernel_count"), "fc1_b": ("hidden_dim",)}; a
    dimension name must have one size throughout the file.
    """
    blocks, sizes = {}, {}
    with open(path, "rb") as handle:
        _check_magic(handle, magic, path)
        for name, dims in shapes.items():
            head = _lines(handle, 1, path)[0].split(" ")
            if head[0] != name:
                raise MalformedHeader(f"{path}: expected block {name!r}, got {head[0]!r}")
            shape = tuple(_parse_count(d, f"{path}: block {name!r}", "a dimension")
                          for d in head[1:])
            if len(shape) != len(dims) or any(sizes.setdefault(d, n) != n
                                              for d, n in zip(dims, shape)):
                raise DimensionMismatch(f"{path}: block {name!r} has shape {shape}, "
                                        f"expected {dims} with {sizes}")
            blocks[name] = _reals(handle, shape, path)
        if _left(handle):
            raise MalformedHeader(f"{path}: unexpected data after the last block")
    return blocks, sizes


# -- synonym maps ----------------------------------------------------------------

def load_synonyms(path):
    """Parse ``token<TAB>syn1,syn2,..`` lines into a ranked synonym map."""
    synonyms = {}
    for where, (token, ranked_s) in _rows(path, _read_lines(path), 2, first=1):
        if token in synonyms:
            raise DuplicateToken(f"{where}: token {token!r} repeated")
        ranked = tuple(ranked_s.split(","))
        if len(set(ranked)) != len(ranked) or any(not s for s in ranked):
            raise MalformedHeader(f"{where}: ranked list must be non-empty and duplicate-free")
        synonyms[token] = ranked
    return synonyms


# -- datasets -------------------------------------------------------------------

def first_appearance_codes(values):
    """(first, codes) for a 1-D array: values[first] are its distinct values in
    order of first appearance, and values[i] is the codes[i]-th of them. A stable
    argsort heads each run with its first appearance; runs end where sorted
    neighbours differ, compared 1 MiB at a time, so values is never copied."""
    order = np.argsort(values, kind="stable")
    heads = np.ones(len(values), dtype=bool)
    step = max(1, 8 * _FINITE_CHUNK // values.itemsize)
    for lo in range(1, len(values), step):
        rows = values[order[lo - 1:lo + step]]
        heads[lo:lo + step] = rows[1:] != rows[:-1]
    first = order[heads]
    by_first = np.argsort(first)
    codes = np.empty_like(order)
    codes[order] = np.argsort(by_first)[np.cumsum(heads) - 1]
    return first[by_first], codes


@dataclass
class Dataset:
    """Row-aligned columns: row i observes identities[i] in camera views[i].

    vision and language are N-row feature matrices (x and y), attributes the
    N-row matrix of each row's identity bits; language and attributes may be None.
    """

    identities: np.ndarray
    views: np.ndarray
    vision: np.ndarray
    language: np.ndarray | None = None
    attributes: np.ndarray | None = None

    def __len__(self):
        return len(self.identities)


def load_dataset(vision, language=None, attributes=None) -> Dataset:
    """Load a vision FEAT file, and optionally a language FEAT file and an
    ATTR file, into one Dataset, keeping the loaded matrices, not copies.

    The vision file's identities and views are the dataset's; a language file
    must carry the same ones row by row, since that row order is the pairing.
    Attribute bits are looked up once per identity and spread to its rows.
    The text CNN reads the corpus on its own.
    """
    identities, views, x = load_features(vision)
    y = bits = None
    if language:
        language_identities, language_views, y = load_features(language)
        if len(language_identities) != len(identities):
            raise MisalignedRecords(f"{vision} has {len(identities)} records, "
                                    f"{language} has {len(language_identities)}")
        broken = np.flatnonzero((language_identities != identities) | (language_views != views))
        if broken.size:
            row = broken[0]
            raise MisalignedRecords(f"row pairing broken at row {row}: {vision} has "
                                    f"{identities[row]} view {views[row]}, {language} has "
                                    f"{language_identities[row]} view {language_views[row]}")
    if attributes:
        first, codes = first_appearance_codes(identities)
        names = identities[first].tolist()
        table = load_attributes(attributes, known_identities=set(names))
        for identity in names:
            if identity not in table:
                raise UnknownIdentity(f"{attributes}: identity {identity!r} has no attribute row")
        bits = np.array([table.get(identity) for identity in names], dtype=np.uint8)[codes]
    return Dataset(identities=identities, views=views, vision=x, language=y, attributes=bits)
