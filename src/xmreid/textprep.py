"""Tokenization, embedding lookup, and description augmentation.

A run codes its embedding table by value once into a WordTable: the distinct
word vectors in order of first appearance behind an all-zero row 0, so equal
vectors share an id and an all-zero one reads as padding. A description is
then the int32 ids of its first T in-vocabulary tokens, T at most max_len:
the sentence CNN's one input form, past which it reads zeros.
build_training_tensors turns a training corpus into one group per
description, its clean tensor followed by its augmented variants. Of the
three schemes, random word dropping and ranked synonym replacement act on
the token list before embedding, and additive Gaussian noise appends the
noisy word vectors of the clean tensor to the run's table as new ids.
"""

import functools
import re
from dataclasses import dataclass

import numpy as np

from . import dataio
from .errors import InvalidConfig, UnknownMethod

MAX_DROP = 10
DEFAULT_MAX_LEN = 70
DEFAULT_NOISE_SIGMA = 0.05
DEFAULT_REPLACE_PROB = 0.25

# Letters and digits only; hyphens, apostrophes and all punctuation separate.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

ALL_METHODS = ("drop", "synonym", "gaussian")


def tokenize(text):
    """Lowercase tokens split on every non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class WordTable:
    """A run's word vectors, N x E with row 0 all zero and the rest distinct,
    and each token's row in `ids`; once append has run, vectors is a prefix of storage."""

    ids: dict
    vectors: np.ndarray
    storage: np.ndarray | None = None

    def append(self, rows):
        """The id of the first of rows, stored after the last; full storage doubles."""
        start, stop = len(self.vectors), len(self.vectors) + len(rows)
        if self.storage is None or stop > len(self.storage):
            self.storage = np.concatenate([self.vectors, np.empty((stop, rows.shape[1]))])
        self.storage[start:stop] = rows
        self.vectors = self.storage[:stop]
        return start


def code_rows(blocks, dim):
    """(table, ids): table holds the distinct rows of the dim-wide blocks by first
    appearance behind an all-zero row 0, and row i of block b is table[ids[b][i]].
    + 0.0 turns -0.0 into 0.0, so every all-zero row is id 0."""
    blocks = [np.zeros((1, dim)), *blocks]
    ends = np.cumsum([len(block) for block in blocks])
    pool = np.concatenate(blocks, out=np.empty((ends[-1], dim)))
    pool += 0.0
    first, codes = dataio.first_appearance_codes(pool.view(f"V{8 * dim}").ravel())
    return pool[first], np.split(codes, ends)[1:-1]


def word_table(embeddings) -> WordTable:
    """An EmbeddingTable's WordTable, its vectors coded by code_rows."""
    dim = embeddings.dimension
    table, (ids,) = code_rows([np.reshape(list(embeddings.vectors.values()), (-1, dim))], dim)
    return WordTable(dict(zip(embeddings.vectors, ids.tolist())), table)


@dataclass(slots=True)
class DescriptionTensor:
    """A description's words as int32 `ids` into the WordTable `words`; the CNN
    reads zeros past them, and id 0 anywhere reads as padding."""

    ids: np.ndarray
    words: WordTable

    def columns(self):  # E x len(ids)
        return self.words.vectors[self.ids].T


def to_tensor(tokens, words, max_len=DEFAULT_MAX_LEN) -> DescriptionTensor:
    """The ids of tokens in a WordTable, skipping out-of-vocabulary words.

    Truncation to max_len happens after OOV removal, so a long description
    keeps its first max_len known words.
    """
    if max_len < 1:
        raise InvalidConfig(f"max_len must be >= 1, got {max_len}")
    ids = [words.ids[t] for t in tokens if t in words.ids][:max_len]
    return DescriptionTensor(np.array(ids, dtype=np.int32), words)


def augment_drop(tokens, rng):
    """Remove D words at random positions, D uniform on {0..10}.

    D is capped at len-1 so at least one word survives; order of the
    survivors is preserved.
    """
    tokens = list(tokens)
    count = int(rng.integers(0, MAX_DROP + 1))
    count = min(count, max(len(tokens) - 1, 0))
    if count == 0:
        return tokens
    drop = set(rng.choice(len(tokens), size=count, replace=False).tolist())
    return [t for i, t in enumerate(tokens) if i not in drop]


@functools.lru_cache(maxsize=None)
def _rank_cdf(count):
    # Shared by every call, so only read: the cdf Generator.choice(count, p=1/r weights) searches.
    weights = 1.0 / np.arange(1, count + 1)
    cdf = (weights / weights.sum()).cumsum()
    return cdf / cdf[-1]


def augment_synonym(tokens, synonyms, rng, replace_prob=DEFAULT_REPLACE_PROB):
    """Independently replace eligible words by ranked synonyms.

    Each token present in the synonym map is replaced with probability
    replace_prob; the synonym at rank r is then drawn with probability
    proportional to 1/r, so the most frequent meaning is favoured.
    """
    out = []
    for token in tokens:
        ranked = synonyms.get(token)
        if ranked and rng.random() < replace_prob:
            out.append(ranked[int(_rank_cdf(len(ranked)).searchsorted(rng.random(), side="right"))])
        else:
            out.append(token)
    return out


def _check_sigma(sigma):
    if not (np.isfinite(sigma) and sigma >= 0):
        raise InvalidConfig(f"sigma must be finite and >= 0, got {sigma}")


def augment_gaussian(tensor, sigma, rng) -> DescriptionTensor:
    """Add zero-mean Gaussian noise to each word column: one E x len(ids) draw,
    so the stream advances by the words alone. The noisy columns are appended
    to the tensor's WordTable as new int32 ids; the shared rows stay as they were."""
    _check_sigma(sigma)
    noisy = tensor.columns()  # a fresh E x len(ids) array
    noisy += rng.normal(0.0, sigma, size=noisy.shape)
    ids = tensor.ids.copy()
    if sigma > 0.0:  # zero noise leaves every column, so every id, as it was
        ids[:] = tensor.words.append(noisy.T) + np.arange(len(ids))
    return DescriptionTensor(ids, tensor.words)


def build_training_tensors(corpus, words, max_len=DEFAULT_MAX_LEN, method=None, factor=1,
                           rng=None, synonyms=None, sigma=DEFAULT_NOISE_SIGMA):
    """One group per description of a corpus of token lists, embedded on the run's
    WordTable `words`: its clean tensor, then, when a method is set, factor-1
    variants of it drawn in corpus order from rng. drop and synonym rewrite the
    tokens, gaussian noises the clean tensor into new rows of `words`. sigma is
    checked on every call, the synonym map only when synonym variants are drawn."""
    _check_sigma(sigma)
    if method is not None and method not in ALL_METHODS:
        raise UnknownMethod(f"unknown augmentation {method!r}; methods are {ALL_METHODS}")
    if factor < 1:
        raise InvalidConfig(f"factor must be >= 1, got {factor}")
    if method == "synonym" and factor > 1 and synonyms is None:
        raise InvalidConfig("synonym augmentation needs a synonym map")
    if method is not None and factor > 1 and rng is None:
        raise InvalidConfig(f"{method} augmentation needs a random stream")

    def variant(tokens, clean):
        if method == "drop":
            return to_tensor(augment_drop(tokens, rng), words, max_len)
        if method == "synonym":
            return to_tensor(augment_synonym(tokens, synonyms, rng), words, max_len)
        return augment_gaussian(clean, sigma, rng)

    count = factor - 1 if method else 0
    groups = []
    for tokens in corpus:
        clean = to_tensor(tokens, words, max_len)
        groups.append([clean, *(variant(tokens, clean) for _ in range(count))])
    return groups
