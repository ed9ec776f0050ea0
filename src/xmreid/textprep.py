"""Tokenization, embedding lookup, and description augmentation.

A description becomes an E x T matrix whose columns are the word vectors of
its first T in-vocabulary tokens; shorter descriptions are zero-padded on
the right. Three augmentation schemes expand a training corpus: random word
dropping and ranked synonym replacement act on token lists before embedding,
additive Gaussian noise acts on the embedded matrix afterwards.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, UnknownMethod

MAX_DROP = 10
DEFAULT_MAX_LEN = 70
DEFAULT_NOISE_SIGMA = 0.05
DEFAULT_REPLACE_PROB = 0.25

# Letters and digits only; hyphens, apostrophes and all punctuation separate.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

TOKEN_METHODS = ("drop", "synonym")
ALL_METHODS = TOKEN_METHODS + ("gaussian",)


def tokenize(text):
    """Lowercase tokens split on every non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class DescriptionTensor:
    """E x T embedding matrix with `used` leading data columns; rest padding."""

    values: np.ndarray
    used: int

    @property
    def embed_dim(self):
        return self.values.shape[0]

    @property
    def max_len(self):
        return self.values.shape[1]


def to_tensor(tokens, table, max_len=DEFAULT_MAX_LEN) -> DescriptionTensor:
    """Embed tokens column by column, skipping out-of-vocabulary words.

    Truncation to max_len happens after OOV removal, so a long description
    keeps its first max_len known words.
    """
    if max_len < 1:
        raise InvalidConfig(f"max_len must be >= 1, got {max_len}")
    kept = [t for t in tokens if t in table]
    used = min(len(kept), max_len)
    values = np.zeros((table.dimension, max_len))
    for col in range(used):
        values[:, col] = table.get(kept[col])
    return DescriptionTensor(values=values, used=used)


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
            weights = 1.0 / np.arange(1, len(ranked) + 1)
            weights /= weights.sum()
            out.append(ranked[int(rng.choice(len(ranked), p=weights))])
        else:
            out.append(token)
    return out


def augment_gaussian(tensor, sigma, rng) -> DescriptionTensor:
    """Add zero-mean Gaussian noise to the data columns only.

    Padding columns stay exactly zero so augmented and clean tensors have the
    same footprint.
    """
    if not (np.isfinite(sigma) and sigma >= 0):
        raise InvalidConfig(f"sigma must be finite and >= 0, got {sigma}")
    values = tensor.values.copy()
    if tensor.used > 0:
        values[:, : tensor.used] += rng.normal(0.0, sigma, size=(tensor.embed_dim, tensor.used))
    return DescriptionTensor(values=values, used=tensor.used)


def augment_corpus(corpus, method, factor, rng, synonyms=None):
    """Expand a token corpus: each description plus factor-1 fresh variants.

    Entries are (identity, view, tokens); variants keep their source labels
    and follow their original. Only the token-level methods live here;
    Gaussian noise applies after embedding, see build_training_tensors.
    """
    if method not in TOKEN_METHODS:
        raise UnknownMethod(
            f"unknown corpus augmentation {method!r}; token-level methods are {TOKEN_METHODS}"
        )
    if factor < 1:
        raise InvalidConfig(f"factor must be >= 1, got {factor}")
    if method == "synonym" and synonyms is None:
        raise InvalidConfig("synonym augmentation needs a synonym map")
    out = []
    for identity, view, tokens in corpus:
        tokens = list(tokens)
        out.append((identity, view, tokens))
        for _ in range(factor - 1):
            if method == "drop":
                variant = augment_drop(tokens, rng)
            else:
                variant = augment_synonym(tokens, synonyms, rng)
            out.append((identity, view, variant))
    return out


def build_training_tensors(
    corpus,
    table,
    max_len=DEFAULT_MAX_LEN,
    method=None,
    factor=1,
    rng=None,
    synonyms=None,
    sigma=DEFAULT_NOISE_SIGMA,
):
    """Embed a token corpus into (identity, view, tensor) training records.

    Augmentation runs in each method's natural domain: drop and synonym
    rewrite the token list before embedding, gaussian perturbs the embedded
    matrix. method=None embeds the corpus as-is.
    """
    if method is not None and method not in ALL_METHODS:
        raise UnknownMethod(f"unknown augmentation {method!r}; methods are {ALL_METHODS}")
    if factor < 1:
        raise InvalidConfig(f"factor must be >= 1, got {factor}")
    if method in TOKEN_METHODS and factor > 1:
        expanded = augment_corpus(corpus, method, factor, rng, synonyms=synonyms)
        return [(i, v, to_tensor(t, table, max_len)) for i, v, t in expanded]
    if method == "gaussian" and factor > 1:
        out = []
        for identity, view, tokens in corpus:
            clean = to_tensor(tokens, table, max_len)
            out.append((identity, view, clean))
            for _ in range(factor - 1):
                out.append((identity, view, augment_gaussian(clean, sigma, rng)))
        return out
    return [(i, v, to_tensor(t, table, max_len)) for i, v, t in corpus]
