"""Scenario evaluation: CMC curves, split aggregation, and the attribute
bit-flip simulation.

The protocol per split: fit everything (CCA, XQDA) on the train identities
only, build the gallery from view-1 test samples (one per identity in
single-shot mode, drawn by the split's seeded stream when an identity has
several), take every view-2 test sample as a probe, and rank the gallery by
ascending score. Splits are independent, each keyed by (master seed,
scenario, flip count, split index). A split works on whole arrays: it takes
the dataset columns the scenario reads and fuses them once per row set and
side, as cca.SCENARIO_SPEC says. This module rescales no feature itself:
when a scenario has attribute parts, fit_xqda(zscore=True) z-scores the
fused training features and folds the scale into its subspace.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cca as cca_mod
from . import rng as streams
from . import xqda as xqda_mod
from .errors import (
    EmptyGallery,
    InvalidConfig,
    MissingModality,
    NonFiniteValue,
    NOutOfRange,
    ProbeIdentityAbsent,
    ShapeMismatch,
)

SCENARIO_IDS = {name: i for i, name in enumerate(cca_mod.SCENARIOS)}


@dataclass
class CmcResult:
    """Cumulative match rates: accuracies[k-1] = P(rank <= k)."""

    accuracies: np.ndarray
    probe_count: int
    gallery_size: int

    def rank(self, k):
        return float(self.accuracies[min(k, self.gallery_size) - 1])


@dataclass
class SplitReport:
    scenario: str
    per_split: list
    mean: np.ndarray
    std: np.ndarray

    def mean_rank(self, k):
        return float(self.mean[min(k, len(self.mean)) - 1])


@dataclass
class PipelineConfig:
    """Knobs of the per-split fitting pipeline; defaults follow the ledger."""

    cca_k: int | None = None          # None -> min(d_x, d_y, rank budget 128)
    cca_ridge: float = cca_mod.DEFAULT_RIDGE
    xqda_ridge: float = xqda_mod.DEFAULT_RIDGE
    xqda_max_rank: int = xqda_mod.DEFAULT_MAX_RANK
    flip_bits: int = 0
    gallery_mode: str = "single"      # or "multi": min score over an identity's images

    def validate(self):
        if min(1 if self.cca_k is None else self.cca_k, self.xqda_max_rank) < 1:
            raise InvalidConfig("cca_k (unless None) and xqda_max_rank must be >= 1")
        for name in ("cca_ridge", "xqda_ridge"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidConfig(f"{name} must be finite and >= 0, got {value}")
        if self.gallery_mode not in ("single", "multi"):
            raise InvalidConfig(f"gallery_mode must be single or multi, got {self.gallery_mode!r}")


def cmc(scores, gallery_ids, probe_ids) -> CmcResult:
    """CMC curve from a probes-by-gallery score matrix (lower = better).

    Per probe the gallery is sorted ascending with ties broken by gallery
    index; the probe's rank is the position of its best-ranked correct
    identity. That entry is the first-index minimum over the correct columns,
    and its rank is counted, not sorted: 1 + #(lower scores) + #(equal
    scores at a lower gallery index).
    """
    scores = np.asarray(scores, dtype=np.float64)
    gallery_ids = np.asarray(gallery_ids)
    probe_ids = np.asarray(probe_ids)
    if scores.shape != (len(probe_ids), len(gallery_ids)):
        raise ShapeMismatch(
            f"score matrix {scores.shape} does not match {len(probe_ids)} probes "
            f"x {len(gallery_ids)} gallery entries"
        )
    if scores.shape[1] == 0:
        raise EmptyGallery("gallery must contain at least one sample")
    if np.isnan(scores).any():
        raise NonFiniteValue("score matrix has a NaN entry")
    gallery_size = len(gallery_ids)
    correct = probe_ids[:, None] == gallery_ids[None, :]
    absent = ~correct.any(axis=1)
    if absent.any():
        raise ProbeIdentityAbsent(
            f"probe identity {probe_ids[absent.argmax()]!r} not in the gallery")
    best = np.where(correct, scores, np.inf).min(axis=1, keepdims=True)
    first = np.argmax(correct & (scores == best), axis=1)
    before = np.arange(gallery_size) < first[:, None]
    ranks = 1 + np.sum((scores < best) | ((scores == best) & before), axis=1)
    counts = np.bincount(ranks, minlength=gallery_size + 1)[1:]
    accuracies = np.cumsum(counts) / len(probe_ids)
    return CmcResult(accuracies=accuracies, probe_count=len(probe_ids),
                     gallery_size=gallery_size)


def flip_attributes(bits, n, rng):
    """Invert exactly n distinct uniformly chosen positions."""
    bits = np.asarray(bits, dtype=np.uint8)
    if not 0 <= n <= bits.size:
        raise NOutOfRange(f"n={n} outside 0..{bits.size}")
    out = bits.copy()
    if n > 0:
        positions = rng.choice(bits.size, size=n, replace=False)
        out[positions] ^= 1
    return out


def _evaluate_one_split(ids, views, fields, split, scenario, config, master_seed):
    gen = streams.stream(
        master_seed, streams.EVAL, SCENARIO_IDS[scenario], config.flip_bits, split.index
    )
    spec = cca_mod.SCENARIO_SPEC[scenario]
    parts = set(spec[cca_mod.GALLERY] + spec[cca_mod.QUERY])
    # Set lookups: np.isin would import numpy.ma, 1.6 MB of peak RSS.
    train_ids, test_ids = set(split.train_identities()), set(split.test_identities())
    train = np.array([identity in train_ids for identity in ids.tolist()], dtype=bool)
    test = np.array([identity in test_ids for identity in ids.tolist()], dtype=bool)
    if not train.any() or not test_ids:
        raise InvalidConfig(f"split {split.index} needs both train and test identities")

    if "attribute" in parts:
        # Per-row attribute copies, independently flipped per view instance.
        flipped = [flip_attributes(bits, config.flip_bits, gen) for bits in fields["attributes"]]
        fields = dict(fields, attributes=np.array(flipped))

    model = None
    if parts & {"cca_x", "cca_y"}:
        model = cca_mod.fit_cca(fields["vision"][train], fields["language"][train],
                                k=config.cca_k, ridge=config.cca_ridge)

    def fused(rows, side):
        return cca_mod.fuse(scenario, model=model, side=side,
                            **{name: matrix[rows] for name, matrix in fields.items()})

    train_view1 = np.flatnonzero(train & (views == 1))
    train_view2 = np.flatnonzero(train & (views == 2))
    train_feats = np.vstack([fused(train_view1, cca_mod.GALLERY),
                             fused(train_view2, cca_mod.QUERY)])
    train_rows = np.concatenate([train_view1, train_view2])
    # Z-scoring balances the scales of vision features and {-1,+1} attribute bits.
    metric = xqda_mod.fit_xqda(
        train_feats, ids[train_rows], views[train_rows],
        ridge=config.xqda_ridge, max_rank=config.xqda_max_rank,
        zscore="attribute" in parts,
    )

    # Gallery: view-1 test samples, one per identity unless multi-shot.
    by_identity = {}
    for i in np.flatnonzero(test & (views == 1)):
        by_identity.setdefault(ids[i], []).append(i)
    gallery_rows = []
    for identity in dict.fromkeys(ids.tolist()):
        if identity not in by_identity:
            continue
        candidates = by_identity.pop(identity)
        if config.gallery_mode == "multi":
            gallery_rows.extend(candidates)
        elif len(candidates) == 1:
            gallery_rows.append(candidates[0])
        else:
            gallery_rows.append(candidates[int(gen.integers(len(candidates)))])
    probe_rows = np.flatnonzero(test & (views == 2))
    if not gallery_rows:
        raise EmptyGallery(f"split {split.index} has no view-1 test samples")
    if not probe_rows.size:
        raise InvalidConfig(f"split {split.index} has no view-2 test samples")

    gallery_ids = ids[gallery_rows]
    scores = xqda_mod.score_matrix(metric, fused(gallery_rows, cca_mod.GALLERY),
                                   fused(probe_rows, cca_mod.QUERY))
    if config.gallery_mode == "multi":
        # An identity's images sit next to each other: fold each run to its min.
        starts = np.flatnonzero(np.r_[True, gallery_ids[1:] != gallery_ids[:-1]])
        scores = np.minimum.reduceat(scores, starts, axis=1)
        gallery_ids = gallery_ids[starts]
    return cmc(scores, gallery_ids, ids[probe_rows])


def evaluate_scenario(dataset, splits, scenario, config=None, master_seed=42) -> SplitReport:
    """Run the full per-split protocol and aggregate the CMC curves."""
    config = config or PipelineConfig()
    config.validate()
    if scenario not in cca_mod.SCENARIO_SPEC:
        raise InvalidConfig(f"unknown scenario {scenario!r}; choose from {cca_mod.SCENARIOS}")
    splits = list(splits)
    if not splits:
        raise InvalidConfig("need at least one split")
    fields = {source: getattr(dataset, source) for source in cca_mod.scenario_sources(scenario)}
    if any(column is None for column in fields.values()):
        raise MissingModality(f"scenario {scenario} needs {' and '.join(fields)}")
    results = [_evaluate_one_split(dataset.identities, dataset.views, fields, split, scenario,
                                   config, master_seed)
               for split in splits]

    sizes = {r.gallery_size for r in results}
    if len(sizes) != 1:
        raise ShapeMismatch(f"splits produced unequal gallery sizes {sorted(sizes)}")
    curves = np.stack([r.accuracies for r in results])
    return SplitReport(
        scenario=scenario,
        per_split=results,
        mean=curves.mean(axis=0),
        std=curves.std(axis=0),
    )


def attribute_degradation_sweep(dataset, splits, n_values, config=None, master_seed=42):
    """VAxVA evaluation per flip count; returns {n: SplitReport}."""
    config = config or PipelineConfig()
    reports = {}
    for n in n_values:
        flipped = replace(config, flip_bits=int(n))
        reports[int(n)] = evaluate_scenario(dataset, splits, "VAxVA", flipped,
                                            master_seed=master_seed)
    return reports
