"""Scenario evaluation: CMC curves, split aggregation, and the attribute
bit-flip simulation.

The protocol per split: fit everything (CCA, XQDA) on the train identities
only, build the gallery from view-1 test samples (one per identity in
single-shot mode, drawn by the split's seeded stream when an identity has
several), take every view-2 test sample as a probe, and rank the gallery by
ascending score. Splits are independent, each keyed by (master seed,
scenario, flip count, split index). Identities are coded once per
evaluation by dataio.first_appearance_codes, the coder xqda uses for its
labels and rows; a split looks up one role per code, and its masks, gallery
grouping and ranks work on the codes. The gallery is prepared for scoring once;
probes are scored, folded and ranked in blocks of rows, so at most one block
of scores is held, never P x G of them.

SCENARIO_SPEC, the one table of the six scenarios, decides the rest: its
cca_x/cca_y parts fit a CCA per split, its attribute parts flip bits, and a
side of two or more parts is balanced by _block_scales. A split fuses the
columns a scenario reads once per row set and side, as arrays.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cca as cca_mod
from . import dataio
from . import rng as streams
from . import xqda as xqda_mod
from .errors import (
    EmptyGallery,
    EmptySubset,
    InvalidConfig,
    KOutOfRange,
    MissingModality,
    NonFiniteValue,
    NOutOfRange,
    ProbeIdentityAbsent,
    ShapeMismatch,
)

GALLERY = "gallery"
QUERY = "query"

# Per side, the parts a scenario concatenates in order (cca_x/cca_y: the
# canonical projections W_x^T x, W_y^T y). The order keys the rng streams.
SCENARIO_SPEC = {
    "VxV": {GALLERY: ("vision",), QUERY: ("vision",)},
    "LxL": {GALLERY: ("language",), QUERY: ("language",)},
    "VxL": {GALLERY: ("cca_x",), QUERY: ("cca_y",)},
    "VxVL": {GALLERY: ("vision", "cca_x"), QUERY: ("vision", "cca_y")},
    "VLxVL": {GALLERY: ("vision", "language"), QUERY: ("vision", "language")},
    "VAxVA": {GALLERY: ("vision", "attribute"), QUERY: ("vision", "attribute")},
}
SCENARIOS = tuple(SCENARIO_SPEC)
SCENARIO_IDS = {name: i for i, name in enumerate(SCENARIOS)}
BLOCK_ENTRIES = 2**15  # scores per probe block (256 KB): max(1, this // gallery entries) rows
# The dataset column each part is built from.
PART_SOURCES = {"vision": "vision", "language": "language", "attribute": "attributes",
                "cca_x": "vision", "cca_y": "language"}


def scenario_sources(scenario):
    """The dataset columns a scenario reads on either side, sorted."""
    return sorted({PART_SOURCES[p] for side in SCENARIO_SPEC[scenario].values() for p in side})


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
    per_split: list
    mean: np.ndarray
    std: np.ndarray

    def mean_rank(self, k):
        return float(self.mean[min(k, len(self.mean)) - 1])


@dataclass
class PipelineConfig:
    """Knobs of the per-split fitting pipeline. Each split fits CCA and XQDA
    with fit_cca's and fit_xqda's own ridge and rank defaults."""

    cca_k: int | None = None          # None -> min(d_x, d_y, rank budget 128)
    flip_bits: int = 0
    gallery_mode: str = "single"      # or "multi": min score over an identity's images

    def validate(self):
        if self.cca_k is not None and self.cca_k < 1:
            raise InvalidConfig(f"cca_k must be None or >= 1, got {self.cca_k}")
        if self.gallery_mode not in ("single", "multi"):
            raise InvalidConfig(f"gallery_mode must be single or multi, got {self.gallery_mode!r}")


def _ranks(scores, gallery_ids, probe_ids, names=None):
    """cmc's checks and per-probe ranks for a block of scores; ids code into names if given."""
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
    correct = probe_ids[:, None] == gallery_ids[None, :]
    absent = probe_ids[~correct.any(axis=1)]
    if absent.size:
        label = (absent if names is None else names[absent]).tolist()[0]
        raise ProbeIdentityAbsent(f"probe identity {label!r} not in the gallery")
    best = np.min(scores, axis=1, where=correct, initial=np.inf, keepdims=True)
    first = np.argmax(correct & (scores == best), axis=1)
    before = np.arange(len(gallery_ids)) < first[:, None]
    return 1 + np.sum((scores < best) | ((scores == best) & before), axis=1)


def _curve(ranks, gallery_size) -> CmcResult:
    counts = np.bincount(ranks, minlength=gallery_size + 1)[1:]
    return CmcResult(accuracies=np.cumsum(counts) / len(ranks), probe_count=len(ranks),
                     gallery_size=gallery_size)


def cmc(scores, gallery_ids, probe_ids) -> CmcResult:
    """CMC curve from a probes-by-gallery score matrix (lower = better).

    Per probe the gallery is sorted ascending with ties broken by gallery
    index; the probe's rank is the position of its best-ranked correct
    identity. That entry is the first-index minimum over the correct columns,
    and its rank is counted, not sorted: 1 + #(lower scores) + #(equal
    scores at a lower gallery index).
    """
    return _curve(_ranks(scores, gallery_ids, probe_ids), len(gallery_ids))


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


def _fuse(parts, fields, rows, model, scale=None):
    """The given rows of each part's column (attribute bits onto {-1, +1},
    cca_x/cca_y projected through model), concatenated, divided by scale if given."""
    pieces = []
    for part in parts:
        value = fields[PART_SOURCES[part]][rows]
        if part == "attribute":
            value = 2.0 * value - 1.0
        elif part.startswith("cca_"):
            value = cca_mod.project(model, part[-1], value)
        pieces.append(value)
    fused = np.concatenate(pieces, axis=-1)
    return fused if scale is None else np.divide(fused, scale, out=fused)


def _block_scales(fused, parts, fields, model):
    """Per column of the fused training rows of both views, its part's RMS
    centred norm sqrt(mean ||x - mean x||^2), taken without a centred copy; 1
    where that is zero or rounding noise, which dividing would amplify. XQDA's
    ridge is isotropic, so the parts must enter at one scale; scoring reuses these."""
    widths = [model.k if p.startswith("cca_") else fields[PART_SOURCES[p]].shape[1] for p in parts]
    scales = []
    for block in np.split(fused, np.cumsum(widths)[:-1], axis=1):
        mean, square = block.mean(axis=0), np.einsum("ij,ij->", block, block)
        spread = square - len(block) * (mean @ mean)
        scales.append(math.sqrt(spread / len(block)) if spread > 1e-12 * square else 1.0)
    return np.repeat(scales, widths)


def _evaluate_one_split(codes, names, views, fields, split, scenario, config, master_seed):
    gen = streams.stream(
        master_seed, streams.EVAL, SCENARIO_IDS[scenario], config.flip_bits, split.index
    )
    spec = SCENARIO_SPEC[scenario]
    parts = set(spec[GALLERY] + spec[QUERY])
    role = np.array([split.roles.get(name, "") for name in names.tolist()], dtype=object)
    train, test = (role == dataio.TRAIN)[codes], (role == dataio.TEST)[codes]
    if not train.any() or dataio.TEST not in split.roles.values():
        raise EmptySubset(f"split {split.index} needs both train and test identities")

    if "attribute" in parts:
        # Per-row attribute copies, independently flipped per view instance.
        flipped = [flip_attributes(bits, config.flip_bits, gen) for bits in fields["attributes"]]
        fields = dict(fields, attributes=np.array(flipped))

    model = None
    if parts & {"cca_x", "cca_y"}:
        model = cca_mod.fit_cca(fields["vision"][train], fields["language"][train],
                                k=config.cca_k)

    train_view1 = np.flatnonzero(train & (views == 1))
    train_view2 = np.flatnonzero(train & (views == 2))
    train_rows = np.concatenate([train_view1, train_view2])
    # View-1 then view-2 rows, so fit_xqda slices the views; freed before scoring.
    fused = np.vstack([_fuse(spec[GALLERY], fields, train_view1, model),
                       _fuse(spec[QUERY], fields, train_view2, model)])
    scale = None
    if len(spec[GALLERY]) > 1:  # a lone part is left as it is
        scale = _block_scales(fused, spec[GALLERY], fields, model)
        fused /= scale
    metric = xqda_mod.fit_xqda(fused, names[codes[train_rows]], views[train_rows])
    del fused

    # Gallery: view-1 test samples, grouped by identity in order of first
    # appearance; single-shot draws one per identity that has several.
    gallery_rows = np.flatnonzero(test & (views == 1))
    if not gallery_rows.size:
        raise EmptyGallery(f"split {split.index} has no view-1 test samples")
    gallery_rows = gallery_rows[np.argsort(codes[gallery_rows], kind="stable")]
    starts = np.flatnonzero(np.r_[True, np.diff(codes[gallery_rows]) != 0])
    ranked_ids = codes[gallery_rows[starts]]
    counts = np.diff(np.r_[starts, len(gallery_rows)])
    if config.gallery_mode == "single":
        gallery_rows = gallery_rows[starts + [gen.integers(n) if n > 1 else 0 for n in counts]]
    probe_rows = np.flatnonzero(test & (views == 2))
    if not probe_rows.size:
        raise EmptySubset(f"split {split.index} has no view-2 test samples")

    scorer = xqda_mod._gallery_scorer(metric, _fuse(spec[GALLERY], fields, gallery_rows, model,
                                                    scale))
    probes = _fuse(spec[QUERY], fields, probe_rows, model, scale)
    step = max(1, BLOCK_ENTRIES // len(gallery_rows))
    ranks = []
    for lo in range(0, len(probe_rows), step):
        scores = scorer(probes[lo:lo + step])
        if config.gallery_mode == "multi":  # each identity's min, one entry slot at a time
            folded = scores[:, starts]
            for slot in range(1, counts.max()):
                have = np.flatnonzero(counts > slot)
                folded[:, have] = np.minimum(folded[:, have], scores[:, starts[have] + slot])
            scores = folded
        ranks.append(_ranks(scores, ranked_ids, codes[probe_rows[lo:lo + step]], names))
    return _curve(np.concatenate(ranks), len(ranked_ids))


def evaluate_scenario(dataset, splits, scenario, config=None, master_seed=42) -> SplitReport:
    """Run the full per-split protocol and aggregate the CMC curves."""
    config = config or PipelineConfig()
    config.validate()
    if scenario not in SCENARIO_SPEC:
        raise InvalidConfig(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    splits = list(splits)
    if not splits:
        raise InvalidConfig("need at least one split")
    # Checked whether or not the scenario fits a CCA, like every other knob.
    dims = [m.shape[1] for m in (dataset.vision, dataset.language) if m is not None]
    if config.cca_k is not None and config.cca_k > min(dims):
        raise KOutOfRange(f"cca_k={config.cca_k} exceeds the feature dimension {min(dims)}")
    fields = {source: getattr(dataset, source) for source in scenario_sources(scenario)}
    if any(column is None for column in fields.values()):
        raise MissingModality(f"scenario {scenario} needs {' and '.join(fields)}")
    first, codes = dataio.first_appearance_codes(dataset.identities)
    names = dataset.identities[first]
    results = [_evaluate_one_split(codes, names, dataset.views, fields, split, scenario,
                                   config, master_seed)
               for split in splits]

    sizes = {r.gallery_size for r in results}
    if len(sizes) != 1:
        raise ShapeMismatch(f"splits produced unequal gallery sizes {sorted(sizes)}")
    curves = np.stack([r.accuracies for r in results])
    return SplitReport(per_split=results, mean=curves.mean(axis=0), std=curves.std(axis=0))


def claim_margins(reports, order):
    """{(a, b): (mean, se)} for each adjacent pair of order, the mean over
    splits of b's rank-1 minus a's and its standard error. reports maps each
    name in order to a SplitReport over the same splits, which pair the
    differences; order is the claimed ascending order of rank-1."""
    if len(order) < 2 or not set(order) <= set(reports):
        raise InvalidConfig(f"margins need two names in order, each in reports, got {list(order)}")
    r1 = [[r.rank(1) for r in reports[name].per_split] for name in order]
    if len({len(rates) for rates in r1}) != 1:
        raise ShapeMismatch("margins pair splits, so every report needs the same splits")
    if len(r1[0]) < 2:
        raise InvalidConfig("margins need two splits")
    diffs = np.diff(np.array(r1), axis=0)
    return {pair: (float(d.mean()), float(d.std(ddof=1) / math.sqrt(len(d))))
            for pair, d in zip(zip(order, order[1:]), diffs)}


def attribute_degradation_sweep(dataset, splits, n_values, config=None, master_seed=42):
    """VAxVA evaluation per flip count; returns {n: SplitReport}."""
    config = config or PipelineConfig()
    n_values = [int(n) for n in n_values]
    if len(set(n_values)) != len(n_values):
        raise InvalidConfig(f"flip counts must not repeat, got {n_values}")
    width = None if dataset.attributes is None else np.shape(dataset.attributes)[1]
    outside = [n for n in n_values if width is not None and not 0 <= n <= width]
    if outside:  # every n is checked before any split is fitted
        raise NOutOfRange(f"n={outside[0]} outside 0..{width}")
    return {n: evaluate_scenario(dataset, splits, "VAxVA", replace(config, flip_bits=n),
                                 master_seed=master_seed)
            for n in n_values}
