"""Sentence CNN over description tensors, run a whole batch at a time.

Architecture (Kim 2014): valid 1-D convolution of C kernels (E x w) across
the T columns, ReLU, per-channel temporal max-pool, FC1 (H units) with
ReLU, inverted dropout, FC2 to the class logits, softmax cross-entropy. All
gradients are derived and applied by explicit backpropagation; the SGD
loop uses Caffe's fixed momentum, weight decay and step schedule. It checks
a step's loss first, then updates each parameter in place once the backward
has its gradient and no longer reads the parameter, fc1_w BLOCK_ROWS rows and
conv_w one offset slice at a time, so no full set of gradients is ever held;
each part is updated BLOCK_ROWS rows at a time, so no temporary is parameter-sized.

Every entry point takes descriptions as int ids into one textprep.WordTable,
whose row 0 is all zero; tensors on different tables are refused. The
convolution is factored by distinct ids: _forward codes a batch's
ids, through each description's last nonzero one, behind id 0 by first
appearance, so padding is code 0, and projects the U distinct rows once per
kernel offset, C x E @ E x U. Window p's response sums, for k = 0..w-1,
offset k's projection of column p + k, so a batch that reuses a small
vocabulary multiplies far fewer columns than it has windows. The responses
are laid out C x B x P, so the max-pool reduces the contiguous last axis;
later offsets add to offset 0's gather BLOCK_ROWS channels at a time.
FC1/FC2 are B-row GEMMs; the responses are freed once pooled, dropout scales
FC1 in place and FC1 is freed before its gradient is formed, so a step holds
only what its backward reads. The backward sums each channel's peak gradient
into a U x C array per offset, at the code that offset of its peak window
reads, and multiplies that against the distinct rows, so no per-window or
per-sample gradient is ever held. synth.oracle_cnn_loss_and_gradients keeps
the per-sample derivation as the oracle.

The max-pool routes its gradient to the argmax position with ties broken
to the lowest index, and the inference path draws no randomness, so
features are byte-identical across runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dataio, textprep
from .errors import (EmptyCorpus, EmptySubset, InvalidConfig, MalformedHeader, NoConvergence,
                     ShapeMismatch)

# Inference runs at most this many tensors at once; at paper sizes (E300,
# C256, w5, T70) a chunk of full-length descriptions whose 7,000 words are
# all distinct peaks at 43.7 MiB traced.
INFER_CHUNK = 100
# Rows (channels, hidden units) the response gather, FC1 gradient and SGD update take
# at once, so none makes a response- or parameter-sized temporary. 16 rows of a GEMM
# match the whole GEMM's bit for bit (OpenBLAS, Haswell); one row goes by GEMV.
BLOCK_ROWS = 16


@dataclass
class TextCnnConfig:
    num_classes: int
    embed_dim: int = 300
    kernel_count: int = 256
    kernel_width: int = 5
    hidden_dim: int = 1024
    max_len: int = textprep.DEFAULT_MAX_LEN
    dropout: float = 0.5

    def validate(self):
        if min(self.num_classes, self.embed_dim, self.kernel_count, self.kernel_width,
               self.hidden_dim) < 1:
            raise InvalidConfig("all layer sizes must be >= 1")
        if self.kernel_width > self.max_len:
            raise InvalidConfig(f"kernel width {self.kernel_width} exceeds max_len {self.max_len}")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig(f"dropout must lie in [0, 1), got {self.dropout}")


PARAM_NAMES = ("conv_w", "conv_b", "fc1_w", "fc1_b", "fc2_w", "fc2_b")


@dataclass
class TextCnnModel:
    config: TextCnnConfig
    conv_w: np.ndarray  # C x E x w
    conv_b: np.ndarray  # C
    fc1_w: np.ndarray   # H x C
    fc1_b: np.ndarray   # H
    fc2_w: np.ndarray   # K x H
    fc2_b: np.ndarray   # K

    def params(self):
        return [(name, getattr(self, name)) for name in PARAM_NAMES]


@dataclass
class ForwardTrace:
    """A batch's activations, all of which the backward reads."""

    ids: np.ndarray           # B x (P+w-1) codes of the columns windows read, 0 for zero ones
    distinct: np.ndarray      # U x E distinct columns by code, row 0 all zero
    argmax: np.ndarray        # B x C peak position, 0-based
    pooled: np.ndarray        # B x C
    fc1: np.ndarray | None    # B x H after ReLU and dropout; None after fc2_w's gradient
    logits: np.ndarray        # B x K


# Caffe's SGD solver: the base rate drops by LR_DROP_FACTOR every LR_DROP_EVERY steps.
MOMENTUM = 0.9
WEIGHT_DECAY = 0.0005
LR_DROP_FACTOR = 0.1
LR_DROP_EVERY = 50000


@dataclass
class SolverConfig:
    """Run length, base rate and batch; the other solver settings are constants."""

    iterations: int
    base_lr: float = 0.01
    batch_size: int = 100

    def validate(self):
        if self.iterations < 0:
            raise InvalidConfig(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.base_lr) and self.base_lr >= 0.0):
            raise InvalidConfig(f"base_lr must be finite and >= 0, got {self.base_lr}")


def _glorot(rng, fan_in, fan_out, shape):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: TextCnnConfig, rng) -> TextCnnModel:
    """Glorot-uniform weights, zero biases."""
    config.validate()
    c = config
    conv_fan_in = c.embed_dim * c.kernel_width
    return TextCnnModel(
        config=c,
        conv_w=_glorot(rng, conv_fan_in, c.kernel_count, (c.kernel_count, c.embed_dim, c.kernel_width)),
        conv_b=np.zeros(c.kernel_count),
        fc1_w=_glorot(rng, c.kernel_count, c.hidden_dim, (c.hidden_dim, c.kernel_count)),
        fc1_b=np.zeros(c.hidden_dim),
        fc2_w=_glorot(rng, c.hidden_dim, c.num_classes, (c.num_classes, c.hidden_dim)),
        fc2_b=np.zeros(c.num_classes),
    )


def _dropout(units, masks, rate):
    # Inverted dropout in place: kept units are scaled by 1/(1-rate); no masks, no-op.
    if masks is not None:
        units *= masks
        units /= 1.0 - rate
    return units


def forward(model, tensors, masks=None) -> ForwardTrace:
    """Run B description tensors on one WordTable through the network at full
    width, max_len - w + 1 window positions. masks (B x H booleans, True =
    kept) switch on inverted dropout, which scales the kept FC1 units by
    1/(1-rate) in the trace's fc1; without masks nothing is dropped.

    Columns past a tensor's last nonzero id are never projected: they read
    code 0, the zero column, whose projection is +-0 for finite weights, so a
    window of them responds relu(conv_b) at its own position.
    """
    return _forward(model, *_coded(tensors, model.config), True, masks)


def _forward(model, table, sentences, full=False, masks=None) -> ForwardTrace:
    """forward over B descriptions, each the ids of its rows of table through
    its last nonzero one; window p reads columns p..p+w-1, zero past them.
    Unless full, the windows stop at one all-zero window past the longest
    description, whose relu(conv_b) wins the ties of every later one. Either
    way the P windows read P + w - 1 columns, which hold every occupied one."""
    cfg = model.config
    occupied = np.array([len(s) for s in sentences], dtype=np.int64)
    positions = cfg.max_len - cfg.kernel_width + 1
    if not full:
        positions = min(positions, int(occupied.max()) + 1)
    # The batch's distinct ids behind id 0, the zero row, coded by first appearance.
    width = cfg.kernel_width
    flat = np.concatenate([np.zeros(1, dtype=np.int64), *sentences])
    first, codes = dataio.first_appearance_codes(flat)
    ids = np.zeros((len(occupied), positions + width - 1), dtype=np.int64)  # B x (P+w-1)
    ids[np.arange(ids.shape[1]) < occupied[:, None]] = codes[1:]
    distinct = table[flat[first]]
    # Each offset's C x U projection, from a C x E kernel copy, is gathered into the
    # C x B x P responses, where window p reads column p + k at offset k, then dropped.
    def projected(k):
        return np.ascontiguousarray(model.conv_w[:, :, k]) @ distinct.T
    conv = np.take(projected(0), ids[:, :positions], axis=1)
    for k in range(1, width):
        proj, window = projected(k), ids[:, k:k + positions]
        for lo in range(0, len(conv), BLOCK_ROWS):
            conv[lo:lo + BLOCK_ROWS] += np.take(proj[lo:lo + BLOCK_ROWS], window, axis=1)
        del proj  # else it would meet the next offset's projection
    conv += model.conv_b[:, None, None]
    np.maximum(conv, 0.0, out=conv)
    argmax = conv.argmax(axis=2)  # C x B, lowest position on ties
    pooled = np.take_along_axis(conv, argmax[:, :, None], axis=2)[:, :, 0].T
    del conv  # the backward reads the peaks through argmax and pooled
    fc1 = pooled @ model.fc1_w.T
    np.maximum(np.add(fc1, model.fc1_b, out=fc1), 0.0, out=fc1)
    logits = _dropout(fc1, masks, cfg.dropout) @ model.fc2_w.T
    logits += model.fc2_b
    return ForwardTrace(ids=ids, distinct=distinct, argmax=argmax.T, pooled=pooled, fc1=fc1,
                        logits=logits)


def softmax_cross_entropy(logits, labels):
    """(B losses, B x K probabilities) of B x K logits and B labels, with
    the usual max-shift stabilization."""
    shift = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shift)
    total = exp.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(shift, np.expand_dims(labels, -1), axis=-1)
    loss = np.log(total) - picked
    return loss[..., 0], exp / total


def batch_loss_and_gradients(model, tensors, labels, dropout_masks=None):
    """Per-sample losses and the batch-summed parameter gradients, at full width
    as forward runs: tensors are B description tensors on one WordTable, labels
    holds B class indices and dropout_masks is None or B x H booleans (True =
    kept). The gradients come as a dict keyed by PARAM_NAMES and equal the sum
    of the B per-sample gradients.
    """
    table, sentences = _coded(tensors, model.config)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(sentences),):
        raise ShapeMismatch(f"{len(sentences)} tensors need as many labels, got {labels.shape}")
    if np.any((labels < 0) | (labels >= model.config.num_classes)):
        raise ShapeMismatch(f"label outside 0..{model.config.num_classes - 1}")
    steps = _loss_and_gradients(model, table, sentences, True, labels, dropout_masks)
    losses, grads = next(steps), {name: np.empty(param.shape) for name, param in model.params()}
    for name, index, grad in steps:
        grads[name][index] = grad
    return losses, grads


def _loss_and_gradients(model, table, sentences, full, labels, masks):
    """Generate batch_loss_and_gradients' B losses, then (name, index, gradient)
    for getattr(model, name)[index] once the backward reads it no more; callers check labels."""
    cfg = model.config
    trace = _forward(model, table, sentences, full, masks)
    rows = np.arange(len(labels))
    losses, dlogits = softmax_cross_entropy(trace.logits, labels)
    dlogits[rows, labels] -= 1.0
    yield losses

    # FC1 after dropout gives the ReLU's mask: 1/(1-rate) keeps a kept unit's
    # sign and a dropped one's dFC1 is +-0 already. FC1 goes before dFC1 is made.
    dfc2_w, live = dlogits.T @ trace.fc1, trace.fc1 > 0.0
    trace.fc1 = None
    dfc1_pre = _dropout(dlogits @ model.fc2_w, masks, cfg.dropout)
    dfc1_pre *= live
    del live
    yield "fc2_w", ..., dfc2_w
    del dfc2_w
    yield "fc2_b", ..., dlogits.sum(axis=0)

    # Max-pool routes to the argmax position; a zero pooled value means the
    # whole channel was clipped by the ReLU, so nothing flows back. Offset k of
    # each channel's peak window sums into its column's row of dproj; an
    # offset that reads padding reads code 0, the zero column, and adds nothing.
    dpeak = dfc1_pre @ model.fc1_w
    dpeak *= trace.pooled > 0.0
    for lo in range(0, cfg.hidden_dim, BLOCK_ROWS):
        yield "fc1_w", slice(lo, lo + BLOCK_ROWS), dfc1_pre[:, lo:lo + BLOCK_ROWS].T @ trace.pooled
    yield "fc1_b", ..., dfc1_pre.sum(axis=0)
    del dfc1_pre
    yield "conv_b", ..., dpeak.sum(axis=0)
    channels, size = np.arange(cfg.kernel_count), trace.distinct.shape[0] * cfg.kernel_count
    for k in range(cfg.kernel_width):
        code = trace.ids[rows[:, None], trace.argmax + k]  # B x C
        dproj = np.bincount((code * cfg.kernel_count + channels).ravel(), dpeak.ravel(), size)
        yield "conv_w", (..., k), dproj.reshape(-1, cfg.kernel_count).T @ trace.distinct


def train(model, samples, solver: SolverConfig, rng):
    """SGD with momentum / weight decay / step schedule; returns loss history.

    samples are (label, tensor) pairs with labels in 0..num_classes-1 and
    tensors at most max_len wide. Each iteration draws batch_size sample
    indices with replacement and then the batch's dropout masks, runs those
    tensors' stored columns through _forward, and applies the Caffe-style
    update v = mu*v - lr*(grad + wd*param); param += v, with grad the
    batch-mean gradient, in place, BLOCK_ROWS rows at a time, to each part of
    a parameter the backward yields, which is then freed.
    A non-finite batch loss (divergence) raises NoConvergence before any update.
    """
    solver.validate()
    samples = list(samples)
    if not samples:
        raise EmptyCorpus("no training samples")
    labels = np.array([label for label, _ in samples], dtype=np.int64)
    if np.any((labels < 0) | (labels >= model.config.num_classes)):
        raise ShapeMismatch("label outside the class range")
    table, sentences = _coded([tensor for _, tensor in samples], model.config)

    velocity = {name: np.zeros_like(arr) for name, arr in model.params()}
    history = []
    rate = model.config.dropout
    scale = 1.0 / solver.batch_size
    for step in range(solver.iterations):
        lr = solver.base_lr * LR_DROP_FACTOR ** (step // LR_DROP_EVERY)
        batch = rng.integers(0, len(samples), size=solver.batch_size)
        masks = None
        if rate > 0.0:
            masks = rng.random((solver.batch_size, model.config.hidden_dim)) >= rate
        steps = _loss_and_gradients(model, table, [sentences[i] for i in batch], False,
                                    labels[batch], masks)
        history.append(float(next(steps).sum()) / solver.batch_size)
        if not math.isfinite(history[-1]):
            raise NoConvergence(f"training diverged: batch loss {history[-1]} at iteration {step}")

        for name, index, grad in steps:
            param, vel = getattr(model, name)[index], velocity[name][index]
            for lo in range(0, len(grad), BLOCK_ROWS):
                g, p, v = (a[lo:lo + BLOCK_ROWS] for a in (grad, param, vel))
                g *= scale
                g += WEIGHT_DECAY * p
                g *= lr
                v *= MOMENTUM
                v -= g
                p += v
            del grad, g  # freed before the next part or the next forward
    return history


def _coded(tensors, config):
    """The rows of the one WordTable that tensors share, and each tensor's ids
    cut after its last nonzero one."""
    tensors = list(tensors)
    if not tensors:
        raise EmptySubset("no description tensors to run")
    words = tensors[0].words
    if (any(t.words is not words for t in tensors) or words.vectors.shape[1] != config.embed_dim
            or max(len(t.ids) for t in tensors) > config.max_len):
        raise ShapeMismatch(f"description tensors must be ids into one WordTable of "
                            f"{config.embed_dim}-d rows, at most {config.max_len} each")
    return words.vectors, [t.ids[:np.flatnonzero(t.ids).max(initial=-1) + 1] for t in tensors]


def _infer(model, tensors, pick):
    """pick(trace) over a sequence of tensors, concatenated.

    The sequence is coded once (_coded) and runs in chunks of at most
    INFER_CHUNK tensors, so memory stays bounded.
    """
    table, sentences = _coded(tensors, model.config)
    return np.concatenate([
        pick(_forward(model, table, sentences[start:start + INFER_CHUNK]))
        for start in range(0, len(sentences), INFER_CHUNK)
    ])


def extract_features(model, tensors):
    """N x H FC1 activations of N tensors with dropout disabled: the 1024-d
    description feature."""
    return _infer(model, tensors, lambda trace: trace.fc1)


def predict(model, tensors):
    """The class index of each tensor in a sequence, as an int array."""
    return _infer(model, tensors, lambda trace: trace.logits.argmax(axis=1))


def find_detector_channel(model, tensors, truth_positions):
    """Locate the conv channel whose peak best tracks a known word position.

    For each description the channel's estimate is its argmax position
    (1-based) plus the half-width offset floor(w/2); the winning channel
    minimizes the summed absolute error against truth_positions, ties going
    to the lowest channel index. Returns (channel, per-description errors).
    """
    tensors = list(tensors)
    truth = np.asarray(truth_positions, dtype=np.int64)
    if truth.shape != (len(tensors),):
        raise ShapeMismatch("one ground-truth position per description required")
    offset = model.config.kernel_width // 2
    estimates = _infer(model, tensors, lambda trace: trace.argmax) + 1 + offset
    errors = np.abs(estimates - truth[:, None])
    channel = int(np.argmin(errors.sum(axis=0)))
    return channel, errors[:, channel]


# -- checkpoint format -------------------------------------------------------

CNN_MAGIC = "XMREID-CNN 3"
# Dimension names are the TextCnnConfig fields they set.
_SHAPES = {
    "max_len": (),
    "dropout": (),
    "conv_w": ("kernel_count", "embed_dim", "kernel_width"),
    "conv_b": ("kernel_count",),
    "fc1_w": ("hidden_dim", "kernel_count"),
    "fc1_b": ("hidden_dim",),
    "fc2_w": ("num_classes", "hidden_dim"),
    "fc2_b": ("num_classes",),
}


def save_model(model, path):
    cfg = model.config
    dataio.save_blocks(path, CNN_MAGIC, {"max_len": cfg.max_len, "dropout": cfg.dropout,
                                         **dict(model.params())})


def load_model(path) -> TextCnnModel:
    blocks, sizes = dataio.load_blocks(path, CNN_MAGIC, _SHAPES)
    max_len = float(blocks.pop("max_len"))
    if not max_len.is_integer():
        raise MalformedHeader(f"{path}: max_len must be an integer, got {max_len}")
    config = TextCnnConfig(max_len=int(max_len), dropout=float(blocks.pop("dropout")), **sizes)
    config.validate()
    return TextCnnModel(config, **blocks)
