"""Sentence CNN over description tensors, run a whole batch at a time.

Architecture (Kim 2014): valid 1-D convolution of C kernels (E x w) across
the T columns, ReLU, per-channel temporal max-pool, FC1 (H units) with
ReLU, inverted dropout, FC2 to the class logits, softmax cross-entropy. All
gradients are derived and applied by explicit backpropagation; the SGD
loop uses momentum, weight decay, and a step learning-rate schedule.

Every entry point takes a batch. The convolution is one im2col GEMM, L x
(E*w) @ (E*w) x C (as in Caffe, Jia et al. 2014), over the L live windows
only, as a window past a description's last nonzero column responds
relu(conv_b). Descriptions are stored at their own width, up to max_len;
_forward copies each live window's im2col row straight from those columns,
zero past them, so no batch is zero-padded into a stack (forward passes
its stack's rows). FC1/FC2 are B-row GEMMs. The backward scatters each
channel's peak gradient into an L x C array at its argmax row and
multiplies that against the same rows, the conv responses dropped, so no
per-sample gradient is ever held.
synth.oracle_cnn_loss_and_gradients keeps the per-sample derivation as
the oracle.

The max-pool routes its gradient to the argmax position with ties broken
to the lowest index, and the inference path draws no randomness, so
features are byte-identical across runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dataio
from .errors import (EmptyCorpus, EmptySubset, InvalidConfig, MalformedHeader, NoConvergence,
                     ShapeMismatch)

# Inference runs at most this many tensors at once; at paper sizes
# (E300, w5, T70) a chunk of full-length descriptions takes 79 MB of im2col rows.
INFER_CHUNK = 100


@dataclass
class TextCnnConfig:
    num_classes: int
    embed_dim: int = 300
    kernel_count: int = 256
    kernel_width: int = 5
    hidden_dim: int = 1024
    max_len: int = 70
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
    """A batch's activations; the backward reads all but conv, and only cols in its last GEMM."""

    cols: np.ndarray          # L x (E*w) im2col rows of the live windows
    live: np.ndarray          # B x P, True where a window touches a nonzero column
    conv: np.ndarray          # B x C x P response after ReLU
    argmax: np.ndarray        # B x C peak position, 0-based
    pooled: np.ndarray        # B x C
    fc1: np.ndarray           # B x H, after ReLU, before dropout
    logits: np.ndarray        # B x K


@dataclass
class SolverConfig:
    iterations: int
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 100
    lr_drop_factor: float = 0.1
    lr_drop_every: int = 50000

    def validate(self):
        if self.iterations < 0:
            raise InvalidConfig(f"iterations must be >= 0, got {self.iterations}")
        if min(self.batch_size, self.lr_drop_every) < 1:
            raise InvalidConfig("batch_size and lr_drop_every must be >= 1")
        for name in ("base_lr", "momentum", "weight_decay", "lr_drop_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidConfig(f"{name} must be finite and >= 0, got {value}")


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
    # Inverted dropout: kept units are scaled by 1/(1-rate); no masks, no-op.
    return units if masks is None else units * masks / (1.0 - rate)


def forward(model, values, masks=None) -> ForwardTrace:
    """Run a B x E x T stack through the network.

    masks (B x H booleans, True = kept) switch on inverted dropout, which
    scales the kept FC1 units by 1/(1-rate); without masks nothing is dropped.

    Only live windows are multiplied: those that start at or before the
    sample's last nonzero column, read from the values, not from `used`.
    That is exact for zero trailing columns and finite weights: a later
    window's product is +-0, so it responds relu(conv_b) at its own position.
    """
    return _forward(model, values, *_stack_windows(model, values), masks)


def _stack_windows(model, values):
    """A B x E x T stack's _occupied widths and its T - w + 1 window positions."""
    cfg = model.config
    _, embed, width = values.shape
    if embed != cfg.embed_dim:
        raise ShapeMismatch(f"tensor embeds {embed}-d, model expects {cfg.embed_dim}-d")
    if width < cfg.kernel_width:
        raise ShapeMismatch(f"tensor has {width} columns, kernel needs {cfg.kernel_width}")
    return _occupied(values), width - cfg.kernel_width + 1


def _forward(model, rows, occupied, positions=None, masks=None) -> ForwardTrace:
    """forward over B descriptions, each E x (its own width) with its _occupied
    width; window p reads columns p..p+w-1, zero past the stored ones.
    positions=None stops one all-zero window past the longest description,
    whose relu(conv_b) wins the ties of every later one."""
    cfg = model.config
    if positions is None:
        positions = min(cfg.max_len - cfg.kernel_width + 1, int(occupied.max()) + 1)
    counts = np.minimum(occupied, positions)  # live windows per description
    live = np.arange(positions) < counts[:, None]  # B x P
    cols = np.empty((int(counts.sum()), cfg.embed_dim * cfg.kernel_width))  # L x (E*w)
    for values, count, end in zip(rows, counts, np.cumsum(counts)):
        block = cols[end - count:end].reshape(count, cfg.embed_dim, cfg.kernel_width)
        for k in range(cfg.kernel_width):  # window p reads column p + k at offset k
            inside = min(count, max(0, values.shape[1] - k))
            block[:inside, :, k] = values[:, k:k + inside].T
            block[inside:, :, k] = 0.0
    kernels = model.conv_w.reshape(cfg.kernel_count, -1).T
    conv = np.zeros((len(live), positions, cfg.kernel_count))
    if live.all():  # the GEMM writes every response in place
        np.matmul(cols, kernels, out=conv.reshape(len(cols), -1))
    else:
        conv[live] = cols @ kernels
    conv += model.conv_b
    np.maximum(conv, 0.0, out=conv)
    argmax = conv.argmax(axis=1)  # B x C, lowest position on ties
    pooled = conv[np.arange(len(live))[:, None], argmax, np.arange(cfg.kernel_count)]
    fc1 = np.maximum(pooled @ model.fc1_w.T + model.fc1_b, 0.0)
    logits = _dropout(fc1, masks, cfg.dropout) @ model.fc2_w.T + model.fc2_b
    return ForwardTrace(cols=cols, live=live, conv=conv.transpose(0, 2, 1), argmax=argmax,
                        pooled=pooled, fc1=fc1, logits=logits)


def softmax_cross_entropy(logits, labels):
    """(B losses, B x K probabilities) of B x K logits and B labels, with
    the usual max-shift stabilization."""
    shift = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shift)
    total = exp.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(shift, np.expand_dims(labels, -1), axis=-1)
    loss = np.log(total) - picked
    return loss[..., 0], exp / total


def batch_loss_and_gradients(model, values, labels, dropout_masks=None):
    """Per-sample losses and the batch-summed parameter gradients.

    values is a B x E x T stack, labels holds B class indices and
    dropout_masks is None or B x H booleans (True = kept). The gradients
    come as a dict keyed by PARAM_NAMES and equal the sum of the B
    per-sample gradients.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(values),):
        raise ShapeMismatch(f"{len(values)} tensors need {len(values)} labels, got {labels.shape}")
    if np.any((labels < 0) | (labels >= model.config.num_classes)):
        raise ShapeMismatch(f"label outside 0..{model.config.num_classes - 1}")
    return _loss_and_gradients(model, values, *_stack_windows(model, values), labels, dropout_masks)


def _loss_and_gradients(model, values, occupied, positions, labels, masks):
    """batch_loss_and_gradients over _forward's arguments; the caller checks labels."""
    cfg = model.config
    trace = _forward(model, values, occupied, positions, masks)
    rows = np.arange(len(labels))
    losses, dlogits = softmax_cross_entropy(trace.logits, labels)
    dlogits[rows, labels] -= 1.0

    dfc2_w = dlogits.T @ _dropout(trace.fc1, masks, cfg.dropout)
    dhidden = _dropout(dlogits @ model.fc2_w, masks, cfg.dropout)
    dfc1_pre = dhidden * (trace.fc1 > 0.0)
    dfc1_w = dfc1_pre.T @ trace.pooled

    # Max-pool routes to the argmax position; a zero pooled value means the
    # whole channel was clipped by the ReLU, so nothing flows back. A peak in
    # a dead window has no cols row and its all-zero input adds nothing.
    dpeak = (dfc1_pre @ model.fc1_w) * (trace.pooled > 0.0)
    peak = trace.live[rows[:, None], trace.argmax]  # B x C
    row = (np.cumsum(trace.live) - 1).reshape(trace.live.shape)[rows[:, None], trace.argmax]
    grads = [None, dpeak.sum(axis=0), dfc1_w, dfc1_pre.sum(axis=0), dfc2_w, dlogits.sum(axis=0)]
    cols = trace.cols
    del trace, dlogits, dhidden, dfc1_pre  # the conv responses go before the L x C gradient
    dconv = np.zeros((len(cols), cfg.kernel_count))  # L x C
    dconv[row[peak], np.nonzero(peak)[1]] = dpeak[peak]
    grads[0] = (dconv.T @ cols).reshape(model.conv_w.shape)
    return losses, dict(zip(PARAM_NAMES, grads))


def train(model, samples, solver: SolverConfig, rng):
    """SGD with momentum / weight decay / step schedule; returns loss history.

    samples are (label, tensor) pairs with labels in 0..num_classes-1 and
    tensors at most max_len wide. Each iteration draws batch_size sample
    indices with replacement and then the batch's dropout masks, runs those
    tensors' stored columns through _forward, and applies the Caffe-style
    update v = mu*v - lr*(grad + wd*param); param += v, with grad the
    batch-mean gradient, freed once applied. A non-finite batch loss
    (divergence) raises NoConvergence.
    """
    solver.validate()
    samples = list(samples)
    if not samples:
        raise EmptyCorpus("no training samples")
    labels = np.array([label for label, _ in samples], dtype=np.int64)
    if np.any((labels < 0) | (labels >= model.config.num_classes)):
        raise ShapeMismatch("label outside the class range")
    rows, occupied = _stored([tensor for _, tensor in samples], model.config)

    velocity = {name: np.zeros_like(arr) for name, arr in model.params()}
    history = []
    rate = model.config.dropout
    scale = 1.0 / solver.batch_size
    for step in range(solver.iterations):
        lr = solver.base_lr * solver.lr_drop_factor ** (step // solver.lr_drop_every)
        batch = rng.integers(0, len(samples), size=solver.batch_size)
        masks = None
        if rate > 0.0:
            masks = rng.random((solver.batch_size, model.config.hidden_dim)) >= rate
        losses, grads = _loss_and_gradients(model, [rows[i] for i in batch], occupied[batch],
                                            None, labels[batch], masks)
        history.append(float(losses.sum()) / solver.batch_size)
        if not math.isfinite(history[-1]):
            raise NoConvergence(f"training diverged: batch loss {history[-1]} at iteration {step}")

        for name, param in model.params():
            grad = grads.pop(name) * scale + solver.weight_decay * param
            vel = velocity[name]
            vel *= solver.momentum
            vel -= lr * grad
            param += vel
    return history


def _occupied(values):
    """1 + the index of the last nonzero column (last axis), 0 for none, per leading index."""
    return (values.any(axis=-2) * np.arange(1, values.shape[-1] + 1)).max(axis=-1, initial=0)


def _stored(tensors, config):
    """The tensors' stored E x (at most max_len) columns and their _occupied widths."""
    rows = [tensor.values for tensor in tensors]
    if any(v.shape[0] != config.embed_dim or v.shape[1] > config.max_len for v in rows):
        raise ShapeMismatch(f"description tensors must be {config.embed_dim} x at most "
                            f"{config.max_len}, the model's input")
    return rows, np.array([_occupied(values) for values in rows], dtype=np.int64)


def _infer(model, tensors, pick):
    """pick(trace) over a sequence of tensors, concatenated.

    The sequence runs in chunks of at most INFER_CHUNK tensors, each read
    from its stored columns by _forward, so memory stays bounded.
    """
    rows, occupied = _stored(tensors, model.config)
    if not rows:
        raise EmptySubset("no description tensors to run")
    return np.concatenate([
        pick(_forward(model, rows[start:start + INFER_CHUNK], occupied[start:start + INFER_CHUNK]))
        for start in range(0, len(rows), INFER_CHUNK)
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
