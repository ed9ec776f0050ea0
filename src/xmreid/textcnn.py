"""Sentence CNN over description tensors, run a whole batch at a time.

Architecture (Kim 2014): valid 1-D convolution of C kernels (E x w) across
the T columns, ReLU, per-channel temporal max-pool, FC1 (H units) with
ReLU, inverted dropout, FC2 to the class logits, softmax cross-entropy. All
gradients are derived and applied by explicit backpropagation; the SGD
loop uses momentum, weight decay, and a step learning-rate schedule.

One batched core serves training and inference. The convolution over a
B x E x T stack is one im2col GEMM, (B*P) x (E*w) @ (E*w) x C (as in Caffe,
Jia et al. 2014), and FC1/FC2 are B-row GEMMs. The backward pass scatters
each channel's peak gradient into a dense B x P x C array at its argmax and
multiplies that against the same im2col matrix, so no per-sample gradient
is ever held. The per-sample forward and loss_and_gradients are batch-of-one
calls into the core; synth.oracle_cnn_loss_and_gradients keeps the
per-sample derivation as its oracle.

The max-pool routes its gradient to the argmax position with ties broken
to the lowest index, and the inference path draws no randomness, so
features are byte-identical across runs.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dataio
from .errors import (EmptyCorpus, EmptySubset, InvalidConfig, MalformedHeader, NoConvergence,
                     ShapeMismatch)
from .textprep import DescriptionTensor

# Inference stacks at most this many tensors at once; at paper sizes
# (E300, w5, T70) one chunk's im2col matrix takes 79 MB.
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
class Gradients:
    conv_w: np.ndarray
    conv_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray

    def params(self):
        return [(name, getattr(self, name)) for name in PARAM_NAMES]

    def add_(self, other):
        for (_, mine), (_, theirs) in zip(self.params(), other.params()):
            mine += theirs


@dataclass
class ForwardTrace:
    """One sample's activations; the batched core adds a leading B axis."""

    conv: np.ndarray          # C x P response after ReLU
    argmax: np.ndarray        # per-channel peak position, 0-based
    pooled: np.ndarray        # C
    fc1: np.ndarray           # H, after ReLU, before dropout
    dropout_mask: np.ndarray | None
    logits: np.ndarray


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


def _forward_batch(model, values, masks=None):
    """Run a B x E x T stack; returns (batched trace, im2col matrix).

    masks (B x H booleans, True = kept) switch inverted dropout on.
    """
    cfg = model.config
    count, embed, width = values.shape
    if embed != cfg.embed_dim:
        raise ShapeMismatch(f"tensor embeds {embed}-d, model expects {cfg.embed_dim}-d")
    if width < cfg.kernel_width:
        raise ShapeMismatch(f"tensor has {width} columns, kernel needs {cfg.kernel_width}")
    positions = width - cfg.kernel_width + 1
    windows = sliding_window_view(values, cfg.kernel_width, axis=2)  # B x E x P x w
    cols = windows.transpose(0, 2, 1, 3).reshape(count * positions, -1)
    pre = cols @ model.conv_w.reshape(cfg.kernel_count, -1).T + model.conv_b
    conv = np.maximum(pre, 0.0, out=pre).reshape(count, positions, cfg.kernel_count)
    argmax = conv.argmax(axis=1)  # B x C, lowest position on ties
    pooled = conv[np.arange(count)[:, None], argmax, np.arange(cfg.kernel_count)]
    fc1 = np.maximum(pooled @ model.fc1_w.T + model.fc1_b, 0.0)
    logits = _dropout(fc1, masks, cfg.dropout) @ model.fc2_w.T + model.fc2_b
    trace = ForwardTrace(conv=conv.transpose(0, 2, 1), argmax=argmax, pooled=pooled, fc1=fc1,
                         dropout_mask=masks, logits=logits)
    return trace, cols


def _sample_mask(cfg, train, rng, dropout_mask):
    # The 1 x H dropout mask of a batch-of-one training pass, or None.
    if not (train and cfg.dropout > 0.0):
        return None
    if dropout_mask is None:
        if rng is None:
            raise InvalidConfig("training forward pass needs an rng for dropout")
        dropout_mask = rng.random(cfg.hidden_dim) >= cfg.dropout
    return dropout_mask[None]


def forward(model, tensor, train=False, rng=None, dropout_mask=None):
    """Run the network on one tensor; returns (logits, trace).

    Dropout is inverted (activations scaled by 1/(1-rate) at train time) and
    only active when train=True, with the mask drawn from rng unless a
    pre-drawn dropout_mask is supplied.
    """
    masks = _sample_mask(model.config, train, rng, dropout_mask)
    batch, _ = _forward_batch(model, tensor.values[None], masks)
    trace = ForwardTrace(*(None if v is None else v[0] for v in vars(batch).values()))
    return trace.logits, trace


def softmax_cross_entropy(logits, label):
    """(loss, probabilities) with the usual max-shift stabilization.

    logits may be one K vector with an int label or a B x K matrix with B
    labels, giving B losses and a B x K probability matrix.
    """
    shift = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shift)
    total = exp.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(shift, np.expand_dims(label, -1), axis=-1)
    loss = np.log(total) - picked
    return loss[..., 0], exp / total


def batch_loss_and_gradients(model, values, labels, dropout_masks=None):
    """Per-sample losses and the batch-summed parameter gradients.

    values is a B x E x T stack, labels holds B class indices and
    dropout_masks is None or B x H booleans (True = kept). The gradients
    equal the sum of the B per-sample gradients.
    """
    cfg = model.config
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(values),):
        raise ShapeMismatch(f"{len(values)} tensors need {len(values)} labels, got {labels.shape}")
    if np.any((labels < 0) | (labels >= cfg.num_classes)):
        raise ShapeMismatch(f"label outside 0..{cfg.num_classes - 1}")
    trace, cols = _forward_batch(model, values, dropout_masks)
    rows = np.arange(len(labels))
    losses, dlogits = softmax_cross_entropy(trace.logits, labels)
    dlogits[rows, labels] -= 1.0

    dfc2_w = dlogits.T @ _dropout(trace.fc1, dropout_masks, cfg.dropout)
    dhidden = _dropout(dlogits @ model.fc2_w, dropout_masks, cfg.dropout)
    dfc1_pre = dhidden * (trace.fc1 > 0.0)
    dfc1_w = dfc1_pre.T @ trace.pooled

    # Max-pool routes to the argmax position; a zero pooled value means the
    # whole channel was clipped by the ReLU, so nothing flows back.
    dpeak = (dfc1_pre @ model.fc1_w) * (trace.pooled > 0.0)
    dconv = np.zeros((len(labels), trace.conv.shape[2], cfg.kernel_count))  # B x P x C
    dconv[rows[:, None], trace.argmax, np.arange(cfg.kernel_count)] = dpeak
    dconv_w = (dconv.reshape(len(cols), -1).T @ cols).reshape(model.conv_w.shape)

    grads = Gradients(dconv_w, dpeak.sum(axis=0), dfc1_w, dfc1_pre.sum(axis=0),
                      dfc2_w, dlogits.sum(axis=0))
    return losses, grads


def loss_and_gradients(model, tensor, label, train=False, rng=None, dropout_mask=None):
    """Softmax cross-entropy of one tensor and its exact parameter gradients."""
    masks = _sample_mask(model.config, train, rng, dropout_mask)
    losses, grads = batch_loss_and_gradients(model, tensor.values[None], [label], masks)
    return float(losses[0]), grads


def train(model, samples, solver: SolverConfig, rng):
    """SGD with momentum / weight decay / step schedule; returns loss history.

    samples are (label, tensor) pairs with labels in 0..num_classes-1 and
    tensors of one shape. Each iteration draws batch_size sample indices
    with replacement and then the batch's dropout masks, stacks just those
    tensors, and applies the Caffe-style update v = mu*v - lr*(grad + wd*param);
    param += v, with grad the batch-mean gradient. A non-finite batch loss
    (divergence) raises NoConvergence.
    """
    solver.validate()
    samples = list(samples)
    if not samples:
        raise EmptyCorpus("no training samples")
    labels = np.array([label for label, _ in samples], dtype=np.int64)
    if np.any((labels < 0) | (labels >= model.config.num_classes)):
        raise ShapeMismatch("label outside the class range")
    if len({tensor.values.shape for _, tensor in samples}) > 1:
        raise ShapeMismatch("training tensors differ in shape")

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
        values = np.stack([samples[idx][1].values for idx in batch])
        losses, grads = batch_loss_and_gradients(model, values, labels[batch], masks)
        history.append(float(losses.sum()) / solver.batch_size)
        if not math.isfinite(history[-1]):
            raise NoConvergence(f"training diverged: batch loss {history[-1]} at iteration {step}")

        grad_map = dict(grads.params())
        for name, param in model.params():
            grad = grad_map[name] * scale + solver.weight_decay * param
            vel = velocity[name]
            vel *= solver.momentum
            vel -= lr * grad
            param += vel
    return history


def _infer(model, tensors, pick):
    """pick(batched trace) over one tensor, or stacked over a sequence of them.

    A sequence runs in chunks of consecutive same-shape tensors, at most
    INFER_CHUNK each, so memory stays bounded on large corpora.
    """
    single = isinstance(tensors, DescriptionTensor)
    tensors = [tensors] if single else list(tensors)
    parts = []
    for _, run in itertools.groupby(tensors, key=lambda t: t.values.shape):
        run = list(run)
        for start in range(0, len(run), INFER_CHUNK):
            chunk = np.stack([t.values for t in run[start:start + INFER_CHUNK]])
            parts.append(pick(_forward_batch(model, chunk)[0]))
    if not parts:
        raise EmptySubset("no description tensors to run")
    out = np.concatenate(parts)
    return out[0] if single else out


def extract_features(model, tensors):
    """FC1 activations with dropout disabled: the 1024-d description feature.

    One DescriptionTensor gives an H vector, a sequence of them an N x H matrix.
    """
    return _infer(model, tensors, lambda trace: trace.fc1)


def predict(model, tensors):
    """Class index of one DescriptionTensor (an int), or of each in a sequence."""
    labels = _infer(model, tensors, lambda trace: trace.logits.argmax(axis=1))
    return int(labels) if labels.ndim == 0 else labels


def find_detector_channel(model, tensors, truth_positions):
    """Locate the conv channel whose peak best tracks a known word position.

    For each description the channel's estimate is its argmax position
    (1-based) plus the half-width offset floor(w/2); the winning channel
    minimizes the summed absolute error against truth_positions, ties going
    to the lowest channel index. Returns (channel, per-description errors).
    """
    tensors = list(tensors)
    if not tensors:
        raise EmptySubset("detector analysis needs at least one description")
    truth = np.asarray(truth_positions, dtype=np.int64)
    if truth.shape != (len(tensors),):
        raise ShapeMismatch("one ground-truth position per description required")
    offset = model.config.kernel_width // 2
    estimates = _infer(model, tensors, lambda trace: trace.argmax) + 1 + offset
    errors = np.abs(estimates - truth[:, None])
    channel = int(np.argmin(errors.sum(axis=0)))
    return channel, errors[:, channel]


# -- checkpoint format -------------------------------------------------------

CNN_MAGIC = "XMREID-CNN 2"
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
