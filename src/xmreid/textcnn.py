"""Toy-scale text CNN over description tensors.

Architecture: valid 1-D convolution of C kernels (E x w) across the T
columns, ReLU, per-channel temporal max-pool, FC1 (H units) with ReLU,
inverted dropout, FC2 to the class logits, softmax cross-entropy. All
gradients are derived and applied by explicit backpropagation; the SGD
loop uses momentum, weight decay, and a step learning-rate schedule.

The max-pool routes its gradient to the argmax position with ties broken
to the lowest index, and the inference path draws no randomness, so
features are byte-identical across runs.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dataio
from .errors import EmptyCorpus, EmptySubset, InvalidConfig, MalformedHeader, ShapeMismatch


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

    def scaled(self, factor):
        return Gradients(*(arr * factor for _, arr in self.params()))

    def add_(self, other):
        for (_, mine), (_, theirs) in zip(self.params(), other.params()):
            mine += theirs


@dataclass
class ForwardTrace:
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


def forward(model, tensor, train=False, rng=None, dropout_mask=None):
    """Run the network; returns (logits, trace).

    Dropout is inverted (activations scaled by 1/(1-rate) at train time) and
    only active when train=True. A pre-drawn dropout_mask may be supplied so
    batched training can fan out deterministically.
    """
    cfg = model.config
    x = tensor.values
    if x.shape[0] != cfg.embed_dim:
        raise ShapeMismatch(f"tensor embeds {x.shape[0]}-d, model expects {cfg.embed_dim}-d")
    if x.shape[1] < cfg.kernel_width:
        raise ShapeMismatch(f"tensor has {x.shape[1]} columns, kernel needs {cfg.kernel_width}")

    windows = sliding_window_view(x, cfg.kernel_width, axis=1)  # E x P x w
    pre = np.tensordot(model.conv_w, windows, axes=[(1, 2), (0, 2)]) + model.conv_b[:, None]
    conv = np.maximum(pre, 0.0)
    argmax = conv.argmax(axis=1)
    pooled = conv[np.arange(conv.shape[0]), argmax]

    fc1_pre = model.fc1_w @ pooled + model.fc1_b
    fc1 = np.maximum(fc1_pre, 0.0)

    mask = None
    hidden = fc1
    if train and cfg.dropout > 0.0:
        if dropout_mask is not None:
            mask = dropout_mask
        else:
            if rng is None:
                raise InvalidConfig("training forward pass needs an rng for dropout")
            mask = rng.random(cfg.hidden_dim) >= cfg.dropout
        hidden = fc1 * mask / (1.0 - cfg.dropout)

    logits = model.fc2_w @ hidden + model.fc2_b
    trace = ForwardTrace(
        conv=conv, argmax=argmax, pooled=pooled, fc1=fc1, dropout_mask=mask, logits=logits
    )
    return logits, trace


def softmax_cross_entropy(logits, label):
    """(loss, probabilities) with the usual max-shift stabilization."""
    shift = logits - logits.max()
    exp = np.exp(shift)
    total = exp.sum()
    loss = math.log(total) - shift[label]
    return loss, exp / total


def loss_and_gradients(model, tensor, label, train=False, rng=None, dropout_mask=None):
    """Softmax cross-entropy and its exact parameter gradients."""
    cfg = model.config
    if not 0 <= label < cfg.num_classes:
        raise ShapeMismatch(f"label {label} outside 0..{cfg.num_classes - 1}")
    logits, trace = forward(model, tensor, train=train, rng=rng, dropout_mask=dropout_mask)
    loss, probs = softmax_cross_entropy(logits, label)

    dlogits = probs.copy()
    dlogits[label] -= 1.0

    if trace.dropout_mask is not None:
        hidden = trace.fc1 * trace.dropout_mask / (1.0 - cfg.dropout)
    else:
        hidden = trace.fc1
    dfc2_w = np.outer(dlogits, hidden)
    dfc2_b = dlogits
    dhidden = model.fc2_w.T @ dlogits
    if trace.dropout_mask is not None:
        dhidden = dhidden * trace.dropout_mask / (1.0 - cfg.dropout)
    dfc1_pre = dhidden * (trace.fc1 > 0.0)

    dfc1_w = np.outer(dfc1_pre, trace.pooled)
    dfc1_b = dfc1_pre
    dpooled = model.fc1_w.T @ dfc1_pre

    # Max-pool routes to the argmax position; a zero pooled value means the
    # whole channel was clipped by the ReLU, so nothing flows back.
    active = trace.pooled > 0.0
    dpeak = dpooled * active

    x = tensor.values
    dconv_w = np.zeros_like(model.conv_w)
    for channel in np.nonzero(dpeak)[0]:
        start = trace.argmax[channel]
        dconv_w[channel] = dpeak[channel] * x[:, start : start + cfg.kernel_width]
    dconv_b = dpeak

    grads = Gradients(dconv_w, dconv_b, dfc1_w, dfc1_b, dfc2_w, dfc2_b)
    return loss, grads


def train(model, samples, solver: SolverConfig, rng, threads=1):
    """SGD with momentum / weight decay / step schedule; returns loss history.

    samples are (label, tensor) pairs with labels in 0..num_classes-1.
    Each iteration draws batch_size samples with replacement and applies the
    Caffe-style update v = mu*v - lr*(grad + wd*param); param += v.

    threads > 1 fans the per-sample gradient passes across a pool; dropout
    masks are pre-drawn and the reduction runs in batch order, so the result
    is bit-identical to the sequential path.
    """
    samples = list(samples)
    if not samples:
        raise EmptyCorpus("no training samples")
    for label, _ in samples:
        if not 0 <= label < model.config.num_classes:
            raise ShapeMismatch(f"label {label} outside the class range")

    pool = None
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=threads)
    velocity = {name: np.zeros_like(arr) for name, arr in model.params()}
    history = []
    rate = model.config.dropout
    for step in range(solver.iterations):
        lr = solver.base_lr * solver.lr_drop_factor ** (step // solver.lr_drop_every)
        batch = rng.integers(0, len(samples), size=solver.batch_size)
        masks = None
        if rate > 0.0:
            masks = rng.random((solver.batch_size, model.config.hidden_dim)) >= rate

        def one(slot_idx):
            slot, idx = slot_idx
            label, tensor = samples[idx]
            mask = masks[slot] if masks is not None else None
            return loss_and_gradients(model, tensor, label, train=True,
                                      dropout_mask=mask)

        jobs = list(enumerate(batch))
        results = list(pool.map(one, jobs)) if pool else [one(j) for j in jobs]

        total = None
        loss_sum = 0.0
        for loss, grads in results:
            loss_sum += loss
            if total is None:
                total = grads
            else:
                total.add_(grads)
        history.append(loss_sum / solver.batch_size)

        scale = 1.0 / solver.batch_size
        grad_map = dict(total.params())
        for name, param in model.params():
            grad = grad_map[name] * scale + solver.weight_decay * param
            vel = velocity[name]
            vel *= solver.momentum
            vel -= lr * grad
            param += vel
    if pool is not None:
        pool.shutdown()
    return history


def extract_features(model, tensor):
    """FC1 activations with dropout disabled: the 1024-d description feature."""
    _, trace = forward(model, tensor, train=False)
    return trace.fc1.copy()


def predict(model, tensor):
    logits, _ = forward(model, tensor, train=False)
    return int(np.argmax(logits))


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
    estimates = np.empty((len(tensors), model.config.kernel_count), dtype=np.int64)
    for row, tensor in enumerate(tensors):
        _, trace = forward(model, tensor, train=False)
        estimates[row] = trace.argmax + 1 + offset
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
