"""Output checks for the benchmark's CLI invocations.

Each check returns a list of problems; an empty list means the output is
correct. The benchmark counts an invocation with any problem as failed.
"""

import math

# The acceptance suite's scenario ordering of mean rank-1 accuracy.
ORDERING = ("VxL", "LxL", "VxV", "VxVL", "VLxVL")


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [line for line in handle.read().split("\n") if line]


def cmc_csv(path, gallery_size):
    """A report CSV holds a CMC curve: K = 1..gallery_size, means
    non-decreasing inside [0, 1], reaching 1 at K = gallery_size."""
    try:
        lines = _read(path)
    except OSError as exc:
        return [f"{path}: {exc}"]
    if not lines or lines[0] != "K,mean,std":
        return [f"{path}: missing 'K,mean,std' header"]
    rows = lines[1:]
    if len(rows) != gallery_size:
        return [f"{path}: {len(rows)} ranks, gallery has {gallery_size}"]
    previous = 0.0
    for k, row in enumerate(rows, start=1):
        parts = row.split(",")
        try:
            mean = float(parts[1])
        except (IndexError, ValueError):
            return [f"{path}: row {k} is not 'K,mean,std': {row!r}"]
        if parts[0] != str(k) or not 0.0 <= mean <= 1.0 or mean < previous:
            return [f"{path}: rank {k} mean {parts[1]} breaks a monotone curve in [0, 1]"]
        previous = mean
    if abs(previous - 1.0) > 1e-12:
        return [f"{path}: curve ends at {previous}, not 1"]
    return []


def rank1(path):
    return float(_read(path)[1].split(",")[1])


def scenario_ordering(paths):
    """paths maps scenario -> report CSV; rank-1 must rise along ORDERING."""
    r1 = {s: rank1(paths[s]) for s in ORDERING}
    if all(r1[a] < r1[b] for a, b in zip(ORDERING, ORDERING[1:])):
        return []
    return ["scenario ordering broken: "
            + ", ".join(f"{s}={r1[s]:.4f}" for s in ORDERING)]


def flip_degradation(paths):
    """paths maps flip count -> report CSV, in ascending flip count.
    Unflipped attributes identify everyone; flips never help."""
    r1 = [rank1(p) for p in paths.values()]
    problems = []
    if r1[0] != 1.0:
        problems.append(f"N={next(iter(paths))} rank-1 is {r1[0]}, not 1")
    if any(b > a for a, b in zip(r1, r1[1:])):
        problems.append(f"rank-1 rises with flips: {r1}")
    return problems


def loss_history(path, iterations):
    try:
        lines = _read(path)
    except OSError as exc:
        return [f"{path}: {exc}"]
    if not lines or lines[0] != "iteration,loss" or len(lines) != iterations + 1:
        return [f"{path}: expected a header and {iterations} losses"]
    for row in lines[1:]:
        try:
            loss = float(row.split(",")[1])
        except (IndexError, ValueError):
            return [f"{path}: bad row {row!r}"]
        if not math.isfinite(loss):
            return [f"{path}: non-finite loss in {row!r}"]
    return []


def cnn_model(path, expected):
    """model.cnn reloads through textcnn.load_model with the configured
    layer sizes; expected holds TextCnnConfig fields."""
    from xmreid import textcnn
    from xmreid.errors import XmreidError

    try:
        model = textcnn.load_model(path)
    except (OSError, XmreidError, ValueError, IndexError) as exc:
        return [f"{path}: does not reload: {exc!r}"]
    c = model.config
    got = {name: getattr(c, name) for name in expected}
    if got != expected:
        return [f"{path}: config {got}, expected {expected}"]
    shapes = {
        "conv_w": (c.kernel_count, c.embed_dim, c.kernel_width),
        "conv_b": (c.kernel_count,),
        "fc1_w": (c.hidden_dim, c.kernel_count),
        "fc1_b": (c.hidden_dim,),
        "fc2_w": (c.num_classes, c.hidden_dim),
        "fc2_b": (c.num_classes,),
    }
    bad = [name for name, shape in shapes.items() if getattr(model, name).shape != shape]
    return [f"{path}: wrong shapes for {bad}"] if bad else []
