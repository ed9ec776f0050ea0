"""Span recording around the public functions of every xmreid module.

The benchmark's traced run imports this module in each child process before
it hands control to the program. `Recorder.install` finds the public
functions of each `xmreid` module at run time, wraps each in a span
recorder, and rebinds every module global that referred to the original, so
calls made inside a module are recorded too. Spans stay in memory with a
parent link and are written out once, when the child ends. No file of the
program is changed.

`summarize` turns the spans back into per-function and per-layer totals; a
layer is one `xmreid` module, and a span's self time is its duration minus
the durations of its child spans (one thread, so children never overlap).
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time

# Per-element helpers run once per written number or per identity label; a
# span around each call would cost more than the work it measures. Their
# time stays in the caller's self time.
SKIP = frozenset({"dataio.format_real", "synth.identity_label"})


def _eigh_n3(args, kwargs, result):
    n = len(result[0])
    return {"linalg.eigh.n3": n ** 3}


def _score_matrix_work(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    probes, gallery = result.shape
    pairs = probes * gallery
    return {"xqda.score_matrix.pairs": pairs,
            "xqda.score_matrix.tensor_bytes": pairs * model.w.shape[1] * 8}


def _cmc_probes(args, kwargs, result):
    return {"evaluation.cmc.probes": result.probe_count}


def _xqda_fallbacks(args, kwargs, result):
    return {"xqda.fit_xqda.fallbacks": int(bool(result.fallback))}


def _splits(args, kwargs, result):
    return {"evaluation.splits": len(result.per_split)}


# Exact work counts, taken at the layer boundary from call arguments and
# return values. A function that is renamed or removed simply stops adding.
HOOKS = {
    "linalg.eigh": _eigh_n3,
    "xqda.score_matrix": _score_matrix_work,
    "xqda.fit_xqda": _xqda_fallbacks,
    "evaluation.cmc": _cmc_probes,
    "evaluation.evaluate_scenario": _splits,
}


def _file_bytes_hook(name, fn):
    """dataio load_*/save_* functions: the size of the file they read or wrote."""
    if not (name.startswith("load") or name.startswith("save")):
        return None
    signature = inspect.signature(fn)
    if "path" not in signature.parameters:
        return None
    counter = "dataio.read_bytes" if name.startswith("load") else "dataio.write_bytes"

    def hook(args, kwargs, result):
        path = signature.bind(*args, **kwargs).arguments["path"]
        return {counter: os.path.getsize(path)}

    return hook


def modules(package):
    """Every module of the package, imported; the module name is the layer."""
    return {info.name: importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)}


def public_functions(module):
    """The functions a module defines under a name without a leading underscore."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Recorder:
    """In-memory spans `[name, start, end, parent]` and exact counters."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = [-1]

    def wrap(self, qualname, fn, hook=None):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [qualname, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced = functools.update_wrapper(traced, fn)
        traced.qualname = qualname
        return traced

    def install(self, package_name="xmreid"):
        """Wrap every public function of the package; returns their names."""
        layers = modules(importlib.import_module(package_name))
        wrappers = {}
        for layer, module in layers.items():
            for name, fn in public_functions(module).items():
                qualname = f"{layer}.{name}"
                if qualname in SKIP:
                    continue
                hook = _file_bytes_hook(name, fn) if layer == "dataio" else HOOKS.get(qualname)
                wrappers[fn] = self.wrap(qualname, fn, hook)
        # Rebind by identity, so `from .x import f` aliases are traced too.
        for module in layers.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        return sorted(w.qualname for w in wrappers.values())

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def summarize(spans):
    """Per-function {"calls", "total_s", "self_s"} from nested spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    functions = {}
    for (name, start, end, _), children in zip(spans, child_time):
        entry = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
    return functions


def layer_self_times(functions):
    """Self time per layer: the sum of its functions' self times."""
    layers = {}
    for name, entry in functions.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return layers
