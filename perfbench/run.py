"""Benchmark of the xmreid CLI: closed loop, one client, fresh process per call.

    python3 perfbench/run.py --workload reference --seed 42 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's `src/`. Each run makes its inputs with `gen-synth` from
`--seed` (set-up, timed as `setup_s`, three times, median), then repeats
the workload's pass of CLI invocations one after another, each in a fresh
process with `--threads 1`, until the next pass would end after
`--seconds`; `wall_s` is the median pass. Every invocation's outputs are
checked; an invocation fails on a nonzero exit code or a failed check.

With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json. With `--trace 1` the set-up runs once, traced, and each
untraced pass is followed by a traced one: the result carries the per-layer
metrics, summed over the traced set-up and one traced pass (median over
passes), and `trace.overhead_s`, traced minus untraced pass wall time
(medians).

The last line of stdout is the JSON result; the line before it records the
machine and code; `.bench_work/<workload>/record.json` keeps both plus the
per-pass figures.
"""

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# The reference config's seeds whose scenario ordering and flip degradation
# the acceptance suite's calibration guarantees.
CALIBRATED_SEEDS = range(40, 46)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Step:
    """One CLI invocation: arguments after invoke.py, and its output check."""

    argv: list
    check: object = None      # () -> list of problems

    @property
    def label(self):
        return " ".join(self.argv[:4])


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    max_rss_kb: int
    problems: list = field(default_factory=list)


# -- workloads ----------------------------------------------------------------

def _config_file(path, config):
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    return str(path)


def _dirs(work, *names):
    """Data directories under work, then the output directory."""
    dirs = [work / "data" / name for name in names] + [work / "out"]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    return dirs


def _gallery_size(split_path):
    """Test identities of split 1: the CMC curve's length."""
    lines = Path(split_path).read_text(encoding="utf-8").split("\n")[1:]
    return sum(1 for line in lines if line.startswith("1\t") and line.endswith("\ttest"))


def _evaluate(data, out, scenario, seed, *extra):
    return ["cli", "evaluate", "--scenario", scenario,
            "--vision", f"{data}/vision.feat", "--language", f"{data}/language.feat",
            "--splits", f"{data}/splits.split", "--out-dir", str(out),
            "--seed", str(seed), "--threads", "1", "--quiet", *extra]


def _csv_check(paths, data, claim=None):
    def check():
        size = _gallery_size(f"{data}/splits.split")
        problems = [p for path in paths for p in checks.cmc_csv(path, size)]
        if claim is not None and not problems:
            try:
                problems = claim()
            except (OSError, IndexError, ValueError) as exc:
                problems = [f"claim check failed: {exc!r}"]
        return problems
    return check


# Split counts are cut from the protocol's 20 (flip sweep 10) so that a run
# holds two or more passes; at 10 splits the calibrated claims still hold at
# seeds 40-45 (at 5 the VxV < VxVL order breaks at seed 43).
REFERENCE_SPLITS = 10
ATTRIBUTE_SPLITS = 3


def reference(seed, work, synth):
    """The paper's calibrated protocol: 5 scenarios over 10 splits + flip sweep."""
    config = replace(synth.reference_config(), num_splits=REFERENCE_SPLITS)
    k = str(synth.reference_cca_rank(config))
    ref_cfg = _config_file(work / "reference.json", config)
    attr_cfg = _config_file(work / "attribute.json",
                            replace(synth.reference_attribute_config(),
                                    num_splits=ATTRIBUTE_SPLITS))
    ref, attr, out = _dirs(work, "ref", "attr")
    setup = [Step(["cli", "gen-synth", "--config", ref_cfg, "--out", str(ref),
                   "--seed", str(seed), "--quiet"]),
             Step(["cli", "gen-synth", "--config", attr_cfg, "--out", str(attr),
                   "--seed", str(seed), "--quiet"])]
    calibrated = seed in CALIBRATED_SEEDS
    scenarios = ("VxV", "LxL", "VxL", "VxVL", "VLxVL")
    reports = {s: out / f"report_{s}.csv" for s in scenarios}
    measured = []
    for scenario in scenarios:
        # The ordering claim reads every report, so it rides on the last one.
        claim = None
        if calibrated and scenario == scenarios[-1]:
            claim = functools.partial(checks.scenario_ordering, reports)
        measured.append(Step(_evaluate(ref, out, scenario, seed, "--cca-k", k),
                             _csv_check([reports[scenario]], ref, claim)))
    flips = {n: out / f"report_VAxVA_n{n}.csv" for n in (0, 1, 2, 3)}
    claim = functools.partial(checks.flip_degradation, flips) if calibrated else None
    measured.append(Step(["cli", "attr-sweep", "--n", "0,1,2,3",
                          "--vision", f"{attr}/vision.feat",
                          "--attributes", f"{attr}/attributes.attr",
                          "--splits", f"{attr}/splits.split", "--out-dir", str(out),
                          "--seed", str(seed), "--threads", "1", "--quiet"],
                         _csv_check(list(flips.values()), attr, claim)))
    return setup, measured


GALLERY_SPLITS = 2


def gallery(seed, work, synth):
    """1000 probes against 500 gallery identities (1000 entries multi-shot)."""
    config = replace(synth.reference_config(), identity_count=1000,
                     samples_per_view=2, num_splits=GALLERY_SPLITS)
    k = str(synth.reference_cca_rank(config))
    cfg = _config_file(work / "gallery.json", config)
    data, out = _dirs(work, "gallery")
    single, multi = out / "single", out / "multi"
    single.mkdir()
    multi.mkdir()
    setup = [Step(["cli", "gen-synth", "--config", cfg, "--out", str(data),
                   "--seed", str(seed), "--quiet"])]
    runs = [("VxV", single, ()),
            ("VxV", multi, ("--gallery-mode", "multi")),
            ("VLxVL", single, ()),
            ("VxL", single, ("--cca-k", k))]
    measured = [Step(_evaluate(data, where, scenario, seed, *extra),
                     _csv_check([where / f"report_{scenario}.csv"], data))
                for scenario, where, extra in runs]
    return setup, measured


TEXTCNN_ITERS = 4
TEXTCNN_NET = {"embed_dim": 300, "kernel_count": 256, "kernel_width": 5,
               "hidden_dim": 1024, "max_len": 70, "dropout": 0.5}


def textcnn(seed, work, synth):
    """Sentence CNN at the paper's layer sizes, trained for a few batches."""
    config = synth.reference_config()
    cfg = _config_file(work / "corpus.json", config)
    data, out = _dirs(work, "text")
    emb = data / "embeddings.emb"
    net = TEXTCNN_NET
    setup = [Step(["cli", "gen-synth", "--config", cfg, "--out", str(data),
                   "--seed", str(seed), "--quiet"]),
             Step(["embeddings", cfg, str(seed), str(net["embed_dim"]), str(emb)])]
    expected = dict(net, num_classes=config.identity_count)

    def check():
        return (checks.loss_history(out / "loss_history.csv", TEXTCNN_ITERS)
                + checks.cnn_model(out / "model.cnn", expected))

    train = ["cli", "train-textcnn", "--corpus", f"{data}/corpus.corpus",
             "--embeddings", str(emb), "--out-dir", str(out),
             "--iters", str(TEXTCNN_ITERS), "--batch", "100",
             "--kernels", str(net["kernel_count"]), "--kernel-width", str(net["kernel_width"]),
             "--hidden", str(net["hidden_dim"]), "--max-len", str(net["max_len"]),
             "--dropout", str(net["dropout"]),
             "--seed", str(seed), "--threads", "1", "--quiet"]
    return setup, [Step(train, check)]


WORKLOADS = {"reference": reference, "gallery": gallery, "textcnn": textcnn}


# -- running steps -------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_step(step, log, spans=None):
    """Run one step in a fresh process; time it and take its peak RSS."""
    argv = [sys.executable, str(HERE / "invoke.py")]
    if spans is not None:
        argv += ["--spans", str(spans)]
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv + step.argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      max_rss_kb=usage.ru_maxrss)
    if proc.returncode != 0:
        outcome.problems.append(f"{step.label}: exit code {proc.returncode}")
    elif step.check is not None:
        outcome.problems.extend(step.check())
    return outcome


def measure(steps, log, spans_dir=None):
    """Run the steps in order; the pass's figures and its failed invocations."""
    if spans_dir is not None:
        spans_dir.mkdir(parents=True)
    outcomes = [run_step(step, log, None if spans_dir is None else spans_dir / f"{i}.json")
                for i, step in enumerate(steps)]
    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print("failed: " + "; ".join(o.problems), file=sys.stderr)
    return {"wall_s": sum(o.wall_s for o in outcomes),
            "peak_rss_mb": max(o.max_rss_kb for o in outcomes) / 1024.0,
            "steps_s": [o.wall_s for o in outcomes],
            "steps_cpu_s": [o.cpu_s for o in outcomes],
            "failed": len(failed),
            "spans": None if spans_dir is None else str(spans_dir)}


def load_spans(*directories):
    """Per-function totals and counters over every spans file in the directories."""
    functions, counts = {}, {}
    for path in sorted(p for d in directories for p in Path(d).glob("*.json")):
        body = json.loads(path.read_text(encoding="utf-8"))
        for name, entry in tracer.summarize(body["spans"]).items():
            total = functions.setdefault(name, dict.fromkeys(entry, 0))
            for key in total:
                total[key] += entry[key]
        for key, value in body["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return functions, counts


def per_layer_value(name, functions, counts, layers):
    """Resolve a per-layer metric name against the traced totals.

    `<layer>.self_s`, `<layer>.<function>.self_s` and `<layer>.<function>.calls`
    come from the spans; any other name is an exact counter.
    """
    if name.endswith(".self_s"):
        key = name[: -len(".self_s")]
        if "." not in key:
            return layers.get(key, 0.0)
        return functions.get(key, {}).get("self_s", 0.0)
    if name.endswith(".calls"):
        return functions.get(name[: -len(".calls")], {}).get("calls", 0)
    return counts.get(name, 0)


def traced_metrics(spec, setup_spans, traced, untraced):
    """Per-layer metrics: traced set-up plus a traced pass, median over passes."""
    per_pass, breakdown = [], None
    names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
    for record in traced:
        functions, counts = load_spans(setup_spans, record["spans"])
        layers = tracer.layer_self_times(functions)
        per_pass.append({n: per_layer_value(n, functions, counts, layers) for n in names})
        breakdown = breakdown or {"layers_self_s": layers, "functions": functions,
                                  "counts": counts}
    values = {n: statistics.median(p[n] for p in per_pass) for n in names}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in untraced))
    return values, breakdown


# -- machine and code ----------------------------------------------------------

def machine_block(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((SRC / "xmreid").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


# -- main ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps the invocation it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "xmreid" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'xmreid'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import numpy
    from xmreid import synth

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stderr.log"
    setup, measured = WORKLOADS[args.workload](args.seed, work, synth)

    setup_runs = []
    setup_spans = work / "spans" / "setup"
    for _ in range(1 if args.trace else SETUP_REPEATS):
        record = measure(setup, log, setup_spans if args.trace else None)
        if record["failed"]:
            print("error: set-up failed; see " + str(log), file=sys.stderr)
            return 1
        setup_runs.append(record["wall_s"])

    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        untraced.append(measure(measured, log))
        if args.trace:
            traced.append(measure(measured, log, work / "spans" / f"pass{len(traced)}"))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(untraced) > args.seconds:
            break
    attempted = len(measured) * (len(untraced) + len(traced))
    failed = sum(r["failed"] for r in untraced + traced)

    breakdown = None
    if args.trace:
        values, breakdown = traced_metrics(spec, setup_spans, traced, untraced)
        chosen = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in untraced),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
                  "setup_s": statistics.median(setup_runs)}
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    machine = machine_block(numpy)
    run = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "setup_runs_s": setup_runs, "passes": untraced, "traced_passes": traced,
           "traced_breakdown": breakdown}
    (work / "record.json").write_text(
        json.dumps({"machine": machine, "run": run, "metrics": metrics}, indent=1),
        encoding="utf-8")
    print(json.dumps({"machine": machine}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
