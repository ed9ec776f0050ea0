"""Command-line surface for batch experiments.

Every subcommand resolves its configuration, runs, and writes a JSON run
manifest next to its primary outputs. Primary outputs are byte-identical
across reruns with the same inputs and --seed; manifests may differ only in
the timestamp and duration fields. Exit codes partition the error classes:

    0 success
    2 usage or configuration error, including a size too large to allocate
    3 I/O error
    4 data validation error
    5 numerical failure

A run imports only its subcommand's modules: its flags and handler import them.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import dataio
from . import rng as streams
from .errors import ConfigError, DataError, EmptyCorpus, InvalidConfig, NumericalError

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_NUMERIC = 5


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _config_hash(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Parsed flags that are not configuration: dispatch, output locations, the
# seed (recorded on its own) and flags that change no output.
NOT_CONFIG = {"command", "func", "inputs", "out", "out_dir", "embeddings_out",
              "seed", "threads", "quiet"}
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _blas():
    """The BLAS numpy was built with and the thread variables it reads."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy whose show_config has no dict mode
        build = {}
    return {"name": build.get("name", "unknown"), "version": build.get("version", "unknown"),
            "thread_env": {name: os.environ.get(name) for name in THREAD_ENV}}


def write_manifest(path, args, outputs, started, extra=None, config=None, seed=None):
    """Write the JSON run manifest of the subcommand that parsed args.

    config defaults to every parsed flag outside NOT_CONFIG and seed to
    --seed; inputs are the files named by the flags listed in the
    subcommand's ``inputs`` default, those given only.
    """
    if config is None:
        config = {name: value for name, value in vars(args).items() if name not in NOT_CONFIG}
    seed = args.seed if seed is None else seed
    inputs = {name: getattr(args, name) for name in args.inputs if getattr(args, name)}
    body = {
        "subcommand": args.command,
        "config": config,
        "seed": seed,
        "config_hash": _config_hash({"subcommand": args.command, "config": config, "seed": seed}),
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()},
        "outputs": [str(p) for p in outputs],
        "blas": _blas(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "duration_s": round(time.perf_counter() - started, 6),
    }
    if extra:
        body.update(extra)
    text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def _say(args, message):
    if not args.quiet:
        print(message)


# -- gen-synth --------------------------------------------------------------------

def cmd_gen_synth(args):
    from . import synth
    started = time.perf_counter()
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                overrides = json.load(handle)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise InvalidConfig(f"{args.config}: not a JSON document: {exc}") from exc
        if not isinstance(overrides, dict):
            raise InvalidConfig(f"{args.config}: top level must be a JSON object")
    fields = synth.SynthConfig.__dataclass_fields__
    unknown = set(overrides) - set(fields)
    if unknown:
        raise InvalidConfig(f"unknown synth config keys: {sorted(unknown)}")
    for name, value in overrides.items():
        kind = type(fields[name].default)  # int, or float (which also takes ints)
        if isinstance(value, bool) or not isinstance(value, (kind, int)):
            raise InvalidConfig(f"synth config {name} must be {kind.__name__}, got {value!r}")
    config = synth.SynthConfig(**overrides)
    if args.seed is not None:
        config.seed = args.seed
    config.validate()

    dataset = synth.gen_paired(config)
    attributes = synth.gen_attributes(config)
    splits = synth.gen_splits(config)
    corpus = synth.gen_corpus(config)

    out = args.out
    paths = {
        "vision": f"{out}/vision.feat",
        "language": f"{out}/language.feat",
        "attributes": f"{out}/attributes.attr",
        "splits": f"{out}/splits.split",
        "corpus": f"{out}/corpus.corpus",
    }
    for modality in ("vision", "language"):
        dataio.save_features(dataset.identities, dataset.views, getattr(dataset, modality),
                             paths[modality])
    dataio.save_attributes(attributes, paths["attributes"])
    dataio.save_splits(splits, paths["splits"])
    dataio.save_corpus(corpus, paths["corpus"])
    if args.embeddings_out:
        dataio.save_embeddings(synth.gen_vocabulary_embeddings(config), args.embeddings_out)
        paths["embeddings"] = args.embeddings_out

    write_manifest(f"{out}/manifest.json", args, list(paths.values()), started,
                   config=asdict(config), seed=config.seed)
    _say(args, f"wrote {len(paths)} files to {out} "
               f"({config.identity_count} identities, {len(dataset)} records)")
    return 0


# -- train-textcnn ----------------------------------------------------------------

def cmd_train_textcnn(args):
    from . import textcnn, textprep
    started = time.perf_counter()
    corpus = dataio.load_corpus(args.corpus)
    if not corpus:
        raise EmptyCorpus(f"{args.corpus}: no descriptions to train on")
    words = textprep.word_table(dataio.load_embeddings(args.embeddings))
    synonyms = dataio.load_synonyms(args.synonyms) if args.synonyms else None

    first, codes = dataio.first_appearance_codes(np.array([i for i, _, _ in corpus]))
    groups = textprep.build_training_tensors(
        [textprep.tokenize(text) for _, _, text in corpus], words, max_len=args.max_len,
        method=args.augment, factor=args.factor, rng=streams.stream(args.seed, streams.AUGMENT),
        synonyms=synonyms,
    )
    samples = [(code, tensor) for code, group in zip(codes.tolist(), groups) for tensor in group]
    if not any(tensor.ids.any() for _, tensor in samples):
        raise EmptyCorpus(f"{args.corpus}: no description has a word of {args.embeddings}")

    config_net = textcnn.TextCnnConfig(
        num_classes=len(first), embed_dim=words.vectors.shape[1],
        kernel_count=args.kernels, kernel_width=args.kernel_width,
        hidden_dim=args.hidden, max_len=args.max_len, dropout=args.dropout,
    )
    model = textcnn.init_model(config_net, streams.stream(args.seed, streams.TRAIN, 0))
    solver = textcnn.SolverConfig(iterations=args.iters, base_lr=args.lr, batch_size=args.batch)
    history = textcnn.train(model, samples, solver, streams.stream(args.seed, streams.TRAIN, 1))

    model_path = f"{args.out_dir}/model.cnn"
    history_path = f"{args.out_dir}/loss_history.csv"
    textcnn.save_model(model, model_path)
    with open(history_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("iteration,loss\n")
        for it, loss in enumerate(history):
            handle.write(f"{it},{dataio.format_real(loss)}\n")

    clean = [group[0] for group in groups]
    accuracy = float(np.mean(textcnn.predict(model, clean) == codes))

    used = [len(tensor.ids) for _, tensor in samples]
    write_manifest(f"{args.out_dir}/manifest.json", args, [model_path, history_path], started,
                   extra={"classes": len(first), "train_accuracy": accuracy,
                          "final_loss": history[-1] if history else None,
                          "description_columns": {"mean": float(np.mean(used)), "max": max(used)}})
    _say(args, f"final train accuracy {accuracy:.3f} over {len(first)} classes")
    return 0


# -- evaluate / attr-sweep ---------------------------------------------------------

def _load_inputs(args):
    """The dataset, its splits and the pipeline config that the flags name."""
    from . import evaluation
    dataset = dataio.load_dataset(args.vision, language=getattr(args, "language", None),
                                  attributes=args.attributes)
    splits = dataio.load_splits(args.splits, known_identities=set(dataset.identities.tolist()))
    return dataset, splits, evaluation.PipelineConfig(cca_k=args.cca_k,
                                                      gallery_mode=args.gallery_mode)


def _write_report_csv(path, report):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("K,mean,std\n")
        for i, (mean, std) in enumerate(zip(report.mean, report.std), start=1):
            handle.write(f"{i},{dataio.format_real(mean)},{dataio.format_real(std)}\n")


def _per_split_summary(report):
    return [
        {"split": i + 1, "R1": r.rank(1), "R5": r.rank(5), "R10": r.rank(10)}
        for i, r in enumerate(report.per_split)
    ]


def _human_table(args, reports):
    if args.quiet:
        return
    print(f"{'setting':>12s}   {'R1':>6s} {'R5':>6s} {'R10':>6s}")
    for name, report in reports:
        print(f"{name:>12s}   "
              f"{report.mean_rank(1) * 100:6.1f} {report.mean_rank(5) * 100:6.1f} "
              f"{report.mean_rank(10) * 100:6.1f}")


def cmd_evaluate(args):
    from . import evaluation
    started = time.perf_counter()
    scenario = args.scenario
    dataset, splits, config = _load_inputs(args)
    report = evaluation.evaluate_scenario(dataset, splits, scenario, config, master_seed=args.seed)
    csv_path = f"{args.out_dir}/report_{scenario}.csv"
    _write_report_csv(csv_path, report)

    write_manifest(f"{args.out_dir}/manifest_{scenario}.json", args, [csv_path], started,
                   extra={"scenario": scenario, "per_split": _per_split_summary(report),
                          "mean_R1": report.mean_rank(1)})
    _human_table(args, [(scenario, report)])
    return 0


def cmd_attr_sweep(args):
    from . import evaluation
    started = time.perf_counter()
    dataset, splits, config = _load_inputs(args)
    reports = evaluation.attribute_degradation_sweep(dataset, splits, args.n, config,
                                                     master_seed=args.seed)
    outputs = []
    for n, report in reports.items():
        outputs.append(f"{args.out_dir}/report_VAxVA_n{n}.csv")
        _write_report_csv(outputs[-1], report)

    write_manifest(f"{args.out_dir}/manifest_attr_sweep.json", args, outputs, started,
                   extra={"per_n": {str(n): _per_split_summary(r) for n, r in reports.items()},
                          "mean_R1": {str(n): r.mean_rank(1) for n, r in reports.items()}})
    _human_table(args, [(f"N={n}", report) for n, report in reports.items()])
    return 0


# -- parser -----------------------------------------------------------------------

def _count(text, least=0):
    # a file header's rule: int() would also take ' 1', '+2', '1_0' and non-ASCII digits
    try:
        count = dataio._parse_count(text, "", "")
    except DataError:
        count = -1
    if count < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return count


def _flip_counts(text):
    try:
        return [_count(n) for n in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 0, got {text!r}") from None


def _add_common(parser, func, inputs, seed=42):
    """Add the flags every subcommand takes; record its handler and the flags
    that name its input files, which write_manifest digests when given."""
    parser.set_defaults(func=func, inputs=inputs)
    parser.add_argument("--seed", type=_count, default=seed,
                        help="master seed (default 42; gen-synth defaults to the config's seed)")
    parser.add_argument("--threads", type=lambda text: _count(text, least=1), default=1,
                        help="accepted and checked (an integer >= 1) for compatibility; "
                             "it no longer changes anything")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_pipeline_flags(parser):
    from . import cca
    parser.add_argument("--cca-k", type=_count, default=None,
                        help="canonical pairs to keep "
                             f"(default: min(dims, {cca.DEFAULT_RANK_BUDGET}))")
    parser.add_argument("--gallery-mode", choices=("single", "multi"), default="single")


def _gen_synth_flags(p):
    p.add_argument("--config", help="JSON file of synth config overrides")
    p.add_argument("--out", required=True, help="existing output directory")
    p.add_argument("--embeddings-out", help="also write a toy embedding table here")
    _add_common(p, cmd_gen_synth, ("config",), seed=None)


def _train_textcnn_flags(p):
    from . import textcnn, textprep
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--iters", type=_count, default=1000)
    p.add_argument("--lr", type=float, default=textcnn.SolverConfig.base_lr)
    p.add_argument("--batch", type=_count, default=textcnn.SolverConfig.batch_size)
    p.add_argument("--kernels", type=_count, default=textcnn.TextCnnConfig.kernel_count)
    p.add_argument("--kernel-width", type=_count, default=textcnn.TextCnnConfig.kernel_width)
    p.add_argument("--hidden", type=_count, default=textcnn.TextCnnConfig.hidden_dim)
    p.add_argument("--max-len", type=_count, default=textcnn.TextCnnConfig.max_len)
    p.add_argument("--dropout", type=float, default=textcnn.TextCnnConfig.dropout)
    p.add_argument("--augment", choices=textprep.ALL_METHODS, default=None)
    p.add_argument("--factor", type=_count, default=1)
    p.add_argument("--synonyms")
    _add_common(p, cmd_train_textcnn, ("corpus", "embeddings", "synonyms"))


def _evaluate_flags(p):
    from . import evaluation
    p.add_argument("--scenario", required=True, choices=evaluation.SCENARIOS)
    p.add_argument("--vision", required=True)
    p.add_argument("--language")
    p.add_argument("--attributes")
    p.add_argument("--splits", required=True)
    p.add_argument("--out-dir", required=True)
    _add_pipeline_flags(p)
    _add_common(p, cmd_evaluate, ("vision", "language", "attributes", "splits"))


def _attr_sweep_flags(p):
    p.add_argument("--n", required=True, type=_flip_counts,
                   help="comma-separated flip counts, e.g. 0,1,2,3")
    p.add_argument("--vision", required=True)
    p.add_argument("--attributes", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--out-dir", required=True)
    _add_pipeline_flags(p)
    _add_common(p, cmd_attr_sweep, ("vision", "attributes", "splits"))


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it adds its flags, importing the modules their
    defaults come from, when it first parses."""

    add_flags = None

    def parse_known_args(self, args=None, namespace=None):
        if self.add_flags:
            self.add_flags(self)
            self.add_flags = None
        return super().parse_known_args(args, namespace)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xmreid",
        description="Cross-modal person re-identification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, text, add_flags in (
            ("gen-synth", "generate a synthetic paired-modality dataset", _gen_synth_flags),
            ("train-textcnn", "train the description network", _train_textcnn_flags),
            ("evaluate", "run one gallery x query scenario over splits", _evaluate_flags),
            ("attr-sweep", "VAxVA degradation over attribute flips", _attr_sweep_flags)):
        sub.add_parser(name, help=text).add_flags = add_flags
    return parser


def _validate_scenario_args(parser, args):
    if args.command == "evaluate":
        from . import evaluation
        for source in evaluation.scenario_sources(args.scenario):
            if not getattr(args, source):
                parser.error(f"scenario {args.scenario} requires --{source}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_scenario_args(parser, args)
    try:
        return args.func(args)
    except (ConfigError, MemoryError) as exc:  # MemoryError: a size numpy cannot allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
