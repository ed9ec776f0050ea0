"""Command-line surface for batch experiments.

Every subcommand resolves its configuration, runs, and writes a JSON run
manifest next to its primary outputs. Primary outputs are byte-identical
across reruns with the same inputs and --seed; manifests may differ only in
the timestamp and duration fields. Exit codes partition the error classes:

    0 success
    2 usage or configuration error
    3 I/O error
    4 data validation error
    5 numerical failure
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import cca as cca_mod
from . import dataio, evaluation, synth, textcnn, textprep
from . import rng as streams
from . import xqda as xqda_mod
from .errors import ConfigError, DataError, InvalidConfig, NumericalError

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


def write_manifest(path, subcommand, config, seed, inputs, outputs, started, extra=None):
    body = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "config_hash": _config_hash({"subcommand": subcommand, "config": config, "seed": seed}),
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()},
        "outputs": [str(p) for p in outputs],
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
    started = time.perf_counter()
    overrides = {}
    inputs = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                overrides = json.load(handle)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise InvalidConfig(f"{args.config}: not a JSON document: {exc}") from exc
        if not isinstance(overrides, dict):
            raise InvalidConfig(f"{args.config}: top level must be a JSON object")
        inputs["config"] = args.config
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
        dataio.save_features(zip(dataset.identities, dataset.views, getattr(dataset, modality)),
                             paths[modality])
    dataio.save_attributes(attributes, paths["attributes"])
    dataio.save_splits(splits, paths["splits"])
    dataio.save_corpus(corpus, paths["corpus"])
    if args.embeddings_out:
        dataio.save_embeddings(synth.gen_vocabulary_embeddings(config), args.embeddings_out)
        paths["embeddings"] = args.embeddings_out

    write_manifest(f"{out}/manifest.json", "gen-synth", asdict(config), config.seed,
                   inputs, list(paths.values()), started)
    _say(args, f"wrote {len(paths)} files to {out} "
               f"({config.identity_count} identities, {len(dataset)} records)")
    return 0


# -- fit-cca ----------------------------------------------------------------------

def cmd_fit_cca(args):
    started = time.perf_counter()
    dataset = dataio.assemble_dataset(vision=dataio.load_features(args.x),
                                      language=dataio.load_features(args.y))
    model = cca_mod.fit_cca(dataset.vision, dataset.language, k=args.k, ridge=args.ridge)
    cca_mod.save_model(model, args.out)
    config = {"x": args.x, "y": args.y, "k": model.k, "ridge": args.ridge, "out": args.out}
    write_manifest(args.out + ".manifest.json", "fit-cca", config,
                   args.seed if args.seed is not None else 42,
                   {"x": args.x, "y": args.y}, [args.out], started,
                   extra={"correlations": [float(c) for c in model.correlations]})
    _say(args, "correlations: " + " ".join(f"{c:.4f}" for c in model.correlations))
    return 0


# -- fit-xqda ---------------------------------------------------------------------

def cmd_fit_xqda(args):
    started = time.perf_counter()
    dataset = dataio.assemble_dataset(vision=dataio.load_features(args.features))
    model = xqda_mod.fit_xqda(dataset.vision, dataset.identities, dataset.views,
                              ridge=args.ridge, max_rank=args.max_rank, zscore=args.zscore)
    xqda_mod.save_model(model, args.out)
    config = {"features": args.features, "ridge": args.ridge,
              "max_rank": args.max_rank, "zscore": args.zscore, "out": args.out}
    write_manifest(args.out + ".manifest.json", "fit-xqda", config,
                   args.seed if args.seed is not None else 42,
                   {"features": args.features}, [args.out], started,
                   extra={"rank": model.rank, "fallback": model.fallback})
    _say(args, f"subspace rank {model.rank}" + (" (fallback)" if model.fallback else ""))
    return 0


# -- augment ----------------------------------------------------------------------

def cmd_augment(args):
    started = time.perf_counter()
    corpus = dataio.load_corpus(args.corpus)
    tokenized = [(i, v, textprep.tokenize(text)) for i, v, text in corpus]
    synonyms = dataio.load_synonyms(args.synonyms) if args.synonyms else None
    seed = args.seed if args.seed is not None else 42
    gen = streams.stream(seed, streams.AUGMENT)
    augmented = textprep.augment_corpus(tokenized, args.method, args.factor, gen,
                                        synonyms=synonyms)
    dataio.save_corpus([(i, v, " ".join(t)) for i, v, t in augmented], args.out)
    config = {"corpus": args.corpus, "method": args.method, "factor": args.factor,
              "synonyms": args.synonyms, "out": args.out}
    inputs = {"corpus": args.corpus}
    if args.synonyms:
        inputs["synonyms"] = args.synonyms
    write_manifest(args.out + ".manifest.json", "augment", config, seed,
                   inputs, [args.out], started,
                   extra={"records": len(augmented)})
    _say(args, f"{len(corpus)} descriptions -> {len(augmented)} records")
    return 0


# -- train-textcnn ----------------------------------------------------------------

def cmd_train_textcnn(args):
    started = time.perf_counter()
    corpus = dataio.load_corpus(args.corpus)
    table = dataio.load_embeddings(args.embeddings)
    synonyms = dataio.load_synonyms(args.synonyms) if args.synonyms else None
    seed = args.seed if args.seed is not None else 42

    labels = {}
    for identity, _, _ in corpus:
        labels.setdefault(identity, len(labels))
    tokenized = [(i, v, textprep.tokenize(text)) for i, v, text in corpus]
    tensors = textprep.build_training_tensors(
        tokenized, table, max_len=args.max_len, method=args.augment,
        factor=args.factor, rng=streams.stream(seed, streams.AUGMENT),
        synonyms=synonyms, sigma=args.sigma,
    )
    samples = [(labels[identity], tensor) for identity, _, tensor in tensors]

    config_net = textcnn.TextCnnConfig(
        num_classes=len(labels), embed_dim=table.dimension,
        kernel_count=args.kernels, kernel_width=args.kernel_width,
        hidden_dim=args.hidden, max_len=args.max_len, dropout=args.dropout,
    )
    model = textcnn.init_model(config_net, streams.stream(seed, streams.TRAIN, 0))
    solver = textcnn.SolverConfig(
        iterations=args.iters, base_lr=args.lr, momentum=args.momentum,
        weight_decay=args.weight_decay, batch_size=args.batch,
        lr_drop_factor=args.lr_drop_factor, lr_drop_every=args.lr_drop_every,
    )
    history = textcnn.train(model, samples, solver, streams.stream(seed, streams.TRAIN, 1))

    model_path = f"{args.out_dir}/model.cnn"
    history_path = f"{args.out_dir}/loss_history.csv"
    textcnn.save_model(model, model_path)
    with open(history_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("iteration,loss\n")
        for it, loss in enumerate(history):
            handle.write(f"{it},{dataio.format_real(loss)}\n")

    clean = [textprep.to_tensor(t, table, args.max_len) for _, _, t in tokenized]
    truth = np.array([labels[i] for i, _, _ in tokenized])
    accuracy = float(np.mean(textcnn.predict(model, clean) == truth))

    config = {
        "corpus": args.corpus, "embeddings": args.embeddings,
        "augment": args.augment, "factor": args.factor, "sigma": args.sigma,
        "iters": args.iters, "lr": args.lr, "momentum": args.momentum,
        "weight_decay": args.weight_decay, "batch": args.batch,
        "lr_drop_factor": args.lr_drop_factor, "lr_drop_every": args.lr_drop_every,
        "kernels": args.kernels, "kernel_width": args.kernel_width,
        "hidden": args.hidden, "max_len": args.max_len, "dropout": args.dropout,
    }
    inputs = {"corpus": args.corpus, "embeddings": args.embeddings}
    if args.synonyms:
        inputs["synonyms"] = args.synonyms
    write_manifest(f"{args.out_dir}/manifest.json", "train-textcnn", config, seed,
                   inputs, [model_path, history_path], started,
                   extra={"classes": len(labels), "train_accuracy": accuracy,
                          "final_loss": history[-1] if history else None})
    _say(args, f"final train accuracy {accuracy:.3f} over {len(labels)} classes")
    return 0


# -- evaluate / attr-sweep ---------------------------------------------------------

def _load_dataset(args):
    vision = dataio.load_features(args.vision)
    language_path = getattr(args, "language", None)
    language = dataio.load_features(language_path) if language_path else None
    identities = {identity for identity, _, _ in vision}
    attributes = None
    if args.attributes:
        attributes = dataio.load_attributes(args.attributes, known_identities=identities)
    dataset = dataio.assemble_dataset(vision=vision, language=language,
                                      attributes=attributes)
    splits = dataio.load_splits(args.splits, known_identities=identities)
    return dataset, splits


def _pipeline_config(args):
    return evaluation.PipelineConfig(
        cca_k=args.cca_k, cca_ridge=args.cca_ridge,
        xqda_ridge=args.xqda_ridge, xqda_max_rank=args.xqda_max_rank,
        gallery_mode=args.gallery_mode,
    )


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
    started = time.perf_counter()
    scenario = args.scenario
    dataset, splits = _load_dataset(args)
    seed = args.seed if args.seed is not None else 42
    report = evaluation.evaluate_scenario(dataset, splits, scenario, _pipeline_config(args),
                                          master_seed=seed)
    csv_path = f"{args.out_dir}/report_{scenario}.csv"
    _write_report_csv(csv_path, report)

    cli_config = {
        "scenario": scenario, "vision": args.vision, "language": args.language,
        "attributes": args.attributes, "splits": args.splits,
        "cca_k": args.cca_k, "cca_ridge": args.cca_ridge,
        "xqda_ridge": args.xqda_ridge, "xqda_max_rank": args.xqda_max_rank,
        "gallery_mode": args.gallery_mode,
    }
    inputs = {"vision": args.vision, "splits": args.splits}
    if args.language:
        inputs["language"] = args.language
    if args.attributes:
        inputs["attributes"] = args.attributes
    write_manifest(f"{args.out_dir}/manifest_{scenario}.json", "evaluate",
                   cli_config, seed, inputs, [csv_path], started,
                   extra={"scenario": scenario, "per_split": _per_split_summary(report),
                          "mean_R1": report.mean_rank(1)})
    _human_table(args, [(scenario, report)])
    return 0


def cmd_attr_sweep(args):
    started = time.perf_counter()
    dataset, splits = _load_dataset(args)
    seed = args.seed if args.seed is not None else 42
    try:
        n_values = [int(v) for v in args.n.split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"--n must be a comma-separated integer list: {exc}") from exc

    reports = evaluation.attribute_degradation_sweep(
        dataset, splits, n_values, _pipeline_config(args), master_seed=seed)
    outputs = []
    for n, report in reports.items():
        outputs.append(f"{args.out_dir}/report_VAxVA_n{n}.csv")
        _write_report_csv(outputs[-1], report)

    cli_config = {
        "n": n_values, "vision": args.vision, "attributes": args.attributes,
        "splits": args.splits, "cca_k": args.cca_k, "cca_ridge": args.cca_ridge,
        "xqda_ridge": args.xqda_ridge, "xqda_max_rank": args.xqda_max_rank,
        "gallery_mode": args.gallery_mode,
    }
    write_manifest(f"{args.out_dir}/manifest_attr_sweep.json", "attr-sweep",
                   cli_config, seed,
                   {"vision": args.vision, "attributes": args.attributes,
                    "splits": args.splits},
                   outputs, started,
                   extra={"per_n": {str(n): _per_split_summary(r) for n, r in reports.items()},
                          "mean_R1": {str(n): r.mean_rank(1) for n, r in reports.items()}})
    _human_table(args, [(f"N={n}", report) for n, report in reports.items()])
    return 0


# -- parser -----------------------------------------------------------------------

def _positive_int(text):
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default 42; gen-synth defaults to the config's seed)")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted and checked (an integer >= 1) for compatibility; "
                             "it no longer changes anything")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_pipeline_flags(parser):
    parser.add_argument("--cca-k", type=int, default=None,
                        help="canonical pairs to keep (default: min(dims, 128))")
    parser.add_argument("--cca-ridge", type=float, default=cca_mod.DEFAULT_RIDGE)
    parser.add_argument("--xqda-ridge", type=float, default=xqda_mod.DEFAULT_RIDGE)
    parser.add_argument("--xqda-max-rank", type=int, default=xqda_mod.DEFAULT_MAX_RANK)
    parser.add_argument("--gallery-mode", choices=("single", "multi"), default="single")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xmreid",
        description="Cross-modal person re-identification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic paired-modality dataset")
    p.add_argument("--config", help="JSON file of synth config overrides")
    p.add_argument("--out", required=True, help="existing output directory")
    p.add_argument("--embeddings-out", help="also write a toy embedding table here")
    _add_common(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("fit-cca", help="fit the cross-modal CCA embedding")
    p.add_argument("--x", required=True, help="vision FEAT file")
    p.add_argument("--y", required=True, help="language FEAT file (row-aligned with --x)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--ridge", type=float, default=cca_mod.DEFAULT_RIDGE)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fit_cca)

    p = sub.add_parser("fit-xqda", help="fit the cross-view metric")
    p.add_argument("--features", required=True, help="FEAT file with both views")
    p.add_argument("--ridge", type=float, default=xqda_mod.DEFAULT_RIDGE)
    p.add_argument("--max-rank", type=int, default=xqda_mod.DEFAULT_MAX_RANK)
    p.add_argument("--zscore", action="store_true")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fit_xqda)

    p = sub.add_parser("augment", help="expand a description corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--method", required=True, choices=textprep.TOKEN_METHODS,
                   help="token-level methods; gaussian noise is applied at training time")
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--synonyms", help="token<TAB>syn1,syn2 ranked synonym file")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train-textcnn", help="train the description network")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=0.0005)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--lr-drop-factor", type=float, default=0.1)
    p.add_argument("--lr-drop-every", type=int, default=50000)
    p.add_argument("--kernels", type=int, default=256)
    p.add_argument("--kernel-width", type=int, default=5)
    p.add_argument("--hidden", type=int, default=1024)
    p.add_argument("--max-len", type=int, default=70)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--augment", choices=textprep.ALL_METHODS, default=None)
    p.add_argument("--factor", type=int, default=1)
    p.add_argument("--sigma", type=float, default=textprep.DEFAULT_NOISE_SIGMA)
    p.add_argument("--synonyms")
    _add_common(p)
    p.set_defaults(func=cmd_train_textcnn)

    p = sub.add_parser("evaluate", help="run one gallery x query scenario over splits")
    p.add_argument("--scenario", required=True, choices=cca_mod.SCENARIOS)
    p.add_argument("--vision", required=True)
    p.add_argument("--language")
    p.add_argument("--attributes")
    p.add_argument("--splits", required=True)
    p.add_argument("--out-dir", required=True)
    _add_pipeline_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("attr-sweep", help="VAxVA degradation over attribute flips")
    p.add_argument("--n", required=True, help="comma-separated flip counts, e.g. 0,1,2,3")
    p.add_argument("--vision", required=True)
    p.add_argument("--attributes", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--out-dir", required=True)
    _add_pipeline_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_attr_sweep)

    return parser


def _validate_scenario_args(parser, args):
    if args.command == "evaluate":
        for source in cca_mod.scenario_sources(args.scenario):
            if not getattr(args, source):
                parser.error(f"scenario {args.scenario} requires --{source}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_scenario_args(parser, args)
    try:
        return args.func(args)
    except ConfigError as exc:
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
