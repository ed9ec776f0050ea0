import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xmreid import cli, dataio, evaluation, textcnn, textprep
from xmreid.rng import AUGMENT, stream

TOY_SYNTH = {
    "identity_count": 12,
    "samples_per_view": 2,
    "latent_dim": 3,
    "vision_dim": 8,
    "language_dim": 6,
    "num_splits": 3,
    "attribute_bits": 8,
    "seed": 9,
}


def run(argv):
    return cli.main(argv)


def exit_code(argv):
    """run's exit code, also when argparse refuses the command line."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def gen_dataset(tmp_path, overrides=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = dict(TOY_SYNTH)
    config.update(overrides or {})
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "data"
    out.mkdir()
    code = run(["gen-synth", "--config", str(config_path), "--out", str(out),
                "--embeddings-out", str(out / "embeddings.emb"), "--quiet"])
    assert code == 0
    return out


def toy_text_corpus(tmp_path, classes=10):
    # unambiguous one-noun-per-class descriptions, two views each
    nouns = ["red", "blue", "green", "black", "white", "grey", "brown",
             "purple", "olive", "teal"][:classes]
    lines = ["XMREID-CORPUS 1"]
    for i, noun in enumerate(nouns):
        lines.append(f"person{i}\t1\ta {noun} coat and {noun} shoes")
        lines.append(f"person{i}\t2\tthe {noun} jacket with {noun} boots")
    path = tmp_path / "toy.corpus"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = nouns + ["a", "the", "coat", "and", "shoes", "jacket", "with", "boots"]
    rng = np.random.default_rng(3)
    table = dataio.EmbeddingTable(dimension=8,
                                  vectors={t: rng.standard_normal(8) for t in vocab})
    emb_path = tmp_path / "toy.emb"
    dataio.save_embeddings(table, emb_path)
    return path, emb_path


class TestGenSynth:
    def test_emits_expected_files(self, tmp_path):
        out = gen_dataset(tmp_path)
        for name in ("vision.feat", "language.feat", "attributes.attr",
                     "splits.split", "corpus.corpus", "manifest.json"):
            assert (out / name).exists()

    def test_seed_reproducibility_bytewise(self, tmp_path):
        one = gen_dataset(tmp_path / "a")
        two = gen_dataset(tmp_path / "b")
        for name in ("vision.feat", "language.feat", "attributes.attr",
                     "splits.split", "corpus.corpus"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_missing_out_dir_is_io_error(self, tmp_path):
        assert run(["gen-synth", "--out", str(tmp_path / "nope"), "--quiet"]) == 3

    def test_unknown_config_key_is_config_error(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text('{"bogus_knob": 1}', encoding="utf-8")
        out = tmp_path / "data"
        out.mkdir()
        assert run(["gen-synth", "--config", str(config_path), "--out", str(out)]) == 2

    def test_malformed_config_is_config_error(self, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        config_path = tmp_path / "bad.json"
        for body in (b'{"seed": 1', b"5", b"[]", b'{"seed": "\xff"}',
                     b'{"identity_count": "x"}', b'{"identity_count": 12.5}',
                     b'{"identity_count": true}', b'{"vision_noise": "0.5"}',
                     b'{"nuisance_scale": NaN}', b'{"vision_noise": Infinity}',
                     b'{"seed": -1}', b'{"seed": 18446744073709551616}'):
            config_path.write_bytes(body)
            assert run(["gen-synth", "--config", str(config_path), "--out", str(out),
                        "--quiet"]) == 2, body
            assert not any(out.iterdir()), body

    def test_int_for_float_field_is_accepted(self, tmp_path):
        gen_dataset(tmp_path, {"vision_noise": 1})

    def test_seed_flag_overrides_config(self, tmp_path):
        out_a = gen_dataset(tmp_path / "a")
        out_b = tmp_path / "b" / "data"
        out_b.mkdir(parents=True)
        config_path = tmp_path / "b" / "synth.json"
        config_path.write_text(json.dumps(TOY_SYNTH), encoding="utf-8")
        assert run(["gen-synth", "--config", str(config_path), "--out", str(out_b),
                    "--seed", "123", "--quiet"]) == 0
        assert (out_a / "vision.feat").read_bytes() != (out_b / "vision.feat").read_bytes()


class TestTrainTextCnn:
    def test_toy_overfit_through_cli(self, tmp_path, capsys):
        corpus_path, emb_path = toy_text_corpus(tmp_path, classes=10)
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        code = run(["train-textcnn", "--corpus", str(corpus_path),
                    "--embeddings", str(emb_path), "--out-dir", str(out_dir),
                    "--iters", "500", "--lr", "0.05", "--batch", "20",
                    "--kernels", "12", "--kernel-width", "3", "--hidden", "32",
                    "--max-len", "10", "--dropout", "0"])
        assert code == 0
        assert "final train accuracy 1.000" in capsys.readouterr().out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["train_accuracy"] == 1.0
        history = (out_dir / "loss_history.csv").read_text().splitlines()
        assert history[0] == "iteration,loss"
        assert len(history) == 501

    def test_threads_change_no_byte(self, tmp_path):
        corpus_path, emb_path = toy_text_corpus(tmp_path, classes=6)
        outputs = []
        for threads in ("1", "4", "1"):
            out_dir = tmp_path / f"run{len(outputs)}"
            out_dir.mkdir()
            assert run(["train-textcnn", "--corpus", str(corpus_path),
                        "--embeddings", str(emb_path), "--out-dir", str(out_dir),
                        "--iters", "15", "--lr", "0.05", "--batch", "7",
                        "--kernels", "6", "--kernel-width", "3", "--hidden", "16",
                        "--max-len", "10", "--dropout", "0.5",
                        "--threads", threads, "--quiet"]) == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("model.cnn", "loss_history.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

        # the manifest's accuracy, recounted from the saved model
        model = textcnn.load_model(tmp_path / "run0" / "model.cnn")
        words = textprep.word_table(dataio.load_embeddings(emb_path))
        corpus = dataio.load_corpus(corpus_path)
        labels = {}
        for identity, _, _ in corpus:
            labels.setdefault(identity, len(labels))
        tensors = [textprep.to_tensor(textprep.tokenize(text), words, 10) for _, _, text in corpus]
        predicted = textcnn.predict(model, tensors)
        correct = int(np.sum(predicted == [labels[identity] for identity, _, _ in corpus]))
        manifest = json.loads((tmp_path / "run0" / "manifest.json").read_text())
        assert manifest["train_accuracy"] == correct / len(corpus)

    @pytest.mark.parametrize("flags, per_description", [
        ((), 1), (("--augment", "gaussian", "--factor", "3"), 1),
        (("--augment", "drop", "--factor", "3"), 3), (("--factor", "3"), 1),
    ], ids=["plain", "gaussian", "drop", "factor-without-method"])
    def test_embeds_each_description_once(self, tmp_path, monkeypatch, flags, per_description):
        corpus_path, emb_path = toy_text_corpus(tmp_path, classes=6)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return embed(*args, **kwargs)

        embed = textprep.to_tensor
        monkeypatch.setattr(textprep, "to_tensor", counted)
        assert run(["train-textcnn", "--corpus", str(corpus_path),
                    "--embeddings", str(emb_path), "--out-dir", str(tmp_path),
                    "--iters", "6", "--batch", "4", "--kernels", "4", "--kernel-width", "3",
                    "--hidden", "8", "--max-len", "10", "--quiet", *flags]) == 0
        assert len(calls) == 12 * per_description
        monkeypatch.undo()

        # the accuracy pass still scores the clean descriptions
        model = textcnn.load_model(tmp_path / "model.cnn")
        words = textprep.word_table(dataio.load_embeddings(emb_path))
        corpus = dataio.load_corpus(corpus_path)
        clean = [textprep.to_tensor(textprep.tokenize(text), words, 10) for _, _, text in corpus]
        truth = [int(identity[len("person"):]) for identity, _, _ in corpus]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["train_accuracy"] == float(np.mean(textcnn.predict(model, clean) == truth))

    def test_synonym_augment_reruns_bytewise(self, tmp_path):
        # Each description is followed by its factor-1 variants, which change
        # only mapped words, each to one of its ranked synonyms; reruns match.
        data = gen_dataset(tmp_path)
        synonyms = {"red": ("crimson", "scarlet"), "blue": ("azure", "cobalt", "navy"),
                    "shirt": ("blouse",), "the": ("this", "that")}
        syn_path = tmp_path / "syn.tsv"
        syn_path.write_text("".join(f"{word}\t{','.join(ranked)}\n"
                                    for word, ranked in synonyms.items()), encoding="utf-8")
        outputs = []
        for out_dir in (tmp_path / "a", tmp_path / "b"):
            out_dir.mkdir()
            assert run(["train-textcnn", "--corpus", str(data / "corpus.corpus"),
                        "--embeddings", str(data / "embeddings.emb"), "--out-dir", str(out_dir),
                        "--iters", "4", "--batch", "4", "--kernels", "4", "--kernel-width", "3",
                        "--hidden", "8", "--max-len", "10", "--augment", "synonym",
                        "--factor", "3", "--synonyms", str(syn_path),
                        "--seed", "5", "--quiet"]) == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("model.cnn", "loss_history.csv")])
        assert outputs[0] == outputs[1]
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["inputs"]["synonyms"]["sha256"] == hashlib.sha256(
            syn_path.read_bytes()).hexdigest()

        # the variants train-textcnn draws from the same stream, in corpus order
        corpus = dataio.load_corpus(data / "corpus.corpus")
        tokenized = [textprep.tokenize(text) for _, _, text in corpus]
        words = textprep.word_table(dataio.load_embeddings(data / "embeddings.emb"))
        loaded = dataio.load_synonyms(syn_path)
        groups = textprep.build_training_tensors(tokenized, words, max_len=10, method="synonym",
                                                 factor=3, rng=stream(5, AUGMENT), synonyms=loaded)
        twin = stream(5, AUGMENT)
        replaced = 0
        for original, group in zip(tokenized, groups, strict=True):
            variants = [textprep.augment_synonym(original, loaded, twin) for _ in range(2)]
            assert [t.ids.tolist() for t in group] == [
                textprep.to_tensor(tokens, words, 10).ids.tolist()
                for tokens in (original, *variants)]
            for variant in variants:
                assert len(variant) == len(original)
                for before, after in zip(original, variant):
                    assert after == before or after in synonyms.get(before, ())
                    replaced += after != before
        assert replaced > 0

    def test_gaussian_augment_reruns_bytewise(self, tmp_path):
        # Each description is followed by its factor-1 noisy variants, whose
        # columns the run appends to its word table as new ids; reruns match,
        # and the variants change what is trained.
        data = gen_dataset(tmp_path)
        outputs = []
        for where, flags in (("a", ("--augment", "gaussian", "--factor", "3")),
                             ("b", ("--augment", "gaussian", "--factor", "3")), ("plain", ())):
            out_dir = tmp_path / where
            out_dir.mkdir()
            assert run(["train-textcnn", "--corpus", str(data / "corpus.corpus"),
                        "--embeddings", str(data / "embeddings.emb"), "--out-dir", str(out_dir),
                        "--iters", "4", "--batch", "4", "--kernels", "4", "--kernel-width", "3",
                        "--hidden", "8", "--max-len", "10", *flags, "--seed", "5",
                        "--quiet"]) == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("model.cnn", "loss_history.csv")])
        assert outputs[0] == outputs[1]
        assert outputs[0][1] != outputs[2][1]

    # --lr-drop-every, --momentum, --weight-decay, --lr-drop-factor and
    # --sigma are deleted, so their bad values are now usage errors
    @pytest.mark.parametrize("flags", [
        ("--batch", "0"), ("--lr-drop-every", "0"), ("--iters", "-1"),
        ("--lr", "nan"), ("--momentum", "nan"), ("--weight-decay", "nan"),
        ("--lr-drop-factor", "inf"),
        ("--augment", "gaussian", "--factor", "2", "--sigma", "nan"),
        ("--sigma", "nan"), ("--sigma", "-1"),
    ], ids=" ".join)
    def test_bad_solver_flag_is_config_error(self, tmp_path, flags):
        corpus_path, emb_path = toy_text_corpus(tmp_path, classes=3)
        code = exit_code(["train-textcnn", "--corpus", str(corpus_path),
                    "--embeddings", str(emb_path), "--out-dir", str(tmp_path),
                    "--iters", "2", "--batch", "4", "--kernels", "4",
                    "--kernel-width", "3", "--hidden", "8", "--max-len", "10",
                    "--quiet", *flags])
        assert code == 2
        assert not (tmp_path / "model.cnn").exists()

    def test_empty_corpus_is_data_error(self, tmp_path):
        _, emb_path = toy_text_corpus(tmp_path, classes=3)
        corpus_path = tmp_path / "empty.corpus"
        corpus_path.write_text("XMREID-CORPUS 1\n", encoding="utf-8")
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        code = run(["train-textcnn", "--corpus", str(corpus_path),
                    "--embeddings", str(emb_path), "--out-dir", str(out_dir),
                    "--iters", "2", "--batch", "4", "--kernels", "4",
                    "--kernel-width", "3", "--hidden", "8", "--max-len", "10", "--quiet"])
        assert code == 4
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("augment", [(), ("--augment", "gaussian", "--factor", "2")])
    def test_corpus_without_known_words_is_data_error(self, tmp_path, augment):
        # A wrong EMB file leaves every description without a word: all-padding
        # tensors would train to chance, so the run stops before the model is built.
        _, emb_path = toy_text_corpus(tmp_path, classes=3)
        corpus_path = tmp_path / "unknown.corpus"
        corpus_path.write_text("XMREID-CORPUS 1\nperson0\t1\tzebra stripes\n"
                               "person1\t2\tquartz lantern\n", encoding="utf-8")
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        code = run(["train-textcnn", "--corpus", str(corpus_path),
                    "--embeddings", str(emb_path), "--out-dir", str(out_dir),
                    "--iters", "2", "--batch", "4", "--kernels", "4",
                    "--kernel-width", "3", "--hidden", "8", "--max-len", "10", "--quiet",
                    *augment])
        assert code == 4
        assert list(out_dir.iterdir()) == []

    def test_huge_max_len_stores_only_words(self, tmp_path):
        # descriptions are stored at their own width and batches are padded
        # only through the columns the network reads, so max_len costs nothing
        out = gen_dataset(tmp_path)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        assert run(["train-textcnn", "--corpus", str(out / "corpus.corpus"),
                    "--embeddings", str(out / "embeddings.emb"), "--out-dir", str(run_dir),
                    "--iters", "2", "--kernels", "8", "--hidden", "16",
                    "--max-len", "1000000000", "--quiet"]) == 0
        assert textcnn.load_model(run_dir / "model.cnn").config.max_len == 1_000_000_000

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow on the way to NaN
    def test_divergence_is_numerical_failure(self, tmp_path):
        corpus_path, emb_path = toy_text_corpus(tmp_path, classes=3)
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        code = run(["train-textcnn", "--corpus", str(corpus_path),
                    "--embeddings", str(emb_path), "--out-dir", str(out_dir),
                    "--iters", "20", "--lr", "1e6", "--batch", "4", "--kernels", "4",
                    "--kernel-width", "3", "--hidden", "8", "--max-len", "10", "--quiet"])
        assert code == 5
        assert list(out_dir.iterdir()) == []


EVALUATE_VXV = ("evaluate --scenario VxV --vision {d}/vision.feat --splits {d}/splits.split "
                "--out-dir {t}")
ATTR_SWEEP = ("attr-sweep --n 0 --vision {d}/vision.feat --attributes {d}/attributes.attr "
              "--splits {d}/splits.split --out-dir {t}")
TRAIN_TEXTCNN = ("train-textcnn --corpus {d}/corpus.corpus --embeddings {d}/embeddings.emb "
                 "--out-dir {t} --iters 2 --batch 4 --kernels 4 --kernel-width 3 --hidden 8 "
                 "--max-len 10")


class TestEvaluateCli:
    def test_report_and_manifest(self, tmp_path):
        out = gen_dataset(tmp_path)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        code = run(["evaluate", "--scenario", "VLxVL",
                    "--vision", str(out / "vision.feat"),
                    "--language", str(out / "language.feat"),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(run_dir), "--quiet"])
        assert code == 0
        lines = (run_dir / "report_VLxVL.csv").read_text().splitlines()
        assert lines[0] == "K,mean,std"
        assert len(lines) == 1 + 6  # gallery of 6 test identities
        manifest = json.loads((run_dir / "manifest_VLxVL.json").read_text())
        assert len(manifest["per_split"]) == 3
        assert set(manifest["per_split"][0]) == {"split", "R1", "R5", "R10"}

    def test_missing_language_is_usage_error(self, tmp_path):
        out = gen_dataset(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--scenario", "VxL",
                 "--vision", str(out / "vision.feat"),
                 "--splits", str(out / "splits.split"),
                 "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_threads_below_one_is_usage_error(self, tmp_path):
        out = gen_dataset(tmp_path)
        for threads in ("0", "-3", "two"):
            with pytest.raises(SystemExit) as exc:
                run(["evaluate", "--scenario", "VxV",
                     "--vision", str(out / "vision.feat"),
                     "--splits", str(out / "splits.split"),
                     "--out-dir", str(tmp_path), "--threads", threads])
            assert exc.value.code == 2, threads

    # the ridges are library defaults now, so a bad one is a usage error
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["--cca-ridge", "--xqda-ridge"])
    def test_bad_ridge_is_config_error(self, toy_data, tmp_path, flag, value):
        code = exit_code(["evaluate", "--scenario", "VxL",
                          "--vision", str(toy_data / "vision.feat"),
                          "--language", str(toy_data / "language.feat"),
                          "--splits", str(toy_data / "splits.split"),
                          "--out-dir", str(tmp_path), "--quiet", flag, value])
        assert code == 2
        assert not (tmp_path / "manifest_VxL.json").exists()

    @pytest.mark.parametrize("flags", [
        ("--cca-ridge", "nan"), ("--cca-k", "-5"), ("--cca-k", "0"), ("--xqda-max-rank", "0"),
        ("--cca-k", "999"), ("--language", "{d}/language.feat", "--cca-k", "7"),
    ], ids=" ".join)
    def test_bad_pipeline_flag_is_config_error(self, toy_data, tmp_path, flags):
        # VxV fits no CCA, yet its flags are checked too; --cca-k 7 exceeds
        # the 6-d language features once they are loaded; --cca-ridge and
        # --xqda-max-rank are deleted, so theirs are usage errors
        argv = (EVALUATE_VXV + " --quiet " + " ".join(flags)).format(d=toy_data, t=tmp_path)
        assert exit_code(argv.split()) == 2
        assert not (tmp_path / "manifest_VxV.json").exists()

    # Each deleted knob with its last default as value: the library keeps
    # the ridges, the rank cap and sigma as keyword defaults, the solver
    # settings are textcnn constants.
    @pytest.mark.parametrize("command, flag", [
        (EVALUATE_VXV, "--flip-n 1"),
        (EVALUATE_VXV, "--cca-zscore"),
        (EVALUATE_VXV, "--xqda-zscore"),
        (ATTR_SWEEP, "--cca-zscore"),
        (ATTR_SWEEP, "--xqda-zscore"),
        *((command, flag) for command in (EVALUATE_VXV, ATTR_SWEEP)
          for flag in ("--cca-ridge 1e-4", "--xqda-ridge 1e-3", "--xqda-max-rank 64")),
        *((TRAIN_TEXTCNN, flag) for flag in (
            "--momentum 0.9", "--weight-decay 0.0005", "--lr-drop-factor 0.1",
            "--lr-drop-every 50000", "--sigma 0.05")),
    ], ids=lambda text: text.split()[0])
    def test_removed_flags_are_unknown(self, toy_data, tmp_path, capsys, command, flag):
        argv = (command + " --quiet").format(d=toy_data, t=tmp_path).split()
        with pytest.raises(SystemExit) as exc:
            run(argv + flag.split())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        assert run(argv) == 0

    def test_threads_invariant_report(self, tmp_path):
        out = gen_dataset(tmp_path)
        reports = []
        for threads, name in (("1", "t1"), ("4", "t4")):
            run_dir = tmp_path / name
            run_dir.mkdir()
            code = run(["evaluate", "--scenario", "VxV",
                        "--vision", str(out / "vision.feat"),
                        "--splits", str(out / "splits.split"),
                        "--out-dir", str(run_dir), "--threads", threads, "--quiet"])
            assert code == 0
            reports.append((run_dir / "report_VxV.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_rerun_identical_primary_outputs_and_manifest_fields(self, tmp_path):
        out = gen_dataset(tmp_path)
        manifests = []
        for name in ("r1", "r2"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            run(["evaluate", "--scenario", "LxL",
                 "--vision", str(out / "vision.feat"),
                 "--language", str(out / "language.feat"),
                 "--splits", str(out / "splits.split"),
                 "--out-dir", str(run_dir), "--seed", "5", "--quiet"])
            manifests.append(json.loads((run_dir / "manifest_LxL.json").read_text()))
        csv_a = (tmp_path / "r1" / "report_LxL.csv").read_bytes()
        csv_b = (tmp_path / "r2" / "report_LxL.csv").read_bytes()
        assert csv_a == csv_b
        for manifest in manifests:
            manifest.pop("timestamp")
            manifest.pop("duration_s")
            for entry in manifest["inputs"].values():
                entry.pop("path")
            manifest.pop("outputs")
        assert manifests[0] == manifests[1]


# Each subcommand: its command line with outputs under {t}, and the manifest it writes there.
OUTPUT_PLACES = {
    "train-textcnn": (TRAIN_TEXTCNN, "manifest.json"),
    "evaluate": (EVALUATE_VXV, "manifest_VxV.json"),
    "attr-sweep": (ATTR_SWEEP, "manifest_attr_sweep.json"),
}


def run_manifest(command, manifest, data, where):
    where.mkdir(parents=True)
    assert run((command + " --quiet").format(d=data, t=where).split()) == 0
    return json.loads((where / manifest).read_text())


class TestManifest:
    @pytest.mark.parametrize("command, manifest", OUTPUT_PLACES.values(), ids=OUTPUT_PLACES)
    def test_config_hash_ignores_output_location(self, toy_data, tmp_path, command, manifest):
        one, two = (run_manifest(command, manifest, toy_data, tmp_path / name)
                    for name in ("r1", "r2"))
        assert one["config_hash"] == two["config_hash"]
        assert one["config"] == two["config"] and one["seed"] == two["seed"] == 42

    @pytest.mark.parametrize("command, manifest", OUTPUT_PLACES.values(), ids=OUTPUT_PLACES)
    def test_names_its_blas(self, toy_data, tmp_path, monkeypatch, command, manifest):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        blas = run_manifest(command, manifest, toy_data, tmp_path / "run")["blas"]
        assert set(blas) == {"name", "version", "thread_env"}
        assert isinstance(blas["name"], str) and isinstance(blas["version"], str)
        assert set(blas["thread_env"]) == set(cli.THREAD_ENV)
        assert blas["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert blas["thread_env"]["OMP_NUM_THREADS"] is None

    @pytest.mark.parametrize("command, manifest", OUTPUT_PLACES.values(), ids=OUTPUT_PLACES)
    def test_config_is_exactly_the_remaining_flags(self, toy_data, tmp_path, command, manifest):
        remaining = {
            "train-textcnn": {"corpus", "embeddings", "iters", "lr", "batch", "kernels",
                              "kernel_width", "hidden", "max_len", "dropout", "augment",
                              "factor", "synonyms"},
            "evaluate": {"scenario", "vision", "language", "attributes", "splits", "cca_k",
                         "gallery_mode"},
            "attr-sweep": {"n", "vision", "attributes", "splits", "cca_k", "gallery_mode"},
        }
        body = run_manifest(command, manifest, toy_data, tmp_path / "run")
        assert set(body["config"]) == remaining[body["subcommand"]]

    def test_train_textcnn_size_defaults_are_the_library_defaults(self, toy_data, tmp_path):
        # the flags take their defaults from textcnn's configs when train-textcnn parses
        command = ("train-textcnn --corpus {d}/corpus.corpus --embeddings {d}/embeddings.emb "
                   "--out-dir {t} --iters 0")
        config = run_manifest(command, "manifest.json", toy_data, tmp_path / "run")["config"]
        net, solver = textcnn.TextCnnConfig(num_classes=1), textcnn.SolverConfig(iterations=0)
        assert ({name: config[name] for name in ("kernels", "kernel_width", "hidden", "max_len",
                                                 "dropout", "lr", "batch")}
                == {"kernels": net.kernel_count, "kernel_width": net.kernel_width,
                    "hidden": net.hidden_dim, "max_len": net.max_len, "dropout": net.dropout,
                    "lr": solver.base_lr, "batch": solver.batch_size})

    def test_train_textcnn_records_description_columns(self, toy_data, tmp_path):
        # every gen-synth description embeds to 8 known words
        manifest = run_manifest(*OUTPUT_PLACES["train-textcnn"], toy_data, tmp_path / "run")
        assert manifest["config"]["max_len"] == 10
        assert manifest["description_columns"] == {"mean": 8.0, "max": 8}

    def test_inputs_are_the_given_files(self, toy_data, tmp_path):
        manifest = run_manifest(EVALUATE_VXV, "manifest_VxV.json", toy_data, tmp_path / "run")
        assert manifest["config"]["language"] is None
        assert set(manifest["inputs"]) == {"vision", "splits"}
        vision = manifest["inputs"]["vision"]
        assert vision["sha256"] == hashlib.sha256(
            (toy_data / "vision.feat").read_bytes()).hexdigest()


# The evaluate flag that supplies each scenario part.
PART_FLAGS = {"vision": "--vision", "cca_x": "--vision", "language": "--language",
              "cca_y": "--language", "attribute": "--attributes"}
OPTIONAL_FILES = {"--language": "language.feat", "--attributes": "attributes.attr"}


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    return gen_dataset(tmp_path_factory.mktemp("toy"))


class TestScenarioInputs:
    @pytest.mark.parametrize("scenario", evaluation.SCENARIOS)
    def test_usage_error_exactly_when_a_needed_file_is_missing(self, scenario, toy_data,
                                                                tmp_path):
        needed = {PART_FLAGS[part] for parts in evaluation.SCENARIO_SPEC[scenario].values()
                  for part in parts}
        for given in ((), ("--language",), ("--attributes",), ("--language", "--attributes")):
            argv = ["evaluate", "--scenario", scenario,
                    "--vision", str(toy_data / "vision.feat"),
                    "--splits", str(toy_data / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet"]
            for flag in given:
                argv += [flag, str(toy_data / OPTIONAL_FILES[flag])]
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            missing = needed - {"--vision", *given}
            assert code == (2 if missing else 0), (given, code)


# The xmreid modules each command line imports: the CLI's own, and its subcommand's.
CLI_MODULES = {"cli", "dataio", "errors", "rng"}
EVALUATION_MODULES = CLI_MODULES | {"evaluation", "cca", "xqda", "linalg"}
IMPORTED = {
    "import": ("", CLI_MODULES),
    "gen-synth": ("gen-synth --config {d}/../synth.json --out {t}", CLI_MODULES | {"synth"}),
    "train-textcnn": (TRAIN_TEXTCNN, CLI_MODULES | {"textcnn", "textprep"}),
    "evaluate": (EVALUATE_VXV, EVALUATION_MODULES),
    "attr-sweep": (ATTR_SWEEP, EVALUATION_MODULES),
}
LOADED = """
import json, sys
from xmreid import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("xmreid."))]))
"""


class TestImportGraph:
    @pytest.mark.parametrize("command, modules", IMPORTED.values(), ids=IMPORTED)
    def test_loads_only_its_modules(self, toy_data, tmp_path, command, modules):
        # a fresh interpreter, so that no other test's imports count
        argv = (command + " --quiet").format(d=toy_data, t=tmp_path).split() if command else []
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", LOADED, *argv],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, check=True)
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert {name[len("xmreid."):] for name in loaded} == modules


class TestAttrSweepCli:
    def test_sweep_outputs(self, tmp_path):
        out = gen_dataset(tmp_path)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        code = run(["attr-sweep", "--n", "0,2",
                    "--vision", str(out / "vision.feat"),
                    "--attributes", str(out / "attributes.attr"),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(run_dir), "--quiet"])
        assert code == 0
        manifest = json.loads((run_dir / "manifest_attr_sweep.json").read_text())
        assert manifest["config"]["n"] == [0, 2]
        assert manifest["mean_R1"]["0"] == 1.0
        assert (run_dir / "report_VAxVA_n0.csv").exists()
        assert (run_dir / "report_VAxVA_n2.csv").exists()

    def test_bad_n_list(self, tmp_path):
        out = gen_dataset(tmp_path)
        code = exit_code(["attr-sweep", "--n", "0,x",
                          "--vision", str(out / "vision.feat"),
                          "--attributes", str(out / "attributes.attr"),
                          "--splits", str(out / "splits.split"),
                          "--out-dir", str(tmp_path), "--quiet"])
        assert code == 2

    # int() would take the padded, signed and underscored counts
    @pytest.mark.parametrize("n", ["0,x", " 1,+2", "1_0", "1,,2", "", "-1", "\u0661"])
    def test_bad_n_list_is_refused_before_any_input_is_read(self, tmp_path, capsys, n):
        code = exit_code(["attr-sweep", "--n", n, "--vision", str(tmp_path / "missing.feat"),
                          "--attributes", str(tmp_path / "missing.attr"),
                          "--splits", str(tmp_path / "missing.split"),
                          "--out-dir", str(tmp_path), "--quiet"])
        assert code == 2
        assert "argument --n: expected comma-separated integers >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_n_is_usage_error(self, tmp_path, monkeypatch):
        out = gen_dataset(tmp_path)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.setattr(evaluation, "evaluate_scenario", None)  # never reached
        code = run(["attr-sweep", "--n", "1,1",
                    "--vision", str(out / "vision.feat"),
                    "--attributes", str(out / "attributes.attr"),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(run_dir), "--quiet"])
        assert code == 2
        assert not any(run_dir.iterdir())


class TestExitCodePartition:
    # int() would take the padded, signed and underscored forms, str.isdecimal
    # the Arabic-Indic three; a negative count is refused like the others
    @pytest.mark.parametrize("value", [" 1_6", "+2", "0_42", "\u0663", "-1"])
    @pytest.mark.parametrize("command, flag", [
        ("gen-synth --config {d}/synth.json --out {t}", "--seed"),
        *((TRAIN_TEXTCNN, flag) for flag in (
            "--seed", "--iters", "--batch", "--kernels", "--kernel-width", "--hidden",
            "--max-len", "--factor", "--threads")),
        (EVALUATE_VXV, "--cca-k"), (ATTR_SWEEP, "--cca-k"),
    ], ids=lambda part: part.split()[0])
    def test_bad_integer_flag_is_refused_before_any_input_is_read(
            self, tmp_path, capsys, command, flag, value):
        argv = command.format(d=tmp_path / "missing", t=tmp_path).split() + [flag, value]
        assert exit_code(argv) == 2
        assert f"argument {flag}: expected an integer >= " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_data_error_is_4(self, tmp_path):
        out = gen_dataset(tmp_path)
        bad = tmp_path / "bad.feat"  # two records declared, one record's body
        bad.write_bytes(b"XMREID-FEAT 2\n2 3\nid0000\t1\nid0000\t2\n"
                        + np.array([1.0, 2.0, 3.0], dtype="<f8").tobytes())
        code = run(["evaluate", "--scenario", "VxV", "--vision", str(bad),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet"])
        assert code == 4

    def test_non_utf8_input_is_4(self, tmp_path):
        out = gen_dataset(tmp_path)
        bad = tmp_path / "bad.feat"
        bad.write_bytes(b"XMREID-FEAT 2\n1 3\nid\xff\t1\n" + bytes(24))
        code = run(["evaluate", "--scenario", "VxV", "--vision", str(bad),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet"])
        assert code == 4

    @pytest.mark.parametrize("head", ["1000000000000000000000000000000 3", "1 1000000000000000",
                                      "1000000000 1000000000"])
    def test_oversized_header_is_4(self, tmp_path, head):
        out = gen_dataset(tmp_path)
        bad = tmp_path / "bad.feat"
        bad.write_bytes(f"XMREID-FEAT 2\n{head}\nid0000\t1\n".encode("utf-8") + bytes(24))
        code = run(["evaluate", "--scenario", "VxV", "--vision", str(bad),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet"])
        assert code == 4

    def test_misaligned_language_is_4(self, tmp_path):
        out = gen_dataset(tmp_path)
        identities, views, matrix = dataio.load_features(out / "language.feat")
        bad = tmp_path / "bad.feat"  # identities in reverse row order
        dataio.save_features(identities[::-1], views, matrix, bad)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        code = run(["evaluate", "--scenario", "VxL", "--vision", str(out / "vision.feat"),
                    "--language", str(bad), "--splits", str(out / "splits.split"),
                    "--out-dir", str(run_dir), "--quiet"])
        assert code == 4
        assert not any(run_dir.iterdir())

    def test_missing_attr_row_is_4(self, tmp_path):
        out = gen_dataset(tmp_path)
        bad = tmp_path / "bad.attr"
        bad.write_text("XMREID-ATTR 1 4\nid0000\t0101\n", encoding="utf-8")
        code = run(["attr-sweep", "--n", "0",
                    "--vision", str(out / "vision.feat"),
                    "--attributes", str(bad),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet"])
        assert code == 4

    def test_unknown_attr_identity_is_4(self, tmp_path):
        out = gen_dataset(tmp_path)
        bad = tmp_path / "bad.attr"
        bad.write_text("XMREID-ATTR 1 4\nghost\t0101\n", encoding="utf-8")
        code = run(["attr-sweep", "--n", "0",
                    "--vision", str(out / "vision.feat"),
                    "--attributes", str(bad),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet"])
        assert code == 4

    @pytest.mark.parametrize("flag", ["--cca-ridge", "--xqda-ridge"])
    def test_overflowing_ridge_is_2(self, tmp_path, capsys, flag):
        # a ridge whose trace/d scaling overflows can no longer be given;
        # linalg.ridged still rejects one (TestRidged::test_overflowing_scale_rejected)
        out = gen_dataset(tmp_path)
        code = exit_code(["evaluate", "--scenario", "VxL", "--vision", str(out / "vision.feat"),
                          "--language", str(out / "language.feat"),
                          "--splits", str(out / "splits.split"),
                          "--out-dir", str(tmp_path), "--quiet", flag, "1e308"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} 1e308" in err and "Traceback" not in err
        assert not (tmp_path / "manifest_VxL.json").exists()

    def split_content_case(self, tmp_path, capsys, test_views, roles):
        # five train identities with both views, and identity "q" in test_views
        identities = [f"p{i}" for i in range(5) for _ in (1, 2)] + ["q"] * len(test_views)
        views = [1, 2] * 5 + list(test_views)
        feat = tmp_path / "v.feat"
        dataio.save_features(np.array(identities), np.array(views),
                             np.random.default_rng(5).standard_normal((len(views), 3)), feat)
        split = tmp_path / "s.split"
        roles = dict({f"p{i}": dataio.TRAIN for i in range(5)}, q=roles)
        dataio.save_splits([dataio.SplitAssignment(index=0, roles=roles)], split)
        code = run(["evaluate", "--scenario", "VxV", "--vision", str(feat), "--splits", str(split),
                    "--out-dir", str(tmp_path), "--quiet"])
        return code, capsys.readouterr().err

    def test_split_without_test_identity_is_4(self, tmp_path, capsys):
        code, err = self.split_content_case(tmp_path, capsys, (1, 2), dataio.TRAIN)
        assert code == 4
        assert "split 0 needs both train and test identities" in err

    def test_split_without_view1_test_sample_is_4(self, tmp_path, capsys):
        code, err = self.split_content_case(tmp_path, capsys, (2,), dataio.TEST)
        assert code == 4
        assert "split 0 has no view-1 test samples" in err

    def test_split_without_view2_test_sample_is_4(self, tmp_path, capsys):
        code, err = self.split_content_case(tmp_path, capsys, (1,), dataio.TEST)
        assert code == 4
        assert "split 0 has no view-2 test samples" in err

    def test_unallocatable_layer_is_2(self, tmp_path, capsys):
        # FC1 would take 10**14 x 8 float64s (6.4 PiB): more than any 64-bit
        # process can map, so numpy refuses it before touching memory
        corpus_path, emb_path = toy_text_corpus(tmp_path, classes=3)
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        code = run(["train-textcnn", "--corpus", str(corpus_path), "--embeddings", str(emb_path),
                    "--out-dir", str(out_dir), "--iters", "1", "--kernels", "8",
                    "--hidden", str(10**14), "--max-len", "10", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(out_dir.iterdir())

    def test_numerical_failure_is_5(self, tmp_path):
        # identical features for every record: both difference covariances
        # of the training identities vanish and the metric is degenerate; in
        # VLxVL each part's norm is zero too, so its scale must stay 1
        identities = np.repeat([f"id{i}" for i in range(4)], 2)
        feat = tmp_path / "flat.feat"
        dataio.save_features(identities, np.tile([1, 2], 4), np.ones((8, 3)), feat)
        split = tmp_path / "s.split"
        roles = {"id0": dataio.TRAIN, "id1": dataio.TRAIN, "id2": dataio.TEST, "id3": dataio.TEST}
        dataio.save_splits([dataio.SplitAssignment(index=0, roles=roles)], split)
        for scenario in ("VxV", "VLxVL"):
            code = run(["evaluate", "--scenario", scenario, "--vision", str(feat),
                        "--language", str(feat), "--splits", str(split),
                        "--out-dir", str(tmp_path), "--quiet"])
            assert code == 5, scenario

    @pytest.mark.parametrize("argv", [
        "fit-cca --x {d}/vision.feat --y {d}/language.feat --out {t}/m.cca",
        "fit-xqda --features {d}/vision.feat --out {t}/m.xqda",
        "augment --corpus {d}/corpus.corpus --method drop --factor 2 --out {t}/a.corpus",
    ], ids=lambda text: text.split()[0])
    def test_deleted_subcommand_is_2(self, toy_data, tmp_path, argv):
        # these wrote model files and corpora that no command read back
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-m", "xmreid.cli",
                               *argv.format(d=toy_data, t=tmp_path).split()],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, check=False)
        assert done.returncode == 2
        assert "invalid choice" in done.stderr and "Traceback" not in done.stderr
        assert not any(tmp_path.iterdir())
