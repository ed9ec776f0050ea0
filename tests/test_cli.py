import json

import numpy as np
import pytest

from xmreid import cca, cli, dataio, textcnn, textprep

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
                     b'{"identity_count": true}', b'{"vision_noise": "0.5"}'):
            config_path.write_bytes(body)
            assert run(["gen-synth", "--config", str(config_path), "--out", str(out),
                        "--quiet"]) == 2, body

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


class TestFitModels:
    def test_fit_cca_writes_model_and_manifest(self, tmp_path, capsys):
        out = gen_dataset(tmp_path)
        model_path = tmp_path / "model.cca"
        code = run(["fit-cca", "--x", str(out / "vision.feat"),
                    "--y", str(out / "language.feat"), "--k", "3",
                    "--out", str(model_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "correlations:" in printed
        manifest = json.loads((tmp_path / "model.cca.manifest.json").read_text())
        assert len(manifest["correlations"]) == 3
        loaded = __import__("xmreid.cca", fromlist=["load_model"]).load_model(model_path)
        assert loaded.k == 3

    def test_fit_xqda(self, tmp_path):
        out = gen_dataset(tmp_path)
        model_path = tmp_path / "model.xqda"
        code = run(["fit-xqda", "--features", str(out / "vision.feat"),
                    "--out", str(model_path), "--quiet"])
        assert code == 0
        assert model_path.exists()

    def test_deterministic_model_bytes(self, tmp_path):
        out = gen_dataset(tmp_path)
        paths = []
        for name in ("m1.cca", "m2.cca"):
            path = tmp_path / name
            run(["fit-cca", "--x", str(out / "vision.feat"),
                 "--y", str(out / "language.feat"), "--k", "2",
                 "--out", str(path), "--quiet"])
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAugmentCli:
    def test_factor_multiplies_records(self, tmp_path):
        corpus_path, _ = toy_text_corpus(tmp_path, classes=4)
        out = tmp_path / "aug.corpus"
        code = run(["augment", "--corpus", str(corpus_path), "--method", "drop",
                    "--factor", "3", "--out", str(out), "--quiet"])
        assert code == 0
        assert len(dataio.load_corpus(out)) == 8 * 3

    def test_same_seed_same_bytes(self, tmp_path):
        corpus_path, _ = toy_text_corpus(tmp_path, classes=4)
        outs = []
        for name in ("a.corpus", "b.corpus"):
            out = tmp_path / name
            run(["augment", "--corpus", str(corpus_path), "--method", "drop",
                 "--factor", "5", "--out", str(out), "--seed", "7", "--quiet"])
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_gaussian_is_rejected_at_usage_level(self, tmp_path):
        corpus_path, _ = toy_text_corpus(tmp_path, classes=2)
        with pytest.raises(SystemExit) as exc:
            run(["augment", "--corpus", str(corpus_path), "--method", "gaussian",
                 "--factor", "2", "--out", str(tmp_path / "x.corpus")])
        assert exc.value.code == 2


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

        # the manifest's accuracy, counted one tensor at a time
        model = textcnn.load_model(tmp_path / "run0" / "model.cnn")
        table = dataio.load_embeddings(emb_path)
        corpus = dataio.load_corpus(corpus_path)
        labels = {}
        for identity, _, _ in corpus:
            labels.setdefault(identity, len(labels))
        correct = sum(
            textcnn.predict(model, textprep.to_tensor(textprep.tokenize(text), table, 10))
            == labels[identity] for identity, _, text in corpus)
        manifest = json.loads((tmp_path / "run0" / "manifest.json").read_text())
        assert manifest["train_accuracy"] == correct / len(corpus)

    @pytest.mark.parametrize("flags", [
        ("--batch", "0"), ("--lr-drop-every", "0"), ("--iters", "-1"),
        ("--lr", "nan"), ("--momentum", "nan"), ("--weight-decay", "nan"),
        ("--lr-drop-factor", "inf"),
        ("--augment", "gaussian", "--factor", "2", "--sigma", "nan"),
    ], ids=" ".join)
    def test_bad_solver_flag_is_config_error(self, tmp_path, flags):
        corpus_path, emb_path = toy_text_corpus(tmp_path, classes=3)
        code = run(["train-textcnn", "--corpus", str(corpus_path),
                    "--embeddings", str(emb_path), "--out-dir", str(tmp_path),
                    "--iters", "2", "--batch", "4", "--kernels", "4",
                    "--kernel-width", "3", "--hidden", "8", "--max-len", "10",
                    "--quiet", *flags])
        assert code == 2
        assert not (tmp_path / "model.cnn").exists()

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["--cca-ridge", "--xqda-ridge"])
    def test_bad_ridge_is_config_error(self, toy_data, tmp_path, flag, value):
        code = run(["evaluate", "--scenario", "VxL",
                    "--vision", str(toy_data / "vision.feat"),
                    "--language", str(toy_data / "language.feat"),
                    "--splits", str(toy_data / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet", flag, value])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ("--cca-ridge", "nan"), ("--cca-k", "-5"), ("--cca-k", "0"), ("--xqda-max-rank", "0"),
    ], ids=" ".join)
    def test_bad_pipeline_flag_is_config_error(self, toy_data, tmp_path, flags):
        # VxV fits no CCA, yet its flags are checked too
        argv = (EVALUATE_VXV + " --quiet").format(d=toy_data, t=tmp_path).split()
        assert run(argv + list(flags)) == 2
        assert not (tmp_path / "manifest_VxV.json").exists()

    @pytest.mark.parametrize("command, flag", [
        (EVALUATE_VXV, "--flip-n 1"),
        (EVALUATE_VXV, "--cca-zscore"),
        (EVALUATE_VXV, "--xqda-zscore"),
        (ATTR_SWEEP, "--cca-zscore"),
        (ATTR_SWEEP, "--xqda-zscore"),
        ("fit-cca --x {d}/vision.feat --y {d}/language.feat --out {t}/m.cca", "--zscore"),
    ], ids=lambda text: text.split()[0])
    def test_removed_flags_are_unknown(self, toy_data, tmp_path, command, flag):
        argv = (command + " --quiet").format(d=toy_data, t=tmp_path).split()
        assert run(argv) == 0
        with pytest.raises(SystemExit) as exc:
            run(argv + flag.split())
        assert exc.value.code == 2

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


# The evaluate flag that supplies each scenario part.
PART_FLAGS = {"vision": "--vision", "cca_x": "--vision", "language": "--language",
              "cca_y": "--language", "attribute": "--attributes"}
OPTIONAL_FILES = {"--language": "language.feat", "--attributes": "attributes.attr"}


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    return gen_dataset(tmp_path_factory.mktemp("toy"))


class TestScenarioInputs:
    @pytest.mark.parametrize("scenario", cca.SCENARIOS)
    def test_usage_error_exactly_when_a_needed_file_is_missing(self, scenario, toy_data,
                                                                tmp_path):
        needed = {PART_FLAGS[part] for parts in cca.SCENARIO_SPEC[scenario].values()
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
        assert manifest["mean_R1"]["0"] == 1.0
        assert (run_dir / "report_VAxVA_n0.csv").exists()
        assert (run_dir / "report_VAxVA_n2.csv").exists()

    def test_bad_n_list(self, tmp_path):
        out = gen_dataset(tmp_path)
        code = run(["attr-sweep", "--n", "0,x",
                    "--vision", str(out / "vision.feat"),
                    "--attributes", str(out / "attributes.attr"),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet"])
        assert code == 2


class TestExitCodePartition:
    def test_data_error_is_4(self, tmp_path):
        out = gen_dataset(tmp_path)
        bad = tmp_path / "bad.feat"
        bad.write_text("XMREID-FEAT 1\n2 3\nid0000\t1\t1 2 3\n", encoding="utf-8")
        code = run(["evaluate", "--scenario", "VxV", "--vision", str(bad),
                    "--splits", str(out / "splits.split"),
                    "--out-dir", str(tmp_path), "--quiet"])
        assert code == 4

    def test_non_utf8_input_is_4(self, tmp_path):
        out = gen_dataset(tmp_path)
        bad = tmp_path / "bad.feat"
        bad.write_bytes(b"XMREID-FEAT 1\n1 3\nid0000\t1\t1 2 \xff\n")
        code = run(["evaluate", "--scenario", "VxV", "--vision", str(bad),
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

    def test_numerical_failure_is_5(self, tmp_path):
        # identical features for every record: both difference covariances
        # vanish and the metric is degenerate
        rows = []
        for i in range(4):
            for view in (1, 2):
                rows.append((f"id{i}", view, np.ones(3)))
        feat = tmp_path / "flat.feat"
        dataio.save_features(rows, feat)
        code = run(["fit-xqda", "--features", str(feat),
                    "--out", str(tmp_path / "m.xqda"), "--quiet"])
        assert code == 5
