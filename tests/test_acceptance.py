"""Acceptance gate: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Budgets are wall-clock and generous only relative to the desk
scale of the synthetic benchmark.
"""

import json
import math
import time

import numpy as np
import pytest

from xmreid import cca, cli, evaluation, linalg, synth, textcnn, xqda
from xmreid.rng import stream
from xmreid.textprep import DescriptionTensor


def report(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS - {detail}")


def test_criterion_1_eigensolver_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2.0
        values, vectors = linalg.eigh(a)
        norm = max(np.linalg.norm(a), 1e-30)
        assert np.linalg.norm(a @ vectors - vectors * values) <= 1e-10 * norm
        assert np.linalg.norm(vectors.T @ vectors - np.eye(n)) <= 1e-10
        assert abs(values.sum() - np.trace(a)) <= 1e-10 * max(abs(np.trace(a)), 1e-30)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2.0
        c = rng.standard_normal((n, n))
        b = c @ c.T + n * np.eye(n)
        values, vectors = linalg.gen_eigh(a, b)
        norm = max(np.linalg.norm(a), 1e-30)
        assert np.linalg.norm(a @ vectors - (b @ vectors) * values) <= 1e-9 * norm
        assert np.linalg.norm(vectors.T @ b @ vectors - np.eye(n)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"100 symmetric + 50 definite pairs within 1e-10/1e-9 in {elapsed:.2f}s")


def test_criterion_2_cca_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(80, 400))
        latent = rng.standard_normal((n, 1))
        x = latent @ rng.standard_normal((1, 2)) + 0.4 * rng.standard_normal((n, 2))
        y = latent @ rng.standard_normal((1, 2)) + 0.4 * rng.standard_normal((n, 2))
        model = cca.fit_cca(x, y, k=2, ridge=1e-8)
        oracle = synth.oracle_cca_grid(x, y)
        worst_gap = max(worst_gap, abs(model.correlations[0] - oracle))
    assert worst_gap < 0.01

    x = rng.standard_normal((60, 3))
    self_model = cca.fit_cca(x, x, k=3, ridge=1e-8)
    assert np.all(self_model.correlations >= 0.999)

    base_x = rng.standard_normal((200, 4))
    base_y = base_x[:, :3] @ rng.standard_normal((3, 3)) + 0.3 * rng.standard_normal((200, 3))
    transform = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    plain = cca.fit_cca(base_x, base_y, k=3, ridge=0.0)
    moved = cca.fit_cca(base_x @ transform, base_y, k=3, ridge=0.0)
    assert np.max(np.abs(plain.correlations - moved.correlations)) < 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"grid-oracle gap {worst_gap:.4f} < 0.01, self-corr and invariance hold "
              f"in {elapsed:.2f}s")


def test_criterion_3_xqda_correctness():
    rng = np.random.default_rng(1003)
    for _ in range(20):
        n_ids = int(rng.integers(2, 11))
        per_view = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 6))
        feats, ids, views = [], [], []
        centers = 3.0 * rng.standard_normal((n_ids, dim))
        for i in range(n_ids):
            for view in (1, 2):
                for _ in range(per_view):
                    feats.append(centers[i] + 0.5 * rng.standard_normal(dim))
                    ids.append(f"p{i}")
                    views.append(view)
        feats = np.array(feats)
        intra, extra = xqda.build_difference_covariances(feats, ids, views)
        o_intra, o_extra = synth.oracle_pairwise_covariances(feats, ids, views)
        scale = max(np.linalg.norm(o_intra), np.linalg.norm(o_extra), 1.0)
        assert np.linalg.norm(intra - o_intra) <= 1e-9 * scale
        assert np.linalg.norm(extra - o_extra) <= 1e-9 * scale

    feats, ids, views = [], [], []
    centers = 3.0 * rng.standard_normal((8, 5))
    for i in range(8):
        for view in (1, 2):
            for _ in range(2):
                feats.append(centers[i] + 0.4 * rng.standard_normal(5))
                ids.append(f"p{i}")
                views.append(view)
    model = xqda.fit_xqda(np.array(feats), ids, views)
    shift = 100.0 * rng.standard_normal(5)
    for _ in range(1000):
        g = rng.standard_normal(5)
        q = rng.standard_normal(5)
        s_gq = xqda.score(model, g, q)
        assert s_gq == xqda.score(model, q, g)
        assert xqda.score(model, g, g) == 0.0
        assert abs(xqda.score(model, g + shift, q + shift) - s_gq) <= 1e-9 * max(abs(s_gq), 1.0)
    report(3, "closed-form covariances match enumeration at 1e-9; "
              "score symmetry/zero/translation hold on 1000 pairs")


def test_criterion_4_textcnn_gradients_and_overfit():
    start = time.perf_counter()
    cfg = textcnn.TextCnnConfig(num_classes=4, embed_dim=6, kernel_count=5,
                                kernel_width=3, hidden_dim=7, max_len=9, dropout=0.0)
    worst = 0.0
    for trial in range(20):
        model = textcnn.init_model(cfg, stream(2001, trial))
        gen = stream(2002, trial)
        model.conv_b[...] = 0.1 * gen.standard_normal(cfg.kernel_count)
        model.fc1_b[...] = 0.1 * gen.standard_normal(cfg.hidden_dim)
        used = int(gen.integers(3, cfg.max_len + 1))
        values = np.zeros((cfg.embed_dim, cfg.max_len))
        values[:, :used] = gen.standard_normal((cfg.embed_dim, used))
        tensor = DescriptionTensor(values=values, used=used)
        label = int(gen.integers(0, cfg.num_classes))
        _, grads = textcnn.loss_and_gradients(model, tensor, label)
        grad_map = dict(grads.params())
        step = 1e-5
        for name, param in model.params():
            flat = param.reshape(-1)
            numeric = np.empty_like(flat)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                up, _ = textcnn.loss_and_gradients(model, tensor, label)
                flat[i] = keep - step
                down, _ = textcnn.loss_and_gradients(model, tensor, label)
                flat[i] = keep
                numeric[i] = (up - down) / (2.0 * step)
            analytic = grad_map[name].reshape(-1)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < 1e-4

    zero_cfg = textcnn.TextCnnConfig(num_classes=11, embed_dim=5, kernel_count=4,
                                     kernel_width=3, hidden_dim=6, max_len=8, dropout=0.0)
    zero_model = textcnn.init_model(zero_cfg, stream(2003, 0))
    for _, arr in zero_model.params():
        arr[...] = 0.0
    tensor = DescriptionTensor(values=stream(2003, 1).standard_normal((5, 8)), used=8)
    loss, _ = textcnn.loss_and_gradients(zero_model, tensor, 3)
    assert abs(loss - math.log(11)) <= 1e-12

    toy_cfg = textcnn.TextCnnConfig(num_classes=10, embed_dim=8, kernel_count=12,
                                    kernel_width=3, hidden_dim=24, max_len=10, dropout=0.0)
    toy_model = textcnn.init_model(toy_cfg, stream(2004, 0))
    gen = stream(2004, 1)
    samples = []
    for label in range(10):
        values = np.zeros((8, 10))
        values[:, :10] = gen.standard_normal((8, 10))
        samples.append((label, DescriptionTensor(values=values, used=10)))
    solver = textcnn.SolverConfig(iterations=500, base_lr=0.05, batch_size=10)
    textcnn.train(toy_model, samples, solver, stream(2004, 2))
    correct = sum(textcnn.predict(toy_model, t) == label for label, t in samples)
    assert correct == 10

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"max gradient error {worst:.2e} < 1e-4, zero-weight loss = ln(K), "
              f"10/10 classes overfit in {elapsed:.1f}s")


def test_criterion_5_detector_analysis():
    cfg = textcnn.TextCnnConfig(num_classes=3, embed_dim=6, kernel_count=16,
                                kernel_width=5, hidden_dim=8, max_len=20, dropout=0.0)
    assert cfg.kernel_width // 2 == 2  # the published +2 offset for w=5
    rng = stream(3001, 0)
    target = rng.standard_normal(6)
    model = textcnn.init_model(cfg, stream(3001, 1))
    for _, arr in model.params():
        arr[...] = 0.0
    planted = 9
    model.conv_w[planted, :, cfg.kernel_width // 2] = target

    tensors, truth = [], []
    for pos in (4, 8, 13, 17):  # 1-based word positions
        values = 0.01 * rng.standard_normal((6, 20))
        values[:, pos - 1] = target
        tensors.append(DescriptionTensor(values=values, used=20))
        truth.append(pos)
    channel, errors = textcnn.find_detector_channel(model, tensors, truth)
    assert channel == planted
    assert errors.sum() == 0
    report(5, f"planted channel {planted} recovered with zero error; offset = 2 for w=5")


def test_criterion_6_cmc_laws():
    rng = stream(4001, 0)
    gallery_size = 100
    gallery_ids = np.array([f"g{i}" for i in range(gallery_size)])
    probes_total = 100_000
    hits = np.zeros(gallery_size)
    done = 0
    while done < probes_total:
        take = min(2000, probes_total - done)
        scores = rng.random((take, gallery_size))
        probe_ids = gallery_ids[rng.integers(0, gallery_size, size=take)]
        result = evaluation.cmc(scores, gallery_ids, probe_ids)
        assert np.all(np.diff(result.accuracies) >= 0.0)
        assert result.accuracies[-1] == 1.0
        hits += result.accuracies * take
        done += take
    empirical = hits / probes_total
    target = np.arange(1, gallery_size + 1) / gallery_size
    gap = float(np.max(np.abs(empirical - target)))
    assert gap < 0.01
    report(6, f"monotone + terminal exact; chance-law gap {gap:.4f} < 0.01 "
              f"over {probes_total} probes")


def test_criterion_7_scenario_ordering():
    start = time.perf_counter()
    config = synth.reference_config()
    dataset = synth.gen_paired(config)
    splits = synth.gen_splits(config)
    assert len(splits) == 20
    pipe = evaluation.PipelineConfig(cca_k=synth.reference_cca_rank(config))
    r1 = {}
    for scenario in ("VxL", "LxL", "VxV", "VxVL", "VLxVL"):
        rep = evaluation.evaluate_scenario(dataset, splits, scenario, pipe, master_seed=42)
        r1[scenario] = rep.mean_rank(1) * 100.0
    ordered = [r1[s] for s in ("VxL", "LxL", "VxV", "VxVL", "VLxVL")]
    assert all(a < b for a, b in zip(ordered, ordered[1:])), r1
    assert r1["VLxVL"] - r1["VxV"] >= 5.0, r1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, "mean R1 " + " < ".join(f"{s}={r1[s]:.1f}" for s in
                                      ("VxL", "LxL", "VxV", "VxVL", "VLxVL"))
              + f", margin {r1['VLxVL'] - r1['VxV']:.1f}pp in {elapsed:.0f}s")


def test_criterion_8_attribute_flip_degradation():
    start = time.perf_counter()
    config = synth.reference_attribute_config()
    dataset = synth.gen_paired(config)
    attributes = synth.gen_attributes(config)
    dataset.attributes = np.array([attributes.get(i) for i in dataset.identities])
    splits = synth.gen_splits(config)
    assert len(splits) == 10
    reports = evaluation.attribute_degradation_sweep(dataset, splits, [0, 1, 2, 3],
                                                     master_seed=42)
    r1 = [reports[n].mean_rank(1) * 100.0 for n in (0, 1, 2, 3)]
    assert r1[0] == 100.0
    assert all(a > b for a, b in zip(r1, r1[1:])), r1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, "mean R1 by flips " + " > ".join(f"{v:.1f}" for v in r1)
              + f" (N=0 exact) in {elapsed:.0f}s")


class TestCriterion9Determinism:
    SYNTH = {"identity_count": 10, "samples_per_view": 2, "latent_dim": 2,
             "vision_dim": 6, "language_dim": 5, "num_splits": 2,
             "attribute_bits": 6, "seed": 13}

    def _gen(self, base):
        base.mkdir(parents=True, exist_ok=True)
        config_path = base / "synth.json"
        config_path.write_text(json.dumps(self.SYNTH), encoding="utf-8")
        out = base / "data"
        out.mkdir()
        assert cli.main(["gen-synth", "--config", str(config_path), "--out", str(out),
                         "--embeddings-out", str(out / "embeddings.emb"),
                         "--quiet"]) == 0
        return out

    def _run_all(self, base, data):
        run_dir = base / "run"
        run_dir.mkdir(parents=True)
        argvs = [
            ["fit-cca", "--x", str(data / "vision.feat"),
             "--y", str(data / "language.feat"), "--k", "2",
             "--out", str(run_dir / "model.cca"), "--seed", "5", "--quiet"],
            ["fit-xqda", "--features", str(data / "vision.feat"),
             "--out", str(run_dir / "model.xqda"), "--seed", "5", "--quiet"],
            ["augment", "--corpus", str(data / "corpus.corpus"), "--method", "drop",
             "--factor", "3", "--out", str(run_dir / "aug.corpus"),
             "--seed", "5", "--quiet"],
            ["train-textcnn", "--corpus", str(data / "corpus.corpus"),
             "--embeddings", str(data / "embeddings.emb"),
             "--out-dir", str(run_dir), "--iters", "20", "--lr", "0.05",
             "--batch", "5", "--kernels", "6", "--kernel-width", "3",
             "--hidden", "8", "--max-len", "10", "--dropout", "0.5",
             "--seed", "5", "--quiet"],
            ["evaluate", "--scenario", "VLxVL", "--vision", str(data / "vision.feat"),
             "--language", str(data / "language.feat"),
             "--splits", str(data / "splits.split"),
             "--out-dir", str(run_dir), "--seed", "5", "--quiet"],
            ["attr-sweep", "--n", "0,1", "--vision", str(data / "vision.feat"),
             "--attributes", str(data / "attributes.attr"),
             "--splits", str(data / "splits.split"),
             "--out-dir", str(run_dir), "--seed", "5", "--quiet"],
        ]
        for argv in argvs:
            assert cli.main(argv) == 0
        primary = [
            "model.cca", "model.xqda", "aug.corpus", "model.cnn",
            "loss_history.csv", "report_VLxVL.csv",
            "report_VAxVA_n0.csv", "report_VAxVA_n1.csv",
        ]
        return {name: (run_dir / name).read_bytes() for name in primary}

    def test_all_subcommands_bytewise_and_threads(self, tmp_path):
        data_a = self._gen(tmp_path / "a")
        data_b = self._gen(tmp_path / "b")
        for name in ("vision.feat", "language.feat", "attributes.attr",
                     "splits.split", "corpus.corpus", "embeddings.emb"):
            assert (data_a / name).read_bytes() == (data_b / name).read_bytes()

        outputs_a = self._run_all(tmp_path / "a", data_a)
        outputs_b = self._run_all(tmp_path / "b", data_b)
        assert set(outputs_a) == set(outputs_b)
        for name in outputs_a:
            assert outputs_a[name] == outputs_b[name], f"{name} differs between runs"

        reports = []
        for threads, tag in (("1", "t1"), ("4", "t4")):
            run_dir = tmp_path / tag
            run_dir.mkdir()
            assert cli.main(["evaluate", "--scenario", "VxV",
                             "--vision", str(data_a / "vision.feat"),
                             "--splits", str(data_a / "splits.split"),
                             "--out-dir", str(run_dir), "--threads", threads,
                             "--seed", "5", "--quiet"]) == 0
            reports.append((run_dir / "report_VxV.csv").read_bytes())
        assert reports[0] == reports[1]
        report(9, "all seven subcommands byte-identical across reruns; "
                  "evaluate invariant to --threads")
