import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from xmreid import synth, textcnn, textprep
from xmreid.dataio import EmbeddingTable
from xmreid.errors import EmptyCorpus, EmptySubset, InvalidConfig, NoConvergence, ShapeMismatch
from xmreid.rng import stream
from xmreid.textprep import DescriptionTensor


# BLOCK_ROWS values the exactness tests run at: one row per block, a ragged
# tail, the default; UNBLOCKED makes each response gather one block.
BLOCKS = [1, 7, textcnn.BLOCK_ROWS]
UNBLOCKED = 2**30


def toy_config(num_classes=4, embed_dim=6, kernel_count=5, kernel_width=3,
               hidden_dim=7, max_len=9, dropout=0.0):
    return textcnn.TextCnnConfig(
        num_classes=num_classes,
        embed_dim=embed_dim,
        kernel_count=kernel_count,
        kernel_width=kernel_width,
        hidden_dim=hidden_dim,
        max_len=max_len,
        dropout=dropout,
    )


def random_values(rng, config, used=None):
    """E x max_len columns, random through `used` and zero past it."""
    used = config.max_len if used is None else used
    values = np.zeros((config.embed_dim, config.max_len))
    values[:, :used] = rng.standard_normal((config.embed_dim, used))
    return values


def on_one_table(blocks):
    """A DescriptionTensor per E x T column block, all ids into one WordTable
    coded by textprep.code_rows: a zero column is id 0, so trailing zero ids
    stand in for stored padding."""
    blocks = list(blocks)
    vectors, ids = textprep.code_rows([block.T for block in blocks], len(blocks[0]))
    words = textprep.WordTable({}, vectors)
    return [DescriptionTensor(i.astype(np.int32), words) for i in ids]


def paper_config(num_classes=10):
    return textcnn.TextCnnConfig(num_classes=num_classes, embed_dim=300, kernel_count=256,
                                 kernel_width=5, hidden_dim=1024, max_len=70, dropout=0.5)


def relative_error(got, want):
    """Largest absolute difference over the largest reference magnitude."""
    scale = np.max(np.abs(want), initial=0.0)
    diff = np.max(np.abs(np.asarray(got) - want), initial=0.0)
    return diff / scale if scale > 0.0 else diff


def oracle_responses(model, trace):
    """B x C x P responses after ReLU, from the columns trace.ids reads and
    conv_w; the trace keeps only their peaks."""
    windows = sliding_window_view(trace.distinct[trace.ids], model.config.kernel_width, axis=1)
    response = np.tensordot(windows, model.conv_w, axes=[(2, 3), (1, 2)]) + model.conv_b
    return np.maximum(response, 0.0).transpose(0, 2, 1)


def positions(model, trace):
    """The window positions a trace's ids were read at."""
    return trace.ids.shape[1] - model.config.kernel_width + 1


def sample_loss_and_gradients(model, tensor, label):
    """Loss and gradients of one tensor, run as a batch of one."""
    losses, grads = textcnn.batch_loss_and_gradients(model, [tensor], [label])
    return float(losses[0]), grads


def oracle_batch(model, tensors, labels, masks=None):
    """Per-sample oracle losses and their summed gradients, in batch order."""
    losses, total = [], {}
    for slot, (tensor, label) in enumerate(zip(tensors, labels)):
        mask = None if masks is None else masks[slot]
        loss, grads = synth.oracle_cnn_loss_and_gradients(model, tensor, label, mask)
        losses.append(loss)
        for name, grad in grads.items():
            total[name] = total[name] + grad if name in total else grad
    return np.array(losses), total


def assert_batch_matches_oracle(model, tensors, labels, masks=None):
    """The batch core at full width against the oracle, which pads each
    stored tensor itself."""
    losses, grads = textcnn.batch_loss_and_gradients(model, tensors, labels, masks)
    want_losses, want = oracle_batch(model, tensors, labels, masks)
    assert relative_error(losses, want_losses) <= 1e-12
    assert abs(losses.sum() - want_losses.sum()) <= 1e-12 * abs(want_losses.sum())
    assert list(grads) == list(want) == list(textcnn.PARAM_NAMES)
    for name in textcnn.PARAM_NAMES:
        assert relative_error(grads[name], want[name]) <= 1e-12, name


def finite_difference_check(model, tensor, label, step=1e-5):
    """Max relative error of backprop gradients vs central differences."""
    _, grads = sample_loss_and_gradients(model, tensor, label)
    worst = 0.0
    for name, param in model.params():
        flat = param.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up, _ = sample_loss_and_gradients(model, tensor, label)
            flat[i] = keep - step
            down, _ = sample_loss_and_gradients(model, tensor, label)
            flat[i] = keep
            numeric[i] = (up - down) / (2.0 * step)
        analytic = grads[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst


class TestInit:
    def test_default_kernel_shape(self):
        cfg = textcnn.TextCnnConfig(num_classes=10)
        model = textcnn.init_model(cfg, stream(0, 1))
        assert model.conv_w.shape == (256, 300, 5)
        assert model.fc1_w.shape == (1024, 256)
        assert model.fc2_w.shape == (10, 1024)
        assert np.all(model.conv_b == 0.0)

    def test_seed_determinism(self):
        cfg = toy_config()
        first = textcnn.init_model(cfg, stream(3, 1))
        second = textcnn.init_model(cfg, stream(3, 1))
        for (_, a), (_, b) in zip(first.params(), second.params()):
            assert np.array_equal(a, b)

    def test_kernel_wider_than_input(self):
        with pytest.raises(InvalidConfig):
            textcnn.init_model(toy_config(kernel_width=12, max_len=9), stream(0, 1))

    def test_bad_dropout(self):
        with pytest.raises(InvalidConfig):
            textcnn.init_model(toy_config(dropout=1.0), stream(0, 1))


class TestForward:
    def test_valid_conv_positions(self):
        # T=70, w=5: two positions lost at each border -> 66 windows over 70
        # columns, each coded once behind the zero column, code 0
        cfg = toy_config(embed_dim=4, kernel_width=5, max_len=70)
        model = textcnn.init_model(cfg, stream(1, 1))
        model.conv_b[...] = [0.5, 0.0, -0.5, 0.25, -0.25]
        tensor = on_one_table([random_values(stream(1, 2), cfg)])
        trace = textcnn.forward(model, tensor)
        assert positions(model, trace) == 66 and trace.argmax.max() < 66
        assert list(trace.ids[0]) == list(range(1, 71))
        assert np.array_equal(trace.distinct, np.hstack([np.zeros((4, 1)), tensor[0].columns()]).T)

        # 8 words: the 62 padding columns read code 0, so only 9 columns are projected
        short_tensor = on_one_table([random_values(stream(1, 3), cfg, used=8)])
        short = textcnn.forward(model, short_tensor)
        assert positions(model, short) == 66
        assert list(short.ids[0]) == list(range(1, 9)) + [0] * 62
        assert np.array_equal(short.distinct[short.ids[0]], short_tensor[0].columns().T)
        padding = np.broadcast_to(np.maximum(model.conv_b, 0.0)[None, :, None], (1, 5, 58))
        assert np.array_equal(oracle_responses(model, short)[..., 8:], padding)

    def test_zero_model_uniform_softmax(self):
        cfg = toy_config(num_classes=8)
        model = textcnn.init_model(cfg, stream(2, 1))
        for _, arr in model.params():
            arr[...] = 0.0
        tensor = on_one_table([random_values(stream(2, 2), cfg)])
        logits = textcnn.forward(model, tensor).logits
        assert np.array_equal(logits, np.zeros((1, 8)))
        loss, probs = textcnn.softmax_cross_entropy(logits, [3])
        assert abs(loss[0] - math.log(8)) < 1e-12
        assert np.allclose(probs, 1.0 / 8.0)

    def test_inference_deterministic(self):
        cfg = toy_config(dropout=0.5)
        model = textcnn.init_model(cfg, stream(4, 1))
        tensor = on_one_table([random_values(stream(4, 2), cfg)])
        first = textcnn.forward(model, tensor).logits
        second = textcnn.forward(model, tensor).logits
        assert np.array_equal(first, second)

    def test_train_dropout_changes_logits(self):
        cfg = toy_config(dropout=0.5, hidden_dim=64)
        model = textcnn.init_model(cfg, stream(5, 1))
        tensor = on_one_table([random_values(stream(5, 2), cfg)])
        masks = stream(5, 3).random((1, cfg.hidden_dim)) >= cfg.dropout
        plain = textcnn.forward(model, tensor)
        dropped = textcnn.forward(model, tensor, masks)
        # dropout acts after FC1, in place: the trace keeps the dropped units
        assert np.any(plain.fc1[~masks] > 0.0)
        want = plain.fc1 * masks / (1.0 - cfg.dropout)
        assert dropped.fc1.tobytes() == want.tobytes()
        assert not np.array_equal(plain.logits, dropped.logits)

    def test_dropout_scales_fc1_in_place(self):
        # Few narrow channels and a wide FC1: FC1 (2 MiB) outweighs everything
        # else a masked forward makes, and a dropped copy of it would double that.
        cfg = toy_config(dropout=0.5, hidden_dim=4096)
        model = textcnn.init_model(cfg, stream(54, 1))
        gen = stream(54, 2)
        tensors = on_one_table(random_values(gen, cfg) for _ in range(64))
        masks = gen.random((64, cfg.hidden_dim)) >= cfg.dropout
        tracemalloc.start()
        try:
            trace = textcnn.forward(model, tensors, masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * trace.fc1.nbytes

    def test_pooled_is_rowwise_max(self):
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(6, 1))
        tensor = on_one_table([random_values(stream(6, 2), cfg)])
        trace = textcnn.forward(model, tensor)
        response = oracle_responses(model, trace)
        assert np.array_equal(trace.argmax, response.argmax(axis=2))
        assert relative_error(trace.pooled, response.max(axis=2)) <= 1e-13

    def test_width_one_pooling_is_permutation_invariant(self):
        # with w=1 each column scores independently, so shuffling the used
        # region cannot move the per-channel maximum
        cfg = toy_config(kernel_width=1, max_len=8)
        model = textcnn.init_model(cfg, stream(26, 1))
        gen = stream(26, 2)
        values = random_values(gen, cfg, used=8)
        tensor, permuted = on_one_table([values, values[:, gen.permutation(8)]])
        trace_a = textcnn.forward(model, [tensor])
        trace_b = textcnn.forward(model, [permuted])
        assert np.allclose(trace_a.pooled, trace_b.pooled)

    def test_padding_never_changes_pooling(self):
        # a description stored through its words and the same one stored with
        # trailing zero ids, padding, pool alike
        cfg = toy_config(max_len=6, kernel_width=3)
        model = textcnn.init_model(cfg, stream(7, 1))
        values = random_values(stream(7, 2), cfg, used=3)
        short, padded = on_one_table([values[:, :3], values])
        assert len(short.ids) == 3 and list(padded.ids[3:]) == [0, 0, 0]
        trace_a = textcnn.forward(model, [short])
        trace_b = textcnn.forward(model, [padded])
        assert np.allclose(trace_a.pooled, trace_b.pooled)

    def test_embed_dim_mismatch(self):
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(8, 1))
        bad = on_one_table([np.zeros((cfg.embed_dim + 1, cfg.max_len))])
        with pytest.raises(ShapeMismatch):
            textcnn.forward(model, bad)


class TestGradients:
    def test_finite_difference_sweep(self):
        # Biases get a small random offset so no ReLU sits exactly at its
        # kink (zero bias + zero padding is non-differentiable by design).
        worst = 0.0
        for trial in range(20):
            cfg = toy_config()
            model = textcnn.init_model(cfg, stream(100, trial))
            gen = stream(101, trial)
            model.conv_b[...] = 0.1 * gen.standard_normal(cfg.kernel_count)
            model.fc1_b[...] = 0.1 * gen.standard_normal(cfg.hidden_dim)
            used = int(gen.integers(3, cfg.max_len + 1))
            tensor, = on_one_table([random_values(gen, cfg, used=used)])
            label = int(gen.integers(0, cfg.num_classes))
            worst = max(worst, finite_difference_check(model, tensor, label))
        assert worst < 1e-4

    def test_zero_model_fc2_bias_gradient(self):
        # closed form: softmax(0) - one_hot(label)
        cfg = toy_config(num_classes=5)
        model = textcnn.init_model(cfg, stream(9, 1))
        for _, arr in model.params():
            arr[...] = 0.0
        tensor, = on_one_table([random_values(stream(9, 2), cfg)])
        _, grads = sample_loss_and_gradients(model, tensor, 2)
        expected = np.full(5, 1.0 / 5.0)
        expected[2] -= 1.0
        assert np.allclose(grads["fc2_b"], expected, atol=1e-12)

    def test_gradient_mean_linearity(self):
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(10, 1))
        tensor, = on_one_table([random_values(stream(10, 2), cfg)])
        # a batch holding the same sample twice sums two equal gradients
        _, single = sample_loss_and_gradients(model, tensor, 1)
        _, double = textcnn.batch_loss_and_gradients(model, [tensor] * 2, [1, 1])
        for name in textcnn.PARAM_NAMES:
            assert np.allclose(single[name], double[name] / 2.0, atol=1e-14), name

    def test_label_out_of_range(self):
        cfg = toy_config(num_classes=3)
        model = textcnn.init_model(cfg, stream(11, 1))
        with pytest.raises(ShapeMismatch):
            sample_loss_and_gradients(model, *on_one_table([random_values(stream(11, 2), cfg)]), 3)
        tensors = on_one_table([random_values(stream(11, 3), cfg)]) * 2
        with pytest.raises(ShapeMismatch):
            textcnn.batch_loss_and_gradients(model, tensors, [0])


class TestTrain:
    def make_corpus(self, cfg, rng, per_class=1):
        labels = np.repeat(np.arange(cfg.num_classes), per_class).tolist()
        return list(zip(labels, on_one_table(random_values(rng, cfg) for _ in labels)))

    def test_overfits_ten_classes(self):
        cfg = toy_config(num_classes=10, embed_dim=8, kernel_count=12,
                         kernel_width=3, hidden_dim=24, max_len=10, dropout=0.0)
        model = textcnn.init_model(cfg, stream(12, 1))
        samples = self.make_corpus(cfg, stream(12, 2))
        solver = textcnn.SolverConfig(iterations=500, base_lr=0.05, batch_size=10)
        history = textcnn.train(model, samples, solver, stream(12, 3))
        assert len(history) == 500
        predicted = textcnn.predict(model, [t for _, t in samples])
        assert list(predicted) == [label for label, _ in samples]

    def test_loss_trend_on_separable_corpus(self):
        cfg = toy_config(num_classes=6, embed_dim=8, kernel_count=10,
                         kernel_width=3, hidden_dim=16, max_len=10, dropout=0.0)
        model = textcnn.init_model(cfg, stream(13, 1))
        samples = self.make_corpus(cfg, stream(13, 2))
        solver = textcnn.SolverConfig(iterations=300, base_lr=0.05, batch_size=6)
        history = np.array(textcnn.train(model, samples, solver, stream(13, 3)))
        window = 50
        smooth = np.convolve(history, np.ones(window) / window, mode="valid")
        # smoothed loss never climbs more than 10% above its running best
        # (floor noise measured against the starting loss), and it converges
        running_best = np.minimum.accumulate(smooth)
        assert np.all(smooth <= running_best * 1.10 + 0.02 * smooth[0])
        assert smooth[-1] < 0.1 * smooth[0]

    def test_zero_learning_rate_freezes_parameters(self):
        cfg = toy_config(dropout=0.0)
        model = textcnn.init_model(cfg, stream(14, 1))
        before = [arr.copy() for _, arr in model.params()]
        samples = self.make_corpus(cfg, stream(14, 2))
        solver = textcnn.SolverConfig(iterations=20, base_lr=0.0, batch_size=4)
        textcnn.train(model, samples, solver, stream(14, 3))
        for (_, after), orig in zip(model.params(), before):
            assert np.array_equal(after, orig)

    def test_empty_corpus(self):
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(15, 1))
        with pytest.raises(EmptyCorpus):
            textcnn.train(model, [], textcnn.SolverConfig(iterations=1), stream(15, 2))

    def test_lr_schedule_steps(self):
        solver = textcnn.SolverConfig(iterations=1, base_lr=0.01)
        assert textcnn.LR_DROP_EVERY == 50000
        assert solver.base_lr * textcnn.LR_DROP_FACTOR ** (49999 // textcnn.LR_DROP_EVERY) == 0.01
        assert solver.base_lr * textcnn.LR_DROP_FACTOR ** (50000 // textcnn.LR_DROP_EVERY) == 0.001

    def test_matches_oracle_sgd_loop(self):
        # The same rng draws (batch indices, then dropout masks) fed through
        # the per-sample oracle gradients and the same update rule.
        cfg = toy_config(num_classes=4, dropout=0.5, hidden_dim=16)
        samples = self.make_corpus(cfg, stream(25, 2), per_class=2)
        solver = textcnn.SolverConfig(iterations=30, base_lr=0.05, batch_size=6)
        model = textcnn.init_model(cfg, stream(25, 1))
        history = textcnn.train(model, samples, solver, stream(25, 3))

        oracle = textcnn.init_model(cfg, stream(25, 1))
        rng = stream(25, 3)
        velocity = {name: np.zeros_like(arr) for name, arr in oracle.params()}
        want_history = []
        for step in range(solver.iterations):
            lr = solver.base_lr * textcnn.LR_DROP_FACTOR ** (step // textcnn.LR_DROP_EVERY)
            batch = rng.integers(0, len(samples), size=solver.batch_size)
            masks = rng.random((solver.batch_size, cfg.hidden_dim)) >= cfg.dropout
            losses, total = oracle_batch(oracle, [samples[i][1] for i in batch],
                                         [samples[i][0] for i in batch], masks)
            want_history.append(sum(losses) / solver.batch_size)
            for name, param in oracle.params():
                grad = total[name] / solver.batch_size + textcnn.WEIGHT_DECAY * param
                velocity[name] = textcnn.MOMENTUM * velocity[name] - lr * grad
                param += velocity[name]

        assert relative_error(history, np.array(want_history)) <= 1e-10
        for (name, got), (_, want) in zip(model.params(), oracle.params()):
            assert relative_error(got, want) <= 1e-10, name

    def test_paper_size_iteration_memory(self):
        # The batch runs at once and gradients are summed by GEMMs; holding
        # 100 per-sample gradients would alone take about 500 MB here.
        cfg = paper_config()
        model = textcnn.init_model(cfg, stream(27, 1))
        gen = stream(27, 2)
        samples = list(enumerate(on_one_table(random_values(gen, cfg, used=40)
                                              for _ in range(cfg.num_classes))))
        solver = textcnn.SolverConfig(iterations=1, batch_size=100)
        tracemalloc.start()
        try:
            history = textcnn.train(model, samples, solver, stream(27, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(history[0])
        assert peak < 300 * 2**20

    def test_full_width_iteration_memory(self):
        # 70-column descriptions fill all 100 x 66 windows, whose im2col rows
        # would take 76 MiB alone. The peak, 22.0 MiB, is the 12.9 MiB C x B x P
        # responses, one block of channels of one offset's gathered part of them
        # (0.8 MiB; all of it would be another 12.9), the 5.0 MiB SGD velocities,
        # the batch's 1.6 MiB distinct columns and their 1.4 MiB C x U
        # projection; the ids' table is built before tracing starts.
        # A second step peaks no higher, because the last applied conv_w slice
        # (0.6 MiB) is freed before the next forward.
        def traced_run(iterations):
            cfg = paper_config()
            model = textcnn.init_model(cfg, stream(45, 1))
            gen = stream(45, 2)
            samples = list(enumerate(on_one_table(random_values(gen, cfg)
                                                  for _ in range(cfg.num_classes))))
            solver = textcnn.SolverConfig(iterations=iterations, batch_size=100)
            tracemalloc.start()
            try:
                history = textcnn.train(model, samples, solver, stream(45, 3))
                return history, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        history, one_step = traced_run(1)
        assert np.isfinite(history[0])
        assert one_step < 22.5 * 2**20
        history, two_steps = traced_run(2)
        assert np.isfinite(history).all()
        assert two_steps < one_step + 256 * 2**10

    def test_shared_vocabulary_iteration_memory(self):
        # 70-word descriptions over a 32-word table: the batch codes at most
        # 33 distinct columns. The peak, 19.2 MiB, is the responses and the
        # velocities as above, far below the 76 MiB that im2col rows alone took.
        cfg = paper_config()
        model = textcnn.init_model(cfg, stream(46, 1))
        gen = stream(46, 2)
        table = gen.standard_normal((cfg.embed_dim, 32))
        tensors = on_one_table(table[:, gen.integers(0, 32, cfg.max_len)] for _ in range(100))
        samples = [(label % cfg.num_classes, t) for label, t in enumerate(tensors)]
        solver = textcnn.SolverConfig(iterations=1, batch_size=100)
        tracemalloc.start()
        try:
            history = textcnn.train(model, samples, solver, stream(46, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(history[0])
        assert peak < 21 * 2**20

    def benchmark_shape(self, seed):
        """A paper-size model and 100 8-word descriptions over a 32-word
        table, the benchmark's textcnn shape."""
        cfg = paper_config()
        model = textcnn.init_model(cfg, stream(seed, 1))
        gen = stream(seed, 2)
        table = gen.standard_normal((cfg.embed_dim, 32))
        tensors = on_one_table(table[:, gen.integers(0, 32, 8)] for _ in range(100))
        return model, [(label % cfg.num_classes, t) for label, t in enumerate(tensors)]

    def test_benchmark_shape_iteration_memory(self):
        # The batch reads 9 windows, so its responses take 1.8 MiB; with the
        # 5.0 MiB velocities they set the peak, 7.6 MiB. They are freed once
        # pooled: kept through FC1 (0.8 MiB) the peak would be 8.2 MiB, and
        # with a dropped copy of FC1 beside them as well, 9.0 MiB.
        model, samples = self.benchmark_shape(53)
        solver = textcnn.SolverConfig(iterations=1, batch_size=100)
        tracemalloc.start()
        try:
            history = textcnn.train(model, samples, solver, stream(53, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(history[0])
        assert peak < 7.9 * 2**20

    def test_backward_frees_fc1_before_its_gradient(self):
        # From the losses to fc2_w's gradient the backward adds that gradient
        # (80 KiB) and FC1's ReLU mask (100 KiB); FC1 (0.8 MiB) is freed before
        # dFC1, its like, is formed, so the two are never held at once.
        model, samples = self.benchmark_shape(55)
        cfg = model.config
        table, sentences = textcnn._coded([t for _, t in samples], cfg)
        labels = np.array([label for label, _ in samples])
        masks = stream(55, 3).random((len(labels), cfg.hidden_dim)) >= cfg.dropout
        steps = textcnn._loss_and_gradients(model, table, sentences, False, labels, masks)
        fc1 = len(labels) * cfg.hidden_dim * 8
        tracemalloc.start()
        try:
            next(steps)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            name, _, _ = next(steps)
            rise = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert name == "fc2_w"
        assert rise < fc1 / 2

    def test_viper_size_corpus_ids_memory(self):
        # 1,264 descriptions of 70 words over a 2,000-word, 300-d table: their
        # records take about 0.67 MB as ids, where dense columns took 212 MB
        vocabulary = [f"w{i}" for i in range(2000)]
        gen = stream(50, 1)
        words = textprep.word_table(EmbeddingTable(dimension=300, vectors={
            token: gen.standard_normal(300) for token in vocabulary}))
        corpus = [[vocabulary[i] for i in gen.integers(0, 2000, 70)] for _ in range(1264)]
        tracemalloc.start()
        try:
            groups = textprep.build_training_tensors(corpus, words)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [len(tensor.ids) for (tensor,) in groups] == [70] * 1264
        assert size < 10**6

    def test_applied_gradients_are_freed(self):
        # Each gradient is applied as the backward produces it and dropped, so
        # a step never holds a full gradient set (5.0 MiB here), and no later
        # step holds the previous step's gradients beside its own; the slack
        # covers the previous losses, batch indices and the loss history.
        # Every description orders the same 8 words, so each batch codes the
        # same 9 distinct columns and its activations take the same memory.
        # One step peaks at 7.5 MiB, of which the velocities are 5.0 MiB.
        def traced_peak(iterations):
            cfg = paper_config()
            model = textcnn.init_model(cfg, stream(29, 1))
            gen = stream(29, 2)
            words = gen.standard_normal((cfg.embed_dim, 8))
            tensors = on_one_table(words[:, gen.permutation(8)] for _ in range(100))
            samples = [(label % cfg.num_classes, t) for label, t in enumerate(tensors)]
            solver = textcnn.SolverConfig(iterations=iterations, batch_size=100)
            tracemalloc.start()
            try:
                textcnn.train(model, samples, solver, stream(29, 3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_step = traced_peak(1)
        assert one_step < 9.5 * 2**20
        assert traced_peak(3) <= one_step + 64 * 2**10

    def test_update_makes_no_parameter_sized_temporary(self):
        # A one-description step holds little beside the velocities, so its
        # peak is set while one conv_w offset slice of gradient (0.59 MiB) is
        # applied. The update goes a block of rows at a time, so its weight
        # decay term never takes a slice's size; at once it would add one more.
        cfg = paper_config()
        model = textcnn.init_model(cfg, stream(52, 1))
        samples = [(3, *on_one_table([random_values(stream(52, 2), cfg, used=8)]))]
        solver = textcnn.SolverConfig(iterations=1, batch_size=1)
        velocities = sum(param.nbytes for _, param in model.params())
        tracemalloc.start()
        try:
            textcnn.train(model, samples, solver, stream(52, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < velocities + model.conv_w[..., 0].nbytes + 256 * 2**10

    def test_divergence_leaves_parameters_as_they_were(self):
        # The batch loss is checked before any update is applied: a first step
        # whose loss overflows raises NoConvergence with every parameter bit for
        # bit as it was. fc2_b pushes class 1's logit 2e308 below class 0's.
        cfg = toy_config(dropout=0.5, hidden_dim=16)
        model = textcnn.init_model(cfg, stream(49, 1))
        model.fc2_b[:2] = [1e308, -1e308]
        before = [arr.tobytes() for _, arr in model.params()]
        samples = [(1, *on_one_table([random_values(stream(49, 2), cfg)]))]
        solver = textcnn.SolverConfig(iterations=3, batch_size=2)
        with np.errstate(over="ignore"), pytest.raises(NoConvergence, match="iteration 0"):
            textcnn.train(model, samples, solver, stream(49, 3))
        assert [arr.tobytes() for _, arr in model.params()] == before

    def test_mixed_shapes_rejected(self):
        # Stored widths up to max_len mix freely, down to an empty tensor; a
        # wider tensor on the same table or a table of another embedding size
        # does not fit the model.
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(28, 1))
        gen = stream(28, 2)
        blocks = [random_values(gen, cfg), gen.standard_normal((cfg.embed_dim, 4)),
                  np.zeros((cfg.embed_dim, 0)), np.ones((cfg.embed_dim, cfg.max_len + 1))]
        *tensors, wide = on_one_table(blocks)
        samples = list(enumerate(tensors))
        solver = textcnn.SolverConfig(iterations=3, batch_size=3)
        assert len(textcnn.train(model, samples, solver, stream(28, 3))) == 3
        thin = on_one_table([np.ones((cfg.embed_dim - 1, 3))])
        for bad in (samples + [(3, wide)], [(3, *thin)]):
            with pytest.raises(ShapeMismatch):
                textcnn.train(model, bad, solver, stream(28, 3))

    def test_tensors_on_two_tables_rejected(self):
        # Ids mean rows of their own WordTable: tensors from two tables, even of
        # equal shapes, are refused rather than read against one of them.
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(52, 1))
        gen = stream(52, 2)
        first = on_one_table([random_values(gen, cfg) for _ in range(2)])
        second = on_one_table([random_values(gen, cfg) for _ in range(2)])
        mixed = [first[0], second[1]]
        solver = textcnn.SolverConfig(iterations=1, batch_size=2)
        with pytest.raises(ShapeMismatch):
            textcnn.train(model, list(enumerate(mixed)), solver, stream(52, 3))
        with pytest.raises(ShapeMismatch):
            textcnn.predict(model, mixed)
        with pytest.raises(ShapeMismatch):
            textcnn.forward(model, mixed)
        for tensors in (first, second):
            assert textcnn.forward(model, tensors).logits.shape == (2, cfg.num_classes)


class TestBatchedOracle:
    """The batched core against the summed per-sample oracle, to 1e-12."""

    @pytest.mark.parametrize("block", BLOCKS)
    def test_dropout_masks(self, monkeypatch, block):
        monkeypatch.setattr(textcnn, "BLOCK_ROWS", block)
        cfg = toy_config(dropout=0.5, hidden_dim=16, kernel_count=9)
        model = textcnn.init_model(cfg, stream(30, 1))
        gen = stream(30, 2)
        tensors = on_one_table(random_values(gen, cfg) for _ in range(8))
        labels = gen.integers(0, cfg.num_classes, size=8)
        masks = gen.random((8, cfg.hidden_dim)) >= cfg.dropout
        assert_batch_matches_oracle(model, tensors, labels, masks)

    def test_relu_clipped_channels(self):
        cfg = toy_config(kernel_count=8)
        model = textcnn.init_model(cfg, stream(31, 1))
        model.conv_b[::2] = -100.0  # every window of these channels is clipped
        gen = stream(31, 2)
        tensors = on_one_table(random_values(gen, cfg) for _ in range(8))
        pooled = textcnn.forward(model, tensors[:1]).pooled[0]
        assert np.all(pooled[::2] == 0.0) and np.all(pooled[1::2] > 0.0)
        assert_batch_matches_oracle(model, tensors, gen.integers(0, cfg.num_classes, size=8))

    def test_argmax_ties_on_constant_windows(self):
        # Small integers and halves keep every sum exact, so equal windows
        # tie exactly and both paths must pick the lowest position.
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(32, 1))
        gen = stream(32, 2)
        model.conv_w[...] = gen.integers(-2, 3, size=model.conv_w.shape) / 2.0
        model.conv_b[...] = 0.5
        columns = [gen.integers(-3, 4, size=(cfg.embed_dim, 1)).astype(float) for _ in range(8)]
        tensors = on_one_table(np.repeat(column, cfg.max_len, axis=1) for column in columns)
        trace = textcnn.forward(model, tensors[:1])
        assert np.all(trace.argmax == 0) and np.any(trace.pooled > 0.0)
        response = oracle_responses(model, trace)
        assert np.all(response == response[:, :, :1])
        assert np.array_equal(trace.pooled, response[:, :, 0])
        assert_batch_matches_oracle(model, tensors, gen.integers(0, cfg.num_classes, size=8))

    def test_zero_padded_columns(self):
        # A positive bias lets an all-padding window win the pool.
        cfg = toy_config(max_len=12)
        model = textcnn.init_model(cfg, stream(33, 1))
        model.conv_b[...] = 0.8
        gen = stream(33, 2)
        tensors = on_one_table(random_values(gen, cfg, used=int(gen.integers(3, 7)))
                               for _ in range(8))
        used = [int(np.count_nonzero(t.ids)) for t in tensors]
        peaks = [textcnn.forward(model, [t]).argmax[0] for t in tensors]
        assert any(np.any(p >= u) for p, u in zip(peaks, used))
        labels = gen.integers(0, cfg.num_classes, size=8)
        assert_batch_matches_oracle(model, tensors, labels)
        # the same descriptions stored through their words only
        ragged = [DescriptionTensor(t.ids[:u], t.words) for t, u in zip(tensors, used)]
        assert_batch_matches_oracle(model, ragged, labels)

    def test_paper_layer_sizes(self):
        cfg = paper_config()
        model = textcnn.init_model(cfg, stream(34, 1))
        gen = stream(34, 2)
        tensors = on_one_table(random_values(gen, cfg, used=int(gen.integers(5, 71)))
                               for _ in range(8))
        labels = gen.integers(0, cfg.num_classes, size=8)
        masks = gen.random((8, cfg.hidden_dim)) >= cfg.dropout
        assert_batch_matches_oracle(model, tensors, labels, masks)

    def test_live_windows_at_paper_sizes(self):
        # Used widths at every edge of the live-window count, and biases of
        # each sign, so padding windows win some pools and lose others.
        cfg = paper_config()
        model = textcnn.init_model(cfg, stream(38, 1))
        model.conv_b[...] = np.resize([0.5, 0.0, -0.5], cfg.kernel_count)
        gen = stream(38, 2)
        width, full = cfg.kernel_width, cfg.max_len - cfg.kernel_width + 1
        edges = [0, 1, width - 1, width, 8, full - 1, full, cfg.max_len]
        used = edges + [int(u) for u in gen.integers(0, cfg.max_len + 1, size=32 - len(edges))]
        tensors = on_one_table(random_values(gen, cfg, used=u) for u in used)
        labels = gen.integers(0, cfg.num_classes, size=len(tensors))
        masks = gen.random((len(tensors), cfg.hidden_dim)) >= cfg.dropout
        assert_batch_matches_oracle(model, tensors, labels, masks)

        values = np.stack([t.columns() for t in tensors])
        trace = textcnn.forward(model, tensors)
        # every word column is distinct and padding alone reads code 0
        assert len(trace.distinct) == 1 + sum(used) and positions(model, trace) == full
        assert np.array_equal(trace.ids > 0, np.arange(cfg.max_len) < np.array(used)[:, None])
        assert np.array_equal(trace.distinct[trace.ids].transpose(0, 2, 1), values)
        windows = sliding_window_view(values, cfg.kernel_width, axis=2)  # B x E x P x w
        response = np.tensordot(windows, model.conv_w, axes=[(1, 3), (1, 2)]) + model.conv_b
        assert np.array_equal(trace.argmax, np.maximum(response, 0.0).argmax(axis=1))
        assert np.any(trace.argmax[1] >= 1)  # a padding window beats the one-word window

    def test_duplicate_heavy_batch_at_paper_sizes(self):
        # Zipf text over a 2,000-word vocabulary, the batch drawn with
        # replacement: far fewer distinct columns than occupied ones.
        cfg = paper_config()
        model = textcnn.init_model(cfg, stream(47, 1))
        model.conv_b[...] = np.resize([0.5, 0.0, -0.5], cfg.kernel_count)
        gen = stream(47, 2)
        table = gen.standard_normal((cfg.embed_dim, 2000))
        zipf = 1.0 / np.arange(1, 2001)
        blocks = []
        for used in gen.integers(5, cfg.max_len + 1, size=16):
            values = np.zeros((cfg.embed_dim, cfg.max_len))
            values[:, :used] = table[:, gen.choice(2000, size=used, p=zipf / zipf.sum())]
            blocks.append(values)
        corpus = on_one_table(blocks)
        tensors = [corpus[i] for i in gen.integers(0, len(corpus), size=40)]
        labels = gen.integers(0, cfg.num_classes, size=len(tensors))
        masks = gen.random((len(tensors), cfg.hidden_dim)) >= cfg.dropout
        assert_batch_matches_oracle(model, tensors, labels, masks)

        # the cut windows that train runs against full width
        padded = textcnn.batch_loss_and_gradients(model, tensors, labels, masks)
        table, sentences = textcnn._coded(tensors, cfg)
        trace = textcnn._forward(model, table, sentences)
        assert 2 * len(trace.distinct) < sum(len(s) for s in sentences)
        cut = textcnn._loss_and_gradients(model, table, sentences, False, labels, masks)
        assert np.array_equal(next(cut), padded[0])
        for name, index, grad in cut:
            assert np.array_equal(grad, padded[1][name][index]), name

    def test_zero_and_negative_zero_columns_read_as_padding(self):
        # Columns 3..5 are 0.0, -0.0 and 0.0 inside the description: all code
        # 0, so window 3, which reads only them, responds relu(conv_b) like a
        # window past the last word, and the -0.0 changes no output bit.
        cfg = toy_config(max_len=12, kernel_count=6)
        model = textcnn.init_model(cfg, stream(48, 1))
        model.conv_b[...] = np.resize([0.8, 0.0, -0.5], cfg.kernel_count)
        values = stream(48, 2).standard_normal((cfg.embed_dim, 9))
        values[:, 3:6] = 0.0
        negative = values.copy()
        negative[:, 4] = -0.0
        assert np.signbit(negative[:, 4]).all()
        plain, trace = (textcnn.forward(model, on_one_table([v])) for v in (values, negative))
        assert list(trace.ids[0]) == [1, 2, 3, 0, 0, 0, 4, 5, 6, 0, 0, 0]
        padding = np.maximum(model.conv_b, 0.0)
        response = oracle_responses(model, trace)
        assert np.array_equal(response[0, :, 3], padding)
        assert np.array_equal(response[0, :, 9], padding)
        for name in ("ids", "distinct", "argmax", "pooled", "fc1", "logits"):
            assert getattr(trace, name).tobytes() == getattr(plain, name).tobytes(), name

    def test_noisy_padding_makes_every_window_live(self):
        cfg = toy_config(max_len=12)
        model = textcnn.init_model(cfg, stream(39, 1))
        model.conv_b[...] = 0.8
        gen = stream(39, 2)
        blocks = [random_values(gen, cfg, used=4) for _ in range(8)]
        for values in blocks:
            values[:, 4:] = 1e-3 * gen.standard_normal((cfg.embed_dim, cfg.max_len - 4))
        tensors = on_one_table(blocks)
        trace = textcnn.forward(model, tensors)
        assert np.all(trace.ids > 0) and len(trace.distinct) == 1 + 8 * cfg.max_len
        assert_batch_matches_oracle(model, tensors, gen.integers(0, cfg.num_classes, size=8))

    def test_mixed_lengths_match_one_by_one(self):
        cfg = paper_config()
        model = textcnn.init_model(cfg, stream(40, 1))
        model.conv_b[...] = np.resize([0.5, 0.0, -0.5], cfg.kernel_count)
        gen = stream(40, 2)
        tensors = on_one_table(random_values(gen, cfg, used=u)
                               for u in (0, 1, 4, 5, 8, 23, 65, 66, 70))
        feats = textcnn.extract_features(model, tensors)
        for row, tensor in zip(feats, tensors):
            assert relative_error(row, textcnn.extract_features(model, [tensor])[0]) <= 1e-13


class TestWordIds:
    """Descriptions stored as ids into one run's table, at paper layer sizes,
    against the full-width batch core and the per-sample oracle."""

    def test_step_and_predict_match_full_width_and_oracle(self):
        # Zipf text over a 2,000-word vocabulary repeats words; each Gaussian
        # variant's columns are new table rows that never repeat.
        cfg = paper_config()
        gen = stream(51, 1)
        vocabulary = [f"w{i}" for i in range(2000)]
        words = textprep.word_table(EmbeddingTable(dimension=cfg.embed_dim, vectors={
            token: gen.standard_normal(cfg.embed_dim) for token in vocabulary}))
        zipf = 1.0 / np.arange(1, 2001)
        corpus = [[vocabulary[i] for i in gen.choice(2000, 70, p=zipf / zipf.sum())]
                  for _ in range(6)]
        groups = textprep.build_training_tensors(corpus, words, method="gaussian", factor=2,
                                                 rng=stream(51, 2), sigma=0.3)
        tensors = [tensor for group in groups for tensor in group]
        clean = np.concatenate([t.ids for t in tensors[::2]])
        noisy = np.concatenate([t.ids for t in tensors[1::2]])
        assert len(np.unique(clean)) < len(clean) and clean.max() <= 2000
        assert len(np.unique(noisy)) == len(noisy) == 6 * 70 and noisy.min() == 2001
        labels = np.arange(len(tensors)) % cfg.num_classes

        def fresh():
            model = textcnn.init_model(cfg, stream(51, 3))
            model.conv_b[...] = np.resize([0.5, 0.0, -0.5], cfg.kernel_count)
            return model

        model = fresh()
        solver = textcnn.SolverConfig(iterations=1, batch_size=12)
        history = textcnn.train(model, list(zip(labels, tensors)), solver, stream(51, 4))

        reference, rng = fresh(), stream(51, 4)
        batch = rng.integers(0, len(tensors), size=solver.batch_size)
        masks = rng.random((solver.batch_size, cfg.hidden_dim)) >= cfg.dropout
        assert set(batch % 2) == {0, 1}  # clean and noisy descriptions share the batch
        chosen = [tensors[i] for i in batch]
        assert_batch_matches_oracle(reference, chosen, labels[batch], masks)
        losses, grads = textcnn.batch_loss_and_gradients(reference, chosen, labels[batch], masks)
        assert history == [float(losses.sum()) / solver.batch_size]
        for (name, got), (_, param) in zip(model.params(), reference.params()):
            grad = grads[name] * (1.0 / solver.batch_size) + textcnn.WEIGHT_DECAY * param
            vel = np.zeros_like(param)
            vel *= textcnn.MOMENTUM
            vel -= solver.base_lr * grad
            param += vel
            assert np.array_equal(got, param), name

        trace = textcnn.forward(model, tensors)
        assert np.array_equal(textcnn.extract_features(model, tensors), trace.fc1)
        assert np.array_equal(textcnn.predict(model, tensors), trace.logits.argmax(axis=1))


class TestCutStacks:
    """train and inference run only the windows forward reads, from each
    description's stored ids, in blocks of BLOCK_ROWS rows; every output must
    stay byte-identical to the full-width forward and batch_loss_and_gradients
    run in one block."""

    def corpus(self, cfg, gen):
        """Descriptions on one table: empty, full, with zero ids inside, two
        Gaussian variants stored through their words, and four short ones."""
        holed = random_values(gen, cfg, used=2)
        holed[:, 7] = gen.standard_normal(cfg.embed_dim)  # ids 0 at 2..6, then a word
        clean = [random_values(gen, cfg, used=u)[:, :u] for u in (3, 5)]
        short = [random_values(gen, cfg, used=u) for u in (1, 2, 4, 6)]
        full = random_values(gen, cfg)
        empty = np.zeros((cfg.embed_dim, cfg.max_len))
        tensors = on_one_table([empty, full, holed, *clean, *short])
        noisy = [textprep.augment_gaussian(tensor, 0.3, gen) for tensor in tensors[3:5]]
        return [*tensors[:3], *noisy, *tensors[5:]]

    def occupied(self, tensors):
        return np.array([np.flatnonzero(t.ids).max(initial=-1) + 1 for t in tensors])

    def model(self, cfg, seed):
        model = textcnn.init_model(cfg, stream(seed, 1))
        model.conv_b[...] = np.resize([0.8, 0.0, -0.5], cfg.kernel_count)  # padding wins some pools
        return model

    @pytest.mark.parametrize("block", BLOCKS)
    def test_train_equals_full_width_loop(self, monkeypatch, block):
        monkeypatch.setattr(textcnn, "BLOCK_ROWS", block)
        cfg = toy_config(max_len=12, dropout=0.5, hidden_dim=16, kernel_count=9)
        tensors = self.corpus(cfg, stream(41, 2))
        labels = np.arange(len(tensors)) % cfg.num_classes
        solver = textcnn.SolverConfig(iterations=30, base_lr=0.05, batch_size=3)
        read = []
        row_forward = textcnn._forward

        def recording_forward(model, *args, **kwargs):
            trace = row_forward(model, *args, **kwargs)
            read.append(positions(model, trace))
            return trace

        monkeypatch.setattr(textcnn, "_forward", recording_forward)
        model = self.model(cfg, 41)
        history = textcnn.train(model, list(zip(labels, tensors)), solver, stream(41, 3))
        full = cfg.max_len - cfg.kernel_width + 1
        assert full in read and min(read) < full  # both paths ran

        # The reference takes FC1's gradient in the same row blocks: a GEMM over
        # a block of rows may round apart from those rows of one whole GEMM (a
        # one-row block goes through GEMV).
        reference = self.model(cfg, 41)
        rng = stream(41, 3)
        velocity = {name: np.zeros_like(arr) for name, arr in reference.params()}
        want = []
        for step in range(solver.iterations):
            batch = rng.integers(0, len(tensors), size=solver.batch_size)
            masks = rng.random((solver.batch_size, cfg.hidden_dim)) >= cfg.dropout
            losses, grads = textcnn.batch_loss_and_gradients(
                reference, [tensors[i] for i in batch], labels[batch], masks)
            want.append(float(losses.sum()) / solver.batch_size)
            for name, param in reference.params():
                grad = grads[name] * (1.0 / solver.batch_size) + textcnn.WEIGHT_DECAY * param
                vel = velocity[name]
                vel *= textcnn.MOMENTUM
                vel -= solver.base_lr * grad
                param += vel
        assert history == want
        for (name, got), (_, expected) in zip(model.params(), reference.params()):
            assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("chunk", [1, 3, textcnn.INFER_CHUNK])
    def test_inference_equals_full_width_forward(self, monkeypatch, chunk, block):
        monkeypatch.setattr(textcnn, "INFER_CHUNK", chunk)
        monkeypatch.setattr(textcnn, "BLOCK_ROWS", UNBLOCKED)
        cfg = toy_config(max_len=12, kernel_count=8)
        model = self.model(cfg, 42)
        tensors = self.corpus(cfg, stream(42, 2))
        traces = [textcnn.forward(model, tensors[start:start + chunk])
                  for start in range(0, len(tensors), chunk)]
        monkeypatch.setattr(textcnn, "BLOCK_ROWS", block)
        fc1 = np.concatenate([trace.fc1 for trace in traces])
        argmax = np.concatenate([trace.argmax for trace in traces])
        assert np.array_equal(textcnn.extract_features(model, tensors), fc1)
        assert np.array_equal(textcnn.predict(model, tensors),
                              np.concatenate([trace.logits.argmax(axis=1) for trace in traces]))
        assert np.any(argmax >= self.occupied(tensors)[:, None])

        truth = np.arange(len(tensors)) % cfg.max_len + 1
        errors = np.abs(argmax + 1 + cfg.kernel_width // 2 - truth[:, None])
        channel, got = textcnn.find_detector_channel(model, tensors, truth)
        assert channel == int(np.argmin(errors.sum(axis=0)))
        assert np.array_equal(got, errors[:, channel])

    def ragged(self, tensors):
        """The same descriptions, each stored through its last nonzero id,
        one to three zero ids past it, or at its stored width."""
        widths = np.minimum(self.occupied(tensors) + np.arange(len(tensors)) % 4,
                            [len(t.ids) for t in tensors])
        return [DescriptionTensor(t.ids[:width], t.words) for t, width in zip(tensors, widths)]

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("chunk", [1, 3, textcnn.INFER_CHUNK])
    def test_ragged_storage_equals_padded(self, monkeypatch, chunk, block):
        monkeypatch.setattr(textcnn, "INFER_CHUNK", chunk)
        monkeypatch.setattr(textcnn, "BLOCK_ROWS", block)
        cfg = toy_config(max_len=12, dropout=0.5, hidden_dim=16, kernel_count=8)
        padded = self.corpus(cfg, stream(44, 2))
        ragged = self.ragged(padded)
        widths = [len(t.ids) for t in ragged]
        assert min(widths) == 0 and cfg.max_len in widths and len(set(widths)) > 3
        labels = np.arange(len(padded)) % cfg.num_classes
        solver = textcnn.SolverConfig(iterations=30, base_lr=0.05, batch_size=3)
        models, histories = [], []
        for tensors in (padded, ragged):
            models.append(self.model(cfg, 44))
            histories.append(textcnn.train(models[-1], list(zip(labels, tensors)), solver,
                                           stream(44, 3)))
        assert histories[0] == histories[1]
        for (name, got), (_, want) in zip(models[1].params(), models[0].params()):
            assert np.array_equal(got, want), name

        model = models[1]
        assert np.array_equal(textcnn.extract_features(model, ragged),
                              textcnn.extract_features(model, padded))
        assert np.array_equal(textcnn.predict(model, ragged), textcnn.predict(model, padded))
        truth = np.arange(len(padded)) % cfg.max_len + 1
        channel, errors = textcnn.find_detector_channel(model, ragged, truth)
        want_channel, want_errors = textcnn.find_detector_channel(model, padded, truth)
        assert channel == want_channel and np.array_equal(errors, want_errors)

    def traced_peak(self, max_len):
        cfg = textcnn.TextCnnConfig(num_classes=10, max_len=max_len)
        model = textcnn.init_model(cfg, stream(43, 1))
        gen = stream(43, 2)
        tensors = on_one_table(random_values(gen, cfg, used=8) for _ in range(100))
        samples = [(label % cfg.num_classes, t) for label, t in enumerate(tensors)]
        solver = textcnn.SolverConfig(iterations=1, batch_size=100)
        tracemalloc.start()
        try:
            textcnn.train(model, samples, solver, stream(43, 3))
            textcnn.predict(model, tensors)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_ignores_padding(self):
        # 8-word descriptions: doubling max_len adds only trailing zero ids,
        # which no batch or inference chunk reads.
        assert abs(self.traced_peak(140) - self.traced_peak(70)) < 2 * 2**20


class TestFeatures:
    def test_default_feature_dimension(self):
        cfg = textcnn.TextCnnConfig(num_classes=4, embed_dim=20, kernel_count=8,
                                    kernel_width=3, max_len=12)
        model = textcnn.init_model(cfg, stream(16, 1))
        feats = textcnn.extract_features(model, on_one_table([np.zeros((20, 12))]))
        assert feats.shape == (1, 1024)

    def test_zero_tensor_zero_bias_gives_zero_feature(self):
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(17, 1))
        model.conv_b[...] = 0.0
        model.fc1_b[...] = 0.0
        tensor = on_one_table([np.zeros((cfg.embed_dim, cfg.max_len))])
        feats = textcnn.extract_features(model, tensor)
        assert np.array_equal(feats, np.zeros((1, cfg.hidden_dim)))

    def test_repeatable(self):
        cfg = toy_config(dropout=0.5)
        model = textcnn.init_model(cfg, stream(18, 1))
        tensor = on_one_table([random_values(stream(18, 2), cfg)])
        assert np.array_equal(
            textcnn.extract_features(model, tensor), textcnn.extract_features(model, tensor)
        )


class TestManyTensors:
    def tensors(self, cfg, gen, widths=(9,) * 10):
        blocks = []
        for width in widths:
            values = np.zeros((cfg.embed_dim, width))
            values[:, :5] = gen.standard_normal((cfg.embed_dim, 5))
            blocks.append(values)
        return on_one_table(blocks)

    @pytest.mark.parametrize("chunk", [1, 3, textcnn.INFER_CHUNK])
    def test_sequence_equals_one_by_one(self, monkeypatch, chunk):
        monkeypatch.setattr(textcnn, "INFER_CHUNK", chunk)
        cfg = toy_config(dropout=0.5)
        model = textcnn.init_model(cfg, stream(36, 1))
        tensors = self.tensors(cfg, stream(36, 2))
        feats = textcnn.extract_features(model, tensors)
        assert feats.shape == (len(tensors), cfg.hidden_dim)
        for row, tensor in zip(feats, tensors):
            assert np.allclose(row, textcnn.forward(model, [tensor]).fc1[0],
                               rtol=1e-13, atol=1e-15)
        labels = textcnn.predict(model, tensors)
        assert list(labels) == [textcnn.predict(model, [t])[0] for t in tensors]

    def test_mixed_widths_rejected(self):
        # one sequence may mix stored widths up to max_len (9), not beyond it
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(36, 1))
        mixed = self.tensors(cfg, stream(36, 2), widths=(9, 9, 9, 7, 7, 9, 9, 9, 9, 5))
        assert np.array_equal(textcnn.extract_features(model, mixed),
                              textcnn.extract_features(model, self.tensors(cfg, stream(36, 2))))
        tensors = self.tensors(cfg, stream(36, 2), widths=(9, 9, 9, 7, 7, 9, 9, 9, 9, 10))
        with pytest.raises(ShapeMismatch):
            textcnn.extract_features(model, tensors)
        with pytest.raises(ShapeMismatch):
            textcnn.predict(model, tensors)
        with pytest.raises(ShapeMismatch):
            textcnn.find_detector_channel(model, tensors, [3] * len(tensors))

    def test_empty_sequence(self):
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(37, 1))
        with pytest.raises(EmptySubset):
            textcnn.predict(model, [])


class TestDetector:
    def planted_model(self, cfg, embedding, channel):
        model = textcnn.init_model(cfg, stream(19, 1))
        for _, arr in model.params():
            arr[...] = 0.0
        center = cfg.kernel_width // 2
        model.conv_w[channel, :, center] = embedding
        return model

    def test_planted_detector_wins_with_zero_error(self):
        cfg = toy_config(kernel_count=12, embed_dim=5, kernel_width=5, max_len=16)
        rng = stream(20, 1)
        target = rng.standard_normal(5)
        model = self.planted_model(cfg, target, channel=7)
        blocks, truth = [], []
        for pos in (4, 7, 11):  # 1-based positions, legal for w=5
            values = rng.standard_normal((5, 16)) * 0.01
            values[:, pos - 1] = target
            blocks.append(values)
            truth.append(pos)
        channel, errors = textcnn.find_detector_channel(model, on_one_table(blocks), truth)
        assert channel == 7
        assert errors.sum() == 0

    def test_offset_is_half_width(self):
        # raw peak at 1-based position 3 with w=5 reports word position 5
        cfg = toy_config(kernel_count=1, embed_dim=2, kernel_width=5, max_len=10)
        model = self.planted_model(cfg, np.array([1.0, 1.0]), channel=0)
        values = np.zeros((2, 10))
        values[:, 4] = 1.0  # peak response at conv position 3 (1-based)
        tensor = on_one_table([values])
        trace = textcnn.forward(model, tensor)
        assert trace.argmax[0, 0] + 1 == 3
        channel, errors = textcnn.find_detector_channel(model, tensor, [5])
        assert errors[0] == 0

    def test_tie_goes_to_lowest_channel(self):
        cfg = toy_config(kernel_count=4, embed_dim=3, kernel_width=3, max_len=8)
        model = textcnn.init_model(cfg, stream(21, 1))
        for _, arr in model.params():
            arr[...] = 0.0  # all channels behave identically
        channel, _ = textcnn.find_detector_channel(model, on_one_table([np.zeros((3, 8))]), [3])
        assert channel == 0

    def test_empty_subset(self):
        cfg = toy_config()
        model = textcnn.init_model(cfg, stream(22, 1))
        with pytest.raises(EmptySubset):
            textcnn.find_detector_channel(model, [], [])


class TestCheckpoint:
    def test_roundtrip_bytes(self, tmp_path):
        cfg = toy_config(dropout=0.5)
        model = textcnn.init_model(cfg, stream(23, 1))
        first = tmp_path / "model.cnn"
        second = tmp_path / "model2.cnn"
        textcnn.save_model(model, first)
        loaded = textcnn.load_model(first)
        textcnn.save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        for (_, a), (_, b) in zip(model.params(), loaded.params()):
            assert np.array_equal(a, b)
