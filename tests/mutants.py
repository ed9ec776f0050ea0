"""Mutation gate: each listed mutant of src/ must make its named tests fail.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

A mutant names a file under the repository root, an exact snippet that must
occur there once, its replacement, and the test ids that must catch it. For
each mutant the runner copies src/, tests/ and pyproject.toml into a fresh
temporary directory (pyproject's `pythonpath` would otherwise import the
unmutated src/), checks that the named tests pass on the copy, applies the
mutant and runs the same tests with -x. The gate fails if a snippet no longer
matches exactly once, if the tests fail before the mutation, or if they pass
after it (the mutant survived). A refactor that rewrites a mutated line has
to update its mutant here. pytest collects only test_*.py, so tier-1 does not
run this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple


MUTANTS = [
    Mutant("xqda-per-matrix-ridge", "src/xmreid/xqda.py",
           "extra_r, intra_r = linalg.ridged(ridge, extra, intra)",
           "(extra_r,), (intra_r,) = linalg.ridged(ridge, extra), linalg.ridged(ridge, intra)",
           ("tests/test_xqda.py::TestFit::test_identical_views_fit_through_the_shared_ridge",)),
    Mutant("symmetry-norm-unscaled", "src/xmreid/linalg.py",
           "exponent = -np.frexp(max(a.max(), -a.min()))[1]",
           "exponent = 0",
           ("tests/test_linalg.py::TestSymmetrized::test_scale_does_not_decide",)),
    Mutant("symmetric-input-averaged", "src/xmreid/linalg.py",
           "    if not (a.view(np.int64) != a.view(np.int64).T).any():\n        return a\n",
           "",
           ("tests/test_linalg.py::TestGenEigh::test_traced_peak_at_512",)),
    Mutant("ridge-overflow-unchecked", "src/xmreid/linalg.py",
           "if not np.isfinite(scale) and np.isfinite(trace):",
           "if False:",
           ("tests/test_linalg.py::TestRidged::test_overflowing_scale_rejected",)),
    Mutant("cca-uncentred-cross-covariance", "src/xmreid/cca.py",
           "(xc.T @ yc / n)",
           "(x.T @ y / n)",
           ("tests/test_cca.py::TestFitCca::test_translation_invariance",)),
    Mutant("score-matrix-no-exact-zero", "src/xmreid/xqda.py",
           "block[same, order[at[same]]] = 0.0",
           "pass",
           ("tests/test_xqda.py::TestScoreMatrix::test_equal_rows_score_equal_and_zero",)),
    Mutant("scorer-zero-wrong-column", "src/xmreid/xqda.py",
           "block[same, order[at[same]]] = 0.0",
           "block[same, at[same]] = 0.0",
           ("tests/test_xqda.py::TestScoreMatrix"
            "::test_gallery_scorer_matches_pair_oracle_in_blocks",)),
    Mutant("gallery-sort-unstable", "src/xmreid/evaluation.py",
           'gallery_rows = gallery_rows[np.argsort(codes[gallery_rows], kind="stable")]',
           "gallery_rows = gallery_rows[np.argsort(codes[gallery_rows])]",
           ("tests/test_evaluation.py::TestIdentityCoding"
            "::test_gallery_order_and_cmc_match_label_grouping[single]",)),
    Mutant("cnn-padding-not-zero-code", "src/xmreid/textcnn.py",
           "ids = np.zeros((len(occupied), positions + width - 1), dtype=np.int64)",
           "ids = np.ones((len(occupied), positions + width - 1), dtype=np.int64)",
           ("tests/test_textcnn.py::TestForward::test_valid_conv_positions",
            "tests/test_textcnn.py::TestBatchedOracle::test_zero_padded_columns")),
    Mutant("cnn-gather-offset-shifted", "src/xmreid/textcnn.py",
           "proj, window = projected(k), ids[:, k:k + positions]",
           "proj, window = projected(k), ids[:, k - 1:k - 1 + positions]",
           ("tests/test_textcnn.py::TestBatchedOracle::test_dropout_masks",
            "tests/test_textcnn.py::TestBatchedOracle::test_duplicate_heavy_batch_at_paper_sizes")),
    Mutant("cnn-bincount-ignores-offset", "src/xmreid/textcnn.py",
           "code = trace.ids[rows[:, None], trace.argmax + k]",
           "code = trace.ids[rows[:, None], trace.argmax]",
           ("tests/test_textcnn.py::TestBatchedOracle::test_dropout_masks",
            "tests/test_textcnn.py::TestBatchedOracle::test_duplicate_heavy_batch_at_paper_sizes")),
    Mutant("cnn-applied-gradients-kept", "src/xmreid/textcnn.py",
           "for name, index, grad in steps:\n            param, vel",
           "for name, index, grad in list(steps):\n            param, vel",
           ("tests/test_textcnn.py::TestTrain::test_applied_gradients_are_freed",)),
    Mutant("cnn-last-slice-kept", "src/xmreid/textcnn.py",
           "            del grad, g  # freed before the next part or the next forward\n",
           "",
           ("tests/test_textcnn.py::TestTrain::test_full_width_iteration_memory",)),
    Mutant("cnn-decay-temporary", "src/xmreid/textcnn.py",
           "            for lo in range(0, len(grad), BLOCK_ROWS):\n"
           "                g, p, v = (a[lo:lo + BLOCK_ROWS] for a in (grad, param, vel))\n",
           "            for g, p, v in [(grad, param, vel)]:\n",
           ("tests/test_textcnn.py::TestTrain::test_update_makes_no_parameter_sized_temporary",)),
    Mutant("cnn-response-gathered-whole", "src/xmreid/textcnn.py",
           "        for lo in range(0, len(conv), BLOCK_ROWS):\n"
           "            conv[lo:lo + BLOCK_ROWS] += "
           "np.take(proj[lo:lo + BLOCK_ROWS], window, axis=1)\n",
           "        conv += np.take(proj, window, axis=1)\n",
           ("tests/test_textcnn.py::TestTrain::test_full_width_iteration_memory",)),
    Mutant("cnn-projection-kept", "src/xmreid/textcnn.py",
           "        del proj  # else it would meet the next offset's projection\n",
           "",
           ("tests/test_textcnn.py::TestTrain::test_full_width_iteration_memory",)),
    Mutant("cnn-fc2-updated-before-backward-reads-it", "src/xmreid/textcnn.py",
           "    dfc1_pre = _dropout(dlogits @ model.fc2_w, masks, cfg.dropout)\n"
           "    dfc1_pre *= live\n"
           "    del live\n"
           "    yield \"fc2_w\", ..., dfc2_w\n",
           "    yield \"fc2_w\", ..., dfc2_w\n"
           "    dfc1_pre = _dropout(dlogits @ model.fc2_w, masks, cfg.dropout)\n"
           "    dfc1_pre *= live\n"
           "    del live\n",
           ("tests/test_textcnn.py::TestCutStacks::test_train_equals_full_width_loop",)),
    Mutant("cnn-responses-kept-through-fc1", "src/xmreid/textcnn.py",
           "    del conv  # the backward reads the peaks through argmax and pooled\n",
           "",
           ("tests/test_textcnn.py::TestTrain::test_benchmark_shape_iteration_memory",)),
    Mutant("cnn-fc1-kept-through-dfc1", "src/xmreid/textcnn.py",
           "    trace.fc1 = None\n"
           "    dfc1_pre = _dropout(dlogits @ model.fc2_w, masks, cfg.dropout)\n",
           "    dfc1_pre = _dropout(dlogits @ model.fc2_w, masks, cfg.dropout)\n"
           "    trace.fc1 = None\n",
           ("tests/test_textcnn.py::TestTrain::test_backward_frees_fc1_before_its_gradient",)),
    Mutant("cnn-dropout-copied", "src/xmreid/textcnn.py",
           "logits = _dropout(fc1, masks, cfg.dropout) @ model.fc2_w.T",
           "fc1 = _dropout(fc1.copy(), masks, cfg.dropout)\n    logits = fc1 @ model.fc2_w.T",
           ("tests/test_textcnn.py::TestForward::test_dropout_scales_fc1_in_place",)),
    Mutant("cnn-tables-mixed", "src/xmreid/textcnn.py",
           "any(t.words is not words for t in tensors) or ",
           "",
           ("tests/test_textcnn.py::TestTrain::test_tensors_on_two_tables_rejected",)),
    Mutant("emb-zero-row-own-id", "src/xmreid/textprep.py",
           "    pool += 0.0\n",
           "",
           ("tests/test_textcnn.py::TestBatchedOracle"
            "::test_zero_and_negative_zero_columns_read_as_padding",)),
    Mutant("gaussian-noise-in-place", "src/xmreid/textprep.py",
           "ids[:] = tensor.words.append(noisy.T) + np.arange(len(ids))",
           "tensor.words.vectors[ids] = noisy.T",
           ("tests/test_textprep.py::TestBuildTrainingTensors::test_gaussian_leaves_clean_columns",)),
    Mutant("training-variants-compound", "src/xmreid/textprep.py",
           "        groups.append([clean, *(variant(tokens, clean) for _ in range(count))])\n",
           # each variant drawn from the one before it, not from the clean description
           "        group = [clean]\n"
           "        for _ in range(count):\n"
           "            if method == 'gaussian':\n"
           "                group.append(augment_gaussian(group[-1], sigma, rng))\n"
           "                continue\n"
           "            if method == 'drop':\n"
           "                tokens = augment_drop(tokens, rng)\n"
           "            else:\n"
           "                tokens = augment_synonym(tokens, synonyms, rng)\n"
           "            group.append(to_tensor(tokens, words, max_len))\n"
           "        groups.append(group)\n",
           tuple(f"tests/test_textprep.py::TestBuildTrainingTensors::test_group_layout[{method}-3]"
                 for method in ("drop", "synonym", "gaussian"))),
    Mutant("xqda-one-view-mask", "src/xmreid/xqda.py",
           "v1, v2 = features[in1], features[in2]",
           "v1, v2 = features[in1], features[in1]",
           ("tests/test_xqda.py::TestDifferenceCovariances::test_matches_enumeration_minimal",)),
    Mutant("view-slice-boundary", "src/xmreid/xqda.py",
           "v1, v2 = features[:k], features[k:]",
           "v1, v2 = features[:k], features[k - 1:]",
           ("tests/test_xqda.py::TestDifferenceCovariances"
            "::test_view_slices_match_the_gather_path",)),
    Mutant("block-scale-dropped", "src/xmreid/evaluation.py",
           "scales.append(math.sqrt(spread / len(block)) if spread > 1e-12 * square else 1.0)",
           "scales.append(1.0)",
           tuple(f"tests/test_evaluation.py::TestAttributeSweep"
                 f"::test_vision_scale_is_normalised_away[{case}]"
                 for case in ("VxVL-vision", "VLxVL-language", "VAxVA-vision"))),
    Mutant("block-scale-zero-norm-divided", "src/xmreid/evaluation.py",
           "if spread > 1e-12 * square else 1.0",
           "if True else 1.0",
           ("tests/test_cli.py::TestExitCodePartition::test_numerical_failure_is_5",)),
    Mutant("multi-shot-slot-skipped", "src/xmreid/evaluation.py",
           "for slot in range(1, counts.max()):",
           "for slot in range(2, counts.max()):",
           ("tests/test_evaluation.py::TestIdentityCoding"
            "::test_gallery_order_and_cmc_match_label_grouping[multi]",)),
    Mutant("roles-by-sorted-label", "src/xmreid/evaluation.py",
           'split.roles.get(name, "") for name in names.tolist()',
           'split.roles.get(name, "") for name in sorted(names.tolist())',
           ("tests/test_evaluation.py::TestIdentityCoding"
            "::test_gallery_order_and_cmc_match_label_grouping[single]",)),
    Mutant("coder-sort-unstable", "src/xmreid/dataio.py",
           'order = np.argsort(values, kind="stable")',
           "order = np.argsort(values)",
           ("tests/test_dataio.py::TestFirstAppearanceCodes::test_equal_values_straddle_chunks",)),
    Mutant("coder-chunk-boundary-shifted", "src/xmreid/dataio.py",
           "for lo in range(1, len(values), step):",
           "for lo in range(1, len(values), step + 1):",
           ("tests/test_dataio.py::TestFirstAppearanceCodes::test_equal_values_straddle_chunks",)),
    Mutant("cli-eager-imports", "src/xmreid/cli.py",
           "from . import dataio\n",
           "from . import dataio, evaluation, synth, textcnn, textprep\n",
           ("tests/test_cli.py::TestImportGraph::test_loads_only_its_modules[import]",)),
]


def _copy_tree(dest):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where, tests):
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=where, env=env, capture_output=True, text=True)


def check(mutant):
    """None if the mutant is caught, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="xmreid-mutant-") as tmp:
        where = Path(tmp)
        _copy_tree(where)
        target = where / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            return f"snippet occurs {text.count(mutant.snippet)} times in {mutant.path}, not once"
        clean = _pytest(where, mutant.tests)
        if clean.returncode != 0:
            return f"tests do not pass before the mutation:\n{clean.stdout[-2000:]}"
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        mutated = _pytest(where, mutant.tests)
        if mutated.returncode == 0:
            return "survived: every named test passed"
        if mutated.returncode != 1:  # 1 is failed tests; anything else broke the run
            return f"pytest exited {mutated.returncode}:\n{mutated.stdout[-2000:]}"
    return None


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    failures = 0
    for mutant in chosen:
        problem = check(mutant)
        failures += problem is not None
        print(f"{'caught' if problem is None else 'FAILED'} {mutant.name}"
              + ("" if problem is None else f": {problem}"), flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants caught "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
