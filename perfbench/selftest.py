"""Fast self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py

Covers the self-time arithmetic on nested spans, function discovery, that a
nonzero exit or a corrupted report CSV is counted as a failed operation,
and that the traced work counts repeat exactly on identical inputs. Files
go to `.bench_work/selftest/` in the checkout.
"""

import json
import shutil
import sys
import unittest

import checks
import run
import tracer

WORK = run.WORK / "selftest"
TINY = {"identity_count": 10, "samples_per_view": 2, "latent_dim": 2,
        "vision_dim": 6, "language_dim": 5, "num_splits": 2, "attribute_bits": 6}


def setUpModule():
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "data").mkdir(parents=True)
    (WORK / "out").mkdir()
    (WORK / "tiny.json").write_text(json.dumps(TINY), encoding="utf-8")
    record = run.measure([run.Step(["cli", "gen-synth", "--config", str(WORK / "tiny.json"),
                                    "--out", str(WORK / "data"), "--quiet"])], WORK / "log")
    assert record["failed"] == 0, (WORK / "log").read_text()


def evaluate(scenario, *extra):
    return run.Step(run._evaluate(WORK / "data", WORK / "out", scenario, 7, *extra))


class SelfTime(unittest.TestCase):
    SPANS = [
        ["cli.main", 0.0, 10.0, -1],
        ["linalg.gen_eigh", 1.0, 5.0, 0],
        ["linalg.eigh", 2.0, 4.0, 1],
        ["xqda.score_matrix", 6.0, 9.0, 0],
        ["linalg.eigh", 6.5, 7.0, 3],
    ]

    def test_self_time_is_duration_minus_children(self):
        functions = tracer.summarize(self.SPANS)
        self.assertEqual(functions["cli.main"]["self_s"], 3.0)
        self.assertEqual(functions["linalg.gen_eigh"]["self_s"], 2.0)
        self.assertEqual(functions["xqda.score_matrix"]["self_s"], 2.5)
        self.assertEqual(functions["linalg.eigh"], {"calls": 2, "total_s": 2.5, "self_s": 2.5})

    def test_layer_self_times_partition_the_root(self):
        layers = tracer.layer_self_times(tracer.summarize(self.SPANS))
        self.assertEqual(layers, {"cli": 3.0, "linalg": 4.5, "xqda": 2.5})
        self.assertEqual(sum(layers.values()), 10.0)

    def test_recorder_links_parents_and_closes_on_error(self):
        recorder = tracer.Recorder()
        inner = recorder.wrap("m.inner", lambda: 1)

        def outer_body():
            inner()
            raise ValueError("boom")

        outer = recorder.wrap("m.outer", outer_body)
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual([(s[0], s[3]) for s in recorder.spans],
                         [("m.outer", -1), ("m.inner", 0)])
        self.assertTrue(all(s[2] >= s[1] > 0.0 for s in recorder.spans))

    def test_per_layer_names_resolve(self):
        functions = tracer.summarize(self.SPANS)
        layers = tracer.layer_self_times(functions)
        counts = {"linalg.eigh.n3": 27}

        def value(name):
            return run.per_layer_value(name, functions, counts, layers)

        self.assertEqual(value("linalg.self_s"), 4.5)
        self.assertEqual(value("xqda.score_matrix.self_s"), 2.5)
        self.assertEqual(value("linalg.eigh.calls"), 2)
        self.assertEqual(value("linalg.eigh.n3"), 27)
        self.assertEqual(value("textcnn.predict.calls"), 0)


class Discovery(unittest.TestCase):
    def test_public_functions_wrapped_and_rebound(self):
        sys.path.insert(0, str(run.SRC))
        names = tracer.Recorder().install()
        from xmreid import xqda

        self.assertIn("linalg.eigh", names)
        self.assertIn("cli.main", names)
        self.assertNotIn("dataio.format_real", names)
        self.assertFalse([n for n in names if n.split(".")[1].startswith("_")])
        self.assertTrue(hasattr(xqda.linalg.gen_eigh, "__wrapped__"))
        self.assertFalse(hasattr(xqda.format_real, "__wrapped__"))


class FailureAccounting(unittest.TestCase):
    def test_real_report_passes_its_check(self):
        step = evaluate("VxV")
        step.check = run._csv_check([WORK / "out" / "report_VxV.csv"], WORK / "data")
        self.assertEqual(run.measure([step], WORK / "log")["failed"], 0)

    def test_nonzero_exit_is_failed(self):
        step = run.Step(["cli", "evaluate", "--scenario", "VxV",
                         "--vision", str(WORK / "missing.feat"),
                         "--splits", str(WORK / "missing.split"),
                         "--out-dir", str(WORK / "out"), "--quiet"])
        record = run.measure([step, evaluate("VxV")], WORK / "log")
        self.assertEqual(record["failed"], 1)

    def test_corrupted_csv_is_failed(self):
        run.measure([evaluate("LxL")], WORK / "log")
        good = (WORK / "out" / "report_LxL.csv").read_text(encoding="utf-8").split("\n")
        rows = [r for r in good[1:] if r]
        size = len(rows)
        variants = {
            "decreasing": [good[0], "1,0.9,0", "2,0.1,0"] + rows[2:],
            "short": [good[0]] + rows[:-1],
            "above one": [good[0]] + rows[:-1] + [f"{size},1.5,0"],
            "not reaching one": [good[0]] + rows[:-1] + [f"{size},0.5,0"],
            "garbage": [good[0], "1,x,0"] + rows[1:],
        }
        self.assertEqual(size, run._gallery_size(WORK / "data" / "splits.split"))
        self.assertEqual(checks.cmc_csv(WORK / "out" / "report_LxL.csv", size), [])
        for name, lines in variants.items():
            bad = WORK / f"bad_{name.replace(' ', '_')}.csv"
            bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.assertTrue(checks.cmc_csv(bad, size), name)
            step = run.Step(["cli", "--help"], run._csv_check([bad], WORK / "data"))
            self.assertEqual(run.measure([step], WORK / "log")["failed"], 1, name)


class ExactCounts(unittest.TestCase):
    def test_traced_counts_repeat(self):
        totals = []
        for attempt in range(2):
            spans = WORK / "spans" / str(attempt)
            shutil.rmtree(spans, ignore_errors=True)
            record = run.measure([evaluate("VxL", "--cca-k", "2")], WORK / "log", spans)
            self.assertEqual(record["failed"], 0)
            functions, counts = run.load_spans(spans)
            totals.append((counts, {k: v["calls"] for k, v in functions.items()}))
        self.assertEqual(totals[0], totals[1])
        counts = totals[0][0]
        for key in ("linalg.eigh.n3", "xqda.score_matrix.pairs", "evaluation.cmc.probes",
                    "evaluation.splits", "dataio.read_bytes"):
            self.assertGreater(counts.get(key, 0), 0, key)
        self.assertEqual(counts["evaluation.splits"], TINY["num_splits"])


if __name__ == "__main__":
    unittest.main()
