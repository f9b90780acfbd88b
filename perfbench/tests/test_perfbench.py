"""Tests of the benchmark itself, at tiny size.  Run from the checkout root:

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import compare  # noqa: E402
import golden  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

hl = common.import_homalg()


def workdir(name):
    path = common.OUT / f"test-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class FakeGolden:
    """Swap one golden document for a doctored copy while the block runs."""

    def __init__(self, name, edit):
        self.name, self.edit = name, edit

    def __enter__(self):
        self.saved = golden.load(self.name)
        doctored = copy.deepcopy(self.saved)
        self.edit(doctored)
        golden._cache[self.name] = doctored

    def __exit__(self, *exc):
        golden._cache[self.name] = self.saved


def _flip(doc):
    return {"status": "pass"} if doc["status"] != "pass" else {"status": "fail"}


class TinyWorkloads(unittest.TestCase):
    def test_catalog_sweep_tiny_pass_is_clean_and_golden_is_live(self):
        wl = workloads.CatalogSweep(hl, 3, workdir("sweep"), common.SpeedClock())
        wl.prepare()
        self.assertEqual(len(wl.jobs), 116)
        wl.jobs = [j for j in wl.jobs if j[0] in ("hemisemi:kx2_reg", "minus:kx2",
                                                  "dicommutator:kx2_diass")]
        records = wl.run_pass()
        self.assertEqual(len(records), 6)
        self.assertEqual(golden.check("catalog-sweep", records, hl), [])

        bent = next(r for r in records if r["cls"] == "b")
        jid, idx = bent["key"].rsplit("#", 1)

        def wrong(doc):
            doc["perturbations"][jid][int(idx)] = _flip(doc["perturbations"][jid][int(idx)])

        with FakeGolden("sweep", wrong):
            bad = golden.check("catalog-sweep", records, hl)
        self.assertEqual(len(bad), 1)
        self.assertEqual(bad[0][0], bent["key"])
        self.assertIn("differs from golden", bad[0][1])

    def test_loop_certifiers_tiny_pass_is_clean_and_golden_is_live(self):
        wl = workloads.LoopCertifiers(hl, 5, workdir("loops"), common.SpeedClock())
        wl.settings, wl.endo_algebras = ["lie-di"], ["kx3t2"]
        wl.prepare()
        records = wl.run_pass()
        self.assertEqual(golden.check("loop-certifiers", records, hl), [])
        cand = next(r for r in records if r["cls"] == "a" and r["latency"])

        def wrong(doc):
            doc[cand["key"]][0] = _flip(doc[cand["key"]][0])

        with FakeGolden("battery", wrong):
            bad = golden.check("loop-certifiers", records, hl)
        self.assertEqual(len(bad), 1)

        def one_endo_less(doc):
            doc["kx3t2"] = doc["kx3t2"][1:]

        with FakeGolden("endomorphisms", one_endo_less):
            self.assertEqual(len(golden.check("loop-certifiers", records, hl)), 1)

    def test_cli_files_tiny_pass_is_clean_and_golden_is_live(self):
        wl = workloads.CliFiles(hl, 1, workdir("cli"), common.SpeedClock())
        wl.prepare()
        wl.cmds = [c for c in wl.cmds if c[1] in ("zero.halg", "yau-twist:phi23")]
        records = wl.run_pass()
        self.assertEqual(len(records), 2)
        self.assertEqual(golden.check("cli-files", records, hl), [])

        def wrong_exit(doc):
            doc["b"]["yau-twist:phi23"]["exit"] = 0

        with FakeGolden("cli", wrong_exit):
            self.assertEqual(len(golden.check("cli-files", records, hl)), 1)

    def test_a_crash_is_a_failure(self):
        records = [{"cls": "a", "key": "x", "ms": 0.0, "units": 1, "latency": False,
                    "error": "RuntimeError()"}]
        self.assertEqual(len(golden.check("cli-files", records, hl)), 1)


class Tracing(unittest.TestCase):
    def test_traced_pass_matches_untraced_and_covers_the_engine(self):
        wl = workloads.CatalogSweep(hl, 0, workdir("trace"), common.SpeedClock())
        wl.prepare()
        wl.jobs = [j for j in wl.jobs if j[0] in ("hemisemi:kx2_reg", "plus:kx2")]
        plain = wl.run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run_pass()
        finally:
            tracer.uninstall()
        self.assertEqual(hl.certify.__module__, "homalg.varieties")
        self.assertFalse(hasattr(hl.certify, "__wrapped__"))
        docs = {r["key"]: r["doc"] for r in plain}
        self.assertEqual({r["key"]: r["doc"] for r in traced}, docs)
        checked, bad = tracer.check_coverage()
        self.assertGreater(checked, 0)
        self.assertEqual(bad, [])
        m = tracer.layer_metrics()
        self.assertGreater(m["engine.check_schema.calls"], 0)
        self.assertGreater(m["exact.tensor_apply.calls"], 0)
        self.assertGreater(m["constructions.gate_checks"], 0)
        self.assertLessEqual(m["engine.check_schema.unique_share"], 1.0)

    def test_a_raising_span_is_still_its_parents_child_time(self):
        tracer = Tracer()

        def inner():
            time.sleep(0.05)
            raise ValueError

        def outer():
            with self.assertRaises(ValueError):
                traced_inner()

        traced_inner = tracer._span("inner", inner, None)
        tracer._span("outer", outer, None)()
        name, start, end, parent, _, child = tracer.spans[0]
        self.assertEqual((name, parent, tracer.spans[1][3]), ("outer", -1, 0))
        self.assertGreater(child, 0.04)
        self.assertLess(end - start - child, 0.01)

    def test_every_binding_of_a_wrapped_function_is_patched(self):
        import homalg.cli
        import homalg.constructions
        import homalg.forge

        tracer = Tracer()
        tracer.install()
        try:
            for mod in (hl, homalg.constructions, homalg.forge, homalg.cli):
                self.assertTrue(hasattr(mod.certify, "__wrapped__"), mod.__name__)
        finally:
            tracer.uninstall()


class Statistics(unittest.TestCase):
    def test_percentiles_are_band_means(self):
        s = common.latency_summary([float(i) for i in range(200, 0, -1)])
        self.assertEqual(s["p50"], 100.0)     # mean of ranks 90..110
        self.assertEqual(s["tail"], 180.0)    # mean of ranks 170..190
        self.assertEqual(s["beyond_tail"], 20)
        # swapping two samples inside the band leaves the tail where it was
        self.assertEqual(common.percentile([1, 2, 3, 4, 5, 6, 7, 8, 10, 9] * 10, 90),
                         common.percentile(list(range(1, 11)) * 10, 90))
        self.assertEqual(common.percentile([4.0], 90), 4.0)

    def test_pairing_rule(self):
        bench = {"workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "t", "better": "lower", "bound": 0.1}]}

        def doc(vals):
            return {"benchmark": bench, "runs": [
                {"workload": "w", "seed": i, "trace": 0,
                 "result": {"metrics": {"t": {"value": v}}}} for i, v in enumerate(vals)]}

        parent = doc([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        faster = doc([80, 82, 79, 81, 80, 83, 78, 80, 81, 80])
        slower = doc([130, 131, 129, 130, 132, 128, 130, 131, 129, 130])
        noisy = doc([60, 140, 70, 130, 100, 65, 135, 75, 125, 100])
        self.assertEqual(compare.analyze(parent, faster)[0][2], "gain")
        self.assertEqual(compare.analyze(parent, slower)[0][2], "regression")
        self.assertEqual(compare.analyze(parent, parent)[0][2], "no regression")
        self.assertEqual(compare.analyze(noisy, parent)[0][2], "unresolved")


class Contract(unittest.TestCase):
    def test_refuses_a_directory_without_homalg(self):
        bare = workdir("bare")
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-files",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_a_short_run_prints_every_declared_metric(self):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-files",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=common.ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in bench["end_to_end"]})
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))


if __name__ == "__main__":
    unittest.main()
