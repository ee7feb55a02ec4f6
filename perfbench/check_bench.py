"""The benchmark's own tests.

    python3 perfbench/check_bench.py [-v] [-k pattern]

Run from the repository root; takes about three minutes, most of it in two
traced runs of every workload. It checks the tracer on a small call tree
with known self times, that a perturbed program output counts as a failed
op, that the computed work counts repeat exactly across two traced runs of
one seed, that the reported metric names match BENCHMARK.json, and that
the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import ssdbcodi  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, by_function, self_times  # noqa: E402


def bench(*args) -> tuple:
    """Run the benchmark; return (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


class SelfTimeTest(unittest.TestCase):
    def test_union_of_children_is_subtracted(self):
        spans = [Span(0, "p", 0.0, 10.0, 0.0, None, 1, 0),
                 Span(1, "a", 1.0, 4.0, 0.0, 0, 1, 0),
                 Span(2, "b", 3.0, 6.0, 0.0, 0, 1, 0),    # overlaps a
                 Span(3, "g", 2.0, 3.0, 0.0, 1, 1, 0),    # inside a
                 Span(4, "w", 0.5, 20.0, 0.0, None, 2, 0)]  # other thread
        self.assertEqual(self_times(spans), {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 19.5})

    def test_nested_threaded_call_tree(self):
        # fakepkg.mod: outer sleeps 40 ms and calls inner twice on its own
        # thread; a worker thread it waits for sleeps 30 ms and calls inner.
        pkg = types.ModuleType("fakepkg")
        mod = types.ModuleType("fakepkg.mod")
        source = (
            "import threading, time\n"
            "def inner():\n    time.sleep(0.02)\n"
            "def worker():\n    time.sleep(0.03)\n    inner()\n"
            "def outer():\n"
            "    t = threading.Thread(target=lambda: worker())\n"
            "    t.start()\n"
            "    time.sleep(0.04)\n    inner()\n    inner()\n"
            "    t.join(5)\n"
            "    assert not t.is_alive()\n")
        exec(compile(source, "fakepkg/mod.py", "exec"), mod.__dict__)
        pkg.mod = mod
        sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod})
        original = mod.outer
        try:
            tracer = Tracer()
            with tracer.installed(package="fakepkg", modules=("mod",)):
                self.assertIsNot(mod.outer, original)
                with tracer.op(7):
                    mod.outer()
            self.assertIs(mod.outer, original)
        finally:
            del sys.modules["fakepkg"], sys.modules["fakepkg.mod"]

        table = by_function(tracer.spans)
        self.assertEqual({k: v["calls"] for k, v in table.items()},
                         {"op": 1, "mod.outer": 1, "mod.inner": 3, "mod.worker": 1})
        self.assertTrue(all(s.op == 7 for s in tracer.spans))
        by_id = {s.id: s for s in tracer.spans}
        outer = next(s for s in tracer.spans if s.name == "mod.outer")
        worker = next(s for s in tracer.spans if s.name == "mod.worker")
        self.assertIsNone(worker.parent)
        self.assertNotEqual(worker.thread, outer.thread)
        parents = sorted(by_id[s.parent].name for s in tracer.spans if s.name == "mod.inner")
        self.assertEqual(parents, ["mod.outer", "mod.outer", "mod.worker"])
        selfs = self_times(tracer.spans)
        slack = 0.015
        # inner spans on the outer thread are subtracted; the wait on the
        # worker thread is not, so outer's self time is at least its sleep.
        self.assertGreaterEqual(selfs[outer.id], 0.04)
        self.assertLess(selfs[outer.id], 0.04 + slack)
        self.assertGreaterEqual(selfs[worker.id], 0.03)
        self.assertLess(selfs[worker.id], 0.03 + slack)
        for s in tracer.spans:
            if s.name == "mod.inner":
                self.assertGreaterEqual(selfs[s.id], 0.02)
                self.assertLess(selfs[s.id], 0.02 + slack)


class DigestGateTest(unittest.TestCase):
    def test_perturbed_output_is_a_failed_op(self):
        w = workloads.WORKLOADS["run_blobs"]
        runner = run.Runner(w, w.make_inputs(OUT), run.load_reference(w.name))
        runner.run_op(0)
        self.assertEqual(runner.failed, 0)

        real_run = ssdbcodi.run

        def perturbed(*args, **kwargs):
            result = real_run(*args, **kwargs)
            clusters = result.clusters.copy()
            clusters[0] = clusters[0] + 1
            return replace(result, clusters=clusters)

        ssdbcodi.run = perturbed
        try:
            runner.run_op(0)
        finally:
            ssdbcodi.run = real_run
        self.assertEqual(len(runner.records), 2)
        self.assertEqual(runner.failed, 1)
        self.assertFalse(runner.records[1]["ok"])

    def test_raising_op_is_a_failed_op(self):
        w = workloads.WORKLOADS["run_blobs"]
        ds = ssdbcodi.Dataset(points=np.zeros((4, 2)), truth=np.zeros(4, dtype=int))
        runner = run.Runner(w, {"ds": ds}, run.load_reference(w.name))
        runner.run_op(0)  # 10% of 4 points rounds to no labels: sample_labels raises
        self.assertEqual(runner.failed, 1)


class TracedRunTest(unittest.TestCase):
    def test_computed_counts_repeat_and_names_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, layers.metric_units())
        for w in spec["workloads"]:
            results = [bench("--workload", w["name"], "--seed", "3", "--seconds", "10",
                             "--trace", "1") for _ in range(2)]
            for code, result in results:
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(per_layer))
            for name in layers.COMPUTED:
                with self.subTest(workload=w["name"], metric=name):
                    first, second = (r["metrics"][name]["value"] for _, r in results)
                    self.assertEqual(first, second)
            if w["name"] == "tune_moons":
                self.assertEqual(results[0][1]["metrics"]["pipeline.finish_per_prepare"]
                                 ["value"], (21 * 5 + 1) / (5 + 1))

    def test_untraced_op_count_is_fixed_passes(self):
        for w in workloads.WORKLOADS.values():
            one_pass = w.per_run * w.nominal_op_s
            self.assertEqual(run.passes(w, 1), 1)
            self.assertEqual(run.passes(w, one_pass), 1)
            self.assertEqual(run.passes(w, 3 * one_pass), 3)

    def test_untraced_run_reports_end_to_end_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        code, result = bench("--workload", "run_blobs", "--seed", "3", "--seconds", "1",
                             "--trace", "0")
        self.assertEqual(code, 0)
        self.assertEqual(result["attempted"], workloads.WORKLOADS["run_blobs"].per_run)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})


class NoProgramTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "run_blobs", "--seed", "0", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=180, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)
        self.assertLess(time.monotonic() - t0, 180)


if __name__ == "__main__":
    unittest.main()
