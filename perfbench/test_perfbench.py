"""Tests of the benchmark itself (stdlib unittest):

    python3 -m unittest discover -s perfbench -p "test_*.py"

They run the benchmark for one pass per workload, so they take about a
minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TMP_ROOT = ROOT / ".perfbench-tmp"


def scratch_dir() -> str:
    TMP_ROOT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="test-", dir=TMP_ROOT)


def bench(workload: str, trace: int, seconds: float = 0.01, seed: int = 1, cwd: Path = ROOT):
    """Run the benchmark's command; return (exit code, stdout lines)."""
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


class EmittedMetrics(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    code, lines = bench(w["name"], trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)

    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)


class TracedCalls(unittest.TestCase):
    def test_two_traced_runs_give_identical_call_counts(self):
        # corpus-sweep runs its instances on a thread pool.
        for name in ("dense-critical", "corpus-sweep"):
            with self.subTest(workload=name):
                counts = []
                for seconds in (0.01, 1.0):
                    code, lines = bench(name, 1, seconds)
                    self.assertEqual(code, 0)
                    metrics = json.loads(lines[-1])["metrics"]
                    counts.append({k: v["value"] for k, v in metrics.items()
                                   if k.endswith((".calls", "values_built", "certificate_nodes"))})
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["coloring.find_k_coloring.calls"], 0)


class FailureAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.prog = run.load_program()
        cls.tmp = Path(scratch_dir())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_corrupted_outputs_are_counted_as_failed(self):
        wl = workloads.dense_critical(self.prog, 1, self.tmp)
        op = wl.op

        def corrupted(item):
            out = op(item)
            if item.entry == "is_critical":
                return dataclasses.replace(out, chi=out.chi + 1)
            return out + 1

        wl.op = corrupted
        tally = run.run_for(wl, 0, [])
        self.assertEqual(tally.attempted, len(wl.items))
        self.assertEqual(tally.failed["check"], len(wl.items))

    def test_exceptions_are_counted_by_type(self):
        wl = workloads.dense_critical(self.prog, 1, self.tmp)
        wl.items = wl.items[:3]

        def failing(item):
            raise RecursionError("too deep")

        wl.op = failing
        tally = run.run_for(wl, 0, [])
        self.assertEqual(dict(tally.failed), {"RecursionError": 3})

    def test_a_monochromatic_edge_fails_the_coloring_check(self):
        wl = workloads.large_sparse(self.prog, 1, self.tmp)
        item = next(i for i in wl.items if i.label.startswith("path"))
        g, comps, blocks, seps, phi = wl.op(item)
        wl.check(item, (g, comps, blocks, seps, phi))
        colors = list(phi.colors)
        colors[1] = colors[0]
        bad = self.prog.coloring.Coloring(tuple(colors), 2)
        with self.assertRaises(workloads.CheckFailed):
            wl.check(item, (g, comps, blocks, seps, bad))

    def test_a_certificate_that_does_not_replay_fails(self):
        wl = workloads.tight_joins(self.prog, 1, self.tmp)
        item = wl.items[0]
        code, text = wl.op(item)
        wl.check(item, (code, text))
        payload = json.loads(text)
        root = payload["certificate"]
        self.assertEqual(root["type"], "join")
        root["include_vstar"] = not root["include_vstar"]
        with self.assertRaises(workloads.CheckFailed):
            wl.check(item, (code, json.dumps(payload)))


class SpanRecorder(unittest.TestCase):
    def test_covered_is_the_union_of_overlapping_children(self):
        self.assertAlmostEqual(tracer._covered([(1, 3), (2, 4), (6, 7)], 0, 10), 4)
        self.assertAlmostEqual(tracer._covered([(1, 3), (2, 12)], 0, 10), 9)

    def test_spans_from_many_threads_lose_no_update(self):
        trace = tracer.Tracer()
        leaf = trace.wrap("leaf", lambda: None)
        outer = trace.wrap("outer", lambda: [leaf() for _ in range(10)])
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [outer() for _ in range(200)])
                       for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                self.assertFalse(t.is_alive())
        finally:
            sys.setswitchinterval(old)
        self.assertEqual(trace.calls["outer"], 1200)
        self.assertEqual(trace.calls["leaf"], 12000)
        self.assertGreaterEqual(trace.self_s["outer"], 0)


class Checkout(unittest.TestCase):
    def test_fails_without_result_where_there_is_no_program(self):
        tmp = Path(scratch_dir())
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("dense-critical", 0, cwd=tmp)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
