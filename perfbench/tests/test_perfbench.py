"""The benchmark's own tests: its checks can fail, and its trace is sound.

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py (which builds the program on first
use) with --seconds 0, so every workload runs its unit of work once.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def run(workload, trace=0, seed=1, inject=None, cwd=ROOT, run_py=RUN):
    cmd = [sys.executable, run_py, "--workload", workload, "--seed",
           str(seed), "--seconds", "0", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class ChecksCanFail(unittest.TestCase):
    def test_perturbed_pinned_answer_exits_nonzero(self):
        proc, result = run("dse-arvrA-edge", inject="pinned")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertIn("pinned answer", proc.stderr)

    def test_broken_counter_identity_exits_nonzero(self):
        proc, result = run("serve-overload", inject="identity")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertIn("completed", proc.stderr)

    def test_unperturbed_run_passes_with_every_metric(self):
        proc, result = run("serve-overload")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        self.assertGreater(result["failed"], 0)  # overload sheds frames
        names = [m["name"] for m in spec()["end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name in names:
            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_missing_sources_fail_without_a_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = run("serve-steady", cwd=tmp,
                               run_py=os.path.join(tmp, "perfbench",
                                                   "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


class Determinism(unittest.TestCase):
    SIMULATED = ["ok_share", "deadline_met_share", "p50_latency_mcycles"]

    def test_same_seed_gives_identical_simulated_metrics(self):
        a = values(run("offline-factory-edf", seed=7)[1])
        b = values(run("offline-factory-edf", seed=7)[1])
        for name in self.SIMULATED:
            self.assertEqual(a[name], b[name], name)


class TracedRun(unittest.TestCase):
    STAGES = ["cost.evaluate_s", "sched.table.build_s", "sched.dispatch.s",
              "sched.postprocess.s", "sched.finalize.s", "setup.workload_s"]

    @classmethod
    def setUpClass(cls):
        cls.proc, cls.result = run("offline-factory-edf", trace=1)
        path = os.path.join(ROOT, ".bench_build", "traces",
                            "offline-factory-edf.json")
        with open(path) as f:
            cls.events = json.load(f)["traceEvents"]

    def test_reports_every_per_layer_metric(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr)
        names = [m["name"] for m in spec()["per_layer"]]
        self.assertEqual(sorted(self.result["metrics"]), sorted(names))

    def test_derived_stage_times_are_non_negative(self):
        v = values(self.result)
        for name in self.STAGES:
            self.assertGreaterEqual(v[name], 0.0, name)
        self.assertGreater(v["sched.postprocess.share"], 0.5)

    def test_self_time_never_exceeds_span_time(self):
        children = {}
        for e in self.events:
            children.setdefault(e["args"]["parent"], []).append(e)
        for e in self.events:
            kids = children.get(e["args"]["span"], [])
            for k in kids:
                self.assertGreaterEqual(k["ts"], e["ts"] - 1e-3)
                self.assertLessEqual(k["ts"] + k["dur"],
                                     e["ts"] + e["dur"] + 1e-3)
            self_us = e["dur"] - sum(k["dur"] for k in kids)
            self.assertGreaterEqual(self_us, -1e-3, e["name"])
            self.assertLessEqual(self_us, e["dur"] + 1e-9, e["name"])
            self.assertAlmostEqual(self_us, e["args"]["self_us"], delta=1e-2)


if __name__ == "__main__":
    unittest.main()
