#!/usr/bin/env python3
"""Tests of the benchmark itself: inputs repeat per seed, wrong answers fail
the run, and the printed metrics are exactly those BENCHMARK.json lists.

  python3 perfbench/tests/test_perfbench.py

Each test drives perfbench/run.py (which builds the benchmark first) from
the repository root; the whole file takes a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *args, seed=3, seconds=1):
    """Runs one workload; returns (exit code, parsed result or None)."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class SameSeedSameInputs(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            for w in WORKLOADS:
                paths = [os.path.join(d, f"{w}.{i}") for i in range(3)]
                for path, seed in zip(paths, (7, 7, 8)):
                    code, _ = run(w, "--dump-inputs", path, seed=seed)
                    self.assertEqual(code, 0, w)
                with open(paths[0], "rb") as a, open(paths[1], "rb") as b, \
                        open(paths[2], "rb") as c:
                    first, again, other = a.read(), b.read(), c.read()
                self.assertGreater(len(first), 0, w)
                self.assertEqual(first, again, f"{w}: seed 7 twice differs")
                self.assertNotEqual(first, other, f"{w}: seeds 7 and 8 agree")


class WrongAnswersFailTheRun(unittest.TestCase):
    def test_corrupted_reference_array_fails(self):
        for w in WORKLOADS:
            code, result = run(w, "--fault", "corrupt_reference")
            self.assertNotEqual(code, 0, w)
            self.assertIsNotNone(result, w)
            self.assertFalse(result["correct"], w)

    def test_wrong_rejection_phase_fails(self):
        code, result = run("svc_jit_repeat", "--fault", "wrong_phase")
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])


class PrintedMetricsMatchBenchmarkJson(unittest.TestCase):
    def check(self, trace, key):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in WORKLOADS:
            code, result = run(w, "--trace", str(trace), seconds=2)
            self.assertEqual(code, 0, w)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], w)
            self.assertEqual(result["failed"], 0, w)
            self.assertGreaterEqual(result["attempted"], 1, w)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want, w)
            yield w, {name: m["value"] for name, m in result["metrics"].items()}

    def test_end_to_end_metrics(self):
        for w, values in self.check(0, "end_to_end"):
            for name, value in values.items():
                self.assertGreater(value, 0, f"{w} {name}")

    def test_per_layer_metrics(self):
        for w, values in self.check(1, "per_layer"):
            self.assertEqual(values["codegen.jit_fallbacks"], 0, w)
            self.assertGreater(values["trace.coverage"], 0.9, w)


class BenchmarkJsonShape(unittest.TestCase):
    def test_follows_the_benchmark_format(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], unit)
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], unit)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        for path in SPEC["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))


if __name__ == "__main__":
    unittest.main()
