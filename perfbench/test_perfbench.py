#!/usr/bin/env python3
"""Self-tests of the benchmark, on the tiny mode of each workload.

    python3 perfbench/test_perfbench.py

Run from the repository root (the first run builds the benchmark).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed=1, trace=0, *extra, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, result


def expected_units(trace):
    metrics = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


class MetricSet(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done, result = run(workload, trace=trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected_units(trace))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(set(metric), {"value", "unit"}, name)
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_new_seed_changes_input_not_metric_set(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, a = run(workload, seed=1)
                second, b = run(workload, seed=2)
                digest = lambda done: [line for line in done.stdout.splitlines()
                                       if line.startswith("input digest")]
                self.assertNotEqual(digest(first), digest(second))
                self.assertEqual(set(a["metrics"]), set(b["metrics"]))


class Checks(unittest.TestCase):
    def test_corrupted_reference_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result = run(workload, 1, 0, "--corrupt-reference")
                self.assertNotEqual(done.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        alone = ROOT / ".bench_build" / "selftest-alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", alone)
            shutil.copytree(ROOT / "perfbench", alone / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done, result = run(WORKLOADS[0], cwd=alone)
            self.assertNotEqual(done.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
