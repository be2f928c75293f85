#!/usr/bin/env python3
"""Smoke tests of the served-day benchmark: every workload, untraced and
traced, on the small test world.

    python3 servebench/test_servebench.py

Each run must pass every correctness check and report exactly the metrics
BENCHMARK.json names for its mode, each with its declared unit, and the
traced run must leave a Chrome trace behind.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / ".bench_build" / "servebench" / "results"


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        result = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])
            if not trace:
                # Bounds are shares of the parent's median: never 0.
                self.assertGreater(got["value"], 0, metric["name"])
        if trace:
            self.assertTrue(
                (RESULTS / f"{workload}-seed3.trace.json").is_file())
        details = json.loads(
            (RESULTS / f"{workload}-seed3-trace{trace}.json").read_text())
        for key in ("git_sha", "source_digest", "build_type", "compiler",
                    "nproc", "date"):
            self.assertIn(key, details["provenance"])
        self.assertEqual(details["seed"], 3)
        self.assertIn("heldout_seed", details)
        self.assertGreater(details["samples"]["ticks"], 0)


def add_cases():
    # storm_day is not in BENCHMARK.json (README.md: Workloads) but stays
    # runnable as the paper-day reference.
    for workload in ["storm_day"] + [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            def case(self, workload=workload, trace=trace):
                self.check(workload, trace)
            setattr(SmokeTest, f"test_{workload}_trace{trace}", case)


add_cases()

if __name__ == "__main__":
    unittest.main()
