#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/tests/test_perfbench.py

Builds perfbench like run.py does, then checks that the metrics the
binary emits match BENCHMARK.json by name and unit, that run.py's
contract check accepts a good result and refuses bad ones, that every
workload has pinned digests, and runs the C++ self-test (decorator
bit-identity, other-seed invariants, stage-probe replay).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

BINARY_DIR = run.build()


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class MetricsMatchSpec(unittest.TestCase):
    def test_names_and_units(self):
        listed = subprocess.run([os.path.join(BINARY_DIR, "perfbench"), "--list-metrics"],
                                capture_output=True, text=True, check=True).stdout.split("\n")
        emitted = {"end_to_end": [], "per_layer": []}
        for line in filter(None, listed):
            kind, name, unit = line.split()
            emitted[kind].append((name, unit))
        spec = benchmark_spec()
        for kind in emitted:
            self.assertEqual(emitted[kind], [(m["name"], m["unit"]) for m in spec[kind]], kind)
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])

    def test_every_workload_is_pinned(self):
        with open(run.PINNED) as handle:
            pinned = json.load(handle)
        self.assertEqual(pinned["seed"], run.PINNED_SEED)
        for workload in benchmark_spec()["workloads"]:
            self.assertTrue(pinned.get(workload["name"]), workload["name"])


class ContractCheck(unittest.TestCase):
    def good(self):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": 1.5, "unit": unit}
                            for name, unit in run.expected_metrics(False)}}

    def test_accepts_good_result(self):
        self.assertEqual(run.validate(self.good(), False), [])

    def test_refuses_bad_results(self):
        missing = self.good()
        missing["metrics"].pop("run_s")
        extra = self.good()
        extra["note"] = "x"
        null = self.good()
        null["metrics"]["cpu_s"]["value"] = None
        unit = self.good()
        unit["metrics"]["setup_s"]["unit"] = "ms"
        for bad in (missing, extra, null, unit):
            self.assertNotEqual(run.validate(bad, False), [])


class CppSelfTest(unittest.TestCase):
    def test_selftest_binary(self):
        proc = subprocess.run([os.path.join(BINARY_DIR, "perfbench_selftest")],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
