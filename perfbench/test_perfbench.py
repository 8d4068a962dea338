#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-scale smoke of each workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark if needed (run.py), then runs every workload of the
driver at smoke scale in both trace modes.  Checks that every metric
BENCHMARK.json names is emitted with its unit, that the outputs record the
host and the seed, and that the digest check trips when one path is run with
another seed.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the build step)

SEED = 3


def invoke(workload, trace, *extra):
    """Runs one smoke invocation; returns (exit code, result line, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", trace, "--smoke",
         *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        # Every workload dasched_perfbench has, including any that
        # BENCHMARK.json leaves out of its gated set.
        cls.workloads = list(run.WORKLOADS)

    def test_gated_workloads_exist(self):
        gated = {w["name"] for w in self.spec["workloads"]}
        self.assertLessEqual(gated, set(self.workloads))

    def check_metrics(self, result, declared, positive):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if positive:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in self.workloads:
            for trace, declared, positive in (
                    ("0", self.spec["end_to_end"], True),
                    ("1", self.spec["per_layer"], False)):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = invoke(workload, trace)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"], out)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, declared, positive)

    def test_outputs_record_host_build_and_seed(self):
        code, _, out = invoke(self.workloads[0], "0")
        self.assertEqual(code, 0, out)
        header = out.splitlines()[0]
        for key in ("nproc=", "hardware_concurrency=", "build_type=",
                    f"seed={SEED}"):
            self.assertIn(key, header)

    def test_digest_check_trips_on_injected_mismatch(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                code, result, out = invoke(workload, "0", "--inject-mismatch")
                self.assertNotEqual(code, 0, out)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("digest mismatch", out)


if __name__ == "__main__":
    unittest.main()
