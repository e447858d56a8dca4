#!/usr/bin/env python3
"""The benchmark's own tests: run each workload's k=4 smoke version through
run.py, untraced and traced, and check that every metric BENCHMARK.json
names is emitted with its unit and that the output checks pass.

    python3 perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload, trace):
        section = "per_layer" if trace else "end_to_end"
        rc, lines = run_bench(ROOT, "--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke")
        self.assertEqual(rc, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            entry = result["metrics"][name]
            self.assertEqual(entry["unit"], unit, name)
            self.assertIsInstance(entry["value"], (int, float), name)
            self.assertTrue(math.isfinite(entry["value"]), name)
            # Human-readable line too: "<name> <value> <unit>".
            self.assertTrue(any(l.startswith(name + " ") and
                                l.endswith(" " + unit) for l in lines), name)
        if not trace:
            for name in expected:
                self.assertGreater(result["metrics"][name]["value"], 0, name)
        else:
            out = (ROOT / ".bench_build" / "perfbench" / "out" /
                   f"{workload}-seed3")
            spans = json.loads((out / "spans.json").read_text())["spans"]
            ids = {s["id"] for s in spans}
            for s in spans:
                self.assertTrue(s["parent"] == 0 or s["parent"] in ids)
                self.assertGreaterEqual(s["self_s"], -1e-9)
            names = {s["name"] for s in spans}
            for layer in ("net.make_fat_tree", "workload.Testbed",
                          "te.PlanckTe", "sim.run_until", "teardown"):
                self.assertIn(layer, names)
            registry = json.loads((out / "metrics.json").read_text())
            self.assertEqual(registry["schema"], "planck-metrics-v1")

    def test_te_bijection_k8(self):
        self.check_workload("te_bijection_k8", 0)
        self.check_workload("te_bijection_k8", 1)

    def test_setup_k10(self):
        self.check_workload("setup_k10", 0)
        self.check_workload("setup_k10", 1)

    def test_sharded_ring_k8(self):
        self.check_workload("sharded_ring_k8", 0)
        self.check_workload("sharded_ring_k8", 1)

    def test_fails_without_sources(self):
        """Only BENCHMARK.json and perfbench/: non-zero exit, no result."""
        bare = ROOT / ".bench_build" / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            rc, lines = run_bench(bare, "--workload", "setup_k10", "--seed",
                                  "1", "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(rc, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
