#!/usr/bin/env python3
"""The benchmark's own tests: smoke runs of every workload through run.py.

    python3 perfbench/test_perfbench.py

Each workload runs in --smoke mode (a seconds-long version with the same
layers and the same output checks) with and without tracing. The tests check
the result line against BENCHMARK.json, and that the output checks fail a run
whose reference trajectory is off by one bit: the UDS-versus-SimTransport
parity check and the traced-versus-plain parity check.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class SmokeTest(unittest.TestCase):
    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_result(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer_metrics_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_result(result, SPEC["per_layer"])

    def test_same_seed_repeats_counts(self):
        _, first = run("gossip_churn_svm_n2k", 0, seed=5)
        _, second = run("gossip_churn_svm_n2k", 0, seed=5)
        for name in ("rounds_to_target", "bytes_to_target", "final_loss"):
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_socket_parity_check_catches_a_flipped_bit(self):
        proc, result = run("uds2_mlp_n16", 0, "--corrupt-reference")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("differ from the reference trajectory", proc.stdout)

    def test_traced_parity_check_catches_a_flipped_bit(self):
        proc, result = run("sync_svm_n10k", 1, "--corrupt-reference")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_unknown_workload_fails_without_a_result(self):
        proc, result = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)

    def test_rendezvous_directories_are_removed(self):
        run("uds2_mlp_n16", 0)
        self.assertFalse(os.path.exists(os.path.join(ROOT, ".bench_run")))


if __name__ == "__main__":
    unittest.main()
