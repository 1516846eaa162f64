#!/usr/bin/env python3
"""Tests of the benchmark itself, on every workload shrunk to 1% (--scale 0.01).

    python3 perfbench/test_perfbench.py

Checks that a plain and a traced pass print every metric BENCHMARK.json names,
with its unit, as a correct run without failed units; that the per-layer
numbers separate the workloads as README.md says they should; and that an
expected digest off by one hex digit is reported as a failure.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-local", "batch-realtime", "service-elastic", "paper-sweep")


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.01", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class TinyPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {(w, t): bench(w, t) for w in WORKLOADS for t in (0, 1)}

    def test_every_metric_is_printed_with_its_unit(self):
        for (workload, trace), (proc, result) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                names = self.spec["per_layer"] if trace else self.spec["end_to_end"]
                self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
                for m in names:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], float)
                if not trace:
                    for name, got in result["metrics"].items():
                        self.assertGreater(got["value"], 0.0, name)

    def test_layers_separate_the_workloads(self):
        layer = {w: self.runs[(w, 1)][1]["metrics"] for w in WORKLOADS}
        value = lambda w, name: layer[w][name]["value"]
        self.assertEqual(value("batch-local", "net.solves_per_unit"), 0.0)
        self.assertGreater(value("batch-realtime", "net.solves_per_unit"), 0.0)
        self.assertGreater(value("batch-local", "storage.pre_place_s"), 0.0)
        self.assertGreater(value("service-elastic", "workload.arrivals_s"), 0.0)
        self.assertEqual(value("batch-local", "workload.arrivals_s"), 0.0)
        self.assertGreater(value("paper-sweep", "exp.memo_hit_ratio"), 0.0)
        self.assertGreater(value("paper-sweep", "exp.parallel_efficiency"), 0.0)
        for w in WORKLOADS:
            self.assertGreater(value(w, "obs.trace_events"), 0.0, w)
            self.assertGreater(value(w, "obs.trace_overhead_ratio"), 0.0, w)

    def test_perturbed_digest_is_a_failure(self):
        proc, _ = self.runs[("batch-local", 0)]
        digest = re.search(r"digest ([0-9a-f]{16})", proc.stderr).group(1)
        wrong = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        proc, result = bench("batch-local", 0, "--expect-digest", wrong)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        proc, result = bench("batch-local", 0, "--expect-digest", digest)
        self.assertEqual(proc.returncode, 0)
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
