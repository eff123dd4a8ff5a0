#!/usr/bin/env python3
"""Tiny-scale smoke test of the repo benchmark.

Runs every workload of BENCHMARK.json at --tiny scale through
perfbench/run.py and checks that:
  - every end_to_end metric is printed with its unit (--trace 0) and every
    per_layer metric with its unit (--trace 1);
  - two runs with one seed print identical simulated metrics, traced or
    not, and another seed changes them;
  - the layer split holds: ftl.shard.* is non-zero only on sharded_mixed;
  - a corrupted shadow entry makes the output check fail, naming the page
    and the seed.

Run from the repository root:
    python3 perfbench/tests/smoke_test.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics measured in host time (besides the per-layer spans, unit ns);
# every other printed metric is simulated and must repeat exactly.
HOST_METRICS = {"host_kops", "host_wall_kops", "setup_s", "host_rss_mb",
                "ok_frac", "ftl.recover_host_ms", "bench.trace_overhead"}

_cache = {}


def run(workload, seed, trace, *extra):
    """Runs the benchmark at tiny scale: (returncode, stdout, stderr)."""
    key = (workload, seed, trace) + extra
    if key not in _cache:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
               "--tiny"] + list(extra)
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=600)
        _cache[key] = (p.returncode, p.stdout, p.stderr)
    return _cache[key]


def result(workload, seed, trace):
    code, out, err = run(workload, seed, trace)
    if code != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s" %
                             (workload, seed, trace, code, err[-3000:]))
    return json.loads(out.strip().splitlines()[-1])


def simulated(workload, seed, trace):
    """The simulated metrics the run prints as `name value unit` lines."""
    _, out, _ = run(workload, seed, trace)
    values = {}
    for line in out.splitlines():
        parts = line.split()
        if (len(parts) == 3 and parts[2] != "ns" and
                parts[0] not in HOST_METRICS):
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return values


class SmokeTest(unittest.TestCase):

    def check_metrics(self, res, specs):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        for spec in specs:
            self.assertIn(spec["name"], res["metrics"])
            self.assertEqual(res["metrics"][spec["name"]]["unit"],
                             spec["unit"], spec["name"])
        self.assertEqual(set(res["metrics"]), {s["name"] for s in specs})

    def test_end_to_end_metrics_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(result(w, 1, 0), SPEC["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(result(w, 1, 1), SPEC["per_layer"])

    def test_simulated_metrics_repeat_for_a_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = simulated(w, 1, 0)
                self.assertIn("sim_kiops", first)
                self.assertEqual(first, simulated(w, 1, 1))
                # A second run of the same command, outside the cache.
                _cache.pop((w, 1, 0))
                self.assertEqual(first, simulated(w, 1, 0))
                self.assertNotEqual(first, simulated(w, 2, 0))

    def test_shard_metrics_only_on_sharded_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = result(w, 1, 1)["metrics"]
                shard = {k: v["value"] for k, v in metrics.items()
                         if k.startswith("ftl.shard.") and k !=
                         "ftl.shard.queue_full"}
                if w == "sharded_mixed":
                    self.assertTrue(all(v > 0 for v in shard.values()), shard)
                else:
                    self.assertTrue(all(v == 0 for v in shard.values()), shard)

    def test_corrupted_shadow_fails_the_output_check(self):
        code, out, err = run(WORKLOADS[0], 5, 0, "--corrupt-shadow")
        self.assertNotEqual(code, 0)
        self.assertIn("OUTPUT CHECK FAILED", err)
        self.assertIn("lpn", err)
        self.assertIn("seed=5", err)
        self.assertFalse(out.strip().splitlines()[-1:] and
                         out.strip().splitlines()[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()
