#!/usr/bin/env python3
"""Tests of the benchmark itself, on the smoke-size aes design.

Run from anywhere: python3 perfbench/test_run.py
The first test builds the runner (see run.py) if it is not built yet.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"

WORKLOADS = ["mempool-ours-t4", "mempool-ours-t1", "mempool-default-t4",
             "scale1m-sharded-t4"]
PLACE_ONLY = {"scale1m-sharded-t4"}
END_TO_END = ["flow_s", "place_s", "flow_cpu_s", "peak_rss_mb", "setup_s",
              "hpwl_um", "failed_frac"]
POST_ROUTE = ["rwl_um", "wns_ps", "tns_ns", "power_mw", "overflow_edges"]
LAYER_STATS = ["wall_s", "cpu_s", "lane_eff", "peak_rss_mb", "allocs"]
LAYER_EXTRAS = {
    "gen": ["gen.wall_s", "gen.peak_rss_mb"],
    "cluster": ["cluster.extract_s", "cluster.fc_s", "cluster.levels",
                "cluster.merges", "cluster.clusters"],
    "vpr": ["vpr.candidates", "vpr.clusters_shaped", "vpr.us_per_candidate"],
    "place": ["place.seed_s", "place.flat_s", "place.legalize_s",
              "place.iterations", "place.overflow"],
    "route": ["route.nets", "route.reroutes", "route.rrr_rounds",
              "route.failed_nets", "route.us_per_net"],
    "sta": ["sta.runs"],
    "exec": ["exec.lanes", "exec.tasks", "exec.steals"],
    "trace": ["trace.overhead_frac", "trace.coverage_frac"],
}


def layers_of(workload):
    if workload in PLACE_ONLY:
        return ["cluster", "place"]
    if "default" in workload:
        return ["place", "route", "cts", "sta"]
    return ["cluster", "vpr", "place", "route", "cts", "sta"]


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, lines, result


def printed(lines):
    """metric name -> (value, unit) from the 'name = value unit' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[1] == "=":
            out[parts[0]] = (float(parts[2]), parts[3])
    return out


class SmokeTest(unittest.TestCase):
    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                seed = 5
                proc, lines, result = run("--workload", workload, "--seed", str(seed),
                                          "--seconds", "0.3", "--trace", "0",
                                          "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = printed(lines)
                expected = END_TO_END + ([] if workload in PLACE_ONLY else POST_ROUTE)
                for name in expected:
                    self.assertIn(name, metrics)
                self.assertEqual(metrics["failed_frac"], (0.0, "ratio"))
                self.assertEqual(metrics["setup_s"][1], "s")
                provenance = json.loads(next(line for line in lines
                                             if line.startswith("provenance "))
                                        .split(" ", 1)[1])
                designs = 1 if workload in PLACE_ONLY else 5
                self.assertEqual(provenance["design_seeds"],
                                 [seed * designs + k for k in range(designs)])
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], metrics[name][1])

    def test_traced_runs_print_every_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, lines, result = run("--workload", workload, "--seed", "5",
                                          "--seconds", "0.3", "--trace", "1",
                                          "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                metrics = printed(lines)
                expected = [f"{layer}.{stat}" for layer in layers_of(workload)
                            for stat in LAYER_STATS]
                for layer in layers_of(workload) + ["gen", "exec", "trace"]:
                    expected += LAYER_EXTRAS.get(layer, [])
                if workload in PLACE_ONLY:
                    expected += ["place.shard_imbalance", "place.shard_fallbacks"]
                for name in expected:
                    self.assertIn(name, metrics)
                    self.assertEqual(result["metrics"][name]["unit"], metrics[name][1])
                self.assertGreaterEqual(metrics["trace.overhead_frac"][0], 0.0)
                self.assertIn("trace replay QoR bit-identical to the untraced flow: True",
                              lines)
                # The >= 0.95 coverage rule holds at full size; on a smoke
                # design the clock's own bookkeeping is a visible share.
                self.assertGreater(metrics["trace.coverage_frac"][0], 0.5)
                self.assertLessEqual(metrics["trace.coverage_frac"][0], 1.0)

    def test_killed_run_is_counted_not_fatal(self):
        proc, lines, result = run("--workload", "mempool-ours-t4", "--seed", "7",
                                  "--seconds", "0.5", "--trace", "0", "--smoke",
                                  "--first-deadline", "0.000001")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 1)
        self.assertIn("run killed at its", proc.stderr)
        self.assertIn("workload=mempool-ours-t4 threads=4 seed=7 run=0", proc.stderr)
        metrics = printed(lines)
        self.assertAlmostEqual(metrics["failed_frac"][0],
                               1.0 / result["attempted"], places=5)

    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "mempool-ours-t1", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180,
                              env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
