#!/usr/bin/env python3
"""Tests of check_perf.py against the committed BENCH_1.json/BENCH_2.json.

Run with `python3 scripts/test_check_perf.py` from anywhere.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SCRIPTS)
BENCH_1 = os.path.join(ROOT, "BENCH_1.json")
BENCH_2 = os.path.join(ROOT, "BENCH_2.json")
LINE = re.compile(r"^\[(PASS|FAIL|SKIP)\] ([^:]+):")

SCENARIOS = ("paper-baseline", "bursty-arrivals", "attacker-drift",
             "budget-shocks", "noisy-evidence", "multi-site", "metro-grid")
EXPECTED = {
    "throughput.alerts_per_sec", "throughput.warm_start_hit_rate",
    "throughput.warm_speedup_5type", "streaming.present",
    "streaming.latency_sane", "streaming.alerts_per_sec",
    "streaming.p99_micros", "pruning.present", "pruning.pruned_lp_fraction",
    "pruning.exhaustive_arm_is_exhaustive", "pruning.speedup",
    "lp_kernel.present", "lp_kernel.sizes", "lp_kernel.speedup_128_baseline",
    "lp_kernel.speedup_128", "lp_kernel.pivots_128",
    "lp_kernel.epsilon_mode.present", "lp_kernel.epsilon_mode.skips",
    "lp_kernel.epsilon_mode.certificate",
    "scenarios.count",
    *[f"scenario.{name}.{check}" for name in SCENARIOS
      for check in ("alerts", "alerts_per_sec", "warm_start_hit_rate",
                    "pruned_lp_fraction_sane")],
    *[f"scenario.{name}.{check}" for name in ("multi-site", "metro-grid")
      for check in ("pruned_lp_fraction", "alerts_per_sec_vs_baseline")],
    "durability.present", "durability.alerts",
    "durability.recovered_bitwise_equal",
    "durability.fsync_off_alerts_per_sec",
    "durability.fsync_on_alerts_per_sec",
    "durability.recovery_alerts_per_sec", "durability.recovery_vs_baseline",
    "scaling.present", "scaling.parallel_feature", "scaling.results_identical",
    "scaling.points", "scaling.service_alerts",
    "scaling.service_alerts_per_sec",
    "scaling.service_alerts_per_sec_vs_baseline", "scaling.replay_speedup",
    "scaling.service_speedup",
    *[f"scaling.{curve}_speedup_{n}shards" for curve in ("cluster", "replay")
      for n in (2, 4, 8)],
    "service_network.present", "service_network.metrics_consistent",
    "service_network.alerts", "service_network.alerts_per_sec",
    "service_network.latency_sane", "service_network.per_shard",
    "service_network.shed_probe.present", "service_network.shed_probe.sheds",
    "service_network.shed_probe.retries",
    "service_network.alerts_per_sec_vs_baseline",
    "service_network.p99_micros",
    "service_chaos.present", "service_chaos.bitwise_equal",
    "service_chaos.recovery_converged", "service_chaos.faults_injected",
    "service_chaos.retries", "service_chaos.duplicates_suppressed",
    "service_chaos.goodput_alerts_per_sec", "service_chaos.goodput_vs_baseline",
}

# The hard correctness flags of BENCH_2: (section, key).
FLAGS = (("durability", "recovered_bitwise_equal"),
         ("scaling", "results_identical"),
         ("service_network", "metrics_consistent"),
         ("service_chaos", "bitwise_equal"),
         ("service_chaos", "recovery_converged"))


def check_perf(bench2):
    """Run check_perf.py over every section with the committed files as
    baselines and `bench2` as the fresh BENCH_2; return (exit code,
    {label: status})."""
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "check_perf.py"),
         "--baseline", BENCH_1, "--throughput", BENCH_1,
         "--scenarios", bench2, "--scenario-baseline", BENCH_2],
        capture_output=True, text=True, check=False)
    verdicts = {}
    for line in proc.stdout.splitlines():
        match = LINE.match(line)
        if match:
            verdicts[match.group(2)] = match.group(1)
    return proc.returncode, verdicts


class CheckPerfTest(unittest.TestCase):
    def setUp(self):
        with open(BENCH_2) as f:
            self.bench2 = json.load(f)
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def run_with(self, bench2):
        path = os.path.join(self.tmp.name, "BENCH_2.json")
        with open(path, "w") as f:
            json.dump(bench2, f)
        return check_perf(path)

    def test_committed_reports_pass_with_the_expected_labels(self):
        code, verdicts = check_perf(BENCH_2)
        self.assertEqual(code, 0, verdicts)
        self.assertEqual(set(verdicts), EXPECTED)
        self.assertNotIn("FAIL", verdicts.values())

    def test_each_hard_flag_fails_its_label(self):
        for section, key in FLAGS:
            with self.subTest(flag=key):
                bench2 = json.loads(json.dumps(self.bench2))
                bench2[section][key] = False
                code, verdicts = self.run_with(bench2)
                self.assertEqual(code, 1)
                self.assertEqual(verdicts[f"{section}.{key}"], "FAIL")

    def test_a_missing_section_fails_only_its_presence(self):
        bench2 = dict(self.bench2)
        del bench2["durability"]
        code, verdicts = self.run_with(bench2)
        self.assertEqual(code, 1)
        self.assertEqual(verdicts["durability.present"], "FAIL")
        failed = {label for label, v in verdicts.items() if v == "FAIL"}
        self.assertEqual(failed, {"durability.present"})
        for label in ("scaling.results_identical",
                      "service_chaos.bitwise_equal", "scenarios.count"):
            self.assertEqual(verdicts[label], "PASS")


if __name__ == "__main__":
    unittest.main()
