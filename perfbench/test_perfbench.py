#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and of same-seed determinism.

    python3 perfbench/test_perfbench.py        (or: python3 perfbench/run.py --selftest)

The determinism test builds the benchmark (as run.py does) and runs one
failure_storm replicate twice with the same seed."""

import json
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stats  # noqa: E402


def span(id_, parent, name, start, end, work=0.0):
    return {"id": id_, "parent": parent, "name": name, "start_ns": start, "end_ns": end,
            "work": work}


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertFalse(stats.percentile_allowed(99, 90))
        self.assertTrue(stats.percentile_allowed(100, 90))
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(120, 90), 12)
        with self.assertRaises(ValueError):
            stats.high_percentile(list(range(99)))

    def test_reported_percentile_has_ten_samples_above(self):
        values = list(range(1, 121))
        p90 = stats.high_percentile(values)
        self.assertEqual(p90, 108)
        self.assertGreaterEqual(sum(1 for v in values if v > p90), stats.MIN_BEYOND)

    def test_replay_takes_enough_samples_per_layer(self):
        with open(os.path.join(os.path.dirname(__file__), "layers.h")) as header:
            text = header.read()
        samples = int(text.split("kSamplesPerLayer = ")[1].split(";")[0])
        self.assertTrue(stats.percentile_allowed(samples, stats.HIGH_PERCENTILE))

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2)


class Ratios(unittest.TestCase):
    def test_ratio_needs_a_positive_base(self):
        self.assertEqual(stats.ratio(3.0, 4.0), 0.75)
        for base in (0, -1.0, None):
            with self.assertRaises(ValueError):
                stats.ratio(1.0, base)

    def test_ceiling_ratios_use_their_declared_base(self):
        spans = []
        # Capture moves 1 MB in 1 ms (1000 MB/s); memcpy 1 MB in 0.1 ms.
        for i in range(120):
            spans.append(span(2 * i, -1, "storage.capture", 0, 1_000_000, 1e6))
            spans.append(span(2 * i + 1, -1, "ceiling.memcpy", 0, 100_000, 1e6))
        groups = stats.group_spans(spans)
        capture = statistics.median(stats.rates(groups["storage.capture"])) * 1e-6
        memcpy = statistics.median(stats.rates(groups["ceiling.memcpy"])) * 1e-6
        self.assertAlmostEqual(capture, 1000.0)
        self.assertAlmostEqual(stats.ratio(capture, memcpy), 0.1)
        declared = {metric for _, metric, _, _ in stats.THROUGHPUTS}
        for metric, numerator, base in stats.CEILING_RATIOS:
            self.assertIn(numerator, declared, metric)
            self.assertIn(base, declared, metric)
            self.assertTrue(base.startswith("ceiling."), metric)

    def test_outcomes_average_over_recoveries(self):
        record = {"sim": {"effective_ratio": 0.5, "iteration_time_ratio": 1.0,
                          "ckpt_overhead_pct": 0.0},
                  "recovery_records": [
                      {"wasted_s": w, "downtime_s": d, "source": s}
                      for w, d, s in ((10.0, 5.0, "local_cpu_memory"),
                                      (30.0, 25.0, "persistent_storage"),
                                      (20.0, 30.0, "remote_cpu_memory"))]}
        outcomes = stats.outcomes(record)
        self.assertEqual(outcomes["recoveries"], 3)
        self.assertAlmostEqual(outcomes["wasted_s_mean"], 20.0)
        self.assertAlmostEqual(outcomes["downtime_s_mean"], 20.0)
        self.assertAlmostEqual(outcomes["in_memory_recovery_ratio"], 2 / 3)
        self.assertAlmostEqual(outcomes["effective_ratio"], 0.5)
        with self.assertRaises(ValueError):
            stats.outcomes({"sim": record["sim"], "recovery_records": []})


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(0, -1, "replay", 0, 100),
                 span(1, 0, "replay.x", 10, 60),
                 span(2, 1, "x.call", 20, 30),
                 span(3, 1, "x.call", 40, 50)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs, {0: 50, 1: 30, 2: 10, 3: 10})


class Names(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as spec:
            self.spec = json.load(spec)

    def test_metric_names_match_the_pattern_and_are_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertRegex(name, stats.NAME_RE)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)))

    def test_declared_per_layer_metrics_are_the_ones_computed(self):
        computed = {stem + suffix for _, stem, _, _ in stats.TIMINGS for suffix in (".p50", ".p90")}
        computed |= {m for _, m, _, _ in stats.THROUGHPUTS}
        computed |= {m for m, _, _ in stats.CEILING_RATIOS}
        computed |= {m for m, _, _ in stats.COUNTS}
        computed |= {f"{stem}.{p}" for stem in ("kvstore.host_ms_per_sim_hour",
                                                "agent.host_ms_per_sim_hour")
                     for p in ("p50", "p90")}
        computed |= {"storage.delta_commit_ratio", "recovery.preempted_ratio",
                     "schedule.ckpt_interval_iters", "schedule.transmission_s",
                     "trace.coverage", "trace.overhead_pct", "sim_hours_per_s"}
        self.assertEqual({m["name"] for m in self.spec["per_layer"]}, computed)

    def test_workloads_match_the_runner(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))


class SameSeed(unittest.TestCase):
    def test_two_runs_of_one_seed_agree(self):
        self.assertTrue(run.build(), "benchmark build failed")
        args = ["untraced", "--workload", "failure_storm", "--seed", "7", "--verify-replay", "1"]
        first, error = run.run_binary(args)
        self.assertEqual(error, "")
        second, error = run.run_binary(args)
        self.assertEqual(error, "")
        self.assertEqual(run.fingerprint(first), run.fingerprint(second))
        self.assertEqual(run.check_untraced(first, True), [])
        self.assertGreater(len(first["recovery_records"]), 0)


if __name__ == "__main__":
    unittest.main()
