#!/usr/bin/env python3
"""Tests for the benchmark's own arithmetic (metrics.py).

    python3 perfbench/test_metrics.py

They need neither the program nor a build: every case feeds metrics.py
hand-made samples or a minimal raw report.
"""

import copy
import json
import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "BENCHMARK.json")) as f:
    END_TO_END_UNITS, PER_LAYER_UNITS = metrics.declared(json.load(f))


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(1000), (99.0, 10))
        self.assertEqual(metrics.tail_percentile(200), (95.0, 10))
        self.assertEqual(metrics.tail_percentile(100), (90.0, 10))

    def test_fewer_samples_name_a_lower_percentile(self):
        self.assertEqual(metrics.tail_percentile(199), (90.0, 19))
        self.assertEqual(metrics.tail_percentile(40), (75.0, 10))
        self.assertEqual(metrics.tail_percentile(20), (50.0, 10))

    def test_too_few_samples_fall_back_to_the_median(self):
        p, beyond = metrics.tail_percentile(7)
        self.assertEqual(p, 50.0)
        self.assertEqual(beyond, 3)

    def test_every_choice_leaves_ten_beyond_when_possible(self):
        for n in range(20, 3000, 7):
            p, beyond = metrics.tail_percentile(n)
            self.assertGreaterEqual(beyond, metrics.MIN_BEYOND)
            higher = [q for q in metrics.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(n - 1 - metrics.rank_index(n, q),
                                metrics.MIN_BEYOND)

    def test_failures_rank_slower_than_every_success(self):
        values = [5.0] * 90 + [math.inf] * 10 + [7.0]
        self.assertEqual(metrics.percentile(values, 50.0), 5.0)
        self.assertTrue(math.isinf(metrics.percentile(values, 95.0)))


class OrderStatisticsTest(unittest.TestCase):
    def test_median_and_quartiles_follow_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = metrics.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))
        self.assertAlmostEqual(metrics.spread(values), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(metrics.spread([2.0] * 10), 0.0)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50.0), 50)
        self.assertEqual(metrics.percentile(values, 95.0), 95)
        self.assertEqual(metrics.percentile(values, 99.9), 100)


def span(sid, parent, start, end, name="x", phase="timed", **args):
    return {"id": sid, "p": parent, "s": start, "e": end, "n": name,
            "ph": phase, "r": 0, "pid": 1, "tid": 1, "a": args}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(1, 0, 10, 25)]), {1: 15})

    def test_overlapping_children_are_subtracted_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)]
        self_ns = metrics.self_times(spans)
        self.assertEqual(self_ns[1], 100 - 60)
        self.assertEqual(self_ns[2], 40)
        self.assertEqual(self_ns[3], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130),
                 span(3, 1, -20, 10)]
        self.assertEqual(metrics.self_times(spans)[1], 100 - 20)

    def test_grandchildren_do_not_count_against_the_grandparent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 40), span(3, 2, 0, 30)]
        self_ns = metrics.self_times(spans)
        self.assertEqual(self_ns[1], 60)
        self.assertEqual(self_ns[2], 10)

    def test_trace_events_carry_self_time_and_parent(self):
        spans = [span(1, 0, 1000, 5000), span(2, 1, 2000, 3000)]
        events = metrics.trace_events(spans, metrics.self_times(spans))
        slices = [e for e in events["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(slices[0]["dur"], 4.0)
        self.assertEqual(slices[0]["args"]["self_us"], 3.0)
        self.assertEqual(slices[1]["args"]["parent"], 1)
        self.assertEqual(slices[1]["ts"], 1.0)


class LatencyClassTest(unittest.TestCase):
    def classes(self):
        # fast 40%, mid 35%, slow 25%: boundaries at 0.40 and 0.75.
        return ([("fast", 10.0 + i % 3) for i in range(40)]
                + [("mid", 50.0 + i % 5) for i in range(35)]
                + [("slow", 300.0 + i % 7) for i in range(25)])

    def test_quantiles_inside_classes_pass(self):
        ok, placed = metrics.latency_class_check(self.classes(), (0.5, 0.95))
        self.assertTrue(ok)
        self.assertEqual([label for _, label, _ in placed], ["mid", "slow"])
        self.assertAlmostEqual(placed[0][2], 0.10)
        self.assertAlmostEqual(placed[1][2], 0.20)

    def test_quantile_on_a_boundary_fails(self):
        ok, placed = metrics.latency_class_check(self.classes(), (0.5, 0.76))
        self.assertFalse(ok)
        self.assertAlmostEqual(placed[1][2], 0.01)

    def test_classes_are_ordered_by_latency_not_by_name(self):
        samples = [("a-slow", 100.0)] * 50 + [("z-fast", 1.0)] * 50
        ok, placed = metrics.latency_class_check(samples, (0.25,))
        self.assertEqual(placed[0][1], "z-fast")
        self.assertTrue(ok)


PINS = {
    "bing": {"pixel": {"digest": "0x01", "window": 100},
             "syscalls": {"digest": "0x02", "window": 100}},
}


def profile_cli_raw():
    """Minimal profile-cli report: two iterations of bing, both modes."""
    children = []
    for rep in range(3):
        children.append({"kind": "record", "rep": rep,
                         "recording": "bing",
                         "report": {"records": 100, "trace_bytes": 3200,
                                    "record_ns": 1000, "spans": []}})
    for it in range(2):
        for mode, digest in (("pixel", "0x01"), ("syscalls", "0x02")):
            children.append({
                "kind": "profile", "phase": "untraced", "iteration": it,
                "recording": "bing", "mode": mode, "wall_ns": 2000,
                "exit": 0,
                "report": {"records": 100, "window": 100, "digest": digest,
                           "peak_rss_mb": 50.0, "spans": []}})
    return {"workload": "profile-cli", "children": children,
            "setup_s": [1.0, 1.2, 1.1], "probe_ms": [20.0],
            "phases": [{"name": "untraced", "wall_s": 0.01, "cpu_s": 0.02,
                        "process_peak_rss_mb": 8.0}]}


class PinnedDigestTest(unittest.TestCase):
    def test_matching_pins_give_ok_frac_one(self):
        raw = profile_cli_raw()
        m, _ = metrics.end_to_end(raw, PINS)
        self.assertEqual(m["ok_frac"], 1.0)
        result = metrics.result_line(metrics.workload_ops(raw, PINS), m,
                                     END_TO_END_UNITS)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (4, 0))
        self.assertEqual(set(m), set(END_TO_END_UNITS))

    def test_wrong_pinned_digest_drives_ok_frac_below_one(self):
        raw = profile_cli_raw()
        pins = copy.deepcopy(PINS)
        pins["bing"]["syscalls"]["digest"] = "0xdeadbeef"
        m, _ = metrics.end_to_end(raw, pins)
        self.assertEqual(m["ok_frac"], 0.5)
        # Each iteration holds a mismatch, so both rank as failures.
        self.assertEqual(m["profile_mrec_s"], 0.0)
        self.assertTrue(math.isinf(m["query_ms_tail"]))
        self.assertTrue(math.isinf(m["query_ms_p50"]))
        result = metrics.result_line(metrics.workload_ops(raw, pins), m,
                                     END_TO_END_UNITS)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)

    def test_result_line_refuses_undeclared_metrics(self):
        with self.assertRaises(ValueError):
            metrics.result_line([], {"made_up": 1.0}, END_TO_END_UNITS)

    def test_wrong_window_is_a_mismatch_too(self):
        raw = profile_cli_raw()
        raw["children"][-1]["report"]["window"] = 99
        m, _ = metrics.end_to_end(raw, PINS)
        self.assertEqual(m["ok_frac"], 0.75)


if __name__ == "__main__":
    unittest.main()
