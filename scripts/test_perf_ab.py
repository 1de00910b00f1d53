#!/usr/bin/env python3
"""Unit tests for the same-session A/B script's summary (perf_ab.py).

Run directly (``python3 scripts/test_perf_ab.py``) or via unittest
discovery; CI runs it beside the perf-gate script's tests.
"""

from __future__ import annotations

import importlib.util
import os
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(_HERE, "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

METRICS = [
    {"name": "interactions_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def run(rate: float, setup: float | None = None, attempted: int = 1,
        failed: int = 0) -> dict:
    metrics = {"interactions_per_s": {"value": rate, "unit": "1/s"}}
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


class Summarize(unittest.TestCase):
    def test_ratios_quartiles_and_wins_follow_each_direction(self):
        pairs = [(run(100, 1.0), run(200, 0.5)),
                 (run(100, 1.0), run(150, 1.5)),
                 (run(200, 2.0), run(100, 2.0)),
                 (run(100, 1.0), run(300, 0.8))]
        rate, setup = perf_ab.summarize(pairs, METRICS)

        self.assertEqual(rate["name"], "interactions_per_s")
        self.assertEqual(rate["ratios"], [2.0, 1.5, 0.5, 3.0])
        self.assertEqual(rate["won"], 3)
        self.assertEqual(rate["pairs"], 4)
        self.assertEqual(rate["base"], (100.0, 100.0, 125.0))
        self.assertEqual(rate["head"], (137.5, 175.0, 225.0))

        # Lower is better for setup_s; an exact tie wins nothing.
        self.assertEqual(setup["ratios"], [0.5, 1.5, 1.0, 0.8])
        self.assertEqual(setup["won"], 2)
        self.assertEqual(setup["base"][1], 1.0)

    def test_single_pair_uses_its_value_for_every_quartile(self):
        (rate,) = perf_ab.summarize([(run(10), run(12))], METRICS[:1])
        self.assertEqual(rate["base"], (10, 10, 10))
        self.assertEqual(rate["head"], (12, 12, 12))
        self.assertEqual(rate["won"], 1)

    def test_metric_missing_from_a_run_is_left_out(self):
        pairs = [(run(10, 1.0), run(12)), (run(10, 1.0), run(11, 0.9))]
        summary = perf_ab.summarize(pairs, METRICS)
        self.assertEqual([entry["name"] for entry in summary],
                         ["interactions_per_s"])

    def test_format_names_every_metric_and_the_win_share(self):
        text = perf_ab.format_summary(perf_ab.summarize(
            [(run(100, 1.0), run(200, 0.5))] * 2, METRICS))
        self.assertIn("interactions_per_s (higher is better)", text)
        self.assertIn("head/base per pair: 2.000 2.000", text)
        self.assertIn("setup_s (lower is better)", text)
        self.assertEqual(text.count("head won 2/2 pairs"), 2)


class Verdict(unittest.TestCase):
    def test_median_past_the_bound_is_worse_in_either_direction(self):
        base = [100.0, 101.0, 102.0, 103.0]
        self.assertEqual(perf_ab.verdict("higher", 0.25, base,
                                         [70.0, 74.0, 76.0, 80.0]), "worse")
        self.assertEqual(perf_ab.verdict("higher", 0.25, base,
                                         [78.0, 78.0, 79.0, 80.0]), "ok")
        self.assertEqual(perf_ab.verdict("lower", 0.25, base,
                                         [130.0, 131.0, 132.0, 133.0]),
                         "worse")
        self.assertEqual(perf_ab.verdict("lower", 0.25, base,
                                         [60.0, 61.0, 62.0, 63.0]), "ok")

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        # Base quartiles [85, 135] around a median of 110: a spread of
        # 50 > 0.25 * 110, so a head within the bound is not "unchanged".
        base = [60.0, 100.0, 120.0, 150.0]
        head = [90.0, 105.0, 115.0, 160.0]
        self.assertEqual(perf_ab.verdict("higher", 0.25, base, head),
                         "unresolved")
        self.assertEqual(perf_ab.verdict("lower", 0.25, base, head),
                         "unresolved")

    def test_every_head_run_beating_every_base_run_resolves_the_spread(self):
        base = [60.0, 100.0, 120.0, 150.0]
        self.assertEqual(perf_ab.verdict("higher", 0.25, base,
                                         [151.0, 160.0, 170.0, 180.0]), "ok")
        self.assertEqual(perf_ab.verdict("lower", 0.25, base,
                                         [10.0, 20.0, 30.0, 59.0]), "ok")

    def test_metric_without_a_bound_is_not_judged(self):
        self.assertEqual(perf_ab.verdict("higher", None, [1.0], [0.1]), "-")

    def test_summary_carries_the_verdict(self):
        (rate,) = perf_ab.summarize(
            [(run(100), run(60)), (run(100), run(62))], METRICS[:1])
        self.assertEqual(rate["verdict"], "worse")


class Workloads(unittest.TestCase):
    KNOWN = ["paper_sweep", "huge_n_gathering", "replay_cost"]

    def test_all_names_every_workload_in_order(self):
        self.assertEqual(perf_ab.parse_workloads("all", self.KNOWN),
                         self.KNOWN)

    def test_comma_separated_list_keeps_its_order(self):
        self.assertEqual(
            perf_ab.parse_workloads("replay_cost, paper_sweep", self.KNOWN),
            ["replay_cost", "paper_sweep"])

    def test_unknown_or_empty_list_is_rejected(self):
        for spec in ("paper_sweep,nope", "", ","):
            with self.assertRaises(ValueError):
                perf_ab.parse_workloads(spec, self.KNOWN)


class Table(unittest.TestCase):
    def test_failed_share_sums_over_runs(self):
        runs = [run(1, attempted=10, failed=1), run(1, attempted=30)]
        self.assertEqual(perf_ab.failed_share(runs), 0.025)
        self.assertIsNone(perf_ab.failed_share([run(1, attempted=0)]))

    def test_one_row_per_workload_and_metric(self):
        results = {
            "paper_sweep": [(run(100, 1.0), run(170, 0.8))] * 3,
            "replay_cost": [(run(100, 1.0, attempted=4, failed=1),
                             run(70, 1.0, attempted=4))] * 2,
        }
        lines = perf_ab.format_table(results, METRICS).splitlines()
        self.assertEqual(len(lines), 5)
        self.assertEqual(lines[0].split()[:2], ["workload", "metric"])
        self.assertEqual(lines[1].split(),
                         ["paper_sweep", "interactions_per_s", "1.700", "3/3",
                          "0.000", "0.000", "ok"])
        self.assertEqual(lines[2].split(),
                         ["paper_sweep", "setup_s", "0.800", "3/3", "0.000",
                          "0.000", "ok"])
        self.assertEqual(lines[3].split(),
                         ["replay_cost", "interactions_per_s", "0.700", "0/2",
                          "0.250", "0.000", "worse"])
        self.assertEqual(lines[4].split()[-1], "ok")


if __name__ == "__main__":
    unittest.main()
