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
    {"name": "interactions_per_s", "better": "higher"},
    {"name": "setup_s", "better": "lower"},
]


def run(rate: float, setup: float | None = None) -> dict:
    metrics = {"interactions_per_s": {"value": rate, "unit": "1/s"}}
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}


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


if __name__ == "__main__":
    unittest.main()
