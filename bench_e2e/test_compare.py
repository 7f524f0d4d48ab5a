"""Tests for the benchmark's compare mode. Run: python3 bench_e2e/test_compare.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import compare  # noqa: E402

SPEC = {
    "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower"}],
    "per_layer": [{"name": "lp.pivots", "unit": "count", "better": "lower"}],
}


def record(seed, run_s, pivots):
    return {"workload": "w", "seed": seed, "trace": 0,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "lp.pivots": {"value": pivots, "unit": "count"}}}


def rows(parent, change):
    text = compare.render(parent, change, SPEC)
    return {line.split()[0]: line for line in text.splitlines()[1:]}


class CompareTest(unittest.TestCase):
    def test_times_inside_the_parent_spread_are_noise(self):
        parent = [record(s, v, 10) for s, v in enumerate([1.0, 1.1, 0.9, 1.2, 0.8])]
        change = [record(s, v, 10) for s, v in enumerate([1.05, 1.0, 0.95, 1.1, 1.0])]
        self.assertIn("within noise", rows(parent, change)["run_s"])

    def test_times_outside_the_spread_get_a_direction(self):
        parent = [record(s, v, 10) for s, v in enumerate([1.0, 1.01, 0.99, 1.02])]
        faster = [record(s, v / 2, 10) for s, v in enumerate([1.0, 1.01, 0.99, 1.02])]
        slower = [record(s, v * 2, 10) for s, v in enumerate([1.0, 1.01, 0.99, 1.02])]
        self.assertIn("better", rows(parent, faster)["run_s"])
        self.assertIn("worse", rows(parent, slower)["run_s"])

    def test_a_single_parent_run_gives_no_verdict(self):
        self.assertIn("unresolved", rows([record(1, 1.0, 1)], [record(1, 2.0, 1)])["run_s"])

    def test_counters_compare_exactly_per_seed(self):
        parent = [record(1, 1.0, 100), record(2, 1.0, 200)]
        same = [record(1, 2.0, 100), record(2, 2.0, 200)]
        moved = [record(1, 1.0, 100), record(2, 1.0, 201)]
        self.assertIn("same on 2 seed(s)", rows(parent, same)["lp.pivots"])
        self.assertIn("changed on 1 of 2", rows(parent, moved)["lp.pivots"])


if __name__ == "__main__":
    unittest.main()
