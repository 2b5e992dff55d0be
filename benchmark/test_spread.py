"""Tests of the spread and bound arithmetic in spread.py.

    python3 -m unittest discover -s benchmark
"""

import json
import os
import statistics
import unittest

import spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SpreadTest(unittest.TestCase):
    def test_spread_is_the_interquartile_distance_over_the_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(q1, 11.75)
        self.assertAlmostEqual(q3, 17.25)
        self.assertAlmostEqual(spread.spread(values), 5.5 / 14.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread.spread([1.0] * 10), 0.0)


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(spread.worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(spread.worse_by(100.0, 90.0, "lower"), -0.10)
        self.assertTrue(spread.regressed(100.0, 111.0, "lower", 0.10))
        self.assertFalse(spread.regressed(100.0, 109.0, "lower", 0.10))
        self.assertFalse(spread.regressed(100.0, 50.0, "lower", 0.10))

    def test_higher_is_better(self):
        self.assertAlmostEqual(spread.worse_by(100.0, 90.0, "higher"), 0.10)
        self.assertTrue(spread.regressed(100.0, 89.0, "higher", 0.10))
        self.assertFalse(spread.regressed(100.0, 91.0, "higher", 0.10))
        self.assertFalse(spread.regressed(100.0, 200.0, "higher", 0.10))

    def test_exactly_at_the_bound_is_not_a_regression(self):
        self.assertFalse(spread.regressed(100.0, 125.0, "lower", 0.25))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_follows_the_name_and_bound_rules(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        allowed = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
        for name in names:
            self.assertTrue(len(name) <= 64 and name[0].isalnum() and set(name) <= allowed, name)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
