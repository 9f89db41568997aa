"""Tests of compare.py's verdicts (choosing-metrics sections 6-8).

Run from the repository root:  python3 -m unittest discover perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from compare import verdict  # noqa: E402


def seeds(values):
    return dict(enumerate(values, start=1))


class VerdictTest(unittest.TestCase):
    BASE = seeds([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])

    def test_same(self):
        change = seeds([101, 100, 100, 99, 101, 99, 100, 100, 100, 101])
        self.assertEqual(verdict(self.BASE, change, 0.1, False), "same")

    def test_gain_needs_nine_of_ten_pairs_and_more_than_the_spread(self):
        change = seeds([v * 0.8 for v in self.BASE.values()])
        self.assertEqual(verdict(self.BASE, change, 0.1, False), "gain")
        # Higher is better: the same numbers are now a loss.
        self.assertEqual(verdict(self.BASE, change, 0.1, True), "regression")

    def test_a_win_on_fewer_than_nine_pairs_is_no_gain(self):
        values = [v * 0.95 for v in self.BASE.values()]
        values[0] = values[1] = 200
        self.assertEqual(verdict(self.BASE, seeds(values), 0.1, False), "same")

    def test_fewer_than_ten_pairs_give_no_verdict(self):
        base = dict(list(self.BASE.items())[:9])
        for factor in (0.8, 1.2):
            change = {seed: v * factor for seed, v in self.BASE.items()}
            self.assertEqual(verdict(base, change, 0.1, False), "unresolved")

    def test_regression_beyond_the_bound(self):
        change = seeds([v * 1.2 for v in self.BASE.values()])
        self.assertEqual(verdict(self.BASE, change, 0.1, False), "regression")

    def test_unresolved_when_the_base_spreads_more_than_the_bound(self):
        base = seeds([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
        change = seeds([65, 135, 85, 125, 105, 75, 125, 95, 105, 100])
        self.assertEqual(verdict(base, change, 0.1, False), "unresolved")


if __name__ == "__main__":
    unittest.main()
