"""Tests of the benchmark's own statistics.

Run from the repository root:  python3 -m unittest discover perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import metrics  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_thousand_samples_give_p99(self):
        p, value, n = metrics.tail_percentile(list(range(1000)))
        self.assertEqual((p, n), (99.0, 1000))
        self.assertAlmostEqual(value, 989.01)

    def test_just_short_of_p99_falls_to_p95(self):
        p, _, n = metrics.tail_percentile(list(range(999)))
        self.assertEqual((p, n), (95.0, 999))

    def test_ten_thousand_samples_give_p999(self):
        p, _, _ = metrics.tail_percentile([1.0] * 10000)
        self.assertEqual(p, 99.9)

    def test_hundred_samples_give_p90(self):
        p, value, n = metrics.tail_percentile(list(range(100)))
        self.assertEqual((p, n), (90.0, 100))
        self.assertAlmostEqual(value, 89.1)

    def test_twenty_samples_give_the_median(self):
        p, _, _ = metrics.tail_percentile(list(range(20)))
        self.assertEqual(p, 50.0)

    def test_too_few_samples_give_none(self):
        self.assertEqual(metrics.tail_percentile(list(range(19))),
                         (None, None, 19))
        self.assertEqual(metrics.tail_percentile([]), (None, None, 0))


class FailRatioTest(unittest.TestCase):
    def test_all_completed(self):
        self.assertEqual(metrics.fail_ratio({"completed": 40}), (0, 40, 0.0))

    def test_err_and_transport_failures_count(self):
        failed, attempted, ratio = metrics.fail_ratio(
            {"completed": 6, "error:UNAVAILABLE": 1, "error:INVALID_ARGUMENT": 1})
        self.assertEqual((failed, attempted), (2, 8))
        self.assertAlmostEqual(ratio, 0.25)

    def test_partial_terminations_count_as_failed(self):
        failed, attempted, _ = metrics.fail_ratio(
            {"completed": 7, "partial:deadline": 2, "partial:budget": 1})
        self.assertEqual((failed, attempted), (3, 10))

    def test_nothing_attempted(self):
        self.assertEqual(metrics.fail_ratio({}), (0, 0, 0.0))


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(id_, parent, start, end, name="x.y"):
        return (id_, parent, 1, name, start, end)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([self.span(1, 0, 0, 10)]), {1: 10})

    def test_children_inside_parent(self):
        times = metrics.self_times([
            self.span(1, 0, 0, 100), self.span(2, 1, 10, 30),
            self.span(3, 1, 50, 60)])
        self.assertEqual(times[1], 70)

    def test_children_overlapping_parent_edges_are_clipped(self):
        # One child starts before the parent, one ends after it: only the
        # parts inside [0, 100] are subtracted.
        times = metrics.self_times([
            self.span(1, 0, 0, 100), self.span(2, 1, -20, 10),
            self.span(3, 1, 90, 130)])
        self.assertEqual(times[1], 80)
        self.assertEqual(times[2], 30)

    def test_overlapping_children_are_not_subtracted_twice(self):
        times = metrics.self_times([
            self.span(1, 0, 0, 100), self.span(2, 1, 10, 50),
            self.span(3, 1, 40, 70)])
        self.assertEqual(times[1], 40)

    def test_child_covering_the_whole_parent_leaves_zero(self):
        times = metrics.self_times([
            self.span(1, 0, 10, 20), self.span(2, 1, 0, 30)])
        self.assertEqual(times[1], 0)

    def test_grandchildren_only_reduce_their_parent(self):
        times = metrics.self_times([
            self.span(1, 0, 0, 100), self.span(2, 1, 0, 50),
            self.span(3, 2, 0, 40)])
        self.assertEqual((times[1], times[2], times[3]), (50, 10, 40))

    def test_layer_of(self):
        self.assertEqual(metrics.layer_of("core.run"), "core")
        self.assertEqual(metrics.layer_of("bench"), "bench")


if __name__ == "__main__":
    unittest.main()
