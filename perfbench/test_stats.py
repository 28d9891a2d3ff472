"""Tests of the benchmark's statistics. Run from this directory:

    python3 -m unittest test_stats
"""

import statistics
import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_refused(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        xs = [9.1, 9.4, 9.2, 9.8, 9.3, 9.5, 9.0, 9.6, 9.7, 9.35]
        q = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q[0], q[2]))

    def test_spread_is_quartile_distance_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q3 = stats.quartiles(xs)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / 3.0)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class TailPercentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(list(range(1, 101)), 90), 90)
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(1, 100)), 90)

    def test_p90_is_order_independent(self):
        xs = [float(i % 37) for i in range(200)]
        self.assertEqual(
            stats.tail_percentile(xs, 90), stats.tail_percentile(sorted(xs), 90)
        )

    def test_p99_needs_a_thousand_samples(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile([1.0] * 999, 99)
        self.assertEqual(stats.tail_percentile([1.0] * 1000, 99), 1.0)


class MetricNames(unittest.TestCase):
    def test_grammar_accepts_dotted_dashed_names(self):
        for name in ["wall_s", "engine.queue_hold_ns", "experiments.cell_s.abl-red"]:
            self.assertEqual(stats.check_name(name), name)

    def test_grammar_rejects_other_characters(self):
        for name in ["", "wall s", "p50/ms", "tail%", "név", "a\n"]:
            with self.assertRaises(ValueError):
                stats.check_name(name)

    def test_result_checks_every_name(self):
        with self.assertRaises(ValueError):
            stats.result({"bad name": {"value": 1, "unit": "s"}}, 1, 0)


class FailedRuns(unittest.TestCase):
    def test_failures_make_a_run_failed_not_fast(self):
        fast = {"wall_s": {"value": 0.001, "unit": "s"}}
        r = stats.result(fast, attempted=100, failed=1)
        self.assertFalse(r["correct"])
        self.assertEqual((r["attempted"], r["failed"]), (100, 1))

    def test_clean_run_is_correct(self):
        self.assertTrue(stats.result({}, attempted=5, failed=0)["correct"])

    def test_run_that_attempted_nothing_is_not_correct(self):
        self.assertFalse(stats.verdict(0, 0))


class EndToEnd(unittest.TestCase):
    def test_metrics_from_raw_samples(self):
        raw = {
            "wall_s": [2.0, 4.0, 3.0],
            "setup_s": [0.1, 0.3, 0.2],
            "events": [20.0, 40.0, 60.0],
            "rss_kib": [1024.0, 2048.0, 3072.0],
            "hit_a_ms": [[1.0] * 100, [3.0] * 100, [2.0] * 100],
            "hit_b_ms": [[5.0, 7.0]],
            "miss_ms": [[float(i) for i in range(1, 101)]],
            "session_completed": [10.0],
            "session_elapsed_s": [4.0],
        }
        m = stats.end_to_end(raw)
        self.assertEqual(m["wall_s"], (3.0, "s", 3))
        self.assertEqual(m["events_per_s"][0], 10.0)
        self.assertEqual(m["peak_rss_mib"][0], 2.0)
        self.assertEqual(m["hit_p50_ms"], (2.0, "ms", 300))
        self.assertEqual(m["miss_p90_ms"][0], 90.0)
        self.assertEqual(m["connect_hit_p50_ms"][0], 6.0)
        self.assertEqual(m["requests_per_s"][0], 2.5)

    def test_latencies_are_medians_over_sessions(self):
        value, count = stats.per_session([[1.0, 9.0, 9.0], [2.0], [3.0, 3.0]], stats.median)
        self.assertEqual((value, count), (3.0, 6))

    def test_session_without_enough_tail_is_refused(self):
        with self.assertRaises(ValueError):
            stats.per_session([[1.0] * 100, [1.0] * 99], lambda xs: stats.tail_percentile(xs, 90))


if __name__ == "__main__":
    unittest.main()
