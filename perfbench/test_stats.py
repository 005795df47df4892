"""Self-test of the benchmark's statistics (perfbench/stats.py).

    python3 perfbench/test_stats.py
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_follow_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual(q2, 5.5)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_spread_of_identical_values_is_zero(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class PercentileSupport(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertFalse(stats.supported(999, 99))
        self.assertTrue(stats.supported(1000, 99))
        self.assertIsNone(stats.percentile(list(range(999)), 99))
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)

    def test_p90_and_p50(self):
        self.assertFalse(stats.supported(99, 90))
        self.assertTrue(stats.supported(100, 90))
        self.assertFalse(stats.supported(19, 50))
        self.assertTrue(stats.supported(20, 50))

    def test_highest_supported_percentile(self):
        self.assertEqual(stats.highest_supported(1000), 99.0)
        self.assertEqual(stats.highest_supported(100), 90.0)
        self.assertEqual(stats.highest_supported(200), 95.0)
        self.assertIsNone(stats.highest_supported(15))
        # Exactly ten samples lie beyond the reported percentile.
        n = 1234
        p = stats.highest_supported(n)
        self.assertGreaterEqual(stats.samples_beyond(n, p), 10)
        self.assertLess(stats.samples_beyond(n, p + 0.1), 10)

    def test_nearest_rank(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(stats.percentile(values, 50), 50.0)
        self.assertEqual(stats.percentile(values, 90), 90.0)


class WindowedPercentile(unittest.TestCase):
    def test_one_burst_moves_one_slice_only(self):
        quiet = [1.0] * 1000
        burst = [1.0] * 900 + [50.0] * 100
        values = quiet * 2 + burst + quiet * 2
        self.assertEqual(stats.percentile(values, 99), 50.0)
        self.assertEqual(stats.windowed_percentile(values, 99), 1.0)

    def test_every_slice_must_support_the_percentile(self):
        self.assertIsNone(stats.windowed_percentile([1.0] * 4999, 99))
        self.assertEqual(stats.windowed_percentile([1.0] * 5000, 99), 1.0)
        self.assertIsNone(stats.windowed_percentile([1.0] * 499, 90))

    def test_failures_stay_in_their_slice(self):
        values = stats.latency_series([1.0] * 4940 + [-1] * 60)
        self.assertTrue(math.isinf(stats.percentile(values, 99)))
        self.assertEqual(stats.windowed_percentile(values, 99), 1.0)


class ScheduledSendLatency(unittest.TestCase):
    def test_stalled_generator_charges_the_stall(self):
        # Requests due every 10 ms; the generator stalls and sends the
        # second to fourth at t=50. Each completes 1 ms after its send.
        scheduled = [0.0, 10.0, 20.0, 30.0]
        sent = [0.0, 50.0, 50.0, 50.0]
        completed = [s + 1.0 for s in sent]
        lat = stats.scheduled_latencies(scheduled, completed)
        self.assertEqual(lat, [1.0, 41.0, 31.0, 21.0])
        # Timing from the actual send would hide the stall entirely.
        self.assertEqual(stats.scheduled_latencies(sent, completed),
                         [1.0, 1.0, 1.0, 1.0])

    def test_mismatched_lengths(self):
        with self.assertRaises(ValueError):
            stats.scheduled_latencies([0.0], [])


class FailureCounting(unittest.TestCase):
    def test_failures_miss_any_limit(self):
        series = stats.latency_series([1.0] * 990 + [-1] * 10)
        self.assertEqual(len(series), 1000)
        self.assertEqual(stats.percentile(series, 50), 1.0)
        self.assertEqual(stats.percentile(series, 99), 1.0)
        series = stats.latency_series([1.0] * 980 + [-1] * 20)
        self.assertTrue(math.isinf(stats.percentile(series, 99)))

    def test_failed_fraction(self):
        self.assertEqual(stats.failed_fraction(200, 0), 0.0)
        self.assertEqual(stats.failed_fraction(200, 5), 0.025)
        with self.assertRaises(ValueError):
            stats.failed_fraction(0, 0)
        with self.assertRaises(ValueError):
            stats.failed_fraction(10, 11)


if __name__ == "__main__":
    unittest.main()
