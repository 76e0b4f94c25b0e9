#!/usr/bin/env python3
"""Self-test of the benchmark's percentile and aggregation code.

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def record(samples=None, counters=None, spans=None):
    return {"samples": samples or {}, "counters": counters or {},
            "spans": spans or []}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)

    def test_is_always_a_sample(self):
        values = [0.5, 3.0, 1.25, 9.0]
        for p in (1, 10, 25, 50, 75, 90, 99, 100):
            self.assertIn(stats.percentile(values, p), values)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 90), 5)

    def test_single_sample(self):
        self.assertEqual(stats.percentile([7.5], 1), 7.5)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_small_sample_rounds_rank_up(self):
        # ceil(0.9 * 15) = 14th of 15.
        self.assertEqual(stats.percentile(list(range(15)), 90), 13)
        # ceil(0.99 * 200) = 198th of 200.
        self.assertEqual(stats.percentile(list(range(200)), 99), 197)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class MedianSpreadTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_spread_is_iqr_over_median(self):
        values = [10.0] * 5 + [11.0] * 5
        q1, _, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values),
                               (q3 - q1) / 10.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class AggregationTest(unittest.TestCase):
    def test_end_to_end_metrics(self):
        run = stats.Run(record(samples={
            "setup_s": [3.0, 1.0, 2.0],
            "traverse_s": [1.0], "rank_s": [2.0], "community_s": [3.0],
            "ingest_eps": [100.0, 300.0],
            "ingest_ms": list(range(1, 11)),
            "point_ms": list(range(1, 201)),
            "query_ms": list(range(1, 101)),
        }))
        m = stats.compute(stats.END_TO_END, run)
        self.assertEqual(set(m), set(stats.END_TO_END))
        self.assertEqual(m["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(m["ingest_eps"]["value"], 200.0)
        self.assertEqual(m["ingest_p50_ms"]["value"], 5.0)
        self.assertEqual(m["point_p50_ms"]["value"], 100.0)
        self.assertEqual(m["query_p50_ms"]["value"], 50.0)
        t = stats.compute(stats.TAILS, run)
        self.assertEqual(t["ingest_p90_ms"]["value"], 9.0)
        self.assertEqual(t["point_p99_ms"]["value"], 198.0)
        self.assertEqual(t["query_p90_ms"]["value"], 90.0)
        self.assertFalse(set(t) & set(m))

    def test_missing_samples_raise(self):
        run = stats.Run(record(samples={"setup_s": [1.0]}))
        with self.assertRaises(KeyError):
            stats.compute(stats.END_TO_END, run)

    def test_sample_fallback_order(self):
        run = stats.Run(record(samples={"point_ms": [1.0],
                                        "probe.point_ms": [2.0]}))
        self.assertEqual(run.sample("probe.point_ms", "point_ms"), [2.0])
        run = stats.Run(record(samples={"point_ms": [1.0]}))
        self.assertEqual(run.sample("probe.point_ms", "point_ms"), [1.0])

    def test_span_aggregates(self):
        spans = [["kernels.bfs", 0, 0, 2_000_000, 7],
                 ["kernels.bfs", 0, 0, 4_000_000, 9],
                 ["kernels.bfs", 0, 0, 3_000_000, 8],
                 ["kernels.bfs@1t", 0, 0, 9_000_000, 0],
                 ["kernels.bfs@nt", 0, 0, 3_000_000, 0],
                 ["graph.to_csr", 0, 0, 1_500_000_000, 10],
                 ["graph.to_csr", 0, 0, 500_000_000, 10],
                 ["server.handle_degree", 0, 0, 100_000, 0],
                 ["server.handle_neighbors", 0, 0, 300_000, 0],
                 ["server.handle_stats", 0, 0, 200_000, 0]]
        run = stats.Run(record(spans=spans, samples={"point_ms": [1.2]}))
        unit, fn = stats.PER_LAYER["kernels.bfs_s"]
        self.assertEqual(unit, "s")
        self.assertAlmostEqual(fn(run), 0.003)
        self.assertEqual(stats.PER_LAYER["kernels.bfs_levels"][1](run), 8)
        self.assertAlmostEqual(
            stats.PER_LAYER["kernels.bfs_speedup"][1](run), 3.0)
        self.assertAlmostEqual(stats.PER_LAYER["graph.to_csr_s"][1](run), 2.0)
        # point wait: HTTP p50 (1.2 ms) minus median direct handle (0.2 ms).
        self.assertAlmostEqual(
            stats.PER_LAYER["server.point_wait_ms"][1](run), 1.0)

    def test_point_p99_prefers_the_probe_session(self):
        fn = stats.PER_LAYER["server.point_p99_ms"][1]
        run = stats.Run(record(samples={"point_ms": list(range(1, 201)),
                                        "probe.point_ms": [5.0]}))
        self.assertEqual(fn(run), 5.0)
        run = stats.Run(record(samples={"point_ms": list(range(1, 201))}))
        self.assertEqual(fn(run), 198.0)

    def test_trace_overhead(self):
        run = stats.Run(record(samples={"pass_s.traced": [1.1, 1.3, 1.2],
                                        "pass_s.untraced": [1.0, 1.2],
                                        "point_ms.traced": [9.0],
                                        "point_ms.untraced": [1.0]}))
        self.assertAlmostEqual(
            stats.PER_LAYER["trace.overhead_pct"][1](run), 100 * (1.2 / 1.1 - 1))


if __name__ == "__main__":
    unittest.main()
