"""Tests for the benchmark's statistics and parsing.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402

# A `stats` op response in the server's exact layout.
STATS_PAYLOAD = (
    '{"ok":true,"stats":{"requests":12,"solves":4,"rejected":1,'
    '"cache":{"hits":6,"misses":4,"insertions":4,"evictions":0,"entries":4},'
    '"cancelled":0,"admission_inflight":0,'
    '"engine":{"submitted":4,"completed":4,"failed":0,"cancelled":0,'
    '"inflight":0},"data_plane":{"sweeps":9,"swept_entries":120,'
    '"stale_deposited":130,"sparse_gathers":7,"dense_gathers":2},'
    '"graphs":3,"shutting_down":false}}')


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(9))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(10 ** 6), 99.99)

    def test_interpolates_between_ranks(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 50), 3)
        self.assertAlmostEqual(stats.percentile(xs, 90), 4.6)
        self.assertEqual(stats.percentile(xs, 100), 5)
        self.assertEqual(stats.percentile([7.5], 90), 7.5)

    def test_summarize_states_count_and_tail(self):
        s = stats.summarize([float(i) for i in range(1, 201)])
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["tail_pct"], 90.0)
        self.assertAlmostEqual(s["tail"], stats.percentile(range(1, 201), 90))
        self.assertAlmostEqual(s["p50"], 100.5)
        few = stats.summarize([1.0, 2.0])
        self.assertEqual((few["tail_pct"], few["tail"]), (0.0, 0.0))


class MedianAndQuartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = stats.quartiles(xs)
        self.assertEqual([q1, q2, q3], statistics.quantiles(xs, n=4))
        self.assertEqual(q2, stats.median(xs))
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)

    def test_known_values(self):
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(stats.median([4, 1, 3]), 3)
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(stats.spread([2.0, 2.0, 2.0]), 0.0)
        with self.assertRaises(ValueError):
            stats.median([])


class ServeStatsParse(unittest.TestCase):
    def test_flattens_nested_counters(self):
        s = stats.parse_serve_stats(STATS_PAYLOAD)
        self.assertEqual(s["requests"], 12)
        self.assertEqual(s["cache.hits"], 6)
        self.assertEqual(s["engine.submitted"], 4)
        self.assertEqual(s["data_plane.dense_gathers"], 2)
        self.assertNotIn("shutting_down", s)

    def test_rejects_errors_and_garbage(self):
        with self.assertRaises(ValueError):
            stats.parse_serve_stats('{"ok":false,"code":"INTERNAL"}')
        with self.assertRaises(ValueError):
            stats.parse_serve_stats('{"ok":true}')
        with self.assertRaises(ValueError):
            stats.parse_serve_stats('{"ok":true,"stats":{"requests":"x"}}')
        with self.assertRaises(ValueError):
            stats.parse_serve_stats("not json")

    def test_delta(self):
        before = stats.parse_serve_stats(STATS_PAYLOAD)
        after = dict(before, **{"cache.hits": 10, "engine.submitted": 9})
        d = stats.stats_delta(before, after)
        self.assertEqual(d["cache.hits"], 4)
        self.assertEqual(d["engine.submitted"], 5)
        self.assertEqual(d["requests"], 0)


def harness_solve_output():
    pairs = [{"algo": a, "instance": i, "picked": "bl" if a == "auto" else a,
              "rounds": 10, "inner_stages": 3, "resamples": 1, "work": 100,
              "depth": 7, "solve_ms": [10.0, 30.0, 20.0],
              "verify_ms": [1.0, 1.0, 1.0], "traced_solve_ms": [],
              "traced_verify_ms": [], "round_ms": []}
             for a, i in run.SOLVE_MIX]
    return {"io": {"load_ms": 5.0, "bytes": 1000}, "passes": 3,
            "timed_wall_s": 2.0, "cpu_s": 1.5, "peak_rss_kb": 2048,
            "lanes": 1, "sched": {"spawns": 6, "steals": 0,
                                  "steals_remote": 0, "joins": 3},
            "dp": {"sweeps": 1, "swept_entries": 2, "stale_deposited": 3,
                   "sparse_gathers": 4, "dense_gathers": 5},
            "probes": {"degree_stats_ms": 1.0, "minimalize_ms": 2.0},
            "pairs": pairs, "attempted": 54, "failed": 0}


class Metrics(unittest.TestCase):
    def test_solve_metrics_sum_pair_medians(self):
        e2e, lat = run.solve_metrics(harness_solve_output(), [0.3, 0.1, 0.2])
        n = len(run.SOLVE_MIX)
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertAlmostEqual(e2e["solve_s"], n * 21.0 / 1e3)
        self.assertAlmostEqual(e2e["solve_s.bl"], 2 * 21.0 / 1e3)
        self.assertAlmostEqual(sum(e2e["solve_s." + a] for a in run.SLICES),
                               e2e["solve_s"])
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertAlmostEqual(e2e["rps"], 3 * n / 2.0)
        self.assertAlmostEqual(e2e["cpu_s"], 0.5)
        self.assertEqual(e2e["peak_rss_mb"], 2.0)
        self.assertEqual(lat, [21.0] * n)

    def test_layer_metrics_cover_every_name(self):
        out = harness_solve_output()
        e2e, lat = run.solve_metrics(out, [0.1])
        m = run.layer_metrics("solve", out, e2e, lat)
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertEqual(m["core.auto_picks.bl"], 8)
        self.assertEqual(m["algo.rounds.kuw"], 50)
        self.assertEqual(m["par.spawns"], 2)
        self.assertEqual(m["error_rate"], 0)

    def test_serve_invariants(self):
        before = json.loads(STATS_PAYLOAD)
        after = json.loads(STATS_PAYLOAD)
        after["stats"]["cache"]["misses"] = 7
        after["stats"]["engine"]["submitted"] = 6
        out = {"stats_before": json.dumps(before),
               "stats_after": json.dumps(after), "checked": 3}
        self.assertEqual(len(run.serve_invariants(out)), 1)
        after["stats"]["engine"]["submitted"] = 7
        out["stats_after"] = json.dumps(after)
        self.assertEqual(run.serve_invariants(out), [])


class BenchmarkFile(unittest.TestCase):
    def test_declares_what_run_py_reports(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json sits at the checkout root")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
