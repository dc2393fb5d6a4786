"""Tests of the benchmark's statistics, span arithmetic and output schema.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import metrics  # noqa: E402

with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
    WORKLOADS = json.load(f)


class TailRule(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        samples = list(range(10, 0, -1))  # 10..1, unsorted on purpose
        self.assertEqual(metrics.percentile(samples, 50.0), 5)
        self.assertEqual(metrics.percentile(samples, 90.0), 9)
        self.assertEqual(metrics.percentile(samples, 99.9), 10)

    def test_beyond_counts_samples_above_the_percentile(self):
        self.assertEqual(metrics.beyond(100, 90.0), 10)
        self.assertEqual(metrics.beyond(100, 95.0), 5)
        self.assertEqual(metrics.beyond(1000, 99.0), 10)

    def test_highest_level_with_ten_beyond(self):
        self.assertEqual(metrics.tail(list(range(100)))[0], 90.0)
        self.assertEqual(metrics.tail(list(range(99)))[0], 75.0)
        self.assertEqual(metrics.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(metrics.tail(list(range(10000)))[0], 99.9)
        self.assertEqual(metrics.tail(list(range(40)))[0], 75.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(metrics.tail(list(range(39))))
        self.assertIsNone(metrics.tail([]))

    def test_tail_value_is_the_percentile(self):
        level, value = metrics.tail([float(i) for i in range(1, 201)])
        self.assertEqual(level, 95.0)
        self.assertEqual(value, 190.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            ["root", 0.0, 100.0, -1, 7],
            ["a", 10.0, 30.0, 0, 7],
            ["b", 20.0, 50.0, 0, 7],     # overlaps a
            ["c", 90.0, 120.0, 0, 7],    # runs past the parent's end
            ["a.x", 12.0, 18.0, 1, 7],   # grandchild: only a loses it
        ]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[0], 100.0 - 40.0 - 10.0)
        self.assertAlmostEqual(selfs[1], 20.0 - 6.0)
        self.assertAlmostEqual(selfs[2], 30.0)
        self.assertAlmostEqual(selfs[3], 30.0)
        self.assertAlmostEqual(selfs[4], 6.0)

    def test_table_sums_calls_total_and_self_per_name(self):
        spans = [
            ["round", 0.0, 1000.0, -1, 0],
            ["call", 100.0, 400.0, 0, 0],
            ["call", 500.0, 700.0, 0, 0],
            ["round", 2000.0, 2500.0, -1, 1],
        ]
        rows = {r["name"]: r for r in metrics.span_table(spans)}
        self.assertEqual(rows["round"]["calls"], 2)
        self.assertAlmostEqual(rows["round"]["total_ms"], 1.5)
        self.assertAlmostEqual(rows["round"]["self_ms"], 1.0)
        self.assertEqual(rows["call"]["calls"], 2)
        self.assertAlmostEqual(rows["call"]["self_ms"], 0.5)
        self.assertAlmostEqual(metrics.traced_wall_ms(spans), 1.5)

    def test_table_prints_each_share_with_its_base(self):
        rows = metrics.span_table([["x", 0.0, 2000.0, -1, 0]])
        line = metrics.format_span_table(rows, 4.0)[1]
        self.assertIn("of 2.000 ms", line)
        self.assertIn("of 4.0 ms", line)


def fake_result(workload, trace=False):
    slots = metrics.SLOTS[workload]
    series = {slots["op"]: [float(i) for i in range(1, 1001)],
              slots["ref"]: [float(i) for i in range(1, 201)],
              slots["rate"]: [40.0, 42.0, 45.0]}
    if trace:
        series.update({"traced:" + k: [v + 1 for v in s]
                       for k, s in list(series.items())})
    return {
        "workload": workload,
        "host": {"fma_peak_gflops": 100.0},
        "setup_seconds": [0.3, 0.1, 0.2],
        "series": series,
        "values": {"peak_rss_mb": 12.5, "core.linear_gflops": 25.0},
        "spans": [["accel.dse", 0.0, 3000.0, -1, 0]],
        "attempted": 10,
        "failed": 0,
    }


class OutputSchema(unittest.TestCase):
    def wanted(self, kind):
        return {m["name"]: m["unit"] for m in BENCHMARK[kind]}

    def test_end_to_end_metrics_match_the_benchmark_file(self):
        for workload in metrics.SLOTS:
            values = metrics.end_to_end(fake_result(workload))
            line = {"correct": True, "attempted": 10, "failed": 0,
                    "metrics": values}
            self.assertEqual(metrics.validate_result_line(
                line, self.wanted("end_to_end")), [])
            self.assertAlmostEqual(values["setup_s"]["value"], 0.2)
            self.assertEqual(values["op_p50_ms"]["value"], 500.5)
            self.assertEqual(values["rate_per_s"]["value"], 42.0)

    def test_per_layer_metrics_match_the_benchmark_file(self):
        values = metrics.per_layer(fake_result("accel_sweep", trace=True))
        line = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": values}
        self.assertEqual(metrics.validate_result_line(
            line, self.wanted("per_layer")), [])
        self.assertAlmostEqual(values["accel.dse_ms"]["value"], 3.0)
        self.assertAlmostEqual(values["trace.overhead_ms"]["value"], 1.0)
        self.assertAlmostEqual(values["core.linear_peak_frac"]["value"], 0.25)
        self.assertEqual(values["cta.pag_ms.n512"]["value"], 0.0)

    def test_schema_rejects_malformed_lines(self):
        wanted = {"x_ms": "ms"}
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}}
        self.assertEqual(metrics.validate_result_line(good, wanted), [])
        bad_lines = [
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, attempted=True),
            dict(good, failed=0.5),
            dict(good, metrics={}),
            dict(good, metrics={"x_ms": {"value": 1.5, "unit": "s"}}),
            dict(good, metrics={"x_ms": {"value": math.nan, "unit": "ms"}}),
            dict(good, metrics={"x_ms": {"value": 1, "unit": "ms",
                                         "p99": 2}}),
        ]
        for line in bad_lines:
            self.assertNotEqual(metrics.validate_result_line(line, wanted),
                                [], line)


class BenchmarkFile(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        names += [m["name"] for m in BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCHMARK["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCHMARK["end_to_end"]))

    def test_workloads_agree_everywhere(self):
        listed = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(listed), sorted(WORKLOADS["workloads"]))
        self.assertEqual(sorted(listed), sorted(metrics.SLOTS))
        self.assertEqual(sorted(listed), sorted(metrics.NAMED))
        for params in WORKLOADS["workloads"].values():
            self.assertLessEqual(params["pool"], 4)
        seeds = WORKLOADS["seeds"]
        self.assertNotEqual(seeds["development"], seeds["held_out"])


if __name__ == "__main__":
    unittest.main()
