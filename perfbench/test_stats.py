"""Checks of the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import unittest
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def op(kind, s, nbytes=0, ok=True, cycle=0, phase="plain", error=""):
    return {"phase": phase, "cycle": cycle, "kind": kind, "s": s,
            "bytes": nbytes, "ok": ok, "error": error}


def span(sid, name, start, end, parent=0, nbytes=0, items=0):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "bytes": nbytes, "items": items}


def raw_doc(workload="store-wave", ops=(), spans=(), layers=None, trace=0):
    cycles = max([o["cycle"] for o in ops] + [0]) + 1
    return {"workload": workload, "seed": 1, "seconds": 1.0, "trace": trace,
            "peak_rss_kb": 1000, "config": {}, "setup_s": [0.3, 0.1, 0.2],
            "host_s": [0.5] * cycles, "host_par_s": [0.25] * cycles,
            "layers": dict(layers or {"cross_rack_blocks_per_repair": 3.0}),
            "ops": list(ops), "spans": list(spans)}


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 75), 4)
        self.assertEqual(stats.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_leaves_ten_samples_above(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_summary_reports_count_and_tail(self):
        values = list(range(1, 41))  # 40 samples: p75 leaves 10 above
        s = stats.summarize(values)
        self.assertEqual(s["n"], 40)
        self.assertEqual(s["p50"], 20.5)
        self.assertEqual(s["tail"]["p"], 75.0)
        self.assertAlmostEqual(s["tail"]["value"], 30.25)
        self.assertIsNone(stats.summarize([1.0, 2.0])["tail"])


class RateTest(unittest.TestCase):
    def test_mb_and_gb_per_second(self):
        self.assertEqual(stats.mb_per_s(3e6, 2.0), 1.5)
        self.assertEqual(stats.gb_per_s(4e9, 0.5), 8.0)
        with self.assertRaises(ValueError):
            stats.mb_per_s(1, 0.0)

    def test_share(self):
        self.assertEqual(stats.share(1, 4), 0.25)
        self.assertEqual(stats.share(0, 0), 0.0)

    def test_repair_rate_counts_only_repairs(self):
        ops = [op("put", 1.0, 192e6), op("repair", 0.5, 16e6),
               op("repair", 1.5, 16e6), op("repair", 9.0, 16e6,
                                           phase="traced")]
        m = stats.end_to_end(raw_doc(ops=ops))
        # 32 MB rebuilt in 2 s; at 0.5 s per host-reference unit that is
        # 4 units, so 8 MB per unit.
        self.assertEqual(m["repair_MB_per_ref"], 8.0)
        self.assertEqual(m["cycle_norm.p50"], 6.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_MB"], 1.024)

    def test_cycles_are_normalized_by_their_own_reference(self):
        ops = [op("repair", 2.0, 16e6, cycle=0), op("repair", 6.0, 16e6,
                                                    cycle=1),
               op("repair", 3.0, 16e6, cycle=2)]
        doc = raw_doc(ops=ops)
        doc["host_s"] = [1.0, 3.0, 1.0]
        self.assertEqual(stats.normalized_cycle_times(doc, "plain"),
                         [2.0, 2.0, 3.0])
        self.assertEqual(stats.end_to_end(doc)["cycle_norm.p50"], 2.0)
        self.assertAlmostEqual(stats.end_to_end(doc)["repair_MB_per_ref"],
                               48.0 / 7.0)

    def test_engines_use_the_parallel_reference(self):
        ops = [op("tcp_slice", 1.0, 16e6), op("tcp_whole", 1.0, 16e6)]
        m = stats.end_to_end(raw_doc(workload="engine-stream", ops=ops))
        self.assertEqual(m["cycle_norm.p50"], 8.0)
        self.assertEqual(m["repair_MB_per_ref"], 4.0)

    def test_reuse_ratio(self):
        doc = raw_doc(trace=1, layers={"tcp.conn.opened": 30,
                                       "tcp.conn.reused": 10})
        self.assertEqual(stats.per_layer(doc)["tcp.conn.reuse_ratio"], 0.25)


class FailureTest(unittest.TestCase):
    def test_mismatch_counts_as_failure(self):
        ops = [op("put", 1.0), op("read_degraded", 1.0, ok=False,
                                  error="degraded read: byte mismatch"),
               op("repair", 1.0, 16e6), op("get", 1.0)]
        res = stats.result(raw_doc(ops=ops))
        self.assertFalse(res["correct"])
        self.assertEqual(res["attempted"], 4)
        self.assertEqual(res["failed"], 1)
        self.assertEqual(stats.failures(ops)[2], 0.25)

    def test_clean_run_is_correct(self):
        res = stats.result(raw_doc(ops=[op("repair", 1.0, 16e6)]))
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(1, "storage.repair", 0.0, 10.0),
                 span(2, "digest.stripe", 10.0, 13.0, parent=1),
                 span(3, "exec_data", 13.0, 15.0, parent=1),
                 span(4, "plan", 15.0, 15.5)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 5.0)
        self.assertEqual(selfs[2], 3.0)
        self.assertEqual(selfs[4], 0.5)

    def test_storage_residual_and_seed_ratio(self):
        spans = [span(1, "storage.repair", 0.0, 1.0),
                 span(2, "digest.stripe", 1.0, 1.4, parent=1, nbytes=4e8),
                 span(3, "exec_data", 1.4, 1.5, parent=1, nbytes=2e8),
                 span(4, "gf.repair_equation", 1.5, 1.6)]
        m = stats.per_layer(raw_doc(spans=spans, trace=1))
        self.assertAlmostEqual(m["storage.repair.self_s"], 0.5)
        self.assertAlmostEqual(m["storage.repair.residual_pct"], 50.0)
        self.assertAlmostEqual(m["digest.fnv1a64_GBps"], 1.0)
        self.assertAlmostEqual(m["exec_data.GBps"], 2.0)
        self.assertAlmostEqual(m["seed.repair_ms"], 1000.0)
        self.assertAlmostEqual(m["seed.repair_over_gf_digest_x"], 2.0)


class CatalogTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        bench = json.loads(BENCHMARK.read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["end_to_end"]], stats.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]], stats.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(stats.REPAIR_KINDS))

    def test_result_reports_every_metric(self):
        plain = stats.result(raw_doc(ops=[op("repair", 1.0, 16e6)]))
        self.assertEqual(list(plain["metrics"]),
                         [name for name, _, _ in stats.END_TO_END])
        traced = stats.result(raw_doc(ops=[op("repair", 1.0, 16e6)], trace=1))
        self.assertEqual(list(traced["metrics"]),
                         [name for name, _, _ in stats.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
