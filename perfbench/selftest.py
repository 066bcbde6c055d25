"""Self-test of the benchmark: its arithmetic on hand-made numbers, and a
quick run of every workload in both modes whose metric names and units
must match BENCHMARK.json.

    python3 perfbench/run.py --self-test
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402


def fake_client(**over):
    metrics = {
        "icgmm_server_requests_served": 1000,
        "icgmm_server_stage_decode_ns_sum": 10_000,
        "icgmm_server_stage_queue_ns_sum": 200_000,
        "icgmm_server_stage_apply_ns_sum": 500_000,
        "icgmm_server_stage_flush_ns_sum": 40_000,
        "icgmm_server_writev_calls": 10,
        "icgmm_server_writev_replies": 30,
        "icgmm_server_protocol_errors": 0,
    }
    client = {"requests": 1000, "span_ns": 2_000_000, "send_ns": 100_000,
              "metrics": metrics}
    client.update(over)
    return client


def fake_probe(**over):
    probe = {
        "requests": 1000,
        "gmm.ns": 150_000, "gmm.scored_pages": 300,
        "cache.ns": 250_000, "runtime.apply_ns": 400_000,
        "runtime.wall_1t_ns": 400_000, "runtime.wall_2t_ns": 320_000,
        "cache.window_accesses": 800, "cache.window_misses": 200,
        "cache.window_bypasses": 40, "cache.window_dirty_evictions": 8,
        "trace.generate_s": 0.01, "core.train_s": 1.5, "core.threshold_s": 1e-6,
    }
    probe.update(over)
    return probe


class Arithmetic(unittest.TestCase):
    def test_self_times_and_remainder(self):
        out = layers.derive_layers(fake_client(), fake_probe(), 1000.0, 950.0)
        self.assertAlmostEqual(out["traced_ns_per_req"], 2000.0)
        self.assertAlmostEqual(out["net.decode_ns_per_req"], 10.0)
        self.assertAlmostEqual(out["net.queue_ns_per_req"], 200.0)
        self.assertAlmostEqual(out["net.apply_ns_per_req"], 500.0)
        self.assertAlmostEqual(out["net.flush_ns_per_req"], 40.0)
        self.assertAlmostEqual(out["net.outside_server_ns_per_req"], 1250.0)
        self.assertAlmostEqual(out["net.client_send_ns_per_req"], 100.0)
        self.assertAlmostEqual(out["gmm.self_ns_per_req"], 150.0)
        self.assertAlmostEqual(out["gmm.ns_per_scored_page"], 500.0)
        self.assertAlmostEqual(out["gmm.scored_pages_per_req"], 0.3)
        self.assertAlmostEqual(out["cache.access_ns_per_req"], 250.0)
        self.assertAlmostEqual(out["cache.self_ns_per_req"], 100.0)
        self.assertAlmostEqual(out["runtime.apply_batch_ns_per_req"], 400.0)
        self.assertAlmostEqual(out["runtime.self_ns_per_req"], 150.0)
        self.assertAlmostEqual(out["runtime.apply_gap_ns_per_req"], 100.0)
        self.assertAlmostEqual(out["runtime.scaling_2t"], 1.25)
        # 2000 - (100 + 10 + 200 + 40 + 100 + 150 + 100 + 150)
        self.assertAlmostEqual(out["unexplained_ns_per_req"], 1150.0)
        self.assertLess(layers.accounting_error(out), 1e-12)
        self.assertAlmostEqual(out["obs.trace_overhead"], 0.05)
        self.assertAlmostEqual(out["cache.miss_rate"], 0.25)
        self.assertAlmostEqual(out["cache.bypass_rate"], 0.05)
        self.assertAlmostEqual(out["cache.dirty_evictions_per_kreq"], 10.0)
        self.assertEqual(set(out), set(layers.PER_LAYER))

    def test_remainder_reports_what_no_layer_explains(self):
        # Slower spans with identical layers raise only the remainder.
        base = layers.derive_layers(fake_client(), fake_probe(), 1.0, 1.0)
        slow = layers.derive_layers(fake_client(span_ns=3_000_000),
                                    fake_probe(), 1.0, 1.0)
        self.assertAlmostEqual(slow["unexplained_ns_per_req"] -
                               base["unexplained_ns_per_req"], 1000.0)
        for name in layers.SELF_TIMES:
            self.assertAlmostEqual(slow[name], base[name])

    def test_accounting_error_catches_a_broken_sum(self):
        out = layers.derive_layers(fake_client(), fake_probe(), 1.0, 1.0)
        out["unexplained_ns_per_req"] += 20.0
        self.assertAlmostEqual(layers.accounting_error(out), 0.01)

    def test_lru_workload_has_no_gmm_work(self):
        out = layers.derive_layers(
            fake_client(),
            fake_probe(**{"gmm.ns": 0, "gmm.scored_pages": 0}), 1.0, 1.0)
        self.assertEqual(out["gmm.ns_per_scored_page"], 0.0)
        self.assertEqual(out["gmm.self_ns_per_req"], 0.0)

    def test_quartile_spread(self):
        med, q1, q3, spread = layers.quartile_spread([1, 2, 3, 4, 5, 6, 7])
        self.assertEqual((med, q1, q3), (4, 2, 6))
        self.assertAlmostEqual(spread, 1.0)


class QuickRuns(unittest.TestCase):
    """Every workload, both modes, on a tiny stream: the printed metrics are
    exactly BENCHMARK.json's, with its units."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, workload, trace, kind):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--quick",
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace)]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=600)
        self.assertEqual(res.returncode, 0, res.stdout)
        result = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.bench[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_quick_runs(self):
        # Every workload run.py knows, gated in BENCHMARK.json or not.
        with open(os.path.join(HERE, "workloads.json")) as f:
            names = list(json.load(f)["workloads"])
        for name in names:
            with self.subTest(workload=name, trace=0):
                self.check(name, 0, "end_to_end")
            with self.subTest(workload=name, trace=1):
                self.check(name, 1, "per_layer")


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
