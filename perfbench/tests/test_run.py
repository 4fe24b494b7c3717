#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_run.py

Unit tests of run.py's steal parser, budget check and result assembly; the
C++ measurement unit tests (perfbench_tests: percentile rule, snapshot
differencing, self times); and a smoke mode that runs every workload for a
few rounds, untraced and traced, and asserts that every metric the
benchmark defines for it is emitted with its unit and better-direction and
that the output checks ran and passed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402

PROC_STAT = """\
cpu  100 5 50 1000 20 1 2 30 7 0
cpu0 50 2 25 500 10 1 1 15 3 0
intr 12345 0 0
ctxt 999
"""

# Per-layer rows each workload measures itself (the rest it reports as 0).
COMMON_LAYER_ROWS = {
    "tensor.page_faults_per_round", "tensor.sys_ms_per_round",
    "core.detect_ms", "core.aggregate_ms", "chain.ledger_ms", "chain.seal_ms",
    "chain.records_per_round", "tensor.detect_gb_per_s", "data.synth_ms",
    "fl.init_ms", "bench.setup_ms", "bench.traced_round_ms",
    "bench.traced_rps_ratio", "util.pool_busy_share", "final_loss",
    "net.encode_upload_ms", "net.decode_upload_ms", "net.encode_broadcast_ms",
}
LAYER_ROWS = {
    "lenet_train": COMMON_LAYER_ROWS | {
        "fl.local_train_ms", "nn.conv1.fwd_ms", "nn.conv1.bwd_ms",
        "nn.conv2.fwd_ms", "nn.conv2.bwd_ms", "nn.linear.fwd_ms",
        "nn.linear.bwd_ms", "nn.act_pool_ms", "nn.loss_ms", "nn.sgd_ms",
        "fl.worker_step_ms", "core.contribution_ms", "core.incentive_ms",
        "core.round_remainder_ms"},
    "assess_wide": COMMON_LAYER_ROWS | {
        "core.contribution_ms", "core.incentive_ms", "core.round_remainder_ms"},
    "cluster_tcp": COMMON_LAYER_ROWS | {
        "net.phase.broadcast_ms", "net.phase.collect_ms", "net.phase.assess_ms",
        "net.phase.ledger_commit_ms", "net.bytes_per_round.gradient_upload",
        "net.bytes_per_round.model_broadcast",
        "net.bytes_per_round.slice_aggregate",
        "net.bytes_per_round.assessment_result",
        "net.bytes_per_round.audit_proof", "net.bytes_per_round.block_proposal",
        "net.msgs_per_round", "net.send_ms_per_round", "net.recv_useful_share",
        "net.handle_ms.model_broadcast", "net.handle_ms.gradient_upload",
        "fl.worker_step_ms", "nn.linear.fwd_ms", "nn.linear.bwd_ms",
        "nn.act_pool_ms", "nn.loss_ms", "nn.sgd_ms",
        "chain.audit_verified_share", "net.join_ms", "net.round_remainder_ms"},
}


class StealParser(unittest.TestCase):
    def test_aggregate_line(self):
        self.assertEqual(run.parse_proc_stat(PROC_STAT),
                         (30, 100 + 5 + 50 + 1000 + 20 + 1 + 2 + 30))

    def test_kernel_without_steal_column(self):
        self.assertEqual(run.parse_proc_stat("cpu 1 2 3 4\n"), (0, 10))

    def test_malformed_text(self):
        with self.assertRaises(ValueError):
            run.parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n")
        with self.assertRaises(ValueError):
            run.parse_proc_stat("cpu 1 2\n")

    def test_share_between_readings(self):
        self.assertAlmostEqual(run.steal_share((30, 1208), (60, 2208)), 0.03)
        self.assertEqual(run.steal_share((30, 1208), (30, 1208)), 0.0)


class ResultAssembly(unittest.TestCase):
    CONTRACT = {
        "end_to_end": [{"name": "rounds_per_s", "unit": "1/s", "better": "higher",
                        "bound": 0.2},
                       {"name": "completed_share", "unit": "ratio",
                        "better": "higher", "bound": 0.01}],
        "per_layer": [{"name": "core.detect_ms", "unit": "ms", "better": "lower"},
                      {"name": "net.join_ms", "unit": "ms", "better": "lower"}],
    }

    def report(self, metrics, attempted=4, failed=1):
        return {"attempted": attempted, "failed": failed, "budgets": [],
                "metrics": [{"name": n, "value": v, "unit": u, "better": "lower",
                             "statistic": ""} for n, v, u in metrics]}

    def test_end_to_end_with_completed_share(self):
        out, _ = run.result_metrics(
            self.report([("rounds_per_s", 10.0, "1/s")]), self.CONTRACT, 0)
        self.assertEqual(out, {"rounds_per_s": {"value": 10.0, "unit": "1/s"},
                               "completed_share": {"value": 0.75, "unit": "ratio"}})

    def test_missing_end_to_end_metric_fails(self):
        with self.assertRaises(RuntimeError):
            run.result_metrics(self.report([]), self.CONTRACT, 0)

    def test_unit_mismatch_fails(self):
        with self.assertRaises(RuntimeError):
            run.result_metrics(self.report([("rounds_per_s", 1.0, "Hz")]),
                               self.CONTRACT, 0)

    def test_absent_layer_reads_zero(self):
        out, emitted = run.result_metrics(
            self.report([("core.detect_ms", 2.5, "ms")]), self.CONTRACT, 1)
        self.assertEqual(out["core.detect_ms"]["value"], 2.5)
        self.assertEqual(out["net.join_ms"]["value"], 0.0)
        self.assertEqual(emitted["net.join_ms"]["statistic"], "layer absent")

    def test_budget_check(self):
        report = {"budgets": [{"total": "t", "parts": ["a", "b"]}]}
        self.assertTrue(run.verify_budgets(report, {"t": 3.0, "a": 1.0, "b": 2.0})[0]["passed"])
        self.assertFalse(run.verify_budgets(report, {"t": 3.5, "a": 1.0, "b": 2.0})[0]["passed"])


class MeasureUnitTests(unittest.TestCase):
    def test_cpp_measure_helpers(self):
        run.build()
        target = subprocess.run(
            ["cmake", "--build", str(run.BUILD_DIR), "--target", "perfbench_tests"],
            stdout=sys.stderr)
        if target.returncode != 0:
            self.skipTest("perfbench_tests not built (GTest missing?)")
        subprocess.run([str(run.BUILD_DIR / "perfbench_tests")], check=True,
                       stdout=sys.stderr)


class Smoke(unittest.TestCase):
    """Every workload, a few rounds, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.contract = run.load_contract()

    def smoke(self, workload, trace):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        specs = self.contract["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})
        for spec in specs:
            self.assertEqual(result["metrics"][spec["name"]]["unit"], spec["unit"])
        full = json.loads((run.BUILD_DIR / "reports" /
                           f"{workload}_seed5_trace{trace}.json").read_text())
        rows = {m["name"]: m for m in full["metrics"]}
        wanted = LAYER_ROWS[workload] if trace else {s["name"] for s in specs}
        by_name = {s["name"]: s for s in specs}
        for name in wanted:
            self.assertIn(name, rows, f"{workload} did not measure {name}")
            self.assertNotEqual(rows[name]["statistic"], "layer absent", name)
            self.assertEqual(rows[name]["unit"], by_name[name]["unit"], name)
            self.assertEqual(rows[name]["better"], by_name[name]["better"], name)
        self.assertGreater(len(full["checks"]), 2)
        self.assertTrue(all(c["passed"] for c in full["checks"]))
        if trace:
            self.assertTrue(any(c["name"].startswith("budget_sums_")
                                for c in full["checks"]))
            self.assertIn("bench.traced_rps_ratio", rows)

    def test_lenet_train(self):
        self.smoke("lenet_train", 0)
        self.smoke("lenet_train", 1)

    def test_assess_wide(self):
        self.smoke("assess_wide", 0)
        self.smoke("assess_wide", 1)

    def test_cluster_tcp(self):
        self.smoke("cluster_tcp", 0)
        self.smoke("cluster_tcp", 1)


if __name__ == "__main__":
    unittest.main()
