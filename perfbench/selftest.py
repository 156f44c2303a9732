"""Checks that the benchmark's own failure accounting works.

    python3 perfbench/selftest.py

A tampered trace, a diverging config and a budget-exhausted config must
each count as failed operations, and a smoke run at a tiny iteration
budget must print every metric named in BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from workloads import WORKLOADS, Job, Workload, replay_failures, run_pass  # noqa: E402

AFFINE = json.loads((ROOT / "configs" / "affine_vi_m50.json").read_text(encoding="utf-8"))


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def _config(self, name: str, **solver_and_schedules) -> str:
        cfg = copy.deepcopy(AFFINE)
        cfg["schedules"].update(solver_and_schedules.pop("schedules", {}))
        cfg["solver"].update(solver_and_schedules)
        path = self.tmp / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_shipped_solve_passes(self):
        wl = Workload("solve", (Job("configs/affine_vi_m50.json", "sqrt", 1e-3),), instances=1)
        res = run_pass(wl, 7, ROOT, self.tmp / "out")
        self.assertEqual((res.attempted, res.failed), (2, 0))
        self.assertGreater(res.iterations, 0)

    def test_tampered_trace_fails_replay(self):
        from tsengsplit import cli

        wl = Workload("solve", (Job("configs/affine_vi_m50.json", "sqrt", 1e-3),), instances=1)
        ref = run_pass(wl, 7, ROOT, self.tmp / "ref")
        self.assertEqual(replay_failures(ref.digests, run_pass(wl, 7, ROOT, self.tmp / "again").digests), 0)
        write = cli.write_trace_csv

        def tampered(trace, path, *args, **kwargs):
            write(trace, path, *args, **kwargs)
            lines = Path(path).read_text(encoding="utf-8").splitlines()
            cols = lines[-2].split(",")
            cols[3] = repr(float(cols[3]) * (1.0 + 1e-9))  # still converged, no longer a replay
            lines[-2] = ",".join(cols)
            Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

        with mock.patch.object(cli, "write_trace_csv", tampered):
            bad = run_pass(wl, 7, ROOT, self.tmp / "bad")
        self.assertEqual(bad.failed, 0)
        self.assertEqual(replay_failures(ref.digests, bad.digests), 1)

    def test_diverging_config_fails(self):
        path = self._config("diverge", schedules={"alpha": {"kind": "constant", "value": 50.0}})
        wl = Workload("solve", (Job(path, "sqrt", 1e-3),), instances=1)
        res = run_pass(wl, 7, ROOT, self.tmp / "out")
        self.assertGreater(res.failed, 0)

    def test_exhausted_budget_fails(self):
        wl = Workload("solve", (Job(self._config("budget", max_iters=5), "sqrt", 1e-3),), instances=1)
        self.assertGreater(run_pass(wl, 7, ROOT, self.tmp / "out").failed, 0)

    def test_sweep_missing_rows_fail(self):
        cfg = json.loads((ROOT / WORKLOADS["affine_sweep"].jobs[0].config).read_text(encoding="utf-8"))
        cfg["sweep"]["axes"][0]["values"] = [0.45, 40.0]  # theta = 40 diverges and drops its row
        path = self.tmp / "sweep.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        res = run_pass(Workload("sweep", (Job(str(path)),), instances=1), 7, ROOT, self.tmp / "out")
        self.assertEqual(res.attempted, 2)
        self.assertGreater(res.failed, 0)


class Smoke(unittest.TestCase):
    def test_every_metric_is_printed(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "cli_solve", "--seed", "1",
                 "--seconds", "0.1", "--trace", str(trace), "--max-iters", "60"],
                capture_output=True, text=True, timeout=170, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(result["metrics"]), {m["name"] for m in bench[key]})
            self.assertGreater(result["failed"], 0)  # 60 iterations cannot meet every tolerance


if __name__ == "__main__":
    unittest.main()
