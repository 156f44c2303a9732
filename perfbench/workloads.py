"""Workload definitions, one pass of a workload, and the output checks.

A pass drives ``tsengsplit.cli.main`` exactly as a user would from the
shell, then checks the artifacts it wrote.  Each check failure counts
against the operation it belongs to (a grid point, a solve or a
certificate), which is what feeds ``failed`` in the benchmark result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

OK_STATUSES = ("tolerance_met", "exact_solution")
TRACE_HEADER = "n,lambda,residual,E_n,dist,elapsed_ms"


@dataclass(frozen=True)
class Job:
    config: str  # path relative to the repository root
    certify: str | None = None  # certificate kind run on a solve's trace.csv
    dist_bound: float | None = None  # bound on the last ``dist`` of an oracle trace


@dataclass(frozen=True)
class Workload:
    command: str  # "sweep" or "solve"
    jobs: tuple[Job, ...]
    instances: int  # problem instances per pass, seeded from the run seed

    def instance_seeds(self, seed: int) -> list[int]:
        return [seed * self.instances + i for i in range(self.instances)]


# Oracle dist bounds, against the last dist on instance seeds 0-63: affine_vi_m50
# stops on ||x|| <= tol with x* = 0, so its dist is E_n and the bound is tol;
# l2_vi_case1 ends at 4.9e-4 for every seed; oracle_strong_linear at most 3.6e-11.
WORKLOADS = {
    "lasso_sweep": Workload("sweep", (Job("configs/lasso_inertia_sweep.json"),), instances=1),
    "affine_sweep": Workload("sweep", (Job("configs/affine_relaxation_sweep.json"),), instances=1),
    # Four instances per pass, so the mix of cheap (affine) and dear (lasso)
    # iterations in a pass barely depends on the run seed.
    "cli_solve": Workload(
        "solve",
        (
            Job("configs/lasso_recovery.json", certify="sqrt"),
            Job("configs/affine_vi_m50.json", certify="sqrt", dist_bound=1e-3),
            Job("configs/l2_vi_case1.json", certify="linear", dist_bound=1e-3),
            Job("configs/oracle_strong_linear.json", certify="linear", dist_bound=1e-9),
        ),
        instances=4,
    ),
}


@dataclass
class PassResult:
    seconds: float = 0.0  # time spent inside cli.main
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)  # artifact key -> (sha256, operations it covers)


def call_cli(argv: list[str], wrap=None, clock=time.perf_counter) -> tuple[int | None, float]:
    """Run ``tsengsplit.cli.main(argv)``; returns (exit code or None on a
    traceback, seconds by ``clock``).  ``wrap(fn, argv)`` lets a tracer
    enclose the call."""
    from tsengsplit import cli

    out = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out):
            rc = wrap(cli.main, argv) if wrap else cli.main(argv)
    except Exception:  # a traceback breaks the CLI contract: count it, keep measuring
        traceback.print_exc()
        rc = None
    return rc, clock() - t0


def run_pass(
    wl: Workload, seed: int, root: Path, out_dir: Path, max_iters: int | None = None, wrap=None, clock=time.perf_counter
) -> PassResult:
    res = PassResult()
    extra = ["--max-iters", str(max_iters)] if max_iters is not None else []
    for inst in wl.instance_seeds(seed):
        for job in wl.jobs:
            cfg = json.loads((root / job.config).read_text(encoding="utf-8"))
            out = out_dir / f"{Path(job.config).stem}-{inst}"
            argv = [wl.command, "--config", str(root / job.config), "--out", str(out), "--seed", str(inst), "--quiet"]
            rc, dt = call_cli(argv + extra, wrap, clock)
            res.seconds += dt
            if wl.command == "sweep":
                _check_sweep(res, cfg, out, rc)
            else:
                _check_solve(res, job, cfg, out, rc, wrap, clock)
    return res


def _tol(cfg: dict) -> float:
    return float(cfg.get("solver", {}).get("tol", 1e-5))


def _check_sweep(res: PassResult, cfg: dict, out: Path, rc: int | None) -> None:
    """Every grid point must have a converged row; a missing row is a failure."""
    axes = cfg["sweep"]["axes"]
    grid = math.prod(len(ax["values"]) for ax in axes)
    res.attempted += grid
    path = out / "sweep_summary.csv"
    if rc is None or not path.exists():
        res.failed += grid
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    expected = {";".join(repr(float(v)) for v in combo) for combo in itertools.product(*(ax["values"] for ax in axes))}
    converged = {}
    for line in lines[1:]:
        _, value, iters, status, final, _elapsed = line.split(",")
        res.iterations += int(iters)
        if value in expected and value not in converged:
            converged[value] = status in OK_STATUSES and float(final) <= _tol(cfg)
    res.failed += grid - sum(converged.values())
    # elapsed_s is wall time; everything else must replay byte for byte
    canonical = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    res.digests[f"{out.name}/sweep_summary.csv"] = (hashlib.sha256(canonical.encode()).hexdigest(), grid)


def read_trace(path: Path) -> tuple[list[list[str]], dict]:
    """Rows and footer fields of a trace.csv, parsed without the package."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("unexpected trace header")
    rows, footer = [], {}
    for line in lines[1:]:
        if line.startswith("#"):
            footer.update(part.split("=", 1) for part in line[1:].split())
        else:
            rows.append(line.split(","))
    return rows, footer


def _check_solve(res: PassResult, job: Job, cfg: dict, out: Path, rc: int | None, wrap, clock) -> None:
    """The solve converged to tol (and to the oracle within its bound), and
    the certificate on its trace passes."""
    res.attempted += 2
    path = out / "trace.csv"
    ok = rc == 0 and path.exists()
    if ok:
        try:
            rows, footer = read_trace(path)
            last = rows[-1]
            res.iterations += len(rows)
            ok = footer.get("status") in OK_STATUSES and float(last[3]) <= _tol(cfg)
            if job.dist_bound is not None:
                ok = ok and last[4] != "" and float(last[4]) <= job.dist_bound
        except (ValueError, IndexError):
            ok = False
    res.failed += 0 if ok else 1
    if path.exists():
        res.digests[f"{out.name}/trace.csv"] = (hashlib.sha256(path.read_bytes()).hexdigest(), 1)
    crc, dt = call_cli(["certify", "--trace", str(path), "--kind", job.certify], wrap, clock)
    res.seconds += dt
    res.failed += 0 if crc == 0 else 1


def replay_failures(reference: dict, digests: dict) -> int:
    """Operations whose artifacts differ from the reference pass of the same seed."""
    return sum(ops for key, (sha, ops) in reference.items() if digests.get(key, (None,))[0] != sha)
