"""Benchmark for the tsengsplit solver and CLI.

    python3 perfbench/run.py --workload {lasso_sweep,affine_sweep,cli_solve} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (or anywhere: paths resolve against this
file).  It drives the package through ``tsengsplit.cli.main`` from
``src/`` in this process, pinned to one BLAS thread, checks every output,
and prints informational lines followed by one JSON result line.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of ``layers.json`` from traced passes that
alternate with untraced ones.  Exits 2 without a result when the package
sources are missing.
"""

from __future__ import annotations

import os

# Must precede the first numpy import, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-iters", type=int, default=None, help="override every solve budget (smoke tests)")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(wl, seed: int, work: Path, max_iters) -> list[float]:
    """Cold import through config load, build and validation, up to the
    first iteration, in fresh interpreters; host-normalized seconds."""
    from hostclock import normalized

    inst = wl.instance_seeds(seed)[0]
    extra = ["--max-iters", str(max_iters)] if max_iters is not None else []
    commands = [
        [wl.command, "--config", str(ROOT / job.config), "--out", str(work / f"probe-{i}"), "--seed", str(inst), "--quiet"]
        + extra
        for i, job in enumerate(wl.jobs)
    ]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(commands)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, env=os.environ.copy(), check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["reached"] != len(commands):
            raise RuntimeError(f"setup probe stopped early: {probe}")
        out.append(normalized(probe["setup_s"], probe["cal_s"]))
    return out


def measure(args, wl, work: Path) -> dict:
    from hostclock import HostSampler, normalized
    from tracer import Tracer
    from workloads import replay_failures, run_pass

    def one_pass(index: int, wrap=None, clock=time.perf_counter):
        out_dir = work / f"pass-{index}"
        res = run_pass(wl, args.seed, ROOT, out_dir, args.max_iters, wrap, clock)
        shutil.rmtree(out_dir, ignore_errors=True)
        return res

    # The first pass warms caches and lazy set-up, and is the replay reference.
    ref = one_pass(0)
    for key, (sha, _) in sorted(ref.digests.items()):
        print(f"sha256 {key} {sha}")
    attempted, failed = ref.attempted, ref.failed

    plain, traced, raw = [], [], []
    with HostSampler() as host:
        tracer = Tracer(host.clock) if args.trace else None
        deadline = time.perf_counter() + args.seconds
        index = 1
        while index < 3 or time.perf_counter() < deadline:
            traced_pass = tracer is not None and index % 2 == 0
            mark = len(host.samples)
            if traced_pass:
                tracer.install()
                try:
                    res = one_pass(index, tracer.command, host.clock)
                finally:
                    tracer.uninstall()
            else:
                res = one_pass(index, clock=host.clock)
                raw.append(res.seconds)
            (traced if traced_pass else plain).append(normalized(res.seconds, host.mean_since(mark)))
            attempted += res.attempted
            failed += res.failed + replay_failures(ref.digests, res.digests)
            index += 1

    iters = ref.iterations
    if tracer is None:
        metrics = {
            "iters_per_s": (iters / statistics.median(plain), "1/s"),
            "setup_s": (statistics.median(setup_seconds(wl, args.seed, work, args.max_iters)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        units = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
        layer = tracer.layer_metrics(len(traced))
        layer["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        layer["bench.pass_s"] = statistics.median(raw)
        metrics = {name: (layer[name], spec["unit"]) for name, spec in units.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "tsengsplit" / "cli.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    print(json.dumps({"env": environment(args.seed)}))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
