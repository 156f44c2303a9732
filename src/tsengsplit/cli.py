"""Benchmark command-line front end.

Subcommands:

* ``solve``    - run one configured solve; writes ``trace.csv``,
  ``summary.json`` and ``validation.json`` into the output directory.
* ``sweep``    - run a parameter grid on one fixed instance; writes
  ``sweep_summary.csv`` and ``sweep_trends.json``.
* ``validate`` - print the schedule validation reports.
* ``certify``  - run a rate certificate against a stored trace CSV.

Configs are versioned JSON documents; sequence formulas are restricted to
the declared family (constants, ``a + b/(c+n)``, ``1 - 10^-n``, ``1/n^2``)
so every run is portable and replayable.  With a fixed seed, two
invocations of the same config produce byte-identical trace CSVs.

Exit codes: 0 success (converged / valid / certified), 1 budget exhausted
or failed validation/certificate, 2 bad configuration, 3 divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .linalg import RngStream, norm
from .problems import gen_affine_vi, gen_l2_vi, gen_lasso, gen_oracle_strong, oracle_orthant_vi
from .schedules import (
    ScheduleSet,
    StrongParams,
    constant,
    preset,
    validate_c3,
    validate_strong,
)
from .solver import (
    DivergenceError,
    Problem,
    SolverConfig,
    certify_linear_rate,
    certify_sqrt_rate,
    read_trace_csv,
    solve,
    write_trace_csv,
    write_trace_jsonl,
)

CONFIG_VERSION = 1
OUT_DIR_ENV = "TSENGSPLIT_OUT"
SWEEP_HEADER = "sweep_key,sweep_value,iters,status,final_metric,elapsed_s"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
STATUS_DIVERGED = "diverged"

PROBLEM_FAMILIES = ("lasso", "affine_vi", "l2_vi", "oracle_strong", "oracle_orthant")
SWEEPABLE = ("alpha", "beta", "theta", "mu", "lambda1")


class ConfigError(ValueError):
    pass


@dataclass
class SweepAxis:
    param: str
    values: list[float]


@dataclass
class ExperimentConfig:
    seed: int
    family: str
    problem_params: dict
    schedules: ScheduleSet
    solver: SolverConfig
    sweep_axes: list[SweepAxis]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


@contextlib.contextmanager
def _config_boundary(what: str):
    """Report a malformed value met while converting user input as a
    :class:`ConfigError` (exit 2) instead of a traceback; used as a
    decorator on the conversion functions."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError) as err:
        raise ConfigError(f"{what}: {type(err).__name__}: {err}") from err


@_config_boundary("bad config value")
def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    _require(isinstance(raw, dict), "config must be a JSON object")
    _require(int(raw.get("version", CONFIG_VERSION)) == CONFIG_VERSION, "unsupported config version")

    prob = raw.get("problem")
    _require(isinstance(prob, dict), "config needs a 'problem' object")
    family = prob.get("family")
    _require(family in PROBLEM_FAMILIES, f"problem.family must be one of {PROBLEM_FAMILIES}")
    seed = int(raw.get("seed", prob.get("seed", 0)))

    schedules = _schedules_from_config(raw.get("schedules", {"preset": "paper_default"}))
    solver_cfg = _solver_from_config(raw.get("solver", {}), schedules)

    axes: list[SweepAxis] = []
    sweep = raw.get("sweep")
    if sweep is not None:
        _require(isinstance(sweep, dict) and isinstance(sweep.get("axes"), list), "sweep needs an 'axes' list")
        for ax in sweep["axes"]:
            _require(ax.get("param") in SWEEPABLE, f"sweep param must be one of {SWEEPABLE}")
            values = ax.get("values")
            _require(isinstance(values, list) and len(values) > 0, "sweep axis needs a nonempty value list")
            axes.append(SweepAxis(param=ax["param"], values=[float(v) for v in values]))
            for v in axes[-1].values:
                apply_sweep_point(schedules, {ax["param"]: v})  # rejects e.g. mu outside (0, 1)

    return ExperimentConfig(
        seed=seed,
        family=family,
        problem_params=dict(prob.get("params", {})),
        schedules=schedules,
        solver=solver_cfg,
        sweep_axes=axes,
    )


def _schedules_from_config(spec: dict) -> ScheduleSet:
    _require(isinstance(spec, dict), "'schedules' must be an object")
    spec = dict(spec)
    name = spec.pop("preset", None)
    if name is not None:
        base = preset(name)
        if not spec:
            return base
        merged = base.to_dict()
        merged.update(spec)
        spec = merged
    return ScheduleSet.from_dict(spec)


def _solver_from_config(spec: dict, schedules: ScheduleSet) -> SolverConfig:
    _require(isinstance(spec, dict), "'solver' must be an object")
    return SolverConfig(
        schedules=schedules,
        max_iters=int(spec.get("max_iters", 10_000)),
        tol=float(spec.get("tol", 1e-5)),
        stop_rule=spec.get("stop_rule", "step_diff"),
        assert_descent=bool(spec.get("assert_descent", False)),
        record_distance=bool(spec.get("record_distance", True)),
    )


@_config_boundary("bad problem params")
def build_problem(cfg: ExperimentConfig) -> Problem:
    p = cfg.problem_params
    rng = RngStream(cfg.seed)
    if cfg.family == "lasso":
        _, prob = gen_lasso(
            rng,
            k=int(p.get("k", 20)),
            m_rows=int(p.get("m_rows", 256)),
            n_cols=int(p.get("n_cols", 512)),
            noise_var=float(p.get("noise_var", 1e-4)),
            reg=None if p.get("reg") is None else float(p["reg"]),
            reg_scale=float(p.get("reg_scale", 0.01)),
        )
    elif cfg.family == "affine_vi":
        q = p.get("q", "zero")
        q_vec = None if q == "zero" else np.asarray(q, dtype=float)
        m_mat = np.eye(int(p["m"])) if p.get("identity") else None
        _, prob = gen_affine_vi(rng, m=int(p.get("m", 50)), q=q_vec, m_matrix=m_mat)
    elif cfg.family == "l2_vi":
        _, prob = gen_l2_vi(m=int(p.get("m", 200)), case_id=int(p.get("case", 1)))
    elif cfg.family == "oracle_strong":
        prob = gen_oracle_strong(rng, m=int(p.get("m", 10)), rho=float(p.get("rho", 1.0)))
    else:
        prob = oracle_orthant_vi(np.asarray(p.get("q", [-1.0, 1.0]), dtype=float))
    return prob


def apply_sweep_point(schedules: ScheduleSet, point: dict[str, float]) -> ScheduleSet:
    updates: dict = {}
    for param, value in point.items():
        if param in ("alpha", "beta", "theta"):
            updates[param] = constant(value)
        else:
            updates[param] = float(value)
    return replace(schedules, **updates)


def _validation_payload(cfg: ExperimentConfig, problem: Problem, horizon: int | None = None) -> dict:
    payload = {"c3": validate_c3(cfg.schedules, horizon=horizon or 10**6).to_dict()}
    fwd = problem.forward
    s = cfg.schedules
    consts = all(seq.kind == "constant" for seq in (s.alpha, s.beta, s.theta))
    if (
        consts
        and fwd.lipschitz is not None
        and fwd.strong_monotone_modulus is not None
        and fwd.strong_monotone_modulus > 0
    ):
        params = StrongParams(
            L=fwd.lipschitz,
            r=fwd.strong_monotone_modulus,
            mu=s.mu,
            lambda1=s.lambda1,
            alpha_const=s.alpha.value,
            beta_const=s.beta.value,
            theta_const=s.theta.value,
        )
        payload["strong"] = validate_strong(params).to_dict()
    return payload


def _out_dir(arg: str | None) -> Path:
    out = Path(arg) if arg else Path(os.environ.get(OUT_DIR_ENV, "runs"))
    out.mkdir(parents=True, exist_ok=True)
    return out


@_config_boundary("bad command-line override")
def _apply_cli_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = int(args.seed)
    if getattr(args, "max_iters", None) is not None:
        cfg.solver = replace(cfg.solver, max_iters=int(args.max_iters))
    if getattr(args, "tol", None) is not None:
        cfg.solver = replace(cfg.solver, tol=float(args.tol))
    return cfg


def cmd_solve(args) -> int:
    cfg = _apply_cli_overrides(load_config(args.config), args)
    out = _out_dir(args.out)
    problem = build_problem(cfg)
    validation = _validation_payload(cfg, problem)
    if not args.quiet and not validation["c3"]["passed"]:
        print("warning: schedule failed validation (run continues)", file=sys.stderr)

    (out / "validation.json").write_text(json.dumps(validation, indent=2) + "\n", encoding="utf-8")
    run_info = {
        "seed": cfg.seed,
        "problem": problem.label,
        "schedules": cfg.schedules.label or cfg.schedules.to_dict(),
    }

    t0 = time.perf_counter()
    try:
        x, trace = solve(problem, cfg.solver)
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        row = err.last_row
        summary = {
            "status": STATUS_DIVERGED,
            "error": str(err),
            "last_row": None if row is None else row.to_dict(),
            "elapsed_s": time.perf_counter() - t0,
            **run_info,
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        return EXIT_DIVERGED
    elapsed = time.perf_counter() - t0

    write_trace_csv(trace, out / "trace.csv")
    write_trace_jsonl(trace, out / "trace.jsonl")
    summary = trace.summary()
    summary.update(elapsed_s=elapsed, **run_info, solution_norm=norm(x, problem.weights))
    if problem.known_solution is not None:
        summary["dist_to_solution"] = norm(x - problem.known_solution, problem.weights)
    if trace.tie_break_fraction() > 0.01:
        summary["tie_break_warning"] = (
            "degenerate step-update branch hit on more than 1% of iterations"
        )
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    if not args.quiet:
        print(json.dumps(summary, indent=2))
    return EXIT_OK if trace.status in ("tolerance_met", "exact_solution") else EXIT_FAIL


def _grid_points(axes: list[SweepAxis]) -> list[dict[str, float]]:
    points: list[dict[str, float]] = [{}]
    for ax in axes:
        points = [dict(pt, **{ax.param: v}) for pt in points for v in ax.values]
    return points


def cmd_sweep(args) -> int:
    cfg = _apply_cli_overrides(load_config(args.config), args)
    _require(bool(cfg.sweep_axes), "config has no sweep axes")
    out = _out_dir(args.out)
    problem = build_problem(cfg)  # one instance shared by every grid point

    rows = []
    worst = EXIT_OK
    for point in _grid_points(cfg.sweep_axes):
        sched = apply_sweep_point(cfg.schedules, point)
        run_cfg = replace(cfg.solver, schedules=sched)
        t0 = time.perf_counter()
        try:
            _, trace = solve(problem, run_cfg)
        except DivergenceError as err:
            status, last = STATUS_DIVERGED, err.last_row
        else:
            status, last = trace.status, trace.rows[-1]
        elapsed = time.perf_counter() - t0
        if status == STATUS_DIVERGED:
            worst = EXIT_DIVERGED
        elif status == "max_iters":
            worst = max(worst, EXIT_FAIL)
        rows.append(
            {
                "point": point,
                "iters": 0 if last is None else last.n,
                "status": status,
                "final_metric": float("nan") if last is None else last.e_n,
                "elapsed_s": elapsed,
            }
        )

    key = ";".join(ax.param for ax in cfg.sweep_axes)
    lines = [SWEEP_HEADER]
    for r in rows:
        value = ";".join(repr(r["point"][ax.param]) for ax in cfg.sweep_axes)
        lines.append(
            f"{key},{value},{r['iters']},{r['status']},{r['final_metric']!r},{r['elapsed_s']:.6f}"
        )
    (out / "sweep_summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    trends = _trend_verdicts(cfg.sweep_axes, rows)
    (out / "sweep_trends.json").write_text(json.dumps(trends, indent=2) + "\n", encoding="utf-8")
    if not args.quiet:
        print(json.dumps(trends, indent=2))
    return worst


def _trend_verdicts(axes: list[SweepAxis], rows: list[dict]) -> dict:
    """Per-axis monotonicity of iteration counts along increasing values.

    Diverged points have no comparable iteration count: they are left out
    of the comparisons, counted, and make the axis verdict false.
    """
    finished = [r for r in rows if r["status"] != STATUS_DIVERGED]
    diverged = len(rows) - len(finished)
    verdicts = {}
    for ax in axes:
        others = [o for o in axes if o.param != ax.param]
        groups: dict[tuple, list[tuple[float, int]]] = {}
        for r in finished:
            gkey = tuple(r["point"][o.param] for o in others)
            groups.setdefault(gkey, []).append((r["point"][ax.param], r["iters"]))
        violations = 0
        comparisons = 0
        for series in groups.values():
            series.sort()
            iters = [it for _, it in series]
            comparisons += max(0, len(iters) - 1)
            violations += sum(1 for a, b in zip(iters, iters[1:]) if b > a)
        verdicts[ax.param] = {
            "nonincreasing": violations == 0 and diverged == 0,
            "violations": violations,
            "comparisons": comparisons,
            "diverged": diverged,
        }
    return verdicts


def cmd_validate(args) -> int:
    _require(args.horizon is None or args.horizon >= 2, "--horizon must be >= 2")
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    payload = _validation_payload(cfg, problem, horizon=args.horizon)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["c3"]["passed"] else EXIT_FAIL


def cmd_certify(args) -> int:
    try:
        trace = read_trace_csv(args.trace)
    except (OSError, ValueError) as err:
        print(f"cannot read trace: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.kind == "sqrt":
            report = certify_sqrt_rate(trace)
        else:
            report = certify_linear_rate(trace, q_bound=args.q_bound)
    except ValueError as err:
        print(f"certificate not applicable: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsengsplit",
        description="Benchmark runner for the double-inertial relaxed splitting solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="path to a JSON experiment config")
        sp.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--max-iters", type=int, default=None, help="override the iteration budget")
        sp.add_argument("--tol", type=float, default=None, help="override the stopping tolerance")
        sp.add_argument("--quiet", action="store_true", help="suppress stdout reporting")

    add_common(sub.add_parser("solve", help="run a single configured solve"))
    add_common(sub.add_parser("sweep", help="run the config's parameter grid"))

    sp = sub.add_parser("validate", help="validate the configured schedules")
    sp.add_argument("--config", required=True)
    sp.add_argument("--horizon", type=int, default=None, help="validation horizon (default 10^6)")

    sp = sub.add_parser("certify", help="run a rate certificate on a trace CSV")
    sp.add_argument("--trace", required=True, help="path to a trace CSV")
    sp.add_argument("--kind", choices=("sqrt", "linear"), required=True)
    sp.add_argument("--q-bound", type=float, default=None, help="contraction factor to compare against")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "validate": cmd_validate,
        "certify": cmd_certify,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
