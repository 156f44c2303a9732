"""Benchmark command-line front end.

Subcommands:

* ``solve``    - run one configured solve; writes ``trace.csv``,
  ``trace.jsonl``, ``summary.json`` and ``validation.json`` (a diverged
  solve, reported from its partial trace, writes only the last two).
* ``sweep``    - run a parameter grid on one fixed instance; writes
  ``sweep_summary.csv`` and ``sweep_trends.json``.  The sweep and helpers
  forked from it, one per further CPU of the process's affinity mask (none
  on one CPU or for one point), run one claim loop: each reads grid
  indices from one unlinked file they share, so every point is claimed
  once, and rows keep grid order.  A point whose solve raises is solved
  once more by the sweep at the end.  A helper whose sweep is gone (killed
  by a signal that runs no cleanup) exits after its current point.
* ``validate`` - print the schedule validation reports.
* ``certify``  - run a rate certificate against a stored trace CSV.

Configs are versioned JSON documents whose objects hold only known keys;
sequence formulas are restricted to the declared family (constants,
``a + b/(c+n)``, ``1 - 10^-n``, ``1/n^2``) so every run is portable and
replayable.  With a fixed seed, two invocations of the same config
produce byte-identical trace CSVs.

Exit codes: 0 success (converged / valid / certified), 1 budget exhausted
or failed validation/certificate, 2 bad configuration, 3 divergence.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .linalg import RngStream, norm
from .problems import gen_affine_vi, gen_l2_vi, gen_lasso, gen_oracle_strong, oracle_orthant_vi
from .schedules import (
    SEQUENCE_KINDS,
    ScheduleSet,
    SequenceSpec,
    constant,
    preset,
    validate_c3,
    validate_strong,
)
from .solver import (
    STATUS_BUDGET,
    STATUS_DIVERGED,
    STATUS_EXACT,
    STATUS_TOL,
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
SWEEP_HEADER = "sweep_key,sweep_value,iterations,status,final_metric,elapsed_s"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
# a run's terminal status -> exit code; a sweep exits with the worst of its points
EXIT_BY_STATUS = {STATUS_EXACT: EXIT_OK, STATUS_TOL: EXIT_OK, STATUS_BUDGET: EXIT_FAIL, STATUS_DIVERGED: EXIT_DIVERGED}

# each problem family and the params it reads: its generator's keywords, whose defaults it takes
PROBLEM_PARAMS = {
    "lasso": ("k", "m_rows", "n_cols", "noise_var", "reg", "reg_scale"),
    "affine_vi": ("m", "q"),
    "l2_vi": ("m", "case"),
    "oracle_strong": ("m", "rho"),
    "oracle_orthant": ("q",),
}
PROBLEM_FAMILIES = tuple(PROBLEM_PARAMS)
SCHEDULE_KEYS = ("preset", *(f.name for f in fields(ScheduleSet)))
SEQUENCE_KEYS = ("alpha", "beta", "theta", "mu_seq", "p_seq")
SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig) if f.name != "schedules")
# config keys read as integers (``20.0`` counts, ``20.5`` and ``true`` do not),
# as true/false, and as floats, which take JSON numbers only (``values`` are the
# entries of a sweep axis)
INTEGER_KEYS = ("version", "seed", "max_iters", "k", "m_rows", "n_cols", "m", "case")
FLAG_KEYS = ("assert_descent", "record_distance")
FLOAT_KEYS = (
    *("tol", "noise_var", "reg", "reg_scale", "rho", "mu", "lambda1", "epsilon", "theta_floor", "values"),
    *(param for params in SEQUENCE_KINDS.values() for param in params),
)
SWEEPABLE = ("alpha", "beta", "theta", "mu", "lambda1")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    seed: int
    family: str
    problem_params: dict
    solver: SolverConfig
    sweep_axes: dict[str, list[float]]  # each swept param's values, in the config's order


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _object(spec, where: str, keys) -> dict:
    """``spec`` as a config object whose keys all lie in ``keys``."""
    _require(isinstance(spec, dict), f"'{where}' must be an object")
    unknown = sorted(set(spec) - set(keys))
    _require(not unknown, f"unknown key(s) in '{where}': {', '.join(unknown)}")
    return spec


def _typed(key: str, value):
    """``value`` as the type config key ``key`` reads."""
    if key in INTEGER_KEYS:
        integral = type(value) is int or (type(value) is float and value.is_integer())
        _require(integral, f"'{key}' must be an integer, got {value!r}")
        return int(value)
    if key in FLAG_KEYS:
        _require(type(value) is bool, f"'{key}' must be true or false, got {value!r}")
    elif key in FLOAT_KEYS:
        _require(type(value) in (int, float), f"'{key}' must be a number, got {value!r}")
        return float(value)
    elif key == "q":
        numbers = isinstance(value, list) and all(type(v) in (int, float) for v in value)
        _require(numbers, f"'q' must be a list of numbers, got {value!r}")
        return [float(v) for v in value]
    elif key in ("label", "preset"):
        _require(type(value) is str, f"'{key}' must be a string, got {value!r}")
    return value


@contextlib.contextmanager
def _config_boundary(what: str):
    """Report a malformed value in user input, a problem size too large to
    allocate, or an output file that cannot be written, as a
    :class:`ConfigError` (exit 2) instead of a traceback; used on the
    conversion functions and the artifact writes."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError, ArithmeticError, OSError, MemoryError) as err:
        raise ConfigError(f"{what}: {type(err).__name__}: {err}") from err


@_config_boundary("bad config value")
def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except RecursionError as err:  # arrays or objects nested about 1,000 deep
        raise ConfigError(f"config is nested too deeply: {err}") from err
    _object(raw, "config", ("version", "seed", "problem", "schedules", "solver", "sweep"))
    _require(_typed("version", raw.get("version", CONFIG_VERSION)) == CONFIG_VERSION, "unsupported config version")

    prob = _object(raw.get("problem"), "problem", ("family", "params"))
    family = prob.get("family")
    _require(family in PROBLEM_FAMILIES, f"problem.family must be one of {PROBLEM_FAMILIES}")

    schedules = _schedules_from_config(raw.get("schedules", {"preset": "paper_default"}))
    # only the solver keys the config gives: SolverConfig owns every default
    solver = _object(raw.get("solver", {}), "solver", SOLVER_KEYS)
    solver_cfg = SolverConfig(schedules, **{key: _typed(key, v) for key, v in solver.items()})

    axes: dict[str, list[float]] = {}
    if "sweep" in raw:
        axis_specs = _object(raw["sweep"], "sweep", ("axes",)).get("axes")
        _require(isinstance(axis_specs, list), "sweep needs an 'axes' list")
        for ax in axis_specs:
            param = _object(ax, "sweep axis", ("param", "values")).get("param")
            _require(param in SWEEPABLE, f"sweep param must be one of {SWEEPABLE}")
            _require(param not in axes, f"sweep param {param!r} appears twice")
            values = ax.get("values")
            _require(isinstance(values, list) and len(values) > 0, "sweep axis needs a nonempty value list")
            axes[param] = [_typed("values", v) for v in values]
            for v in axes[param]:
                apply_sweep_point(schedules, {param: v})  # rejects e.g. mu outside (0, 1)

    params = _object(prob.get("params", {}), "params", PROBLEM_PARAMS[family])
    return ExperimentConfig(
        seed=_typed("seed", raw.get("seed", 0)),
        family=family,
        problem_params={key: _typed(key, v) for key, v in params.items()},
        solver=solver_cfg,
        sweep_axes=axes,
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice would give its setting two values."""
    obj = {}
    for key, value in pairs:
        _require(key not in obj, f"duplicate key {key!r}: each setting is given once")
        obj[key] = value
    return obj


def _schedules_from_config(spec) -> ScheduleSet:
    given = {
        key: _sequence(key, value) if key in SEQUENCE_KEYS else _typed(key, value)
        for key, value in _object(spec, "schedules", SCHEDULE_KEYS).items()
        if key != "preset"
    }
    if "preset" not in spec:
        missing = [f.name for f in fields(ScheduleSet) if f.default is MISSING and f.name not in given]
        _require(not missing, f"missing key(s) in 'schedules': {', '.join(missing)} (a 'preset' supplies them)")
        return ScheduleSet(**given)
    base = preset(_typed("preset", spec["preset"]))
    # the preset's name no longer describes an overridden set
    return replace(base, **{"label": "", **given}) if given else base


def _sequence(key: str, spec) -> SequenceSpec:
    """The sequence object ``spec``, which holds its kind and that kind's parameters."""
    _require(isinstance(spec, dict), f"'{key}' must be an object")
    kind = spec.get("kind")
    # compared, not hashed: a list given as the kind is refused like any unknown kind
    _require(kind in tuple(SEQUENCE_KINDS), f"unknown sequence kind {kind!r} in '{key}'")
    params = _object(spec, key, ("kind", *SEQUENCE_KINDS[kind]))
    return SequenceSpec(kind, **{param: _typed(param, v) for param, v in params.items() if param != "kind"})


@_config_boundary("bad problem params")
def build_problem(cfg: ExperimentConfig) -> Problem:
    p = cfg.problem_params
    rng = RngStream(cfg.seed)
    if cfg.family == "lasso":
        return gen_lasso(rng, **p)[1]
    if cfg.family == "affine_vi":
        return gen_affine_vi(rng, **p)
    if cfg.family == "l2_vi":
        return gen_l2_vi(**p)
    if cfg.family == "oracle_strong":
        return gen_oracle_strong(rng, **p)
    return oracle_orthant_vi(**p)


def apply_sweep_point(schedules: ScheduleSet, point: dict[str, float]) -> ScheduleSet:
    updates = {param: constant(v) if param in SEQUENCE_KEYS else v for param, v in point.items()}
    return replace(schedules, **updates)


def _validation_payload(cfg: ExperimentConfig, problem: Problem) -> dict:
    s = cfg.solver.schedules
    payload = {"c3": validate_c3(s).to_dict()}
    fwd = problem.forward
    consts = all(seq.kind == "constant" for seq in (s.alpha, s.beta, s.theta))
    # the modulus first: without it no strong report is made and L goes unread
    if (
        consts
        and fwd.strong_monotone_modulus is not None
        and fwd.strong_monotone_modulus > 0
        and fwd.lipschitz is not None
    ):
        payload["strong"] = validate_strong(s, fwd.lipschitz, fwd.strong_monotone_modulus).to_dict()
    return payload


def _out_dir(arg: str | None) -> Path:
    out = Path(arg) if arg else Path(os.environ.get(OUT_DIR_ENV, "runs"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory: {err}") from err
    return out


@_config_boundary("cannot write output")
def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


@_config_boundary("bad command-line override")
def _apply_cli_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    given = {key: getattr(args, key) for key in ("max_iters", "tol")}
    cfg.solver = replace(cfg.solver, **{key: v for key, v in given.items() if v is not None})
    return cfg


def _timed_solve(problem: Problem, solver_cfg: SolverConfig, rows=None):
    """``(x, trace, error, seconds)`` of one solve, its rows kept in ``rows``
    as :func:`solve` keeps them; a diverged solve gives no ``x``, its
    :class:`DivergenceError` and the partial trace it holds."""
    t0 = time.perf_counter()
    x = error = None
    try:
        x, trace = solve(problem, solver_cfg, rows)
    except DivergenceError as err:
        trace, error = err.trace, err
    return x, trace, error, time.perf_counter() - t0


def cmd_solve(args) -> int:
    cfg = _apply_cli_overrides(load_config(args.config), args)
    out = _out_dir(args.out)
    problem = build_problem(cfg)
    validation = _validation_payload(cfg, problem)
    if not args.quiet and not validation["c3"]["passed"]:
        print("warning: schedule failed validation (run continues)", file=sys.stderr)

    _write(out / "validation.json", json.dumps(validation, indent=2) + "\n")

    x, trace, error, elapsed = _timed_solve(problem, cfg.solver)
    summary = trace.summary()
    schedules = cfg.solver.schedules
    summary.update(elapsed_s=elapsed, seed=cfg.seed, schedules=schedules.label or schedules.to_dict())
    if error is not None:
        print(f"divergence: {error}", file=sys.stderr)
        summary.update(error=str(error), last_row=trace.row(-1) if trace.rows else None)
    else:
        with _config_boundary("cannot write output"):
            write_trace_csv(trace, out / "trace.csv")
            write_trace_jsonl(trace, out / "trace.jsonl")
        summary["solution_norm"] = norm(x, problem.weights)
        if problem.known_solution is not None:
            summary["dist_to_solution"] = norm(x - problem.known_solution, problem.weights)
        if summary["tie_break_fraction"] > 0.01:
            summary["tie_break_warning"] = "degenerate step-update branch hit on more than 1% of iterations"
        if not args.quiet:
            print(json.dumps(summary, indent=2))
    _write(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    return EXIT_BY_STATUS[trace.status]


def _grid_points(axes: dict[str, list[float]]) -> list[dict[str, float]]:
    """Every grid point, the last axis varying fastest."""
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


def _sweep_row(problem: Problem, solver_cfg: SolverConfig, point: dict[str, float]) -> tuple:
    """The row ``(iterations, final_metric, elapsed_s, status)`` of one grid
    point, solved on ``problem``; a row holds no distance to the solution,
    so none is recorded, and reads no trace row but the last, so the trace
    keeps only that one."""
    run_cfg = replace(solver_cfg, schedules=apply_sweep_point(solver_cfg.schedules, point), record_distance=False)
    _, trace, _, elapsed = _timed_solve(problem, run_cfg, collections.deque(maxlen=1))
    summary = trace.summary()
    return summary["iterations"], summary["final_metric"] if trace.rows else float("nan"), elapsed, summary["status"]


def cmd_sweep(args) -> int:
    cfg = _apply_cli_overrides(load_config(args.config), args)
    _require(bool(cfg.sweep_axes), "config has no sweep axes")
    out = _out_dir(args.out)
    problem = build_problem(cfg)  # one instance shared by every grid point this process solves
    points = _grid_points(cfg.sweep_axes)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    rows = _sweep_rows(cfg, problem, points, min(cpus - 1, len(points) - 1))
    worst = max(EXIT_BY_STATUS[status] for *_, status in rows)

    key = ";".join(cfg.sweep_axes)
    lines = [SWEEP_HEADER]
    for point, (iterations, metric, elapsed, status) in zip(points, rows):
        value = ";".join(map(repr, point.values()))
        lines.append(f"{key},{value},{iterations},{status},{metric!r},{elapsed:.6f}")
    _write(out / "sweep_summary.csv", "\n".join(lines) + "\n")

    trends = _trend_verdicts(cfg.sweep_axes, points, rows)
    _write(out / "sweep_trends.json", json.dumps(trends, indent=2) + "\n")
    if not args.quiet:
        print(json.dumps(trends, indent=2))
    return worst


ROW_FIELDS = 4  # a sweep row as doubles: iterations, final_metric, elapsed_s, 1 + status index (0: missing, -1: raised)
STATUSES = tuple(EXIT_BY_STATUS)


def _sweep_rows(cfg: ExperimentConfig, problem: Problem, points: list, helpers: int) -> list[tuple]:
    """The rows of every grid point, solved by this process and ``helpers``
    forked copies of it side by side (none: this process solves them all).

    The claims, the indices 0.. as 4-byte integers, lie in an unlinked file
    written before the forks.  The processes share its open file
    description, and a read of a regular file returns its bytes and moves
    the shared offset in one step, so each claim goes to one process.  Every
    process runs :func:`_serve_points` on it, so a point goes to whichever
    is free, and its row lands by grid index in one shared table.  The
    helpers are forked before the first point is solved and build their own
    instance meanwhile (two processes reading one instance's pages run
    slower).  This process waits only while rows are missing, kills and
    reaps every helper, then solves once more, in grid order, each point no
    process stored (its helper could not start or died) or whose solve
    raised, so the first error in grid order surfaces.
    """
    import mmap
    import signal
    import tempfile

    table = memoryview(mmap.mmap(-1, 8 * ROW_FIELDS * len(points))).cast("d")
    with contextlib.ExitStack() as stack:
        with _config_boundary("cannot write the sweep's claims"):
            claim_file = stack.enter_context(tempfile.TemporaryFile(buffering=0))
            claim_file.write(b"".join(i.to_bytes(4, "little") for i in range(len(points))))
            claim_file.seek(0)
        claims, sweep = claim_file.fileno(), os.getpid()
        pids: list[int] = []
        try:
            for _ in range(helpers):
                try:
                    pid = os.fork()
                except OSError:
                    break
                if pid == 0:  # a helper: every way out is os._exit, which flushes nothing
                    code = 1
                    try:
                        own = build_problem(cfg)
                        _serve_points(claims, table, own, cfg.solver, points, lambda: os.getppid() == sweep)
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            _serve_points(claims, table, problem, cfg.solver, points, lambda: True)
            # every claim is taken, so each helper exits after its current point
            while pids and not all(table[3::ROW_FIELDS]):  # a row is missing; a raised one is present
                os.waitpid(pids.pop(), 0)
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
    stored = [table[ROW_FIELDS * i : ROW_FIELDS * (i + 1)] for i in range(len(points))]
    return [
        (int(n), m, e, STATUSES[int(s) - 1])
        if s > 0
        else _sweep_row(problem, cfg.solver, point)  # missing or raised: solved here, so a raise surfaces in grid order
        for point, (n, m, e, s) in zip(points, stored)
    ]


def _serve_points(claims: int, table, problem: Problem, solver_cfg: SolverConfig, points: list, alive) -> None:
    """Solve on ``problem`` and store in ``table`` each grid point claimed
    from the claim file ``claims``, until its claims run out or ``alive()``
    fails (a sweep killed by a signal runs no ``finally`` and kills no
    helper, so a helper checks before each claim that its sweep is still its
    parent).  A row's status goes in last: a row counts once it is set.  A
    point whose solve raises gets the status -1 and the loop goes on."""
    while alive() and (claim := os.read(claims, 4)):
        i = int.from_bytes(claim, "little")
        at = ROW_FIELDS * i
        try:
            row = _sweep_row(problem, solver_cfg, points[i])
        except Exception:  # the sweep solves the point again and raises its error
            table[at + 3] = -1
        else:
            table[at], table[at + 1], table[at + 2] = row[:3]
            table[at + 3] = STATUSES.index(row[3]) + 1


def _trend_verdicts(axes: dict[str, list[float]], points: list[dict[str, float]], rows: list[tuple]) -> dict:
    """Per-axis monotonicity of iteration counts along increasing values,
    ``rows`` being the sweep rows of ``points``.

    Diverged points have no comparable iteration count: they are left out
    of the comparisons, counted, and make the axis verdict false.
    """
    finished = [(point, row[0]) for point, row in zip(points, rows) if row[3] != STATUS_DIVERGED]
    diverged = len(rows) - len(finished)
    verdicts = {}
    for param in axes:
        others = [o for o in axes if o != param]
        groups: dict[tuple, list[tuple[float, int]]] = {}
        for point, iterations in finished:
            gkey = tuple(point[o] for o in others)
            groups.setdefault(gkey, []).append((point[param], iterations))
        violations = 0
        comparisons = 0
        for series in groups.values():
            series.sort()
            iters = [it for _, it in series]
            comparisons += max(0, len(iters) - 1)
            violations += sum(1 for a, b in zip(iters, iters[1:]) if b > a)
        verdicts[param] = {
            "nonincreasing": violations == 0 and diverged == 0,
            "violations": violations,
            "comparisons": comparisons,
            "diverged": diverged,
        }
    return verdicts


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    payload = _validation_payload(cfg, problem)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["c3"]["passed"] else EXIT_FAIL


def cmd_certify(args) -> int:
    _require(args.q_bound is None or math.isfinite(args.q_bound), f"--q-bound must be finite, got {args.q_bound!r}")
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
        # refuses a ratio that overflowed, which JSON cannot hold
        text = json.dumps(report.to_dict(), indent=2, allow_nan=False)
    except ValueError as err:
        print(f"certificate not applicable: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(text)
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

    sp = sub.add_parser("certify", help="run a rate certificate on a trace CSV")
    sp.add_argument("--trace", required=True, help="path to a trace CSV")
    sp.add_argument("--kind", choices=("sqrt", "linear"), required=True)
    sp.add_argument("--q-bound", type=float, default=None, help="contraction factor to compare against")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call of a process and reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
