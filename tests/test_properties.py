"""Property tests: the trace record round-trips through its files, no
config, however malformed, makes the CLI leave its documented exit codes,
and every schedule that constructs runs with its step inside the interval
of the paper's step-size lemma."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsengsplit import (
    TRACE_COLUMNS,
    DivergenceError,
    RngStream,
    ScheduleSet,
    SolverConfig,
    SolverTrace,
    constant,
    gen_oracle_strong,
    inverse_square,
    one_minus_pow10,
    rational,
    read_trace_csv,
    solve,
    write_trace_csv,
    write_trace_jsonl,
)
from tsengsplit.cli import main

# derandomized, so every run of the suite checks the same examples
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.lists(st.tuples(st.integers(), FINITE, FINITE, FINITE, st.none() | FINITE, FINITE), max_size=20)


@SETTINGS
@given(
    rows=ROWS,
    status=st.sampled_from(["tolerance_met", "exact_solution", "max_iters", "diverged"]),
    counters=st.tuples(*[st.integers(0, 2**62)] * 3),
)
def test_trace_record_round_trips(rows, status, counters):
    fwd, res, ties = counters
    trace = SolverTrace(rows=rows, status=status, forward_evals=fwd, resolvent_evals=res, tie_breaks=ties)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, jsonl_path = Path(tmp) / "trace.csv", Path(tmp) / "trace.jsonl"
        write_trace_csv(trace, csv_path)
        write_trace_jsonl(trace, jsonl_path)
        back = read_trace_csv(csv_path)
        records = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    # repr tells -0.0 from 0.0, so this is a bit-for-bit comparison
    assert [tuple(map(repr, r)) for r in back.rows] == [tuple(map(repr, r[:5] + (0.0,))) for r in rows]
    assert (back.status, back.forward_evals, back.resolvent_evals, back.tie_breaks) == (status, fwd, res, ties)
    assert all(tuple(rec) == TRACE_COLUMNS for rec in records[:-1])
    assert [tuple(map(repr, rec.values())) for rec in records[:-1]] == [tuple(map(repr, r)) for r in rows]
    assert records[-1]["iterations"] == len(rows)


# --- fuzzed configs ------------------------------------------------------------

JUNK = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(-1, 3), max_size=2)
NUMBERS = (
    st.floats(-0.5, 1.5)
    | st.integers(-2, 3)
    | st.sampled_from([0.0, 1e-12, 50.0, 1e300, -1e300, math.inf, -math.inf, math.nan])
)
VALUES = NUMBERS | JUNK
# dimensions stay at most 64, so no example allocates a large matrix
DIMS = st.integers(-1, 64) | st.sampled_from([2.5, math.inf, math.nan]) | JUNK
SEQUENCES = (
    st.fixed_dictionaries({"kind": st.just("constant")}, optional={"value": VALUES, "valu": VALUES})
    | st.fixed_dictionaries({"kind": st.just("rational")}, optional={"a": VALUES, "b": VALUES, "c": VALUES})
    | st.fixed_dictionaries({"kind": st.sampled_from(["one_minus_pow10", "inverse_square", "cubic"])})
    | VALUES
)
PRESETS = st.sampled_from(["paper_default", "tseng_plain", "chc_relaxed", "akh"])
BASE_PARAMS = {
    "lasso": {"k": 3, "m_rows": 16, "n_cols": 32},
    "affine_vi": {"m": 8, "q": "zero"},
    "l2_vi": {"m": 16, "case": 1},
    "oracle_strong": {"m": 6, "rho": 1.0},
    "oracle_orthant": {"q": [-1.0, 1.0]},
}
# per config section, every key it reads plus a misspelled one, and the values fuzzed into each
FUZZ = {
    None: {"version": VALUES, "seed": st.integers(-2, 2**64) | JUNK, "sweeep": VALUES},
    "problem": {"family": st.sampled_from([*BASE_PARAMS, "qp"]) | JUNK, "params": JUNK},
    "params": {
        **{key: DIMS for key in ("k", "m_rows", "n_cols", "m", "case")},
        "q": st.just("zero") | st.lists(NUMBERS, max_size=64) | JUNK,
        **{key: VALUES for key in ("noise_var", "reg", "reg_scale", "identity", "rho", "rh0")},
    },
    "schedules": {
        "preset": PRESETS | JUNK,
        **{key: VALUES for key in ("mu", "lambda1", "epsilon", "theta_floor", "lamda1")},
        **{key: SEQUENCES for key in ("alpha", "beta", "theta", "mu_seq", "p_seq")},
    },
    "solver": {
        "max_iters": st.integers(-1, 10**6) | JUNK,
        "stop_rule": st.sampled_from(["step_diff", "iterate_norm", "residual", "energy"]) | JUNK,
        **{key: VALUES for key in ("tol", "assert_descent", "record_distance", "max_iter")},
    },
}
EDITS = st.sampled_from([(section, key) for section, keys in FUZZ.items() for key in keys]).flatmap(
    lambda where: st.tuples(st.just(where), FUZZ[where[0]][where[1]])
)


@SETTINGS
@given(family=st.sampled_from(sorted(BASE_PARAMS)), preset=PRESETS, edits=st.lists(EDITS, max_size=3))
# inputs that once escaped as tracebacks
@example(family="oracle_strong", preset="paper_default", edits=[(("params", "rho"), math.inf)])
@example(family="oracle_strong", preset="paper_default", edits=[(("params", "m"), math.inf)])
@example(family="affine_vi", preset="paper_default", edits=[(("schedules", "mu_seq"), -0.5)])
@example(family="affine_vi", preset="tseng_plain", edits=[(("schedules", "beta"), 1.0)])
def test_fuzzed_config_keeps_the_exit_code_contract(family, preset, edits):
    # a valid config with up to three entries overwritten by fuzzed values
    params = dict(BASE_PARAMS[family])
    cfg = {
        "version": 1,
        "seed": 3,
        "problem": {"family": family, "params": params},
        "schedules": {"preset": preset},
        "solver": {"tol": 1e-8, "record_distance": True},
    }
    sections = {None: cfg, "problem": cfg["problem"], "params": params, "schedules": cfg["schedules"], "solver": cfg["solver"]}
    for (section, key), value in edits:
        sections[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["solve", "--config", str(path), "--out", str(Path(tmp) / "out"), "--max-iters", "5", "--quiet"]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)  # a traceback fails the test
    assert code in (0, 1, 2, 3)


# --- the step-size interval ------------------------------------------------------

SCALARS = st.floats(-2.0, 2.0) | st.sampled_from([0.0, 1e-300, 1e300, -1e300])
SEQUENCE_FAMILY = (
    st.builds(constant, SCALARS)
    # c > -1 keeps every c + n positive
    | st.builds(rational, SCALARS, SCALARS, st.floats(-0.99, 1e3))
    | st.builds(one_minus_pow10)
    | st.builds(inverse_square)
)


def _schedule_or_none(**fields):
    try:
        return ScheduleSet(**fields)
    except ValueError:  # e.g. a mu_seq or p_seq that goes negative
        return None


SCHEDULE_SETS = st.builds(
    _schedule_or_none,
    alpha=SEQUENCE_FAMILY,
    beta=SEQUENCE_FAMILY,
    theta=SEQUENCE_FAMILY,
    mu_seq=SEQUENCE_FAMILY,
    p_seq=SEQUENCE_FAMILY,
    mu=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    lambda1=st.floats(1e-6, 10.0) | st.sampled_from([1e-300, 1e300]),
    epsilon=st.floats(0.0, 3.0),
    theta_floor=st.floats(1e-3, 1.0),
).filter(lambda s: s is not None)


@SETTINGS
@given(sched=SCHEDULE_SETS, seed=st.integers(0, 2**32), m=st.integers(1, 8), rho=st.floats(0.1, 10.0))
def test_step_stays_in_the_lemma_interval(sched, seed, m, rho):
    # gen_oracle_strong knows its Lipschitz constant L exactly
    prob = gen_oracle_strong(RngStream(seed), m=m, rho=rho)
    cfg = SolverConfig(schedules=sched, max_iters=200, tol=1e-300)
    try:
        _, trace = solve(prob, cfg)  # any other exception fails the test
        assert trace.status in ("tolerance_met", "exact_solution", "max_iters")
    except DivergenceError as err:
        trace = err.trace
        assert trace.status == "diverged"
    lams = trace.lambdas()
    # lambda_n lies in [min(mu/L, lambda1), lambda1 + sum_{k<n} p_k]
    lower = min(sched.mu / prob.forward.lipschitz, sched.lambda1)
    grown = np.cumsum([sched.lambda1] + [sched.p_seq.at(k) for k in range(1, len(lams))])
    assert (lams >= lower * (1.0 - 1e-12)).all()
    assert (lams <= grown * (1.0 + 1e-12)).all()
