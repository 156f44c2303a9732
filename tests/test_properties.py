"""Property tests: the trace record round-trips through its files, which
spell each float as its own ``repr`` does, no config and no edit of a
trace's bytes makes the CLI leave its documented exit codes, every
schedule that constructs runs with its step inside the interval of the
paper's step-size lemma, and the exact weak-regime clauses agree with
dense evaluation of the sequences, as the sampled clause (iv) does on
the indices it samples."""

import contextlib
import functools
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tsengsplit import (
    TRACE_COLUMNS,
    DivergenceError,
    RngStream,
    ScheduleSet,
    SolverConfig,
    SolverTrace,
    beta_bound,
    constant,
    gen_oracle_strong,
    inverse_square,
    one_minus_pow10,
    preset,
    rational,
    read_trace_csv,
    solve,
    validate_c3,
    write_trace_csv,
    write_trace_jsonl,
)
from tsengsplit.cli import main

# derandomized, so every run of the suite checks the same examples
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NORM = st.floats(min_value=0.0, allow_infinity=False)
STEP = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# rows a finished solve can record, before they are numbered 1..T: the step,
# the residual, E_n and dist (when recorded) as norms, and a wall time
ROWS = st.lists(st.tuples(STEP, NORM, NORM, st.none() | NORM, FINITE), min_size=1, max_size=20)


@SETTINGS
@given(rows=ROWS, status=st.sampled_from(["tolerance_met", "exact_solution", "max_iters"]), data=st.data())
def test_trace_record_round_trips(rows, status, data):
    rows = [(n, *row) for n, row in enumerate(rows, start=1)]
    # the counts of a solve: one resolvent and two forward evaluations a row, one fewer at an exact stop,
    # and a tie break at most on each row that evaluated the forward map twice
    fwd, res = 2 * len(rows) - (status == "exact_solution"), len(rows)
    ties = data.draw(st.integers(0, fwd - res), label="ties")
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


def csv_by_formula(trace: SolverTrace) -> str:
    """The trace CSV with each float formatted by its own ``repr`` call."""
    lines = [",".join(TRACE_COLUMNS)]
    for n, *values, _elapsed_ms in trace.rows:
        lines.append(",".join([str(n), *["" if v is None else repr(float(v)) for v in values], "0.0"]))
    lines.append(
        f"# status={trace.status} forward_evals={trace.forward_evals} "
        f"resolvent_evals={trace.resolvent_evals} tie_breaks={trace.tie_breaks}"
    )
    return "\n".join(lines) + "\n"


def jsonl_by_formula(trace: SolverTrace) -> str:
    """The trace JSONL with each row a dict given to ``json.dumps``."""
    records = [dict(zip(TRACE_COLUMNS, row)) for row in trace.rows] + [trace.summary()]
    return "".join(json.dumps(rec) + "\n" for rec in records)


def written(trace: SolverTrace, tmp: str) -> tuple[str, str]:
    """The text of the CSV and the JSONL the writers make of ``trace`` in ``tmp``."""
    csv_path, jsonl_path = Path(tmp) / "trace.csv", Path(tmp) / "trace.jsonl"
    write_trace_csv(trace, csv_path)
    write_trace_jsonl(trace, jsonl_path)
    return csv_path.read_text(encoding="utf-8"), jsonl_path.read_text(encoding="utf-8")


# every float, with signed zeros, subnormals and the largest float drawn often
FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308])
ROW = st.tuples(st.integers(), FLOATS, FLOATS, FLOATS, st.none() | FLOATS, FLOATS)
EDGE_ROWS = [
    (1, math.nan, math.inf, -math.inf, None, -0.0),
    (7, 1e-300, 5e-324, 1.7976931348623157e308, -math.nan, 12.5),
    (8, -0.0, 2.225073858507201e-308, -1.7976931348623157e308, -0.0, math.inf),
]


@SETTINGS
@given(row=ROW)
@example(row=EDGE_ROWS[0])
@example(row=EDGE_ROWS[1])
def test_jsonl_row_template_writes_what_json_dumps_writes(row):
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = written(SolverTrace(rows=[row]), tmp)[1]
    assert jsonl.splitlines()[0] == json.dumps(dict(zip(TRACE_COLUMNS, row)))


@SETTINGS
@given(rows=st.lists(ROW, max_size=6), other=st.lists(ROW, min_size=1, max_size=6), data=st.data())
@example(rows=EDGE_ROWS, other=EDGE_ROWS[::-1], data=None)
def test_both_trace_files_spell_each_float_as_its_own_repr(rows, other, data):
    # the writers format each float once per trace and share the text: after
    # a first write, rows replaced, appended to or edited must render as they are now
    trace = SolverTrace(rows=list(rows), status="max_iters", forward_evals=3, resolvent_evals=2, tie_breaks=1)
    with tempfile.TemporaryDirectory() as tmp:

        def check():
            assert written(trace, tmp) == (csv_by_formula(trace), jsonl_by_formula(trace))

        check()
        trace = replace(trace, rows=list(other))
        check()
        trace.rows.append(rows[0] if rows else other[0])
        check()
        trace.rows[data.draw(st.integers(0, len(trace.rows) - 1), label="edited") if data else 0] = other[-1]
        check()
        trace.rows.pop()
        trace.rows.append(rows[-1] if rows else other[-1])
        check()


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


# --- fuzzed trace text ---------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@functools.cache
def solve_written_trace() -> bytes:
    """The trace.csv ``solve`` writes for a shipped config both certificates pass."""
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["solve", "--config", str(CONFIGS / "oracle_strong_linear.json"), "--out", tmp, "--quiet"]) == 0
        return (Path(tmp) / "trace.csv").read_bytes()


def mutate(text: bytes, kind: str, draw) -> bytes:
    """``text`` with one edit of the kind named, its place drawn by ``draw``."""
    lines = text.split(b"\n")
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if kind == "non_finite":
        at = draw(st.integers(0, len(lines) - 1))
        cols = lines[at].split(b",")
        literal = draw(st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"nan", b"inf"]))
        cols[draw(st.integers(0, len(cols) - 1))] = literal
        lines[at] = b",".join(cols)
    elif kind == "bom":
        return b"\xef\xbb\xbf" + text
    elif kind == "crlf":
        return text.replace(b"\n", b"\r\n")
    elif kind == "trailing_spaces":
        lines[draw(st.integers(0, len(lines) - 1))] += b" " * draw(st.integers(1, 3))
    elif kind in ("footer_twice", "footer_missing"):
        footers = [i for i, line in enumerate(lines) if line.startswith(b"#")]
        if footers:
            at = footers[-1]
            lines[at : at + 1] = [lines[at]] * 2 if kind == "footer_twice" else []
    else:  # non_utf8
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"])) + text[at:]
    return b"\n".join(lines)


MUTATIONS = ["truncate", "non_finite", "bom", "crlf", "trailing_spaces", "footer_twice", "footer_missing", "non_utf8"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
    certificate=st.sampled_from(["sqrt", "linear"]),
    data=st.data(),
)
def test_fuzzed_trace_keeps_the_certify_exit_code_contract(kinds, certificate, data):
    # a trace solve wrote, edited byte by byte up to three times
    text = solve_written_trace()
    for kind in kinds:
        text = mutate(text, kind, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["certify", "--trace", str(path), "--kind", certificate])  # a traceback fails the test
    assert code in (0, 1, 2)
    if code != 2:
        json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"certify printed {name}"))


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


# --- the exact weak-regime clauses ------------------------------------------------

# every term up to 10^4, two far terms, then the limit
DENSE_N = [*range(1, 10**4 + 1), 10**9, 10**12]


def _dense(seq):
    return [seq.at(n) for n in DENSE_N] + [seq.limit()]


def _nondecreasing(terms):
    return all(a <= b for a, b in zip(terms, terms[1:]))


@SETTINGS
@given(s=SCHEDULE_SETS)
# each passed the sampled validator: alpha_n > 1 only beyond n = 10^7, beta_n falls by ~5e-15 a step
@example(s=replace(preset("paper_default"), alpha=rational(1 + 1e-7, -1.0, 0.0)))
@example(s=replace(preset("paper_default"), beta=rational(0.05, 0.5, 1e7)))
# passed (iv) under a relative tolerance: the blend 0.4 alpha_n falls by ~2e-15 a step
@example(s=replace(preset("chc_relaxed"), alpha=rational(0.3, 0.5, 1e7)))
# passes every clause; every beta_n stays below the cap, but their supremum reaches it
@example(s=preset("paper_default"))
@example(s=replace(preset("paper_default"), beta=rational(beta_bound(1.2), -0.01, 0.0)))
def test_exact_clauses_agree_with_dense_evaluation(s):
    p_far = s.p_seq.at(10**9), s.p_seq.at(10**12)
    # a member whose terms underflow to zero is summable in floats only
    assume(p_far[0] > 0.0 or s.p_seq.is_identically_zero())
    alpha, beta, theta = _dense(s.alpha), _dense(s.beta), _dense(s.theta)
    relaxed = s.beta.is_identically_zero()
    eps_ok = relaxed or s.epsilon > 1.0
    theta_cap = 1.0 / (1.0 + s.epsilon)
    dense = {
        "i": all(0.0 <= a <= 1.0 for a in alpha),
        "ii": relaxed
        or (eps_ok and _nondecreasing(beta) and min(beta) >= 0.0 and max(beta) < beta_bound(s.epsilon)),
        "iii": eps_ok and _nondecreasing(theta) and all(s.theta_floor < t <= theta_cap for t in theta),
        # the summable members decay like 1/n^2 (or are zero), the others like 1/n at best,
        # so n^2 p_n holds still between n = 10^9 and 10^12 exactly when p_n is summable
        "v": p_far[1] * 1e6 <= 2.0 * p_far[0] and s.mu_seq.limit() == 0.0,
    }
    report = validate_c3(s)
    assert {name: report.clause(name).passed for name in dense} == dense

    # (iv) is sampled at every n <= 64: a reported drop is real, and a drop there is reported
    def blended(n):
        return (1.0 - s.theta.at(n)) * s.beta.at(n) + s.theta.at(n) * s.alpha.at(n)

    iv = report.clause("iv")
    if not iv.passed:
        bad = iv.first_violation_index
        assert blended(bad + 1) < blended(bad)
    first_drop = next((n for n in range(1, 65) if blended(n + 1) < blended(n)), None)
    if first_drop is not None:
        assert iv.first_violation_index == first_drop
