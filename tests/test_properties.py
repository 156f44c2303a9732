"""Property tests: the trace record round-trips through its files, which
spell each float as its own ``repr`` does, no config and no edit of the
bytes of a shipped config or of a trace makes the CLI leave its
documented exit codes, every schedule that constructs runs with its step
inside the interval of the paper's step-size lemma, every schedule set
that passes the weak-regime validator keeps the descent inequality and
does not diverge, every set the strong-regime search returns converges
linearly within its contraction factor, the strong-regime clause c3
agrees with its exact rational evaluation, and the exact weak-regime
clauses agree with dense evaluation of the sequences, as the sampled
clause (iv) does on the indices it samples, and a solve's summary.json
agrees with the trace files it writes."""

import contextlib
import functools
import io
import itertools
import json
import math
import re
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contract_cases import BASES, edited
from test_schedules import strong_set
from tsengsplit import (
    TRACE_COLUMNS,
    DivergenceError,
    RngStream,
    ScheduleSet,
    SolverConfig,
    SolverTrace,
    beta_bound,
    certify_linear_rate,
    constant,
    find_feasible_strong,
    gen_oracle_strong,
    inverse_square,
    one_minus_pow10,
    preset,
    rational,
    read_trace_csv,
    solve,
    validate_c3,
    validate_strong,
    write_trace_csv,
    write_trace_jsonl,
)
from tsengsplit.cli import build_problem, load_config, main

# derandomized, so every run of the suite checks the same examples
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NORM = st.floats(min_value=0.0, allow_infinity=False)
STEP = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# rows a finished solve can record, before they are numbered 1..T: the step,
# the residual, E_n and dist (on every row or on none) as norms, and a wall time
ROWS = st.sampled_from([NORM, st.none()]).flatmap(
    lambda dist: st.lists(st.tuples(STEP, NORM, NORM, dist, FINITE), min_size=1, max_size=20)
)


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
    "affine_vi": {"m": 8},
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
        **{key: VALUES for key in ("noise_var", "reg", "reg_scale", "rho", "rh0")},
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


def base_config(family: str, preset: str) -> dict:
    """The valid config of ``family`` that the fuzz test edits."""
    return {
        "version": 1,
        "seed": 3,
        "problem": {"family": family, "params": dict(BASE_PARAMS[family])},
        "schedules": {"preset": preset},
        "solver": {"tol": 1e-8, "record_distance": True},
    }


@pytest.mark.parametrize("family", sorted(BASE_PARAMS))
def test_each_fuzz_base_loads_and_builds(family, tmp_path):
    # a base the reader refuses would make every fuzzed example of its family a refusal, which passes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(family, "paper_default")), encoding="utf-8")
    build_problem(load_config(path))


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
    cfg = base_config(family, preset)
    problem = cfg["problem"]
    sections = {None: cfg, "problem": problem, "params": problem["params"], "schedules": cfg["schedules"], "solver": cfg["solver"]}
    for (section, key), value in edits:
        sections[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["solve", "--config", str(path), "--out", str(Path(tmp) / "out"), "--max-iters", "5", "--quiet"]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)  # a traceback fails the test
    assert code in (0, 1, 2, 3)


# --- run artifacts agree with the trace --------------------------------------

# constant schedules: an inertia far above 1, or a huge step with a huge p_n, diverges within the budget
ARTIFACT_SCHEDULES = st.fixed_dictionaries(
    {"alpha": st.floats(0.0, 60.0), "beta": st.floats(0.0, 1.0), "theta": st.floats(0.0, 1.0)},
    optional={"p_seq": st.sampled_from([0.0, 1e-3, 1e300])},
).map(lambda values: {key: {"kind": "constant", "value": v} for key, v in values.items()})
ARTIFACT_STEPS = st.fixed_dictionaries(
    {}, optional={"mu": st.floats(0.05, 0.95), "lambda1": st.sampled_from([0.05, 0.3, 1e200])}
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from(["orthant", "oracle_strong_linear"]),
    schedules=ARTIFACT_SCHEDULES,
    steps=ARTIFACT_STEPS,
    budget=st.integers(1, 200),
)
# one run of each outcome: finished, diverged after some rows, diverged before the first
@example(base="orthant", schedules={}, steps={}, budget=200)
@example(base="orthant", schedules={"alpha": {"kind": "constant", "value": 50.0}}, steps={}, budget=200)
@example(
    base="orthant", schedules={"p_seq": {"kind": "constant", "value": 1e300}}, steps={"lambda1": 1e200}, budget=200
)
def test_summary_agrees_with_the_trace_files(base, schedules, steps, budget):
    cfg = edited(BASES[base], {"schedules": {**schedules, **steps}})
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "--config", str(path), "--out", str(out), "--max-iters", str(budget), "--quiet"])
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if code == 3:
            assert not (out / "trace.csv").exists()
            last = summary["last_row"]
            assert summary["iterations"] == (last["n"] if last else 0)
            assert summary["final_metric"] == (last["E_n"] if last else None)
        else:
            assert code in (0, 1)
            trace = read_trace_csv(out / "trace.csv")
            t, last = len(trace), trace.row(-1)
            assert summary["iterations"] == t == summary["resolvent_evals"]
            assert summary["forward_evals"] == 2 * t - (summary["status"] == "exact_solution")
            assert (summary["final_metric"], summary["final_residual"]) == (last["E_n"], last["residual"])
            footer = (trace.status, trace.forward_evals, trace.resolvent_evals, trace.tie_breaks)
            counters = ("status", "forward_evals", "resolvent_evals", "tie_breaks")
            assert footer == tuple(summary[key] for key in counters)
            # the trace.jsonl summary line is the record summary.json starts from
            record = json.loads((out / "trace.jsonl").read_text(encoding="utf-8").splitlines()[-1])
            assert record == {key: summary[key] for key in record}
    # the problem's label is written once, as ``label``
    assert "problem" not in summary and list(summary.values()).count(summary["label"]) == 1


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
    elif kind == "blank_line":
        lines.insert(draw(st.integers(0, len(lines))), b"")
    elif kind == "elapsed_ms":  # a measured time in a row's last column
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = b",".join([*lines[at].split(b",")[:5], draw(st.sampled_from([b"12.5", b"1.0", b"5e-324"]))])
    else:  # non_utf8
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"])) + text[at:]
    return b"\n".join(lines)


MUTATIONS = ["truncate", "non_finite", "bom", "crlf", "trailing_spaces", "footer_twice", "footer_missing", "non_utf8"]
MUTATIONS += ["blank_line", "elapsed_ms"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
    certificate=st.sampled_from(["sqrt", "linear"]),
    data=st.data(),
)
def test_fuzzed_trace_keeps_the_certify_exit_code_contract(kinds, certificate, data):
    # a trace solve wrote, edited byte by byte up to three times: certify passes it, and refuses any edit of it
    text = solve_written_trace()
    for kind in kinds:
        text = mutate(text, kind, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["certify", "--trace", str(path), "--kind", certificate])  # a traceback fails the test
    assert code == (0 if text == solve_written_trace() else 2)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"certify printed {name}"))


# --- fuzzed config text --------------------------------------------------------

# a JSON number token; the shipped configs hold no digits inside strings
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
CONFIG_EDITS = ["truncate", "bom", "non_utf8", "non_finite", "long_number", "nesting"]


def mutate_config(text: bytes, kind: str, draw) -> bytes:
    """``text`` with one edit of the kind named; the last three rewrite one number."""
    if kind in ("truncate", "bom", "non_utf8"):
        return mutate(text, kind, draw)
    numbers = list(NUMBER.finditer(text))
    if not numbers:
        return text
    at = numbers[draw(st.integers(0, len(numbers) - 1))]
    if kind == "non_finite":
        new = draw(st.sampled_from([b"NaN", b"Infinity", b"-Infinity"]))
    elif kind == "long_number":  # past int's 4,300-digit limit; as a float, it overflows
        new = draw(st.sampled_from([b"7" * 5000, b"7" * 5000 + b".5", b"0." + b"7" * 5000]))
    else:  # nesting, down to past the parser's recursion limit
        depth = draw(st.sampled_from([1, 2, 100, 5000]))
        new = b"[" * depth + at.group() + b"]" * depth
    return text[: at.start()] + new + text[at.end() :]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    config=st.sampled_from(sorted(CONFIGS.glob("*.json"))),
    kinds=st.lists(st.sampled_from(CONFIG_EDITS), max_size=3),
    data=st.data(),
)
def test_fuzzed_config_text_keeps_the_exit_code_contract(config, kinds, data):
    # a shipped config, edited byte by byte up to three times (or not at all)
    text = config.read_bytes()
    run = "sweep" if "sweep" in json.loads(text) else "solve"
    for kind in kinds:
        text = mutate_config(text, kind, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / config.name
        path.write_bytes(text)
        for argv in (["validate"], [run, "--out", str(Path(tmp) / "out"), "--max-iters", "50", "--quiet"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--config", str(path)])  # a traceback fails the test
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
    lams = trace.column("lambda")
    # lambda_n lies in [min(mu/L, lambda1), lambda1 + sum_{k<n} p_k]
    lower = min(sched.mu / prob.forward.lipschitz, sched.lambda1)
    grown = np.cumsum([sched.lambda1] + [sched.p_seq.at(k) for k in range(1, len(lams))])
    assert (lams >= lower * (1.0 - 1e-12)).all()
    assert (lams <= grown * (1.0 + 1e-12)).all()


# --- the weak regime's guarantee ---------------------------------------------------


@st.composite
def rising(draw, low: float, limit: float):
    """A family member nondecreasing from no less than ``low`` to ``limit``."""
    if limit <= low or draw(st.booleans()):
        return constant(limit)
    c = draw(st.sampled_from([0.0, 9.0, 999.0]))
    return rational(limit, -(limit - draw(st.floats(low, limit))) * (c + 1.0), c)


@st.composite
def weak_regime_sets(draw):
    """Schedule sets drawn around the C3 clauses, some outside each: about one in three passes."""
    relaxed = draw(st.booleans())
    epsilon = draw(st.floats(0.0, 4.0) if relaxed else st.floats(0.5, 4.0))
    beta_cap = beta_bound(epsilon) if epsilon > 1.0 else 0.1  # epsilon <= 1 fails (ii) whatever beta is
    beta = constant(0.0) if relaxed else draw(rising(0.0, draw(st.floats(0.0, 1.2)) * beta_cap))
    alpha_limit = draw(st.floats(beta.limit(), 1.5) | st.floats(2.0, 50.0))
    alpha = draw(st.just(one_minus_pow10()) | rising(beta.at(1), alpha_limit))
    theta_limit = draw(st.floats(0.05, 1.2)) / (1.0 + epsilon)
    theta = draw(rising(0.1 * theta_limit, theta_limit))
    return ScheduleSet(
        alpha=alpha,
        beta=beta,
        theta=theta,
        mu_seq=draw(st.sampled_from([constant(0.0), inverse_square(), rational(0.0, 0.5, 9.0), constant(0.05)])),
        p_seq=draw(st.sampled_from([constant(0.0), inverse_square(), constant(1e-3)])),
        mu=draw(st.floats(0.05, 0.95)),
        lambda1=draw(st.floats(1e-3, 2.0)),
        epsilon=epsilon,
        theta_floor=draw(st.floats(0.01, 0.99)) * theta.at(1),
    )


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(sched=weak_regime_sets(), seed=st.integers(0, 2**32), m=st.integers(1, 8), rho=st.floats(0.1, 10.0))
def test_weak_regime_sets_descend_and_do_not_diverge(sched, seed, m, rho):
    # the paper's weak-convergence theorem: a set passing C3 keeps the descent inequality and
    # converges; one with alpha_n far above 1 diverges, so a validator that admitted it fails here
    assume(validate_c3(sched).passed)
    cfg = SolverConfig(schedules=sched, max_iters=3000, tol=1e-8, assert_descent=True)
    _, trace = solve(gen_oracle_strong(RngStream(seed), m=m, rho=rho), cfg)  # a violation or divergence raises
    assert trace.status in ("tolerance_met", "exact_solution", "max_iters")


# --- the strong regime's guarantee -------------------------------------------------


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32),
    m=st.integers(1, 8),
    rho=st.floats(0.1, 10.0),
    mu=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    lambda1=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=2),
    alpha_offset=st.floats(0.0, 0.05),
    beta=st.floats(0.0, 0.5),
)
def test_strong_regime_sets_converge_within_their_contraction_factor(seed, m, rho, mu, lambda1, alpha_offset, beta):
    # the paper's linear-rate theorem, on grids that run past the caps (alpha's 1/tau - 1 <= 1,
    # beta's (1/tau - 1)/2 < 1/2): every set the search returns contracts within its q
    prob = gen_oracle_strong(RngStream(seed), m=m, rho=rho)
    L, r = prob.forward.lipschitz, prob.forward.strong_monotone_modulus
    found = find_feasible_strong(L, r, mu, lambda1, [alpha_offset + 0.05 * i for i in range(20)], [0.0, beta])
    for sched, report in found:
        _, trace = solve(prob, SolverConfig(schedules=sched, max_iters=3000, tol=1e-11, record_distance=True))
        cert = certify_linear_rate(trace, q_bound=report.q)
        assert cert.passed and cert.details["within_q_bound"], (sched, report.q, cert.details)


# --- the strong regime's clause c3, decided in the reals -----------------------------


def c3_in_fractions(s, L, r):
    """Clause c3 on the float inputs as exact rationals: ``1/tau - 1 - 2b > 0`` and
    ``lower < theta <= min(1, upper root)``, with no root taken: theta is at most the
    larger root of ``quad*t^2 + (1+b)*t + (b-1)`` when the quadratic is not positive
    there, or when theta lies left of its vertex."""
    L, r, mu, lam1, a, b, th = map(Fraction, (L, r, s.mu, s.lambda1, s.alpha.value, s.beta.value, s.theta.value))
    tau = 1 - min(1 - mu, 2 * min(mu / L, lam1) * r) / 2
    quad, denom1, denom2 = 1 / tau - 1 - 2 * b, 1 + a - b, 1 + b - tau * (1 + a)
    if not (quad > 0 and denom1 > 0 and denom2 > 0):
        return False
    below_upper_root = quad * th**2 + (1 + b) * th + b - 1 <= 0 or 2 * quad * th + 1 + b < 0
    return max((1 - b) / denom1, b / denom2) < th <= 1 and below_upper_root


@SETTINGS
@given(
    L=st.floats(0.1, 10.0),
    r=st.floats(0.01, 10.0),
    mu=st.floats(0.01, 0.99),
    lambda1=st.floats(1e-3, 2.0),
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 0.5),
    theta=st.floats(0.01, 1.0),
    ulps_from_upper_end=st.none() | st.integers(-8, 8),
)
def test_strong_c3_agrees_with_fraction_evaluation(L, r, mu, lambda1, alpha, beta, theta, ulps_from_upper_end):
    s = strong_set(mu, lambda1, alpha, beta, theta)
    if ulps_from_upper_end is not None:  # theta at the float upper end, where rounding decides
        interval = validate_strong(s, L, r).theta_interval
        assume(interval is not None)
        theta = interval[1]
        for _ in range(abs(ulps_from_upper_end)):
            theta = math.nextafter(theta, math.copysign(math.inf, ulps_from_upper_end))
        s = replace(s, theta=constant(theta))
    assert validate_strong(s, L, r).clause("c3").passed == c3_in_fractions(s, L, r)


def test_strong_c3_agrees_with_fraction_evaluation_around_the_float_upper_ends():
    # hypothesis draws round floats, whose bounds often round exactly; oracle_strong's L does not.
    # On this grid the float upper root admitted 11 of the 36 sets the search returned.
    grid = [[0.5, 0.7, 0.9], [0.1, 1.0], [0.05 * i for i in range(20)], [0.0, 0.01, 0.05, 0.1]]
    ends = 0
    for seed in range(6):
        prob = gen_oracle_strong(RngStream(seed), m=4, rho=0.5)
        L, r = prob.forward.lipschitz, prob.forward.strong_monotone_modulus
        for mu, lambda1, alpha, beta in itertools.product(*grid):
            interval = validate_strong(strong_set(mu, lambda1, alpha, beta, 0.5), L, r).theta_interval
            if interval is None:
                continue
            ends += 1
            below = above = interval[1]
            for _ in range(4):
                for theta in (below, above):
                    s = strong_set(mu, lambda1, alpha, beta, theta)
                    assert validate_strong(s, L, r).clause("c3").passed == c3_in_fractions(s, L, r), s
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0)
        found = find_feasible_strong(L, r, *grid)
        assert found and all(c3_in_fractions(s, L, r) for s, _ in found)
    assert ends == 18


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    L=st.floats(0.5, 5.0),
    r_over_L=st.floats(0.05, 1.0),
    mu=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
    lambda1=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=2),
    alpha_offset=st.floats(0.0, 0.05),
    beta=st.floats(0.0, 0.2),
)
def test_strong_search_returns_sets_the_reals_admit(L, r_over_L, mu, lambda1, alpha_offset, beta):
    r = r_over_L * L
    found = find_feasible_strong(L, r, mu, lambda1, [alpha_offset + 0.05 * i for i in range(20)], [0.0, beta])
    for s, report in found:
        assert c3_in_fractions(s, L, r), s
        lo, hi = report.theta_interval
        theta = s.theta.value
        if theta not in (0.5 * (lo + hi), hi):  # stepped down from the upper end, no further than needed
            assert not c3_in_fractions(replace(s, theta=constant(math.nextafter(theta, 2.0))), L, r)


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
