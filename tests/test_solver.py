import math
import sys
import threading
import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from tsengsplit import (
    TRACE_COLUMNS,
    DescentViolationError,
    DivergenceError,
    ForwardOperator,
    Problem,
    Resolvent,
    RngStream,
    ScheduleSet,
    SolverConfig,
    SolverTrace,
    certify_linear_rate,
    certify_sqrt_rate,
    constant,
    gen_affine_vi,
    gen_l2_vi,
    gen_lasso,
    gen_oracle_strong,
    inverse_square,
    oracle_orthant_vi,
    orthant_resolvent,
    preset,
    read_trace_csv,
    solve,
    write_trace_csv,
)
from tsengsplit import operators, solver
from tsengsplit.solver import trace_to_csv


def flat_schedule(alpha=0.0, beta=0.0, theta=0.5, mu=0.9, lambda1=0.25, p=None, mu_seq=None):
    return ScheduleSet(
        alpha=constant(alpha),
        beta=constant(beta),
        theta=constant(theta),
        mu_seq=mu_seq or constant(0.0),
        p_seq=p or constant(0.0),
        mu=mu,
        lambda1=lambda1,
        epsilon=0.0 if beta == 0.0 else 1.2,
        theta_floor=min(0.1, theta / 2),
    )


def identity_resolvent():
    return Resolvent(fn=lambda x, lam: x)


# --- step-size update -----------------------------------------------------------


def test_step_update_rejects_non_finite():
    # an infinite growth increment is refused when the schedule is built, not mid-run
    with pytest.raises(ValueError, match="finite"):
        flat_schedule(p=constant(math.inf))


def test_step_underflow_is_divergence():
    # ||w - y|| / ||A(w) - A(y)|| = 2.5e-151, times mu = 1e-180 underflows to a zero step:
    # a numerical failure of a legal schedule, reported like any other divergence
    prob = Problem(
        forward=ForwardOperator(fn=lambda x: np.where(x == 1.0, 1.0, 1e150)),
        backward=identity_resolvent(),
        dimension=1,
        x0=np.ones(1),
        x1=np.ones(1),
    )
    cfg = SolverConfig(schedules=flat_schedule(mu=1e-180), max_iters=10, tol=1e-30)
    with pytest.raises(DivergenceError, match=r"next lambda 0\.0\) at iteration 1") as exc:
        solve(prob, cfg)
    assert exc.value.trace.status == "diverged" and exc.value.trace.rows == []


def test_non_finite_forward_value_is_divergence():
    prob = Problem(
        forward=ForwardOperator(fn=lambda x: np.full_like(x, np.inf)),
        backward=identity_resolvent(),
        dimension=2,
    )
    cfg = SolverConfig(schedules=flat_schedule(), max_iters=10, tol=1e-8)
    with pytest.raises(DivergenceError, match="non-finite operator value at iteration 1$") as exc:
        solve(prob, cfg)
    assert exc.value.trace.status == "diverged" and exc.value.trace.rows == []


# --- first iterations by hand ---------------------------------------------------


def scalar_doubling_problem():
    return Problem(
        forward=ForwardOperator(fn=lambda x: 2.0 * x, estimators={"lipschitz": lambda: 2.0}),
        backward=identity_resolvent(),
        dimension=1,
    )


def test_solve_hand_computed_first_two_steps():
    # A(x) = 2x, identity resolvent, theta = 1/2, no inertia, from x0 = x1 = 1:
    # step 1: y = 1 - 0.25*2 = 0.5, x = (1 + (0.5 + 0.25*1))/2 = 0.875,
    #         lambda = min(0.9*0.5/1, 0.25) = 0.25;
    # step 2: y = 0.4375, x = (0.875 + (0.4375 + 0.25*0.875))/2 = 0.765625
    one = np.array([1.0])
    prob = replace(scalar_doubling_problem(), x0=one, x1=one)
    sched = flat_schedule(theta=0.5, lambda1=0.25)
    x, trace = solve(prob, SolverConfig(schedules=sched, max_iters=1, tol=1e-30))
    assert x[0] == pytest.approx(0.875, abs=1e-15)
    assert [r[:3] for r in trace.rows] == [(1, 0.25, 0.5)]
    assert trace.status == "max_iters"
    x, trace = solve(prob, SolverConfig(schedules=sched, max_iters=2, tol=1e-30))
    assert x[0] == pytest.approx(0.765625, abs=1e-15)
    assert [r[:2] for r in trace.rows] == [(1, 0.25), (2, 0.25)]
    assert trace.row(1)["residual"] == pytest.approx(0.4375, abs=1e-15)


def test_solve_operation_counts():
    calls = {"fwd": 0, "res": 0}
    base = oracle_orthant_vi(np.array([-1.0, 1.0]))

    def counting_forward(x):
        calls["fwd"] += 1
        return base.forward(x)

    def counting_resolvent(x, lam):
        calls["res"] += 1
        return base.backward(x, lam)

    prob = Problem(
        forward=ForwardOperator(fn=counting_forward),
        backward=Resolvent(fn=counting_resolvent),
        dimension=2,
        x0=np.ones(2),
        x1=np.ones(2),
    )
    cfg = SolverConfig(schedules=flat_schedule(theta=0.5, lambda1=0.1), max_iters=25, tol=1e-30)
    _, trace = solve(prob, cfg)
    assert trace.status == "max_iters"
    assert calls["fwd"] == 2 * 25
    assert calls["res"] == 25
    assert trace.forward_evals == 2 * 25 and trace.resolvent_evals == 25


# one small problem per family; the last forward map is constant, so its run ends in an exact stop
COUNTED_PROBLEMS = {
    "lasso": lambda: gen_lasso(RngStream(7), k=3, m_rows=20, n_cols=40)[1],
    "affine_vi": lambda: gen_affine_vi(RngStream(7), m=8)[1],
    "l2_vi": lambda: gen_l2_vi(20, 2)[1],
    "oracle_strong": lambda: gen_oracle_strong(RngStream(7), m=6),
    "oracle_orthant": lambda: oracle_orthant_vi(np.array([-1.0, 1.0])),
    "exact_stop": lambda: Problem(
        forward=ForwardOperator(fn=np.ones_like), backward=orthant_resolvent(), dimension=2, x0=np.ones(2), x1=np.ones(2)
    ),
}


@pytest.mark.parametrize("stop_rule", ["step_diff", "iterate_norm", "residual"])
@pytest.mark.parametrize("family", sorted(COUNTED_PROBLEMS))
def test_solve_reaches_every_map_through_the_calls_the_benchmark_counts(family, stop_rule, monkeypatch):
    # the benchmark's tracer counts forward, resolvent and norm calls by patching these three
    prob = COUNTED_PROBLEMS[family]()
    calls = dict.fromkeys(("forward", "resolvent", "norm"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(operators.ForwardOperator, "__call__", counted("forward", operators.ForwardOperator.__call__))
    monkeypatch.setattr(operators.Resolvent, "__call__", counted("resolvent", operators.Resolvent.__call__))
    monkeypatch.setattr(solver, "norm", counted("norm", solver.norm))
    cfg = SolverConfig(schedules=preset("paper_default"), max_iters=50, tol=1e-30, stop_rule=stop_rule)
    _, trace = solve(prob, cfg)
    assert trace.status == ("exact_solution" if family == "exact_stop" else "max_iters")
    assert calls["forward"] == trace.forward_evals
    assert calls["resolvent"] == trace.resolvent_evals
    # ||w - y||, ||w||, ||A(w) - A(y)||, ||A(w)||, the stop metric unless the rule is residual,
    # the distance when recorded; an exact stop skips ||A(w) - A(y)|| and ||A(w)||
    per_iter = 4 + (stop_rule != "residual") + (prob.known_solution is not None)
    assert calls["norm"] == len(trace) * per_iter - 2 * (trace.status == "exact_solution")


# --- full solves -------------------------------------------------------------------


def closed_form_orthant_reference(q, lam=0.3, iters=20000):
    # independent projected fixed-point oracle for the affine orthant problem
    z = np.zeros_like(q)
    for _ in range(iters):
        z = np.maximum(0.0, z - lam * (z + q))
    return z


def test_solve_reaches_closed_form_solution():
    q = np.array([-1.0, 1.0])
    ref = closed_form_orthant_reference(q)
    assert np.allclose(ref, [1.0, 0.0], atol=1e-9)
    prob = oracle_orthant_vi(q)
    cfg = SolverConfig(schedules=preset("paper_default"), max_iters=10_000, tol=1e-12, record_distance=True)
    x, trace = solve(prob, cfg)
    assert np.linalg.norm(x - ref) <= 1e-6
    assert trace.status in ("tolerance_met", "exact_solution")


def test_solve_budget_exhaustion():
    prob = oracle_orthant_vi(np.array([-1.0, 1.0]))
    cfg = SolverConfig(schedules=preset("paper_default"), max_iters=10, tol=1e-30)
    _, trace = solve(prob, cfg)
    assert trace.status == "max_iters"
    assert len(trace) == 10
    assert [r[0] for r in trace.rows] == list(range(1, 11))


def test_plain_preset_reaches_same_solution():
    prob = oracle_orthant_vi(np.array([-1.0, 1.0]))
    cfg = SolverConfig(schedules=preset("tseng_plain"), max_iters=10_000, tol=1e-12, record_distance=True)
    x, trace = solve(prob, cfg)
    assert np.linalg.norm(x - [1.0, 0.0]) <= 1e-6


def test_reduction_matches_independent_plain_loop():
    prob = gen_oracle_strong(RngStream(11), m=5, rho=1.0)
    sched = preset("tseng_plain")
    x_prev = np.ones(5)
    lam = sched.lambda1
    mu = sched.mu
    states = []
    x = x_prev.copy()
    for _ in range(150):
        ax = prob.forward(x)
        y = prob.backward(x - lam * ax, lam)
        ay = prob.forward(y)
        da = np.linalg.norm(ax - ay)
        lam_next = lam if da <= 1e-14 * (1 + np.linalg.norm(ax)) else min(mu * np.linalg.norm(x - y) / da, lam)
        x = y - lam * (ay - ax)
        lam = lam_next
        states.append(x.copy())

    for k, ref in enumerate(states, start=1):
        x, trace = solve(prob, SolverConfig(schedules=sched, max_iters=k, tol=1e-30))
        assert trace.status == "max_iters" and len(trace) == k
        assert np.linalg.norm(x - ref) <= 1e-12 * (1 + np.linalg.norm(ref))


def test_step_sizes_respect_theoretical_interval():
    prob = gen_oracle_strong(RngStream(21), m=8, rho=1.0)
    sched = flat_schedule(alpha=0.3, theta=0.5, lambda1=0.5, p=inverse_square())
    cfg = SolverConfig(schedules=sched, max_iters=1500, tol=1e-30)
    _, trace = solve(prob, cfg)
    lams = trace.column("lambda")
    lower = min(sched.mu / prob.forward.lipschitz, sched.lambda1)
    p_partial = np.cumsum([sched.p_seq.at(n) for n in range(1, len(lams) + 1)])
    uppers = sched.lambda1 + np.concatenate([[0.0], p_partial[:-1]])
    assert (lams >= lower - 1e-12).all()
    assert (lams <= uppers + 1e-12).all()


def test_step_sizes_converge():
    prob = gen_oracle_strong(RngStream(22), m=8, rho=1.0)
    sched = flat_schedule(alpha=0.3, theta=0.5, lambda1=0.5, p=inverse_square(), mu_seq=inverse_square())
    cfg = SolverConfig(schedules=sched, max_iters=1200, tol=1e-30)
    _, trace = solve(prob, cfg)
    tail = trace.column("lambda")[-100:]
    tail_p = sum(sched.p_seq.at(n) for n in range(len(trace) - 99, len(trace) + 1))
    assert tail.max() - tail.min() <= 1e-6 * sched.lambda1 + tail_p


def test_solve_deterministic_traces():
    prob = gen_oracle_strong(RngStream(23), m=6, rho=1.0)
    cfg = SolverConfig(schedules=preset("paper_default"), max_iters=300, tol=1e-30, record_distance=True)
    _, t1 = solve(prob, cfg)
    _, t2 = solve(prob, cfg)
    rows1 = [r[:5] for r in t1.rows]
    rows2 = [r[:5] for r in t2.rows]
    assert rows1 == rows2


def test_descent_assertion_holds_on_oracle():
    prob = oracle_orthant_vi(np.array([-1.0, 1.0]))
    cfg = SolverConfig(
        schedules=preset("paper_default"), max_iters=5000, tol=1e-10,
        assert_descent=True, record_distance=True,
    )
    x, trace = solve(prob, cfg)  # raises DescentViolationError on failure
    assert trace.status in ("tolerance_met", "exact_solution")


def test_descent_assertion_fires_on_a_non_monotone_map():
    # A(x) = -x is not monotone, yet 0 still solves the orthant problem:
    # the first step moves away from it and breaks the descent inequality
    prob = Problem(
        forward=ForwardOperator(fn=lambda x: -x),
        backward=orthant_resolvent(),
        dimension=2,
        known_solution=np.zeros(2),
        x0=np.ones(2),
        x1=np.ones(2),
    )
    cfg = SolverConfig(schedules=preset("tseng_plain"), max_iters=50, tol=1e-12, assert_descent=True)
    with pytest.raises(DescentViolationError, match="at iteration 1:"):
        solve(prob, cfg)


def test_divergence_raises_with_diagnostics():
    # deliberately non-monotone forward map: iterates blow up
    prob = Problem(
        forward=ForwardOperator(fn=lambda x: -2.0 * x),
        backward=identity_resolvent(),
        dimension=2,
        x0=np.ones(2),
        x1=np.ones(2),
    )
    cfg = SolverConfig(schedules=flat_schedule(theta=1.0, lambda1=0.5), max_iters=3000, tol=1e-30)
    with pytest.raises(DivergenceError) as exc:
        solve(prob, cfg)
    trace = exc.value.trace
    assert trace.status == "diverged" and len(trace) > 0
    # the failing iteration ran both forward calls and its resolvent before the iterate check
    assert (trace.forward_evals, trace.resolvent_evals) == (2 * len(trace) + 2, len(trace) + 1)
    assert np.isfinite(trace.row(-1)["E_n"])


def test_tie_branch_counted_and_grows_step():
    # constant forward map: the two forward values always coincide
    prob = Problem(
        forward=ForwardOperator(fn=lambda x: np.ones_like(x)),
        backward=identity_resolvent(),
        dimension=2,
        x0=np.zeros(2),
        x1=np.zeros(2),
    )
    sched = flat_schedule(theta=0.5, lambda1=0.1, p=inverse_square())
    cfg = SolverConfig(schedules=sched, max_iters=8, tol=1e-30)
    _, trace = solve(prob, cfg)
    assert trace.tie_breaks == len(trace)
    lams = trace.column("lambda")
    partial = np.cumsum([sched.p_seq.at(n) for n in range(1, len(lams))])
    assert np.allclose(lams[1:], sched.lambda1 + partial)


def test_problem_rejects_wrong_known_solution():
    with pytest.raises(ValueError):
        Problem(
            forward=ForwardOperator(fn=lambda x: x + np.array([-1.0, 1.0])),
            backward=Resolvent(fn=lambda x, lam: np.maximum(x, 0.0)),
            dimension=2,
            known_solution=np.array([5.0, 5.0]),
        )


def test_problem_is_frozen_so_its_shape_checks_hold():
    # solve takes its initial points from the problem unchecked; a point of the wrong
    # shape set after construction would fail deep in numpy
    prob = oracle_orthant_vi(np.array([-1.0, 1.0]))
    with pytest.raises(FrozenInstanceError):
        prob.x0 = np.zeros(3)
    with pytest.raises(ValueError, match=r"x0 has shape \(3,\), expected \(2,\)"):
        replace(prob, x0=np.zeros(3))


def test_concurrent_solves_keep_their_own_coefficient_arrays():
    # the one 0-d array shared across calls, the positive parts' zero, cannot be written
    with pytest.raises(ValueError, match="read-only"):
        operators._ZERO[()] = 1.0
    # each solve refreshes its own 0-d coefficients in place; threads switching every
    # few opcodes on one problem would mix them up if they were shared
    _, problem = gen_affine_vi(RngStream(23), m=20)
    schedule_sets = (preset("paper_default"), flat_schedule(alpha=0.3, theta=0.7), flat_schedule(theta=0.9, lambda1=0.05))
    configs = [SolverConfig(schedules=schedules, max_iters=150, tol=1e-30) for schedules in schedule_sets]
    serial = [[row[:-1] for row in solve(problem, cfg)[1].rows] for cfg in configs]  # all but elapsed_ms
    runs, mismatches = [0] * 4, []
    deadline = time.monotonic() + 1.5

    def worker(k):
        cfg, want = configs[k % len(configs)], serial[k % len(configs)]
        try:
            while time.monotonic() < deadline:
                if [row[:-1] for row in solve(problem, cfg)[1].rows] != want:
                    mismatches.append(k)
                runs[k] += 1
        except Exception as err:  # a thread's error is lost unless recorded
            mismatches.append(err)

    threads = [threading.Thread(target=worker, args=(k,), daemon=True) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == [] and min(runs) >= 1


# --- certificates -------------------------------------------------------------------


def synthetic_trace(residuals, dists=None):
    rows = []
    for i, r in enumerate(residuals, start=1):
        d = None if dists is None else dists[i - 1]
        rows.append((i, 0.1, float(r), float(r), d, 0.0))
    return SolverTrace(rows=rows, status="max_iters")


def test_sqrt_certificate_exact_rate_passes():
    n = np.arange(1, 201)
    rep = certify_sqrt_rate(synthetic_trace(1.0 / np.sqrt(n)))
    assert rep.passed
    assert rep.details["fitted_c"] == pytest.approx(1.0, abs=1e-9)


def test_sqrt_certificate_constant_residual_fails():
    rep = certify_sqrt_rate(synthetic_trace(np.ones(200)))
    assert not rep.passed


def test_sqrt_certificate_needs_enough_rows():
    with pytest.raises(ValueError):
        certify_sqrt_rate(synthetic_trace(np.ones(30)))


def test_sqrt_certificate_on_real_run():
    prob = gen_oracle_strong(RngStream(31), m=12, rho=1.0)
    cfg = SolverConfig(schedules=preset("paper_default"), max_iters=400, tol=1e-30, record_distance=True)
    _, trace = solve(prob, cfg)
    assert certify_sqrt_rate(trace).passed


def test_linear_certificate_geometric_passes():
    d = 0.9 ** np.arange(1, 121)
    rep = certify_linear_rate(synthetic_trace(d, dists=d))
    assert rep.passed
    assert rep.details["rho_bar"] == pytest.approx(0.81, rel=1e-6)


def test_linear_certificate_sublinear_fails():
    d = 1.0 / np.arange(1, 301)
    rep = certify_linear_rate(synthetic_trace(d, dists=d))
    assert not rep.passed


def test_linear_certificate_q_bound_reported():
    d = 0.9 ** np.arange(1, 121)
    rep = certify_linear_rate(synthetic_trace(d, dists=d), q_bound=0.85)
    assert rep.details["within_q_bound"] is True
    rep = certify_linear_rate(synthetic_trace(d, dists=d), q_bound=0.7)
    assert rep.details["within_q_bound"] is False


def test_linear_certificate_requires_distances():
    with pytest.raises(ValueError):
        certify_linear_rate(synthetic_trace(np.ones(100)))


# --- trace serialization ---------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    prob = gen_oracle_strong(RngStream(41), m=4, rho=1.0)
    cfg = SolverConfig(schedules=preset("paper_default"), max_iters=60, tol=1e-30, record_distance=True)
    _, trace = solve(prob, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert back.status == trace.status
    assert back.forward_evals == trace.forward_evals
    assert len(back) == len(trace)
    # every column but the canonical (zero) timing column is lossless
    assert [r[:5] for r in back.rows] == [r[:5] for r in trace.rows]
    assert all(r[5] == 0.0 for r in back.rows)
    # a second render of the parsed trace is byte-identical
    assert trace_to_csv(back) == path.read_text()


def with_row(trace, i, **cols):
    """``trace`` with the columns ``cols`` of row ``i`` replaced."""
    rows = list(trace.rows)
    rows[i] = tuple(cols.get(name, v) for name, v in zip(TRACE_COLUMNS, rows[i]))
    return replace(trace, rows=rows)


# traces solve never writes, made from one it wrote, and the refusal each gets
UNWRITABLE = {
    "row_numbered_twice": (lambda t: with_row(t, 5, n=5), "is numbered"),
    "rows_from_zero": (lambda t: replace(t, rows=[(n - 1, *rest) for n, *rest in t.rows]), "is numbered"),
    "residual_inf": (lambda t: with_row(t, 7, residual=math.inf), "negative or non-finite"),
    "residual_nan": (lambda t: with_row(t, 7, residual=math.nan), "negative or non-finite"),
    "residual_negative": (lambda t: with_row(t, 7, residual=-1e-9), "negative or non-finite"),
    "E_n_inf": (lambda t: with_row(t, 7, E_n=math.inf), "negative or non-finite"),
    "dist_negative": (lambda t: with_row(t, 7, dist=-0.5), "negative or non-finite"),
    "dist_nan": (lambda t: with_row(t, 7, dist=math.nan), "negative or non-finite"),
    "dist_on_some_rows": (lambda t: with_row(t, 7, dist=None), "dist on some rows only"),
    "lambda_zero": (lambda t: with_row(t, 7, **{"lambda": 0.0}), "not positive and finite"),
    "lambda_negative": (lambda t: with_row(t, 7, **{"lambda": -0.1}), "not positive and finite"),
    "lambda_inf": (lambda t: with_row(t, 7, **{"lambda": math.inf}), "not positive and finite"),
    "status_unknown": (lambda t: replace(t, status="converged"), "status"),
    "status_diverged": (lambda t: replace(t, status="diverged"), "status"),
    "row_dropped": (lambda t: replace(t, rows=t.rows[:-1]), "footer counters"),
    "resolvent_evals_off": (lambda t: replace(t, resolvent_evals=t.resolvent_evals + 1), "footer counters"),
    # 2T - 1 forward evaluations only after an exact stop
    "forward_evals_short": (lambda t: replace(t, forward_evals=t.forward_evals - 1), "footer counters"),
    "tie_breaks_negative": (lambda t: replace(t, tie_breaks=-5), "tie_breaks=-5"),
    # at most one tie break an iteration
    "tie_breaks_above_rows": (lambda t: replace(t, tie_breaks=len(t.rows) + 1), "tie_breaks=61"),
}


def footer_first(text):
    header, rest = text.split("\n", 1)
    rows, footer = rest.rsplit("#", 1)
    return f"{header}\n#{footer}{rows}"


# and text solve never writes, made on the text of a trace it wrote; its footer reads
# "# status=max_iters forward_evals=120 resolvent_evals=60 tie_breaks=..."
UNWRITABLE_TEXT = {
    "footer_twice": (lambda text: text + text.splitlines(True)[-1], "continues after its footer"),
    "footer_before_rows": (footer_first, "continues after its footer"),
    # the second status would win, and a finished run's status reads
    "status_twice": (lambda text: text[:-1] + " status=tolerance_met\n", "is not one solve writes"),
    # a missing status would read as max_iters
    "status_missing": (lambda text: text.replace("status=max_iters ", ""), "is not one solve writes"),
    "tie_breaks_missing": (lambda text: text.rsplit(" tie_breaks=", 1)[0] + "\n", "is not one solve writes"),
    "footer_key_added": (lambda text: text[:-1] + " seed=3\n", "is not one solve writes"),
    "elapsed_ms_nan": (lambda text: text.replace(",0.0\n", ",NaN\n", 1), "elapsed_ms 'NaN' at n = 1 is not 0.0"),
    "elapsed_ms_measured": (lambda text: text.replace(",0.0\n", ",12.5\n", 1), "elapsed_ms '12.5'"),
    "crlf": (lambda text: text.replace("\n", "\r\n"), "unexpected trace header"),
    "no_final_newline": (lambda text: text[:-1], "does not end with a newline"),
    "blank_line_between_rows": (lambda text: text.replace("\n2,", "\n\n2,"), "malformed trace row: ''"),
    # float() strips the spaces
    "space_before_a_float": (lambda text: text.replace("\n2,", "\n2, "), "malformed trace row: '2, "),
}


def budget_trace():
    prob = gen_oracle_strong(RngStream(41), m=4, rho=1.0)
    cfg = SolverConfig(schedules=preset("paper_default"), max_iters=60, tol=1e-30, record_distance=True)
    _, trace = solve(prob, cfg)
    assert trace.status == "max_iters"
    return trace


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_trace_csv_refuses_what_solve_never_writes(case, tmp_path):
    edit, refusal = UNWRITABLE[case]
    path = tmp_path / "trace.csv"
    write_trace_csv(edit(budget_trace()), path)
    with pytest.raises(ValueError, match=refusal):
        read_trace_csv(path)


@pytest.mark.parametrize("case", sorted(UNWRITABLE_TEXT))
def test_trace_csv_refuses_a_footer_solve_never_writes(case, tmp_path):
    edit, refusal = UNWRITABLE_TEXT[case]
    path = tmp_path / "trace.csv"
    path.write_bytes(edit(trace_to_csv(budget_trace())).encode())
    with pytest.raises(ValueError, match=refusal):
        read_trace_csv(path)


def test_trace_csv_of_an_exact_stop_reads(tmp_path):
    # A = 1 pushes the iterates onto 0, where the backward step of w = 0 returns w
    prob = Problem(
        forward=ForwardOperator(fn=np.ones_like),
        backward=orthant_resolvent(),
        dimension=2,
        x0=np.ones(2),
        x1=np.ones(2),
    )
    _, trace = solve(prob, SolverConfig(schedules=preset("paper_default"), tol=1e-30))
    assert (trace.status, trace.forward_evals) == ("exact_solution", 2 * len(trace) - 1)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert trace_to_csv(read_trace_csv(path)) == path.read_text()
    # the exact-stop iteration never reaches the tie branch
    write_trace_csv(replace(trace, tie_breaks=len(trace)), path)
    with pytest.raises(ValueError, match=f"tie_breaks={len(trace)} do not match"):
        read_trace_csv(path)


def test_trace_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)
