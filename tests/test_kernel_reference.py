"""The solver kernel against a reference loop written straight from the
iteration's formulas, compared bit for bit.

The reference recomputes every quantity where the formulas use it, with
``numpy.linalg.norm`` (or the quadrature-weighted norm), so any change to
the kernel's arithmetic or bookkeeping that moves a single ulp of a trace
column, a counter or the final iterate fails here.  It checks each value
for finiteness where the iteration makes it, so on a run that diverges
the kernel must give the same message, partial trace and counters too.
"""

from dataclasses import replace

import numpy as np
import pytest

from tsengsplit import (
    DivergenceError,
    ForwardOperator,
    Problem,
    Resolvent,
    RngStream,
    ScheduleSet,
    SolverConfig,
    constant,
    gen_affine_vi,
    gen_l2_vi,
    gen_lasso,
    gen_oracle_strong,
    inverse_square,
    oracle_orthant_vi,
    preset,
    solve,
)


class Diverged(Exception):
    """The reference met a non-finite value: the kernel's message for it,
    and the rows and counters up to it."""

    def __init__(self, message, rows, fwd, res, ties):
        super().__init__(message)
        self.rows, self.counters = rows, (fwd, res, ties)


def ref_norm(v, weights):
    out = float(np.linalg.norm(v)) if weights is None else float(np.sqrt(np.dot(v * v, weights)))
    if not np.isfinite(out):
        raise FloatingPointError("norm is not finite")
    return out


@np.errstate(over="ignore", invalid="ignore")
def reference_solve(problem, config):
    """Returns ``(x, rows, status, fwd, res, ties)``; raises :class:`Diverged`
    where the kernel raises ``DivergenceError``.  The values are checked in
    the order the iteration makes them: ``A(w)`` and ``y`` right after the
    resolvent, each norm where it is taken, ``x_next`` and ``lambda_{n+1}``
    before the descent test."""
    s = config.schedules
    wts = problem.weights
    p_star = problem.known_solution
    x_prev, x = problem.initial_points()
    lam = s.lambda1
    rows, fwd, res, ties, status = [], 0, 0, 0, "max_iters"
    for n in range(1, config.max_iters + 1):
        try:
            alpha, beta, theta = s.alpha.at(n), s.beta.at(n), s.theta.at(n)
            mu_n, p_n = s.mu_seq.at(n), s.p_seq.at(n)
            w = x + alpha * (x - x_prev)
            z = x + beta * (x - x_prev)
            aw = problem.forward(w)
            y = problem.backward(w - lam * aw, lam)
            fwd += 1
            res += 1
            if not (np.isfinite(aw).all() and np.isfinite(y).all()):
                raise Diverged(f"non-finite operator value at iteration {n}", rows, fwd, res, ties)
            residual = ref_norm(w - y, wts)
            exact = residual <= 1e-13 * (1.0 + ref_norm(w, wts))
            if exact:
                x_new, lam_new = y, lam
            else:
                ay = problem.forward(y)
                fwd += 1
                if ref_norm(aw - ay, wts) <= 1e-14 * (1.0 + ref_norm(aw, wts)):
                    ties += 1
                    lam_new = lam + p_n
                else:
                    lam_new = min((s.mu + mu_n) * residual / ref_norm(aw - ay, wts), lam + p_n)
                corrected = y - lam * (ay - aw)
                x_new = (1.0 - theta) * z + theta * corrected
                if not (np.isfinite(x_new).all() and 0.0 < lam_new < np.inf):
                    raise Diverged(
                        f"non-finite iterate or step size (next lambda {lam_new!r}) at iteration {n}",
                        rows, fwd, res, ties,
                    )
                ratio = (s.mu + mu_n) * lam / lam_new
                coef = 1.0 - ratio * ratio
                if config.assert_descent and p_star is not None and coef >= 0.0:
                    gap_w, gap_c = ref_norm(w - p_star, wts), ref_norm(corrected - p_star, wts)
                    slack = 1e-8 * (1.0 + gap_w * gap_w)
                    assert gap_c * gap_c <= gap_w * gap_w - coef * residual * residual + slack, n
            e_n = {
                "step_diff": lambda: ref_norm(x_new - x, wts),
                "iterate_norm": lambda: ref_norm(x_new, wts),
                "residual": lambda: residual,
            }[config.stop_rule]()
            dist = None
            if config.record_distance and p_star is not None:
                dist = ref_norm(x_new - p_star, wts)
        except FloatingPointError as err:
            raise Diverged(f"overflow while iterating: {err}", rows, fwd, res, ties) from err
        rows.append((n, lam, residual, e_n, dist))
        x_prev, x, lam = x, x_new, lam_new
        if exact:
            status = "exact_solution"
            break
        if e_n <= config.tol:
            status = "tolerance_met"
            break
    return x, rows, status, fwd, res, ties


def constant_forward_problem():
    return Problem(
        forward=ForwardOperator(fn=lambda x: np.ones_like(x)),
        backward=Resolvent(fn=lambda x, lam: x),
        dimension=3,
        x0=np.zeros(3),
        x1=np.zeros(3),
    )


def at_solution(problem):
    xs = problem.known_solution
    return Problem(problem.forward, problem.backward, problem.dimension, known_solution=xs, x0=xs, x1=xs)


def growing_schedule():
    return ScheduleSet(
        alpha=constant(0.3), beta=constant(0.05), theta=constant(0.5), mu_seq=inverse_square(),
        p_seq=inverse_square(), mu=0.9, lambda1=0.1, epsilon=1.2, theta_floor=0.1,
    )


CASES = {
    "lasso": (lambda: gen_lasso(RngStream(3), k=3, m_rows=16, n_cols=32)[1], "paper_default", {}),
    "affine_m20": (lambda: gen_affine_vi(RngStream(4), m=20)[1], "paper_default", {"record_distance": True}),
    "l2_weighted": (lambda: gen_l2_vi(50, 1)[1], "paper_default", {"record_distance": True}),
    "oracle_strong_descent": (
        lambda: gen_oracle_strong(RngStream(5), m=8, rho=1.0),
        "tseng_plain",
        {"record_distance": True, "assert_descent": True},
    ),
    "orthant_exact_stop": (
        lambda: at_solution(oracle_orthant_vi(np.array([-1.0, 2.0, -0.5]))),
        "paper_default",
        {"record_distance": True},
    ),
    "constant_forward_tie": (constant_forward_problem, None, {}),
}


def schedule(name):
    return growing_schedule() if name is None else preset(name)


@pytest.mark.parametrize("stop_rule", ["step_diff", "iterate_norm", "residual"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_reference_bit_for_bit(case, stop_rule):
    make, sched_name, extra = CASES[case]
    problem = make()
    config = SolverConfig(schedules=schedule(sched_name), max_iters=300, tol=1e-7, stop_rule=stop_rule, **extra)
    x_ref, rows_ref, status, fwd, res, ties = reference_solve(problem, config)
    x, trace = solve(problem, config)
    assert [r[:5] for r in trace.rows] == rows_ref
    assert (trace.status, trace.forward_evals, trace.resolvent_evals, trace.tie_breaks) == (status, fwd, res, ties)
    assert np.array_equal(x, x_ref)
    if case == "orthant_exact_stop":
        assert status == "exact_solution" and len(rows_ref) == 1
    if case == "constant_forward_tie":
        assert ties == len(rows_ref) > 0


def orthant():
    return oracle_orthant_vi(np.array([-1.0, 1.0]))


def paper_default(**changes):
    return replace(preset("paper_default"), **changes)


def clipped_identity():
    return Problem(
        forward=ForwardOperator(fn=lambda x: x),
        backward=Resolvent(fn=lambda x, lam: np.clip(x, -1.0, 1.0)),
        dimension=2,
        known_solution=np.zeros(2),
        x0=np.full(2, 0.5),
        x1=np.full(2, 0.5),
    )


CORRECTED_INF = "non-finite iterate or step size (next lambda 1.8999999999999997) at iteration 1"

# runs that leave the finite floats, each with the start of the kernel's message;
# record_distance=False leaves the residual rule no norm of x_next to fail
DIVERGING = {
    # the two DIVERGING schedules of tests/test_cli.py, on the ORTHANT problem of tests/contract_cases.py
    "huge_inertia": (orthant, paper_default(alpha=constant(50.0)), {}, "overflow while iterating"),
    "huge_step": (orthant, paper_default(lambda1=1e200, p_seq=constant(1e300)), {}, "overflow while iterating"),
    # exp(w) overflows past w = 709 while the clipping resolvent keeps y finite:
    # the run stops before A(y) is evaluated
    "forward_inf_y_clipped": (
        lambda: Problem(
            forward=ForwardOperator(fn=np.exp),
            backward=Resolvent(fn=lambda x, lam: np.clip(x, -1e3, 1e3)),
            dimension=2,
            x0=np.zeros(2),
            x1=np.ones(2),
        ),
        paper_default(alpha=constant(3.0)),
        {},
        "non-finite operator value at iteration 4",
    ),
    # exp overflows in the resolvent: A(w) is finite, y is not
    "resolvent_inf": (
        lambda: Problem(
            forward=ForwardOperator(fn=np.tanh),
            backward=Resolvent(fn=lambda x, lam: np.exp(x)),
            dimension=2,
            x0=np.zeros(2),
            x1=np.ones(2),
        ),
        paper_default(alpha=constant(3.0)),
        {},
        "non-finite operator value at iteration 3",
    ),
    # y = (1 + 1e-3 lam) w, so ||w - y|| stays finite after ||w|| overflows in the exact-stop test
    "w_norm_overflow": (
        lambda: Problem(
            forward=ForwardOperator(fn=lambda x: -1e-3 * x),
            backward=Resolvent(fn=lambda x, lam: x),
            dimension=2,
            x0=np.ones(2),
            x1=np.full(2, 2.0),
        ),
        paper_default(alpha=constant(50.0)),
        {},
        "overflow while iterating",
    ),
    # lam * (A(y) - A(w)) overflows: the corrected point is infinite
    "corrected_point_inf": (clipped_identity, paper_default(lambda1=1.5e308), {"record_distance": False}, CORRECTED_INF),
    "corrected_point_inf_descent_asserted": (
        clipped_identity,
        paper_default(lambda1=1.5e308),
        {"assert_descent": True, "record_distance": False},
        CORRECTED_INF,
    ),
    # the blend overflows through z while the corrected point stays finite and
    # fails the descent inequality (A = -I is not monotone): the iterate is refused first
    "blend_inf_before_descent_test": (
        lambda: Problem(
            forward=ForwardOperator(fn=np.negative),
            backward=Resolvent(fn=lambda x, lam: x),
            dimension=2,
            known_solution=np.zeros(2),
            x0=np.zeros(2),
            x1=np.full(2, 1e153),
        ),
        ScheduleSet(beta=constant(1e156), theta=constant(0.5), mu=0.9, lambda1=0.1),
        {"assert_descent": True, "record_distance": False},
        "non-finite iterate or step size (next lambda 0.1) at iteration 1",
    ),
}


@pytest.mark.parametrize("stop_rule", ["step_diff", "iterate_norm", "residual"])
@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_diverging_solve_matches_reference(case, stop_rule):
    make, schedules, extra, message = DIVERGING[case]
    config = SolverConfig(schedules=schedules, max_iters=200, tol=1e-8, stop_rule=stop_rule, **extra)
    with pytest.raises(Diverged) as ref:
        reference_solve(make(), config)
    with pytest.raises(DivergenceError) as err:
        solve(make(), config)
    trace = err.value.trace
    assert str(err.value) == str(ref.value) and str(ref.value).startswith(message)
    assert [r[:5] for r in trace.rows] == ref.value.rows
    assert trace.status == "diverged"
    assert (trace.forward_evals, trace.resolvent_evals, trace.tie_breaks) == ref.value.counters
