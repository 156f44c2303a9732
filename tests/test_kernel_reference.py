"""The solver kernel against a reference loop written straight from the
iteration's formulas, compared bit for bit.

The reference recomputes every quantity where the formulas use it, with
``numpy.linalg.norm`` (or the quadrature-weighted norm), so any change to
the kernel's arithmetic or bookkeeping that moves a single ulp of a trace
column, a counter or the final iterate fails here.
"""

import numpy as np
import pytest

from tsengsplit import (
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


def ref_norm(v, weights):
    if weights is None:
        return float(np.linalg.norm(v))
    return float(np.sqrt(np.dot(v * v, weights)))


def reference_solve(problem, config):
    s = config.schedules
    wts = problem.weights
    x_prev, x = problem.initial_points()
    lam = s.lambda1
    rows, fwd, res, ties, status = [], 0, 0, 0, "max_iters"
    for n in range(1, config.max_iters + 1):
        alpha, beta, theta = s.alpha.at(n), s.beta.at(n), s.theta.at(n)
        mu_n, p_n = s.mu_seq.at(n), s.p_seq.at(n)
        w = x + alpha * (x - x_prev)
        z = x + beta * (x - x_prev)
        aw = problem.forward(w)
        y = problem.backward(w - lam * aw, lam)
        res += 1
        residual = ref_norm(w - y, wts)
        exact = residual <= 1e-13 * (1.0 + ref_norm(w, wts))
        if exact:
            fwd += 1
            x_new, lam_new = y, lam
        else:
            ay = problem.forward(y)
            fwd += 2
            if ref_norm(aw - ay, wts) <= 1e-14 * (1.0 + ref_norm(aw, wts)):
                ties += 1
                lam_new = lam + p_n
            else:
                lam_new = min((s.mu + mu_n) * residual / ref_norm(aw - ay, wts), lam + p_n)
            x_new = (1.0 - theta) * z + theta * (y - lam * (ay - aw))
        e_n = {
            "step_diff": lambda: ref_norm(x_new - x, wts),
            "iterate_norm": lambda: ref_norm(x_new, wts),
            "residual": lambda: residual,
        }[config.stop_rule]()
        dist = None
        if config.record_distance and problem.known_solution is not None:
            dist = ref_norm(x_new - problem.known_solution, wts)
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

