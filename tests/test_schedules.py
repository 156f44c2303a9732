import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from tsengsplit import schedules
from tsengsplit import (
    DivergenceError,
    RngStream,
    ScheduleSet,
    SequenceSpec,
    SolverConfig,
    beta_bound,
    constant,
    find_feasible_strong,
    gen_oracle_strong,
    inverse_square,
    one_minus_pow10,
    preset,
    rational,
    solve,
    validate_c3,
    validate_strong,
)
from tsengsplit.cli import load_config
from tsengsplit.schedules import PRESET_NAMES, contraction_factor


# --- sequence family ---------------------------------------------------------


def test_sequence_values():
    assert constant(0.45).at(3) == 0.45
    assert rational(0.1, -1.0, 1000.0).at(1) == pytest.approx(0.1 - 1 / 1001)
    assert one_minus_pow10().at(2) == pytest.approx(0.99)
    assert inverse_square().at(4) == pytest.approx(1 / 16)


def test_sequence_limits_and_sums():
    assert rational(0.45, -1.0, 1000.0).limit() == 0.45
    assert one_minus_pow10().limit() == 1.0
    assert inverse_square().series_sum() == pytest.approx(math.pi**2 / 6)
    assert constant(0.0).series_sum() == 0.0
    assert math.isinf(constant(0.1).series_sum())


def test_sequence_round_trip(tmp_path):
    # the schedules object summary.json writes is valid config input: every
    # preset, and so every kind of the family, loads back equal to itself
    for name in PRESET_NAMES:
        config = {"problem": {"family": "oracle_orthant"}, "schedules": preset(name).to_dict()}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert load_config(path).solver.schedules == preset(name)


def test_sequence_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SequenceSpec("geometric")


# --- the beta cap -------------------------------------------------------------


def test_beta_bound_closed_form_values():
    assert beta_bound(2.0) == pytest.approx((7 - math.sqrt(33)) / 4, abs=1e-14)
    assert beta_bound(4.0) == 0.5  # 8*4 + 17 = 49 is a perfect square
    assert beta_bound(1.0 + 1e-9) == pytest.approx(0.0, abs=1e-6)


def test_beta_bound_rejects_epsilon_at_most_one():
    with pytest.raises(ValueError):
        beta_bound(1.0)
    with pytest.raises(ValueError):
        beta_bound(0.5)


def test_beta_bound_range_on_grid():
    grid = np.linspace(1.01, 100.0, 400)
    vals = np.array([beta_bound(e) for e in grid])
    assert ((vals > 0.0) & (vals < 1.0)).all()
    # monotone decrease is only required past the grid maximizer; on this
    # grid the maximizer sits at the right endpoint, so the check is vacuous
    k = int(vals.argmax())
    assert (np.diff(vals[k:]) <= 0).all()


# --- legal by construction -----------------------------------------------------


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sequence_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        constant(bad)
    for params in ((bad, 1.0, 0.0), (0.0, bad, 0.0), (0.0, 1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            rational(*params)


def test_rational_refuses_c_at_minus_one():
    # c + n > 0 for all n >= 1 draws its line at c = -1, where the first term divides by zero
    with pytest.raises(ValueError, match="c \\+ n > 0"):
        rational(0.0, 1.0, -1.0)
    rational(0.0, 1.0, math.nextafter(-1.0, 0.0))


def test_sequence_rejects_overflowing_first_term():
    # finite parameters, but b/(c + 1) = 1e310 is not a float
    with pytest.raises(ValueError, match="overflows"):
        rational(0.0, 1e300, -1.0 + 1e-10)


@pytest.mark.parametrize("field", ["lambda1", "epsilon", "theta_floor"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_schedule_set_rejects_non_finite_scalars(field, bad):
    with pytest.raises(ValueError, match=field):
        replace(preset("paper_default"), **{field: bad})


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_schedule_set_refuses_mu_at_either_end(mu):
    with pytest.raises(ValueError, match=f"mu must lie in \\(0, 1\\), got {mu}"):
        replace(preset("paper_default"), mu=mu)


NEGATIVE_SOMEWHERE = {
    "constant": constant(-0.1),
    "negative_limit": rational(-0.1, 1.0, 0.0),  # 0.4 at n = 1, tends to -0.1
    "negative_start": rational(0.1, -1.0, 0.0),  # -0.4 at n = 1, tends to 0.1
}


@pytest.mark.parametrize("field", ["mu_seq", "p_seq"])
@pytest.mark.parametrize("case", sorted(NEGATIVE_SOMEWHERE))
def test_schedule_set_rejects_step_sequences_that_go_negative(field, case):
    with pytest.raises(ValueError, match=f"{field} must stay nonnegative"):
        replace(preset("paper_default"), **{field: NEGATIVE_SOMEWHERE[case]})


def test_schedule_set_accepts_boundary_step_sequences():
    for seq in (constant(0.0), rational(0.0, 1.0, 0.0), rational(0.1, -0.2, 1.0), inverse_square()):
        replace(preset("paper_default"), mu_seq=seq, p_seq=seq)


def test_schedule_set_keeps_what_the_validators_only_flag():
    # each of these is a report entry, not a construction error
    flagged = [
        ("i", _custom(alpha=constant(1.5), beta=constant(0.0), theta=constant(0.4))),
        ("ii", _custom(alpha=constant(0.5), beta=constant(-0.1), theta=constant(0.4))),
        ("iii", _custom(alpha=constant(-0.2), beta=constant(0.0), theta=constant(-0.3))),
        ("iii", _custom(alpha=constant(0.5), beta=constant(0.05), theta=constant(0.9))),  # above its cap
        ("v", _custom(alpha=constant(0.5), beta=constant(0.0), theta=constant(0.4), p_seq=constant(0.1))),
    ]
    for clause, s in flagged:
        assert not validate_c3(s).clause(clause).passed, clause


# --- weak-regime validation ----------------------------------------------------


def _custom(alpha, beta, theta, mu_seq=None, p_seq=None, epsilon=1.2, theta_floor=0.01, mu=0.9):
    return ScheduleSet(
        alpha=alpha,
        beta=beta,
        theta=theta,
        mu_seq=mu_seq or constant(0.0),
        p_seq=p_seq or constant(0.0),
        mu=mu,
        lambda1=0.1,
        epsilon=epsilon,
        theta_floor=theta_floor,
    )


def test_validate_drifting_rational_schedule_passes():
    s = _custom(
        alpha=rational(0.2, 1.0, 6.0),
        beta=rational(1 / 6, -1.0, 6.0),
        theta=rational(0.25, -1.0, 6.0),
        mu_seq=inverse_square(),
        p_seq=inverse_square(),
        epsilon=3.0,
        theta_floor=0.1,
    )
    assert validate_c3(s).passed


def test_validate_benchmark_schedule_passes():
    s = _custom(
        alpha=one_minus_pow10(),
        beta=rational(0.1, -1.0, 1000.0),
        theta=rational(0.45, -1.0, 1000.0),
        mu_seq=inverse_square(),
        p_seq=inverse_square(),
        epsilon=1.2,
        theta_floor=0.4,
    )
    rep = validate_c3(s)
    assert rep.passed, json.dumps(rep.to_dict())


def test_validate_decreasing_theta_fails_clause_iii():
    s = _custom(alpha=constant(0.5), beta=constant(0.0), theta=rational(0.0, 1.0, 0.0))
    rep = validate_c3(s)
    assert not rep.passed
    bad = rep.clause("iii")
    assert not bad.passed
    assert bad.first_violation_index == 1


def test_validate_epsilon_too_small_with_nonzero_beta():
    s = _custom(alpha=constant(0.5), beta=constant(0.05), theta=constant(0.6), epsilon=0.5)
    rep = validate_c3(s)
    assert not rep.clause("ii").passed
    assert not rep.clause("iii").passed


def test_validate_divergent_step_increments_fail():
    s = _custom(alpha=constant(0.5), beta=constant(0.0), theta=constant(0.5), p_seq=constant(0.1))
    assert not validate_c3(s).clause("v").passed


@pytest.mark.parametrize("p_seq", [rational(0.0, 1e-6, 0.0), constant(1e-12)], ids=["harmonic", "tiny_constant"])
def test_validate_slowly_divergent_step_increments_fail(p_seq):
    # both series diverge even though their terms are tiny
    s = _custom(alpha=constant(0.5), beta=constant(0.0), theta=constant(0.5), p_seq=p_seq)
    clause = validate_c3(s).clause("v")
    assert not clause.passed
    assert clause.detail == "step increments not summable"
    assert validate_c3(preset("paper_default")).clause("v").passed


def test_validate_nonvanishing_safety_relaxation_fails():
    s = _custom(alpha=constant(0.5), beta=constant(0.0), theta=constant(0.5), mu_seq=constant(0.05))
    assert not validate_c3(s).clause("v").passed


def test_validate_decides_from_the_first_term_and_the_limit():
    base = preset("paper_default")
    # alpha_n = 1 + 1e-7 - 1/n leaves [0, 1] only beyond n = 10^7: its limit breaks (i)
    bad = validate_c3(replace(base, alpha=rational(1 + 1e-7, -1.0, 0.0))).clause("i")
    assert (bad.passed, bad.first_violation_index) == (False, None)
    assert bad.detail == "alpha tends to 1.0000001, outside [0, 1]"
    # beta_n = 0.05 + 0.5/(1e7 + n) drops by ~5e-15 per step: its direction breaks (ii)
    bad = validate_c3(replace(base, beta=rational(0.05, 0.5, 1e7))).clause("ii")
    assert (bad.passed, bad.first_violation_index) == (False, 1)
    # a first term outside [0, 1] is the first violation
    bad = validate_c3(replace(base, alpha=constant(1.5))).clause("i")
    assert (bad.passed, bad.first_violation_index) == (False, 1)
    # every term stays below the cap, but the supremum reaches it
    cap = beta_bound(base.epsilon)
    bad = validate_c3(replace(base, beta=rational(cap, -0.01, 0.0))).clause("ii")
    assert (bad.passed, bad.first_violation_index) == (False, None)
    # 10^4/n vanishes, however slowly
    assert validate_c3(replace(base, mu_seq=rational(0.0, 1e4, 0.0))).clause("v").passed


def test_validate_fails_a_blend_that_falls_by_less_than_a_relative_tolerance():
    # alpha_n = 0.3 + 0.5/(1e7 + n): the blend 0.4 alpha_n falls by ~2e-15 a step, every step
    s = replace(preset("chc_relaxed"), alpha=rational(0.3, 0.5, 1e7))
    rep = validate_c3(s)
    assert [c.clause for c in rep.clauses if not c.passed] == ["iv"]
    assert rep.clause("iv").first_violation_index == 1
    assert rep.clause("iv").detail == "decreases between n = 1 and 2 (sampled up to n = 1000000)"


@pytest.mark.xfail(strict=True, reason="clause (iv) is sampled in floats, so rounding in the blend reads as a drop")
def test_clause_iv_passes_a_blend_that_only_rounding_decreases():
    alpha, beta = constant(0.0697556310265754), constant(0.05739411879281008)
    theta = rational(0.2541824501159621, -1.1866045959791448e-09, 91.63453718085519)

    def exact_blend(n):
        th = Fraction(theta.a) + Fraction(theta.b) / (Fraction(theta.c) + n)
        return (1 - th) * Fraction(beta.value) + th * Fraction(alpha.value)

    # in the reals the blend rises where the floats read a drop, between n = 5481 and 5482
    assert exact_blend(5482) > exact_blend(5481)
    iv = validate_c3(ScheduleSet(alpha=alpha, beta=beta, theta=theta, mu=0.5, lambda1=1.0)).clause("iv")
    assert iv.passed, iv.detail


@pytest.mark.xfail(strict=True, reason="clause (iv) is sampled only up to n = 10^6, and this blend first drops later")
def test_clause_iv_fails_a_blend_that_drops_beyond_the_sampled_indices():
    alpha, theta = rational(0.4, 1.0, 1e8), rational(0.45, -0.1, 0.0)

    def exact(seq, n):
        return Fraction(seq.a) + Fraction(seq.b) / (Fraction(seq.c) + n)

    def exact_blend(n):  # beta is zero
        return exact(theta, n) * exact(alpha, n)

    # in the reals the blend drops between n = 42,479,044 and 42,479,045, far past the sampled 10^6
    assert exact_blend(42_479_043) <= exact_blend(42_479_044) > exact_blend(42_479_045)
    s = ScheduleSet(alpha=alpha, beta=constant(0), theta=theta, epsilon=0, theta_floor=0.3, mu=0.9, lambda1=0.1)
    iv = validate_c3(s).clause("iv")
    assert not iv.passed, iv.detail


@pytest.mark.xfail(
    strict=True, raises=DivergenceError, reason="beta = 0 lifts theta's cap to 1, and alpha near 1 then diverges"
)
def test_weak_regime_set_that_passes_c3_does_not_diverge():
    s = ScheduleSet(
        alpha=one_minus_pow10(),
        beta=constant(0),
        theta=constant(1.0),
        epsilon=0,
        mu=0.875,
        lambda1=1.0,
        theta_floor=0.5,
    )
    if validate_c3(s).passed:  # a refused set makes no claim
        cfg = SolverConfig(schedules=s, max_iters=3000, tol=1e-8, assert_descent=True)
        solve(gen_oracle_strong(RngStream(0), m=2, rho=1.0), cfg)  # diverges at iteration 2121


def test_blended_inertia_nondecreasing_for_passing_sets():
    for s in (preset("paper_default"), preset("chc_relaxed")):
        ns = range(1, 2000)
        a = [(1 - s.theta.at(n)) * s.beta.at(n) + s.theta.at(n) * s.alpha.at(n) for n in ns]
        assert all(b >= a_ - 1e-12 for a_, b in zip(a, a[1:]))


def test_report_serializes():
    rep = validate_c3(preset("paper_default"))
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["passed"] is True
    assert {c["clause"] for c in payload["clauses"]} == {"i", "ii", "iii", "iv", "v"}
    assert all({"clause", "pass", "first_violation_index", "detail"} <= set(c) for c in payload["clauses"])


# --- presets -------------------------------------------------------------------


def test_preset_tseng_plain_is_unaccelerated():
    s = preset("tseng_plain")
    for n in (1, 5, 500):
        assert s.alpha.at(n) == 0.0
        assert s.beta.at(n) == 0.0
        assert s.theta.at(n) == 1.0
        assert s.mu_seq.at(n) == 0.0
        assert s.p_seq.at(n) == 0.0


def test_preset_paper_default_formulas():
    s = preset("paper_default")
    assert s.mu == 0.9 and s.lambda1 == 0.1
    assert s.alpha.at(1) == pytest.approx(0.9)
    assert s.beta.at(1) == pytest.approx(0.1 - 1 / 1001)
    assert s.theta.at(1) == pytest.approx(0.45 - 1 / 1001)
    assert s.p_seq.at(3) == pytest.approx(1 / 9)


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset("nesterov")


def test_presets_pass_validation():
    for name in PRESET_NAMES:
        assert validate_c3(preset(name)).passed, name


# --- strong/linear regime -------------------------------------------------------


def strong_set(mu, lambda1, alpha, beta, theta):
    """The constant set :func:`validate_strong` judges."""
    return ScheduleSet(alpha=constant(alpha), beta=constant(beta), theta=constant(theta), mu=mu, lambda1=lambda1)


def test_strong_derived_quantities():
    rep = validate_strong(strong_set(mu=0.45, lambda1=0.5, alpha=0.37, beta=0.1, theta=0.72), L=1.5, r=1.0)
    assert rep.lambda_hat == pytest.approx(0.3)
    assert rep.tau == pytest.approx(0.725)
    assert 0.5 < rep.tau < 1.0


def test_strong_refuses_a_set_it_cannot_judge():
    s = strong_set(mu=0.45, lambda1=0.5, alpha=0.37, beta=0.1, theta=0.72)
    # a rational's value field is 0.0: reading it would judge another set
    for seq in ("alpha", "beta", "theta"):
        with pytest.raises(ValueError, match="constant alpha, beta and theta"):
            validate_strong(replace(s, **{seq: rational(0.3, 0.0, 0.0)}), L=1.5, r=1.0)
    for L, r in [(math.inf, 1.0), (1.5, math.inf), (0.0, 1.0), (1.5, -1.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="positive and finite"):
            validate_strong(s, L, r)


def test_strong_reference_point_reports_infeasible():
    # direct evaluation of the published reference parameters yields an
    # empty relaxation interval; the validator must report, not presume
    rep = validate_strong(strong_set(mu=0.45, lambda1=0.5, alpha=0.37, beta=0.1, theta=0.72), L=1.5, r=1.0)
    assert rep.clause("c1").passed
    assert rep.clause("c2").passed
    assert not rep.clause("c3").passed
    assert rep.theta_interval is None
    assert not rep.passed


def test_strong_c3_is_decided_in_the_reals():
    # theta is the float upper root; the quadratic is about +1.2e-16 there in exact arithmetic
    L, theta = 1.010982998680605, 0.7897002338375106
    s = strong_set(mu=0.5, lambda1=1.0, alpha=0.30000000000000004, beta=0.01, theta=theta)
    rep = validate_strong(s, L, r=0.5)
    assert rep.theta_interval[1] == theta  # the float interval is kept for display
    assert not rep.clause("c3").passed
    assert rep.clause("c3").detail.endswith("theta = 0.7897; in exact arithmetic theta is not admissible")
    below = validate_strong(replace(s, theta=constant(math.nextafter(theta, 0.0))), L, r=0.5).clause("c3")
    assert below.passed and "exact" not in below.detail


def test_strong_zero_inertia_is_infeasible():
    # with alpha = beta = 0 the relaxation lower bound collapses to 1
    rep = validate_strong(strong_set(mu=0.45, lambda1=0.5, alpha=0.0, beta=0.0, theta=0.9), L=1.5, r=1.0)
    assert rep.theta_interval is None
    assert not rep.passed
    # zero inertia is inside the c1 and c2 ranges: only c3 fails
    assert rep.clause("c1").passed and rep.clause("c2").passed


def test_strong_tau_near_one_kills_beta():
    # tiny lambda1 pushes tau toward 1 and the beta cap toward 0
    rep = validate_strong(strong_set(mu=0.99, lambda1=1e-7, alpha=0.0, beta=0.01, theta=0.9), L=1.0, r=1.0)
    assert not rep.clause("c1").passed


# 120 points; 6 of them have a nonempty float theta interval
UNIT_GRID = dict(
    L=1.4,
    r=1.0,
    mu_grid=[0.3, 0.4, 0.5],
    lambda1_grid=[0.3, 0.5],
    alpha_grid=[0.1 * i for i in range(10)],
    beta_grid=[0.0, 0.02],
)


def test_strong_feasible_interval_inside_unit():
    found = find_feasible_strong(**UNIT_GRID)
    assert found, "expected at least one feasible parameter set"
    for s, rep in found:
        lo, hi = rep.theta_interval
        assert 0.0 < lo < hi <= 1.0
        assert lo < s.theta.value <= hi
        assert rep.q == pytest.approx(contraction_factor(rep.tau, s.alpha.value, s.beta.value, s.theta.value))
        assert rep.q < 1.0
        assert validate_strong(s, L=1.4, r=1.0) == rep  # the returned set is the one judged
    qs = [rep.q for _, rep in found]
    assert qs == sorted(qs)


def test_strong_search_does_exact_arithmetic_only_where_the_float_interval_is_nonempty(monkeypatch):
    real = schedules._strong_bounds
    calls = {"float": 0, "exact": 0}

    def counted(*args):
        calls["exact" if isinstance(args[0], Fraction) else "float"] += 1
        return real(*args)

    monkeypatch.setattr(schedules, "_strong_bounds", counted)
    find_feasible_strong(**UNIT_GRID)
    # each of the 6 nonempty points: the nextafter search, then one verdict per candidate
    assert calls == {"float": 120 + 6 * 2, "exact": 6 * 3}


def probing_search(L, r, mu_grid, lambda1_grid, alpha_grid, beta_grid):
    """:func:`find_feasible_strong` written with a theta = 0.5 probe
    :func:`validate_strong` per grid point, its exact verdict unused."""
    found = []
    for mu, lam1, a, b in itertools.product(mu_grid, lambda1_grid, alpha_grid, beta_grid):
        probe = strong_set(mu, lam1, a, b, 0.5)
        interval = validate_strong(probe, L, r).theta_interval
        if interval is None:
            continue
        lo, hi = interval
        top = hi
        for _ in range(64):
            if validate_strong(replace(probe, theta=constant(top)), L, r).clause("c3").passed:
                break
            top = math.nextafter(top, lo)
        for th in (0.5 * (lo + hi), top):
            cand = replace(probe, theta=constant(th))
            rep = validate_strong(cand, L, r)
            if rep.passed:
                found.append((cand, rep))
    found.sort(key=lambda pr: pr[1].q)
    return found


def test_strong_search_matches_a_search_that_probes_each_point():
    g = np.random.default_rng(30)
    nonempty = 0
    for seed in range(40):
        if seed % 2:  # oracle_strong's L is not round, so its float bounds rarely round exactly
            prob = gen_oracle_strong(RngStream(seed), m=3, rho=float(g.uniform(0.2, 2.0)))
            L, r = prob.forward.lipschitz, prob.forward.strong_monotone_modulus
        else:
            L = float(g.uniform(0.5, 5.0))
            r = L * float(g.uniform(0.05, 1.0))
        grid = (
            g.uniform(0.05, 0.95, 2).tolist(),
            g.uniform(0.01, 2.0, 2).tolist(),
            (g.uniform(0.0, 0.05) + 0.05 * np.arange(20)).tolist(),
            [0.0, *g.uniform(0.0, 0.2, 2).tolist()],
        )
        got, want = find_feasible_strong(L, r, *grid), probing_search(L, r, *grid)
        assert [(s.to_dict(), rep.to_dict()) for s, rep in got] == [(s.to_dict(), rep.to_dict()) for s, rep in want]
        nonempty += bool(want)
    assert nonempty >= 20  # most grids return sets, so the comparison is not of empty lists


@pytest.mark.parametrize(
    "L, r, mu, message",
    [
        (math.inf, 1.0, 0.5, "L and r must be positive and finite, got L = inf, r = 1.0"),
        (0.0, 1.0, 0.5, "L and r must be positive and finite, got L = 0.0, r = 1.0"),
        (1.4, math.nan, 0.5, "L and r must be positive and finite, got L = 1.4, r = nan"),
        (1.4, 1.0, 1.5, "mu must lie in (0, 1), got 1.5"),
        (math.inf, 1.0, 1.5, "mu must lie in (0, 1), got 1.5"),  # the probe set is built first
    ],
)
def test_strong_search_refuses_what_validate_strong_refuses(L, r, mu, message):
    with pytest.raises(ValueError) as search:
        find_feasible_strong(L, r, [mu], [0.5], [0.3], [0.0])
    with pytest.raises(ValueError) as validate:
        validate_strong(strong_set(mu, 0.5, 0.3, 0.0, 0.5), L, r)
    assert str(search.value) == str(validate.value) == message


def reference_strong_floats(s, L, r):
    """``(tau, lambda_hat, theta_interval, q)`` of the strong report, each
    written out as its own float formula."""
    a, b, th = s.alpha.value, s.beta.value, s.theta.value
    lam_hat = min(s.mu / L, s.lambda1)
    tau = 1.0 - 0.5 * min(1.0 - s.mu, 2.0 * lam_hat * r)
    lower1 = (1.0 - b) / (1.0 + a - b) if 1.0 + a - b > 0.0 else math.inf
    denom = 1.0 + b - tau * (1.0 + a)
    lower = max(lower1, b / denom if denom > 0.0 else math.inf)
    quad = 1.0 / tau - 1.0 - 2.0 * b
    interval = None
    if quad > 0.0:
        upper = min((-(1.0 + b) + math.sqrt((1.0 + b) ** 2 - 4.0 * quad * (b - 1.0))) / (2.0 * quad), 1.0)
        interval = (lower, upper) if lower < upper else None
    return tau, lam_hat, interval, (1.0 + b) + th * (tau * (1.0 + a) - (1.0 + b))


def test_strong_interval_always_inside_unit_when_nonempty():
    g = np.random.default_rng(77)
    for _ in range(300):
        L, r = float(g.uniform(0.5, 5.0)), float(g.uniform(0.1, 2.0))
        s = strong_set(
            mu=float(g.uniform(0.05, 0.95)),
            lambda1=float(g.uniform(0.01, 2.0)),
            alpha=float(g.uniform(0.0, 1.0)),
            beta=float(g.uniform(0.0, 0.3)),
            theta=float(g.uniform(0.1, 1.0)),
        )
        rep = validate_strong(s, L, r)
        if rep.theta_interval is not None:
            lo, hi = rep.theta_interval
            assert 0.0 < lo < hi <= 1.0
        # bit for bit: float.hex tells 0.0 from -0.0
        tau, lam_hat, interval, q = reference_strong_floats(s, L, r)
        assert [x.hex() for x in (rep.tau, rep.lambda_hat, rep.q)] == [x.hex() for x in (tau, lam_hat, q)]
        assert (rep.theta_interval is None) == (interval is None)
        if interval is not None:
            assert [x.hex() for x in rep.theta_interval] == [x.hex() for x in interval]


def test_strong_report_lambda_hat_is_a_float_for_an_integer_lambda1():
    # mu/L = 5 exceeds lambda1, so lambda_hat is lambda1 as given
    rep = validate_strong(strong_set(mu=0.5, lambda1=1, alpha=0.3, beta=0.0, theta=0.5), L=0.1, r=0.05)
    assert type(rep.to_dict()["lambda_hat"]) is float and rep.lambda_hat == 1.0


def test_strong_report_serializes():
    rep = validate_strong(strong_set(mu=0.4, lambda1=0.3, alpha=0.35, beta=0.0, theta=0.75), L=1.4, r=1.0)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert set(payload) == {"tau", "lambda_hat", "passed", "clauses", "theta_interval", "q"}
