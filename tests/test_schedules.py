import json
import math

import numpy as np
import pytest

from tsengsplit import (
    ScheduleSet,
    SequenceSpec,
    StrongParams,
    beta_bound,
    constant,
    find_feasible_strong,
    inverse_square,
    one_minus_pow10,
    preset,
    rational,
    validate_c3,
    validate_strong,
)
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


def test_sequence_round_trip():
    for seq in (constant(0.3), rational(0.1, -1, 1000), one_minus_pow10(), inverse_square()):
        assert SequenceSpec.from_dict(seq.to_dict()) == seq


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
    assert rep.passed, rep.to_json()


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


def test_blended_inertia_nondecreasing_for_passing_sets():
    for s in (preset("paper_default"), preset("chc_relaxed")):
        ns = range(1, 2000)
        a = [(1 - s.theta.at(n)) * s.beta.at(n) + s.theta.at(n) * s.alpha.at(n) for n in ns]
        assert all(b >= a_ - 1e-12 for a_, b in zip(a, a[1:]))


def test_report_serializes():
    rep = validate_c3(preset("paper_default"))
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True
    assert {c["clause"] for c in payload["clauses"]} == {"i", "ii", "iii", "iv", "v"}
    assert all({"clause", "pass", "first_violation_index", "detail"} <= set(c) for c in payload["clauses"])


def test_validate_requires_sane_horizon():
    with pytest.raises(ValueError):
        validate_c3(preset("paper_default"), horizon=1)


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


def test_strong_derived_quantities():
    p = StrongParams(L=1.5, r=1.0, mu=0.45, lambda1=0.5, alpha_const=0.37, beta_const=0.1, theta_const=0.72)
    assert p.lambda_hat == pytest.approx(0.3)
    assert p.tau == pytest.approx(0.725)
    assert 0.5 < p.tau < 1.0


def test_strong_reference_point_reports_infeasible():
    # direct evaluation of the published reference parameters yields an
    # empty relaxation interval; the validator must report, not presume
    p = StrongParams(L=1.5, r=1.0, mu=0.45, lambda1=0.5, alpha_const=0.37, beta_const=0.1, theta_const=0.72)
    rep = validate_strong(p)
    assert rep.clause("c1").passed
    assert rep.clause("c2").passed
    assert not rep.clause("c3").passed
    assert rep.theta_interval is None
    assert not rep.passed


def test_strong_zero_inertia_is_infeasible():
    # with alpha = beta = 0 the relaxation lower bound collapses to 1
    p = StrongParams(L=1.5, r=1.0, mu=0.45, lambda1=0.5, alpha_const=0.0, beta_const=0.0, theta_const=0.9)
    rep = validate_strong(p)
    assert rep.theta_interval is None
    assert not rep.passed


def test_strong_tau_near_one_kills_beta():
    # tiny lambda1 pushes tau toward 1 and the beta cap toward 0
    p = StrongParams(L=1.0, r=1.0, mu=0.99, lambda1=1e-7, alpha_const=0.0, beta_const=0.01, theta_const=0.9)
    rep = validate_strong(p)
    assert not rep.clause("c1").passed


def test_strong_feasible_interval_inside_unit():
    found = find_feasible_strong(
        L=1.4,
        r=1.0,
        mu_grid=[0.3, 0.4, 0.5],
        lambda1_grid=[0.3, 0.5],
        alpha_grid=[0.1 * i for i in range(10)],
        beta_grid=[0.0, 0.02],
    )
    assert found, "expected at least one feasible parameter set"
    for params, rep in found:
        lo, hi = rep.theta_interval
        assert 0.0 < lo < hi <= 1.0
        assert lo < params.theta_const <= hi
        assert rep.q == pytest.approx(
            contraction_factor(rep.tau, params.alpha_const, params.beta_const, params.theta_const)
        )
        assert rep.q < 1.0
    qs = [rep.q for _, rep in found]
    assert qs == sorted(qs)


def test_strong_interval_always_inside_unit_when_nonempty():
    g = np.random.default_rng(77)
    for _ in range(300):
        p = StrongParams(
            L=float(g.uniform(0.5, 5.0)),
            r=float(g.uniform(0.1, 2.0)),
            mu=float(g.uniform(0.05, 0.95)),
            lambda1=float(g.uniform(0.01, 2.0)),
            alpha_const=float(g.uniform(0.0, 1.0)),
            beta_const=float(g.uniform(0.0, 0.3)),
            theta_const=float(g.uniform(0.1, 1.0)),
        )
        rep = validate_strong(p)
        if rep.theta_interval is not None:
            lo, hi = rep.theta_interval
            assert 0.0 < lo < hi <= 1.0


def test_strong_report_serializes():
    p = StrongParams(L=1.4, r=1.0, mu=0.4, lambda1=0.3, alpha_const=0.35, beta_const=0.0, theta_const=0.75)
    payload = json.loads(validate_strong(p).to_json())
    assert set(payload) == {"tau", "lambda_hat", "passed", "clauses", "theta_interval", "q"}
