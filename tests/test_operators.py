import numpy as np
import pytest

from tsengsplit import (
    RngStream,
    affine_forward,
    gen_l2_vi,
    gen_oracle_strong,
    inner,
    least_squares_gradient,
    norm,
    oracle_orthant_vi,
    orthant_projector,
    pointwise_max_zero,
    projector_as_resolvent,
    soft_threshold_resolvent,
    uniform_matrix,
    weighted_hyperplane_projector,
)
from tsengsplit.linalg import DimensionMismatchError


# --- affine forward -------------------------------------------------------


def test_affine_identity_map():
    op = affine_forward(np.eye(2), np.zeros(2))
    assert np.allclose(op(np.array([2.0, 3.0])), [2.0, 3.0])


def test_affine_direct_arithmetic():
    op = affine_forward(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([1.0, -1.0]))
    assert np.allclose(op(np.array([1.0, 1.0])), [3.0, 1.0])


def test_affine_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        affine_forward(np.eye(2), np.zeros(3))


def test_affine_benchmark_recipe_is_monotone():
    rng = RngStream(100)
    n_mat = uniform_matrix(rng.child(0), 12, 12, -5.0, 5.0)
    upper = np.triu(uniform_matrix(rng.child(1), 12, 12, -5.0, 5.0), k=1)
    diag = np.diag(uniform_matrix(rng.child(2), 1, 12, 0.0, 0.3)[0])
    m = n_mat @ n_mat.T + (upper - upper.T) + diag
    op = affine_forward(m, np.zeros(12))
    g = rng.generator()
    for _ in range(100):
        x, y = g.standard_normal(12), g.standard_normal(12)
        assert inner(op(x) - op(y), x - y) >= -1e-8 * norm(x - y) ** 2


def test_matrix_metadata_estimated_once_on_first_read(monkeypatch):
    from tsengsplit import operators

    calls = []
    real = operators.spectral_norm_estimate
    monkeypatch.setattr(operators, "spectral_norm_estimate", lambda m, steps: calls.append(steps) or real(m, steps))
    m = uniform_matrix(RngStream(102), 6, 6, -5.0, 5.0)
    aff = affine_forward(m, np.zeros(6))
    lsq = least_squares_gradient(m[:4], np.ones(4))
    assert calls == []  # construction estimates nothing
    assert aff.lipschitz == real(m, steps=100)
    assert aff.strong_monotone_modulus == max(0.0, float(np.linalg.eigvalsh(0.5 * (m + m.T))[0]))
    assert lsq.lipschitz == real(m[:4], steps=100) ** 2
    assert aff.lipschitz == aff.lipschitz and lsq.lipschitz == lsq.lipschitz
    assert calls == [100, 100]  # one estimate per operator, then cached


def test_affine_lipschitz_metadata_sound():
    rng = RngStream(101)
    m = uniform_matrix(rng, 20, 20, -5.0, 5.0)
    op = affine_forward(m, np.zeros(20))
    g = rng.generator()
    for _ in range(1000):
        x, y = g.standard_normal(20), g.standard_normal(20)
        assert norm(op(x) - op(y)) <= (op.lipschitz + 1e-8) * norm(x - y)


# --- least-squares gradient ------------------------------------------------


def _fd_gradient_check(a_mat, y, x, h=1e-6):
    op = least_squares_gradient(a_mat, y)
    g = op(x)

    def f(v):
        r = a_mat @ v - y
        return 0.5 * float(r @ r)

    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd = (f(x + e) - f(x - e)) / (2 * h)
        assert abs(g[i] - fd) <= 1e-4 * (1.0 + abs(g[i]))


def test_lsq_gradient_zero_at_solution():
    g = RngStream(102).generator()
    a = g.standard_normal((6, 4))
    x = g.standard_normal(4)
    op = least_squares_gradient(a, a @ x)
    assert norm(op(x)) <= 1e-10


def test_lsq_gradient_identity_reduction():
    op = least_squares_gradient(np.eye(3), np.zeros(3))
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(op(x), x)


def test_lsq_gradient_finite_differences():
    g = RngStream(103).generator()
    a = g.standard_normal((10, 7))
    y = g.standard_normal(10)
    _fd_gradient_check(a, y, g.standard_normal(7))


# --- pointwise positive part -----------------------------------------------


def test_max_zero_sign_split():
    op = pointwise_max_zero()
    assert np.allclose(op(np.array([-1.0, 2.0])), [0.0, 2.0])
    assert np.allclose(op(np.array([-3.0, -0.5])), [0.0, 0.0])


def test_max_zero_nonexpansive_sweep():
    op = pointwise_max_zero()
    g = RngStream(104).generator()
    for _ in range(1000):
        x, y = g.standard_normal(15), g.standard_normal(15)
        assert norm(op(x) - op(y)) <= norm(x - y) + 1e-15


# --- shrinkage resolvent -----------------------------------------------------


def test_soft_threshold_zero_input():
    res = soft_threshold_resolvent(1.0)
    for lam in (0.01, 0.1, 1.0):
        assert np.allclose(res(np.zeros(4), lam), 0.0)


def test_soft_threshold_shrinks_by_lam_rho():
    res = soft_threshold_resolvent(1.0)
    assert np.allclose(res(np.array([3.0]), 1.0), [2.0])


def test_soft_threshold_rejects_bad_lam():
    res = soft_threshold_resolvent(0.5)
    with pytest.raises(ValueError):
        res(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        soft_threshold_resolvent(-1.0)


def test_soft_threshold_subgradient_optimality():
    # 0 must lie in (out - x)/lam + rho * subdifferential of |.|_1 at out
    rho, lam = 0.7, 0.3
    res = soft_threshold_resolvent(rho)
    g = RngStream(105).generator()
    for _ in range(200):
        x = 2.0 * g.standard_normal(10)
        out = res(x, lam)
        for i in range(10):
            slack = (out[i] - x[i]) / lam
            if out[i] != 0.0:
                assert abs(slack + rho * np.sign(out[i])) <= 1e-10
            else:
                assert abs(slack) <= rho + 1e-10


# --- projectors --------------------------------------------------------------


def test_orthant_projector_basics():
    p = orthant_projector(2)
    assert np.allclose(p.project(np.array([-1.0, 2.0])), [0.0, 2.0])
    x = np.array([0.5, 3.0])
    assert np.array_equal(p.project(x), x)
    assert p.membership_residual(np.array([-3.0, 4.0])) == pytest.approx(3.0)


def test_orthant_projector_idempotent_sweep():
    p = orthant_projector(12)
    g = RngStream(106).generator()
    for _ in range(1000):
        x = g.standard_normal(12)
        px = p.project(x)
        assert norm(p.project(px) - px) <= 1e-10


def test_hyperplane_projector_membership_fixed_point():
    w = np.array([1.0, 2.0, -1.0])
    p = weighted_hyperplane_projector(w, 3.0)
    x = np.array([1.0, 1.0, 0.0])  # <w, x> = 3 already
    assert np.allclose(p.project(x), x)


def test_hyperplane_projector_restores_constraint():
    grid = np.linspace(0.0, 1.0, 60)
    h = grid[1] - grid[0]
    wts = np.full(60, h)
    wts[0] = wts[-1] = h / 2
    p = weighted_hyperplane_projector(grid, 2.0, weights=wts)
    g = RngStream(107).generator()
    for _ in range(200):
        x = g.standard_normal(60)
        assert p.membership_residual(p.project(x)) <= 1e-10


def test_hyperplane_projector_weighted_linear_profile():
    # x(t) = 6t meets the integral constraint up to quadrature error h^2,
    # so its projection moves it by at most that order
    m = 200
    grid = np.linspace(0.0, 1.0, m)
    h = grid[1] - grid[0]
    wts = np.full(m, h)
    wts[0] = wts[-1] = h / 2
    p = weighted_hyperplane_projector(grid, 2.0, weights=wts)
    x = 6.0 * grid
    assert norm(p.project(x) - x, weights=wts) <= 10.0 * h**2


def test_hyperplane_projector_rejects_zero_weight():
    with pytest.raises(ValueError):
        weighted_hyperplane_projector(np.zeros(3), 1.0)


# --- resolvent wrapping -------------------------------------------------------


def test_projector_as_resolvent_ignores_lam():
    res = projector_as_resolvent(orthant_projector(2))
    x = np.array([-1.0, 2.0])
    assert np.allclose(res(x, 0.5), [0.0, 2.0])
    g = RngStream(108).generator()
    for _ in range(100):
        v = g.standard_normal(2)
        assert np.array_equal(res(v, 0.1), res(v, 10.0))


@pytest.mark.parametrize("which", ["soft", "orthant", "hyperplane"])
def test_resolvents_firmly_nonexpansive(which):
    g = RngStream(109).generator()
    wts = None
    if which == "soft":
        res = soft_threshold_resolvent(0.8)
    elif which == "orthant":
        res = projector_as_resolvent(orthant_projector(10))
    else:
        grid = np.linspace(0.0, 1.0, 10)
        h = grid[1] - grid[0]
        wts = np.full(10, h)
        wts[0] = wts[-1] = h / 2
        res = projector_as_resolvent(weighted_hyperplane_projector(grid, 2.0, weights=wts))
    for _ in range(1000):
        x, y = 3.0 * g.standard_normal(10), 3.0 * g.standard_normal(10)
        jx, jy = res(x, 0.4), res(y, 0.4)
        assert norm(jx - jy, weights=wts) ** 2 <= inner(jx - jy, x - y, weights=wts) + 1e-10


def test_fixed_point_of_forward_backward_at_oracle_solutions():
    # the forward-backward map J(x - lam*A(x)) fixes each registered solution
    problems = [
        oracle_orthant_vi(np.array([-1.0, 1.0])),
        gen_oracle_strong(RngStream(110), m=8, rho=1.0),
        gen_l2_vi(60, 1)[1],
    ]
    for prob in problems:
        xs = prob.known_solution
        for lam in (0.01, 0.1, 1.0):
            t = prob.backward(xs - lam * prob.forward(xs), lam)
            assert norm(t - xs, weights=prob.weights) <= 1e-8
