import numpy as np
import pytest

from tsengsplit import (
    RngStream,
    SolverConfig,
    gen_affine_vi,
    gen_l2_vi,
    gen_lasso,
    gen_oracle_strong,
    inner,
    norm,
    oracle_orthant_vi,
    preset,
    solve,
)
from test_operators import forward_matrix


# --- sparse recovery ---------------------------------------------------------


def test_lasso_support_size_exact():
    inst, _ = gen_lasso(RngStream(1), k=20, m_rows=256, n_cols=512)
    assert int((inst.x_true != 0).sum()) == 20
    assert inst.a_mat.shape == (256, 512)


def test_lasso_noiseless_measurements_exact():
    inst, _ = gen_lasso(RngStream(2), k=1, m_rows=4, n_cols=8, noise_var=0.0)
    assert np.array_equal(inst.y, inst.a_mat @ inst.x_true)


def test_lasso_deterministic():
    i1, _ = gen_lasso(RngStream(3), k=5, m_rows=32, n_cols=64)
    i2, _ = gen_lasso(RngStream(3), k=5, m_rows=32, n_cols=64)
    assert np.array_equal(i1.a_mat, i2.a_mat)
    assert np.array_equal(i1.x_true, i2.x_true)
    assert np.array_equal(i1.y, i2.y)
    assert i1.reg == i2.reg


def test_lasso_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gen_lasso(RngStream(4), k=10, m_rows=10, n_cols=20)


def test_lasso_forward_is_the_least_squares_gradient():
    inst, prob = gen_lasso(RngStream(5), k=3, m_rows=20, n_cols=40, noise_var=0.0)
    g = RngStream(6).generator()
    for _ in range(5):
        x = g.standard_normal(40)
        expected = inst.a_mat.T @ (inst.a_mat @ x - inst.y)
        assert np.allclose(prob.forward(x), expected)


def test_lasso_draws_a_from_the_stream_as_a_plain_draw_would():
    for seed, sizes in ((21, dict(k=20, m_rows=256, n_cols=512)), (22, dict(k=3, m_rows=20, n_cols=40, reg=0.5))):
        inst, prob = gen_lasso(RngStream(seed), **sizes)
        assert forward_matrix(prob.forward) is inst.a_mat  # drawn in place, never copied
        gen = RngStream(seed).generator()
        a_mat = gen.standard_normal((sizes["m_rows"], sizes["n_cols"]))
        support = gen.choice(sizes["n_cols"], size=sizes["k"], replace=False)
        x_true = np.zeros(sizes["n_cols"])
        x_true[support] = gen.uniform(-1.0, 1.0, size=sizes["k"])
        y = a_mat @ x_true + gen.normal(0.0, np.sqrt(1e-4), size=sizes["m_rows"])
        assert np.array_equal(inst.a_mat, a_mat)
        assert np.array_equal(inst.x_true, x_true)
        assert np.array_equal(inst.y, y)
        assert inst.reg == sizes.get("reg", float(0.01 * np.abs(a_mat.T @ y).max()))


# --- affine variational inequality ----------------------------------------------


def test_affine_vi_zero_q_registers_origin():
    prob = gen_affine_vi(RngStream(8), m=50)
    assert np.array_equal(prob.known_solution, np.zeros(50))
    assert np.allclose(prob.forward(np.zeros(50)), 0.0)


def test_affine_vi_symmetric_part_positive_semidefinite():
    for seed in range(10):
        m_mat = forward_matrix(gen_affine_vi(RngStream(seed), m=20).forward)
        sym = 0.5 * (m_mat + m_mat.T)
        assert np.linalg.eigvalsh(sym)[0] >= -1e-8


def test_affine_vi_monotone_on_samples():
    prob = gen_affine_vi(RngStream(9), m=25)
    g = RngStream(10).generator()
    for _ in range(1000):
        x, y = g.standard_normal(25), g.standard_normal(25)
        assert inner(prob.forward(x) - prob.forward(y), x - y) >= -1e-8 * norm(x - y) ** 2


def test_affine_vi_identity_oracle():
    prob = gen_affine_vi(RngStream(11), m=2, q=np.array([-1.0, 1.0]), identity=True)
    assert np.allclose(prob.known_solution, [1.0, 0.0])


# --- integral-constraint VI on a grid ----------------------------------------------


def test_l2_vi_case_values_at_endpoint():
    prob = gen_l2_vi(200, 1)
    assert prob.x0[-1] == pytest.approx(101.0 / 13.0)
    prob4 = gen_l2_vi(200, 4)
    assert prob4.x1[-1] == pytest.approx(101.0 / 13.0)


def test_l2_vi_weights_positive_and_sum_to_one():
    prob = gen_l2_vi(200, 2)
    assert (prob.weights > 0).all()
    assert prob.weights.sum() == pytest.approx(1.0)


def test_l2_vi_resolvent_restores_constraint():
    prob = gen_l2_vi(200, 3)
    grid = np.linspace(0.0, 1.0, 200)
    g = RngStream(13).generator()
    for _ in range(20):
        x = g.standard_normal(200)
        proj = prob.backward(x, 0.5)
        assert abs(float(np.dot(prob.weights * grid, proj)) - 2.0) <= 1e-9


def test_l2_vi_forward_contracts_in_weighted_norm():
    prob = gen_l2_vi(120, 2)
    g = RngStream(14).generator()
    for _ in range(200):
        x, y = g.standard_normal(120), g.standard_normal(120)
        lhs = norm(prob.forward(x) - prob.forward(y), weights=prob.weights)
        assert lhs <= norm(x - y, weights=prob.weights) + 1e-15


def test_l2_vi_known_solution_is_scaled_grid():
    prob = gen_l2_vi(150, 1)
    grid = np.linspace(0.0, 1.0, 150)
    gram = float(np.dot(prob.weights * grid, grid))
    assert np.allclose(prob.known_solution, (2.0 / gram) * grid)


def test_l2_vi_rejects_bad_case():
    with pytest.raises(ValueError):
        gen_l2_vi(200, 9)
    with pytest.raises(ValueError):
        gen_l2_vi(5, 1)


# --- strongly monotone oracle ---------------------------------------------------------


def test_oracle_strong_trivial_when_skew_vanishes():
    prob = gen_oracle_strong(RngStream(15), m=1, rho=1.0)
    assert prob.forward.lipschitz == pytest.approx(1.0)
    assert np.allclose(prob.known_solution, 0.0)


def test_oracle_strong_modulus_exact_by_skewness():
    prob = gen_oracle_strong(RngStream(16), m=10, rho=2.0)
    g = RngStream(17).generator()
    for _ in range(200):
        x, y = g.standard_normal(10), g.standard_normal(10)
        gap = inner(prob.forward(x) - prob.forward(y), x - y)
        assert gap == pytest.approx(2.0 * norm(x - y) ** 2, rel=1e-10)


def test_oracle_strong_solver_and_certificate():
    prob = gen_oracle_strong(RngStream(18), m=10, rho=1.0)
    cfg = SolverConfig(schedules=preset("paper_default"), max_iters=4000, tol=1e-11, record_distance=True)
    x, trace = solve(prob, cfg)
    assert norm(x) <= 1e-6
    from tsengsplit import certify_linear_rate

    assert certify_linear_rate(trace).passed


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_lasso(RngStream(23))[1],
        lambda: gen_affine_vi(RngStream(24), m=50),
        lambda: gen_affine_vi(RngStream(25), m=7, q=np.ones(7), identity=True),
        lambda: gen_oracle_strong(RngStream(26), m=10),
        lambda: oracle_orthant_vi(np.array([-2.0, 0.5, 1.0])),
    ],
    ids=["lasso", "affine_vi", "affine_vi_identity", "oracle_strong", "oracle_orthant"],
)
def test_forward_matrix_is_stored_on_a_cache_line(build):
    mat = forward_matrix(build().forward)
    assert mat.flags.c_contiguous and mat.ctypes.data % 64 == 0


def test_every_oracle_passes_registration():
    # construction itself runs the fixed-point check
    oracle_orthant_vi(np.array([-2.0, 0.5, 1.0]))
    gen_oracle_strong(RngStream(19), m=7, rho=0.5)
    gen_affine_vi(RngStream(20), m=9)
    gen_l2_vi(80, 4)
