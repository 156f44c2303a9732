import dataclasses
import itertools

import numpy as np
import pytest

from tsengsplit import (
    Problem,
    RngStream,
    affine_forward,
    gen_l2_vi,
    gen_oracle_strong,
    hyperplane_resolvent,
    inner,
    least_squares_gradient,
    norm,
    oracle_orthant_vi,
    orthant_resolvent,
    pointwise_max_zero,
    soft_threshold_resolvent,
    uniform_matrix,
)
from tsengsplit import linalg
from tsengsplit.linalg import DimensionMismatchError, aligned_matrix


def same_bits(got, want):
    """Equal as float64 bit patterns: ``-0.0`` differs from ``0.0``, and NaNs compare by payload."""
    return got.dtype == want.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))


# --- affine forward -------------------------------------------------------


def test_affine_identity_map():
    op = affine_forward(np.eye(2), np.zeros(2))
    assert np.allclose(op(np.array([2.0, 3.0])), [2.0, 3.0])


def test_affine_direct_arithmetic():
    op = affine_forward(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([1.0, -1.0]))
    assert np.allclose(op(np.array([1.0, 1.0])), [3.0, 1.0])


@pytest.mark.parametrize("q_kind", ["zero", "nonzero"])
def test_affine_forward_is_m_x_plus_q(q_kind):
    # the solver's reference loop calls the operator, so it cannot see how the map is evaluated
    gen = np.random.default_rng(3)
    m_mat = gen.uniform(-5.0, 5.0, (6, 6))
    q = np.zeros(6) if q_kind == "zero" else gen.uniform(-1.0, 1.0, 6)
    op = affine_forward(m_mat, q)
    special = [[0.0, -0.0, np.inf, 0.0, -0.0, 1.0], [-np.inf, -0.0, 0.0, 2.0, 0.0, -0.0], [np.nan, 0.0, 1.0, -0.0, 0.0, 0.0]]
    for x in (gen.standard_normal(6), np.zeros(6), -np.zeros(6), *map(np.array, special)):
        with np.errstate(invalid="ignore"):
            assert same_bits(op(x), m_mat @ x + q if q_kind == "nonzero" else m_mat @ x)


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
    calls = []
    real_norm, real_eigvalsh = np.linalg.norm, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "norm", lambda m, *args: calls.append(("norm", m.shape)) or real_norm(m, *args))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(("eigvalsh", m.shape)) or real_eigvalsh(m))
    m = uniform_matrix(RngStream(102), 6, 6, -5.0, 5.0)
    aff = affine_forward(m, np.zeros(6))
    lsq = least_squares_gradient(m[:4], np.ones(4))
    for op in (aff, lsq):
        repr(op), hash(op)
        assert op == op and dataclasses.replace(op, fn=op.fn) == op
    repr(Problem(forward=lsq, backward=orthant_resolvent(), dimension=6))
    assert calls == []  # construction, printing, comparing, hashing and replacing estimate nothing
    assert aff.lipschitz == float(real_norm(m, 2))
    assert aff.strong_monotone_modulus == max(0.0, float(real_eigvalsh(0.5 * (m + m.T))[0]))
    assert lsq.lipschitz == float(real_norm(m[:4], 2)) ** 2
    assert aff.lipschitz == aff.lipschitz and lsq.lipschitz == lsq.lipschitz
    assert aff.strong_monotone_modulus == aff.strong_monotone_modulus
    # one computation per field, then cached (the checks above call the real functions)
    assert calls == [("norm", (6, 6)), ("eigvalsh", (6, 6)), ("norm", (4, 6))]
    # the strong oracle builds with no SVD; its first L read takes one, of M - rho*I = S
    for m_dim, rho, seed in itertools.product((1, 2, 5, 16), (0.25, 1.0, 3.0), (0, 7)):
        calls.clear()
        strong = gen_oracle_strong(RngStream(seed), m=m_dim, rho=rho).forward
        assert calls == []
        upper = np.triu(RngStream(seed).generator().uniform(-1.0, 1.0, (m_dim, m_dim)), k=1)
        skew = (upper - upper.T) / np.sqrt(m_dim)
        assert strong.lipschitz == float(np.sqrt(rho**2 + float(real_norm(skew, 2)) ** 2))
        assert strong.strong_monotone_modulus == rho
        assert strong.lipschitz == strong.lipschitz and strong.strong_monotone_modulus == rho
        assert calls == [("norm", (m_dim, m_dim))]


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


# --- storage of the matrix a forward map multiplies by ---------------------


def forward_matrix(op):
    """The matrix ``op`` multiplies by, read from its bound method or closure."""
    fn = op.fn
    held = [fn.__self__] if hasattr(fn, "__self__") else [cell.cell_contents for cell in fn.__closure__]
    (mat,) = [v for v in held if isinstance(v, np.ndarray) and v.ndim == 2]
    for estimate in op.estimators.values():  # an estimate that reads a matrix reads that same array
        held = [cell.cell_contents for cell in estimate.__closure__]
        assert all(v is mat for v in held if isinstance(v, np.ndarray))
    return mat


def at_byte_offset(values, offset):
    """A C-contiguous copy of ``values`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(values.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start : start + values.nbytes].view(np.float64).reshape(values.shape)
    out[...] = values
    return out


def _matrix_operators(gen, mat):
    """Each matrix forward map built on ``mat``, with the map it must equal bit for bit."""
    rows, cols = mat.shape
    y = gen.standard_normal(rows)
    ops = [(least_squares_gradient(mat, y), lambda x: mat.T @ (mat @ x - y))]
    if rows == cols:
        q = gen.standard_normal(rows)
        ops += [(affine_forward(mat, q), lambda x: mat @ x + q), (affine_forward(mat, np.zeros(rows)), mat.__matmul__)]
    return ops


# a matrix map on a one-entry vector must not take it for a scalar: (1, 1) holds the affine maps to it
@pytest.mark.parametrize("shape", [(256, 512), (50, 50), (1, 1), (3, 5), (4, 1), (1, 4)])
@pytest.mark.parametrize("offset", [8, 16, 32, 48])
def test_misaligned_matrix_is_copied_once_and_left_untouched(monkeypatch, shape, offset):
    gen = np.random.default_rng(offset)
    values = gen.standard_normal(shape)
    mat = at_byte_offset(values, offset)
    address = mat.ctypes.data
    allocations = []
    real = linalg.aligned_empty
    monkeypatch.setattr(linalg, "aligned_empty", lambda size: allocations.append(size) or real(size))
    ops = _matrix_operators(gen, mat)
    assert allocations == [shape] * len(ops)  # one copy per operator, shared by its map and estimates
    for op, reference in ops:
        kept = forward_matrix(op)
        assert kept.flags.c_contiguous and kept.ctypes.data % 64 == 0
        assert not np.shares_memory(kept, mat)
        n = shape[1]
        for x in (gen.standard_normal(n), np.zeros(n), -np.zeros(n), np.resize([-0.0, np.inf, -np.inf, np.nan, 1.5], n)):
            with np.errstate(invalid="ignore"):
                assert same_bits(op(x), reference(x))  # the reference reads the misaligned array
    assert mat.ctypes.data == address and np.array_equal(mat, values)


@pytest.mark.parametrize("shape", [(256, 512), (50, 50)])
def test_aligned_matrix_is_kept_as_given(shape):
    gen = np.random.default_rng(0)
    mat = at_byte_offset(gen.standard_normal(shape), 0)
    assert aligned_matrix(mat) is mat
    for op, _ in _matrix_operators(gen, mat):
        assert forward_matrix(op) is mat


def test_aligned_matrix_copies_what_is_not_c_contiguous_float64():
    mat = at_byte_offset(np.arange(12.0).reshape(3, 4), 0)
    for given in (mat.T, mat[:, ::2], mat.astype(np.float32), mat.tolist()):
        kept = aligned_matrix(given)
        assert kept.flags.c_contiguous and kept.dtype == np.float64 and kept.ctypes.data % 64 == 0
        assert np.array_equal(kept, np.asarray(given, dtype=np.float64))


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


def test_positive_parts_are_their_formulas_bit_for_bit():
    lam, rho = 0.37, 1.3
    t = lam * rho
    x = np.array([0.0, -0.0, t, -t, 0.5 * t, -np.nextafter(t, 0.0), np.inf, -np.inf, np.nan, 2.0, -3.0])
    positive_part = np.maximum(x, 0.0)
    assert same_bits(pointwise_max_zero()(x), positive_part)
    assert same_bits(orthant_resolvent()(x, lam), positive_part)
    with np.errstate(invalid="ignore"):
        shrunk = soft_threshold_resolvent(rho)(x, lam)
        assert same_bits(shrunk, np.sign(x) * np.maximum(np.abs(x) - lam * rho, 0.0))


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


# --- projections as resolvents -----------------------------------------------


def test_orthant_projector_basics():
    r = orthant_resolvent()
    assert np.allclose(r(np.array([-1.0, 2.0]), 0.5), [0.0, 2.0])
    x = np.array([0.5, 3.0])
    assert np.array_equal(r(x, 0.5), x)
    assert (r(np.array([-3.0, 4.0]), 0.5) >= 0.0).all()


def test_orthant_projector_idempotent_sweep():
    r = orthant_resolvent()
    g = RngStream(106).generator()
    for _ in range(1000):
        x = g.standard_normal(12)
        px = r(x, 0.5)
        assert (px >= 0.0).all()
        assert norm(r(px, 0.5) - px) <= 1e-10


def test_hyperplane_projector_membership_fixed_point():
    w = np.array([1.0, 2.0, -1.0])
    r = hyperplane_resolvent(w, 3.0)
    x = np.array([1.0, 1.0, 0.0])  # <w, x> = 3 already
    assert np.allclose(r(x, 0.5), x)


def test_hyperplane_projector_restores_constraint():
    grid = np.linspace(0.0, 1.0, 60)
    h = grid[1] - grid[0]
    wts = np.full(60, h)
    wts[0] = wts[-1] = h / 2
    r = hyperplane_resolvent(grid, 2.0, weights=wts)
    g = RngStream(107).generator()
    for _ in range(200):
        x = g.standard_normal(60)
        assert abs(inner(grid, r(x, 0.5), wts) - 2.0) <= 1e-10


def test_hyperplane_projector_weighted_linear_profile():
    # x(t) = 6t meets the integral constraint up to quadrature error h^2,
    # so its projection moves it by at most that order
    m = 200
    grid = np.linspace(0.0, 1.0, m)
    h = grid[1] - grid[0]
    wts = np.full(m, h)
    wts[0] = wts[-1] = h / 2
    r = hyperplane_resolvent(grid, 2.0, weights=wts)
    x = 6.0 * grid
    assert norm(r(x, 0.5) - x, weights=wts) <= 10.0 * h**2


def test_hyperplane_projector_rejects_zero_weight():
    with pytest.raises(ValueError):
        hyperplane_resolvent(np.zeros(3), 1.0)


def test_projector_as_resolvent_ignores_lam():
    # a projection is the resolvent of the set's normal cone for every lam
    orthant, plane = orthant_resolvent(), hyperplane_resolvent(np.array([1.0, -2.0]), 0.5)
    assert np.allclose(orthant(np.array([-1.0, 2.0]), 0.5), [0.0, 2.0])
    g = RngStream(108).generator()
    for _ in range(100):
        v = g.standard_normal(2)
        assert np.array_equal(orthant(v, 0.1), orthant(v, 10.0))
        assert np.array_equal(plane(v, 0.1), plane(v, 10.0))


@pytest.mark.parametrize("which", ["soft", "orthant", "hyperplane"])
def test_resolvents_firmly_nonexpansive(which):
    g = RngStream(109).generator()
    wts = None
    if which == "soft":
        res = soft_threshold_resolvent(0.8)
    elif which == "orthant":
        res = orthant_resolvent()
    else:
        grid = np.linspace(0.0, 1.0, 10)
        h = grid[1] - grid[0]
        wts = np.full(10, h)
        wts[0] = wts[-1] = h / 2
        res = hyperplane_resolvent(grid, 2.0, weights=wts)
    for _ in range(1000):
        x, y = 3.0 * g.standard_normal(10), 3.0 * g.standard_normal(10)
        jx, jy = res(x, 0.4), res(y, 0.4)
        assert norm(jx - jy, weights=wts) ** 2 <= inner(jx - jy, x - y, weights=wts) + 1e-10


def test_fixed_point_of_forward_backward_at_oracle_solutions():
    # the forward-backward map J(x - lam*A(x)) fixes each registered solution
    problems = [
        oracle_orthant_vi(np.array([-1.0, 1.0])),
        gen_oracle_strong(RngStream(110), m=8, rho=1.0),
        gen_l2_vi(60, 1),
    ]
    for prob in problems:
        xs = prob.known_solution
        for lam in (0.01, 0.1, 1.0):
            t = prob.backward(xs - lam * prob.forward(xs), lam)
            assert norm(t - xs, weights=prob.weights) <= 1e-8
