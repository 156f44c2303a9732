import numpy as np
import pytest

from tsengsplit import (
    DimensionMismatchError,
    NonFiniteError,
    RngStream,
    inner,
    norm,
    uniform_matrix,
)


def test_inner_orthogonal():
    assert inner(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_inner_direct_sum():
    assert inner(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_inner_matches_norm_squared():
    g = RngStream(1).generator()
    for _ in range(50):
        a = g.standard_normal(17)
        assert abs(inner(a, a) - norm(a) ** 2) <= 1e-12 * max(1.0, norm(a) ** 2)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner(np.ones(3), np.ones(4))


def test_norm_zero_vector():
    assert norm(np.zeros(3)) == 0.0


def test_norm_pythagorean():
    assert norm(np.array([3.0, 4.0])) == 5.0


def test_weighted_inner_and_norm():
    w = np.array([0.5, 2.0])
    a = np.array([1.0, 3.0])
    b = np.array([2.0, -1.0])
    assert inner(a, b, weights=w) == pytest.approx(0.5 * 2.0 - 2.0 * 3.0)
    assert norm(a, weights=w) == pytest.approx(np.sqrt(0.5 + 18.0))


def test_norm_matches_numpy_bit_for_bit():
    g = RngStream(3).generator()
    for size in (1, 2, 17, 50, 512):
        a = g.standard_normal(size) * 10.0 ** g.integers(-150, 150)
        assert norm(a) == float(np.linalg.norm(a))


def test_norm_non_finite():
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            norm(np.full(2, 1e308))


def test_uniform_matrix_deterministic():
    m1 = uniform_matrix(RngStream(5), 4, 6, -5.0, 5.0)
    m2 = uniform_matrix(RngStream(5), 4, 6, -5.0, 5.0)
    assert np.array_equal(m1, m2)


def test_uniform_matrix_open_range():
    m = uniform_matrix(RngStream(6), 30, 30, -5.0, 5.0)
    assert (m > -5.0).all() and (m < 5.0).all()


def test_uniform_matrix_bad_bounds():
    with pytest.raises(ValueError):
        uniform_matrix(RngStream(0), 2, 2, 1.0, 1.0)


def test_uniform_matrix_law_of_large_numbers():
    m = uniform_matrix(RngStream(7), 1000, 1000, 0.0, 1.0)
    assert abs(m.mean() - 0.5) < 0.01


def test_child_streams_differ_and_are_stable():
    base = RngStream(123)
    c0, c1 = base.child(0), base.child(1)
    assert c0.seed != c1.seed
    assert base.child(0).seed == c0.seed


def test_cauchy_schwarz():
    g = RngStream(8).generator()
    for _ in range(1000):
        a, b = g.standard_normal(12), g.standard_normal(12)
        assert abs(inner(a, b)) <= norm(a) * norm(b) + 1e-12


def test_convex_combination_norm_identity():
    # ||a*x + (1-a)*y||^2 == a*||x||^2 + (1-a)*||y||^2 - a*(1-a)*||x-y||^2
    g = RngStream(9).generator()
    for _ in range(1000):
        x, y = g.standard_normal(8), g.standard_normal(8)
        a = g.uniform(-2.0, 2.0)
        lhs = norm(a * x + (1 - a) * y) ** 2
        rhs = a * norm(x) ** 2 + (1 - a) * norm(y) ** 2 - a * (1 - a) * norm(x - y) ** 2
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
