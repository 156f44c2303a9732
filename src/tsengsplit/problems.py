"""Benchmark problem generators and closed-form oracle instances.

Three experiment families are provided:

* sparse signal recovery: minimize a least-squares data fit plus an l1
  penalty, solved as the inclusion with the least-squares gradient as the
  forward operator and coordinatewise shrinkage as the resolvent;
* affine variational inequality over the nonnegative orthant, with a
  randomly generated positive-semidefinite-plus-skew matrix;
* a variational inequality for grid-sampled functions on [0, 1] with a
  linear integral constraint, using trapezoid quadrature weights.

Each variational inequality takes the projection onto its feasible set
as its resolvent (``orthant_resolvent``, ``hyperplane_resolvent``).

Oracle constructors register a closed-form solution so runs can record
the distance to it; registration verifies the fixed-point property.
Generators are pure functions of their random stream, so a seed replays
its instance exactly.  Each returns the :class:`Problem`; ``gen_lasso``
also returns its :class:`LassoInstance`, whose ground truth ``x_true`` no
``Problem`` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, RngStream, Vector, aligned_empty, aligned_matrix, as_vector, uniform_matrix
from .operators import (
    ForwardOperator,
    affine_forward,
    hyperplane_resolvent,
    least_squares_gradient,
    orthant_resolvent,
    pointwise_max_zero,
    soft_threshold_resolvent,
)
from .solver import Problem


def _orthant_vi(forward: ForwardOperator, m: int, known: Vector | None, label: str) -> Problem:
    """The variational inequality of ``forward`` over the nonnegative orthant, started from all ones."""
    return Problem(
        forward=forward, backward=orthant_resolvent(), dimension=m, known_solution=known, x0=np.ones(m), label=label
    )


@dataclass(eq=False)
class LassoInstance:
    a_mat: Matrix
    y: Vector
    x_true: Vector
    reg: float


def gen_lasso(
    rng: RngStream,
    k: int = 20,
    m_rows: int = 256,
    n_cols: int = 512,
    noise_var: float = 1e-4,
    reg: float | None = None,
    reg_scale: float = 0.01,
) -> tuple[LassoInstance, Problem]:
    """Random sparse-recovery instance.

    Sensing matrix with standard normal entries, a k-sparse ground truth
    with support drawn without replacement and values uniform on [-1, 1],
    and per-component Gaussian noise of the given variance on the
    measurements.  The l1 weight defaults to ``reg_scale * ||A^T y||_inf``
    unless given explicitly.  Initial points are zero.  ``A`` is drawn
    straight into 64-byte-aligned storage, which the forward map keeps as is.

    Returns the instance record with the problem: the sparse ground truth
    ``x_true`` is the one value the :class:`Problem` does not hold.
    """
    if not (0 < k < m_rows < n_cols):
        raise ValueError(f"need 0 < k < m_rows < n_cols, got ({k}, {m_rows}, {n_cols})")
    if not 0 <= noise_var < math.inf:
        raise ValueError(f"noise_var must be nonnegative and finite, got {noise_var}")
    gen = rng.generator()
    a_mat = gen.standard_normal(out=aligned_empty((m_rows, n_cols)))
    support = gen.choice(n_cols, size=k, replace=False)
    vals = gen.uniform(-1.0, 1.0, size=k)
    while (vals == 0.0).any():  # keep the support size exactly k
        vals[vals == 0.0] = gen.uniform(-1.0, 1.0, size=int((vals == 0.0).sum()))
    x_true = np.zeros(n_cols)
    x_true[support] = vals
    y = a_mat @ x_true
    if noise_var > 0:
        y = y + gen.normal(0.0, np.sqrt(noise_var), size=m_rows)
    if reg is None:
        reg_val = float(reg_scale * np.abs(a_mat.T @ y).max())
    elif reg > 0:
        reg_val = float(reg)
    else:
        raise ValueError("reg must be positive")
    return LassoInstance(a_mat=a_mat, y=y, x_true=x_true, reg=reg_val), Problem(
        forward=least_squares_gradient(a_mat, y),
        backward=soft_threshold_resolvent(reg_val),
        dimension=n_cols,
        label=f"lasso(k={k},m={m_rows},n={n_cols},seed={rng.seed})",
    )


def gen_affine_vi(
    rng: RngStream,
    m: int = 50,
    q: Vector | None = None,
    identity: bool = False,
) -> Problem:
    """Affine variational inequality over the nonnegative orthant.

    Unless ``identity`` is set, the matrix is ``N N^T + S + D`` with N and
    the skew part S drawn entrywise uniform on (-5, 5) (S antisymmetrized
    from a strictly upper-triangular draw) and D diagonal uniform on
    (0, 0.3); this construction is positive definite.  With ``q`` omitted
    the zero vector solves the problem and is registered as the oracle
    solution.  The identity matrix with explicit ``q`` has the closed-form
    solution ``max(0, -q)``, which is registered likewise.
    """
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if identity:
        m_mat = np.eye(m)
    else:
        n_mat = uniform_matrix(rng.child(0), m, m, -5.0, 5.0)
        upper = np.triu(uniform_matrix(rng.child(1), m, m, -5.0, 5.0), k=1)
        skew = upper - upper.T
        diag = uniform_matrix(rng.child(2), 1, m, 0.0, 0.3)[0]
        m_mat = n_mat @ n_mat.T + skew + np.diag(diag)

    if q is None:
        q_vec = np.zeros(m)
        known = np.zeros(m)
    else:
        q_vec = as_vector(q, name="q")
        known = np.maximum(0.0, -q_vec) if identity else None

    return _orthant_vi(affine_forward(m_mat, q_vec), m, known, f"affine_vi(m={m},seed={rng.seed})")


_L2_CASES = {
    1: (lambda t: (97.0 * t**2 + 4.0 * t) / 13.0, lambda t: (t**2 - np.exp(-7.0 * t)) / 250.0),
    2: (lambda t: (97.0 * t**2 + 4.0 * t) / 13.0, lambda t: (np.sin(3.0 * t) + np.cos(10.0 * t)) / 100.0),
    3: (lambda t: (t**2 - np.exp(-7.0 * t)) / 250.0, lambda t: (np.sin(3.0 * t) + np.cos(10.0 * t)) / 100.0),
    4: (lambda t: (np.sin(3.0 * t) + np.cos(10.0 * t)) / 100.0, lambda t: (97.0 * t**2 + 4.0 * t) / 13.0),
}


def gen_l2_vi(m: int = 200, case: int = 1) -> Problem:
    """Grid discretization of the integral-constraint variational inequality.

    The forward operator is the pointwise positive part and the feasible
    set is ``{x : integral of t*x(t) over [0,1] equals 2}``, realized on a
    uniform m-point grid with composite trapezoid weights baked into every
    inner product.  The four cases select the benchmark initial-point
    pairs.  The discrete problem has the closed-form solution
    ``x*(t) = (2 / <t, t>) * t``, which is registered as the oracle.
    """
    if m < 10:
        raise ValueError("need at least 10 grid points")
    if case not in _L2_CASES:
        raise ValueError(f"unknown case {case}; choose one of {sorted(_L2_CASES)}")
    grid = np.linspace(0.0, 1.0, m)
    h = grid[1] - grid[0]
    weights = np.full(m, h)
    weights[0] = weights[-1] = h / 2.0
    f0, f1 = _L2_CASES[case]
    x0, x1 = f0(grid), f1(grid)
    b = 2.0
    gram = float(np.dot(weights * grid, grid))
    known = (b / gram) * grid
    return Problem(
        forward=pointwise_max_zero(),
        backward=hyperplane_resolvent(grid, b, weights=weights),
        dimension=m,
        known_solution=known,
        weights=weights,
        x0=x0,
        x1=x1,
        label=f"l2_vi(m={m},case={case})",
    )


def gen_oracle_strong(rng: RngStream, m: int = 10, rho: float = 1.0) -> Problem:
    """Strongly monotone oracle: ``A(x) = rho*x + S*x`` with random skew S.

    The skew part is antisymmetrized from a strictly upper-triangular
    uniform(-1, 1) draw scaled by ``1/sqrt(m)``; its cross term vanishes,
    so the modulus of strong monotonicity is exactly ``rho`` and the
    Lipschitz constant is exactly ``sqrt(rho^2 + ||S||^2)``.  ``L`` is
    computed on first read, with ``||S||`` by LAPACK's SVD of
    ``M - rho*I``, which gives back S exactly.  The backward operator is
    the orthant projection and zero is the registered solution.
    """
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if m < 1:
        raise ValueError("dimension must be >= 1")
    upper = np.triu(rng.generator().uniform(-1.0, 1.0, (m, m)), k=1)
    m_mat = aligned_matrix(rho * np.eye(m) + (upper - upper.T) / np.sqrt(m))
    forward = ForwardOperator(
        fn=affine_forward(m_mat, np.zeros(m)).fn,
        estimators={
            "lipschitz": lambda: float(np.sqrt(rho**2 + float(np.linalg.norm(m_mat - rho * np.eye(m), 2)) ** 2)),
            "strong_monotone_modulus": lambda: float(rho),
        },
    )
    return _orthant_vi(forward, m, np.zeros(m), f"oracle_strong(m={m},rho={rho:g},seed={rng.seed})")


def oracle_orthant_vi(q: Vector = (-1.0, 1.0)) -> Problem:
    """Closed-form orthant oracle with identity linear part.

    For ``A(x) = x + q`` over the nonnegative orthant the solution is
    ``max(0, -q)`` componentwise.
    """
    q = as_vector(q, name="q")
    return _orthant_vi(affine_forward(np.eye(q.size), q), q.size, np.maximum(0.0, -q), f"oracle_orthant(m={q.size})")
