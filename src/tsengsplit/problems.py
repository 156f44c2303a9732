"""Benchmark problem generators and closed-form oracle instances.

Three experiment families are provided:

* sparse signal recovery: minimize a least-squares data fit plus an l1
  penalty, solved as the inclusion with the least-squares gradient as the
  forward operator and coordinatewise shrinkage as the resolvent;
* affine variational inequality over the nonnegative orthant, with a
  randomly generated positive-semidefinite-plus-skew matrix;
* a variational inequality for grid-sampled functions on [0, 1] with a
  linear integral constraint, using trapezoid quadrature weights.

Oracle constructors register a closed-form solution so runs can record
the distance to it; registration verifies the fixed-point property.
Generators are pure functions of their random stream, so a seed replays
its instance exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import Matrix, RngStream, Vector, uniform_matrix
from .operators import (
    affine_forward,
    least_squares_gradient,
    orthant_projector,
    pointwise_max_zero,
    projector_as_resolvent,
    soft_threshold_resolvent,
    weighted_hyperplane_projector,
)
from .solver import Problem

__all__ = [
    "LassoInstance",
    "AffineVIInstance",
    "L2VIInstance",
    "gen_lasso",
    "gen_affine_vi",
    "gen_l2_vi",
    "gen_oracle_strong",
    "oracle_orthant_vi",
]


@dataclass(eq=False)
class LassoInstance:
    a_mat: Matrix
    y: Vector
    x_true: Vector
    reg: float
    k: int
    m_rows: int
    n_cols: int
    noise_var: float
    seed: int


@dataclass(eq=False)
class AffineVIInstance:
    m_mat: Matrix
    q: Vector
    m: int
    seed: int


@dataclass(eq=False)
class L2VIInstance:
    grid: Vector
    weights: Vector
    b: float
    x0: Vector
    x1: Vector
    case_id: int


def _problem_reg(a_mat: Matrix, y: Vector, reg: float | None, reg_scale: float) -> float:
    if reg is not None:
        if not reg > 0:
            raise ValueError("reg must be positive")
        return float(reg)
    return float(reg_scale * np.abs(a_mat.T @ y).max())


def gen_lasso(
    rng: RngStream,
    k: int,
    m_rows: int,
    n_cols: int,
    noise_var: float = 1e-4,
    reg: float | None = None,
    reg_scale: float = 0.01,
) -> tuple[LassoInstance, Problem]:
    """Random sparse-recovery instance.

    Sensing matrix with standard normal entries, a k-sparse ground truth
    with support drawn without replacement and values uniform on [-1, 1],
    and per-component Gaussian noise of the given variance on the
    measurements.  The l1 weight defaults to ``reg_scale * ||A^T y||_inf``
    unless given explicitly.  Initial points are zero.
    """
    if not (0 < k < m_rows < n_cols):
        raise ValueError(f"need 0 < k < m_rows < n_cols, got ({k}, {m_rows}, {n_cols})")
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    gen = rng.generator()
    a_mat = gen.standard_normal((m_rows, n_cols))
    support = gen.choice(n_cols, size=k, replace=False)
    vals = gen.uniform(-1.0, 1.0, size=k)
    while (vals == 0.0).any():  # keep the support size exactly k
        vals[vals == 0.0] = gen.uniform(-1.0, 1.0, size=int((vals == 0.0).sum()))
    x_true = np.zeros(n_cols)
    x_true[support] = vals
    y = a_mat @ x_true
    if noise_var > 0:
        y = y + gen.normal(0.0, np.sqrt(noise_var), size=m_rows)
    reg_val = _problem_reg(a_mat, y, reg, reg_scale)
    inst = LassoInstance(
        a_mat=a_mat, y=y, x_true=x_true, reg=reg_val,
        k=k, m_rows=m_rows, n_cols=n_cols, noise_var=noise_var, seed=rng.seed,
    )
    prob = Problem(
        forward=least_squares_gradient(a_mat, y),
        backward=soft_threshold_resolvent(reg_val),
        dimension=n_cols,
        x0=np.zeros(n_cols),
        x1=np.zeros(n_cols),
        label=f"lasso(k={k},m={m_rows},n={n_cols},seed={rng.seed})",
    )
    return inst, prob


def gen_affine_vi(
    rng: RngStream,
    m: int,
    q: Vector | None = None,
    m_matrix: Matrix | None = None,
) -> tuple[AffineVIInstance, Problem]:
    """Affine variational inequality over the nonnegative orthant.

    Unless overridden, the matrix is ``N N^T + S + D`` with N and the
    skew part S drawn entrywise uniform on (-5, 5) (S antisymmetrized
    from a strictly upper-triangular draw) and D diagonal uniform on
    (0, 0.3); this construction is positive definite.  With ``q`` omitted
    the zero vector solves the problem and is registered as the oracle
    solution.  A diagonal ``m_matrix`` override with explicit ``q`` also
    has a closed-form solution, which is registered likewise.
    """
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if m_matrix is None:
        n_mat = uniform_matrix(rng.child(0), m, m, -5.0, 5.0)
        upper = np.triu(uniform_matrix(rng.child(1), m, m, -5.0, 5.0), k=1)
        skew = upper - upper.T
        diag = uniform_matrix(rng.child(2), 1, m, 0.0, 0.3)[0]
        m_mat = n_mat @ n_mat.T + skew + np.diag(diag)
    else:
        m_mat = np.asarray(m_matrix, dtype=float)
        if m_mat.shape != (m, m):
            raise ValueError(f"m_matrix has shape {m_mat.shape}, expected ({m}, {m})")

    if q is None:
        q_vec = np.zeros(m)
        known = np.zeros(m)
    else:
        q_vec = np.asarray(q, dtype=float)
        known = None
        off_diag = m_mat - np.diag(np.diag(m_mat))
        if m_matrix is not None and not off_diag.any() and (np.diag(m_mat) > 0).all():
            known = np.maximum(0.0, -q_vec / np.diag(m_mat))

    inst = AffineVIInstance(m_mat=m_mat, q=q_vec, m=m, seed=rng.seed)
    prob = Problem(
        forward=affine_forward(m_mat, q_vec),
        backward=projector_as_resolvent(orthant_projector(m)),
        dimension=m,
        known_solution=known,
        x0=np.ones(m),
        x1=np.ones(m),
        label=f"affine_vi(m={m},seed={rng.seed})",
    )
    return inst, prob


_L2_CASES = {
    1: (lambda t: (97.0 * t**2 + 4.0 * t) / 13.0, lambda t: (t**2 - np.exp(-7.0 * t)) / 250.0),
    2: (lambda t: (97.0 * t**2 + 4.0 * t) / 13.0, lambda t: (np.sin(3.0 * t) + np.cos(10.0 * t)) / 100.0),
    3: (lambda t: (t**2 - np.exp(-7.0 * t)) / 250.0, lambda t: (np.sin(3.0 * t) + np.cos(10.0 * t)) / 100.0),
    4: (lambda t: (np.sin(3.0 * t) + np.cos(10.0 * t)) / 100.0, lambda t: (97.0 * t**2 + 4.0 * t) / 13.0),
}


def gen_l2_vi(m: int = 200, case_id: int = 1) -> tuple[L2VIInstance, Problem]:
    """Grid discretization of the integral-constraint variational inequality.

    The forward operator is the pointwise positive part and the feasible
    set is ``{x : integral of t*x(t) over [0,1] equals 2}``, realized on a
    uniform m-point grid with composite trapezoid weights baked into every
    inner product.  The four case ids select the benchmark initial-point
    pairs.  The discrete problem has the closed-form solution
    ``x*(t) = (2 / <t, t>) * t``, which is registered as the oracle.
    """
    if m < 10:
        raise ValueError("need at least 10 grid points")
    if case_id not in _L2_CASES:
        raise ValueError(f"unknown case id {case_id}; choose one of {sorted(_L2_CASES)}")
    grid = np.linspace(0.0, 1.0, m)
    h = grid[1] - grid[0]
    weights = np.full(m, h)
    weights[0] = weights[-1] = h / 2.0
    f0, f1 = _L2_CASES[case_id]
    x0, x1 = f0(grid), f1(grid)
    b = 2.0
    gram = float(np.dot(weights * grid, grid))
    known = (b / gram) * grid
    inst = L2VIInstance(grid=grid, weights=weights, b=b, x0=x0, x1=x1, case_id=case_id)
    prob = Problem(
        forward=pointwise_max_zero(),
        backward=projector_as_resolvent(weighted_hyperplane_projector(grid, b, weights=weights)),
        dimension=m,
        known_solution=known,
        weights=weights,
        x0=x0,
        x1=x1,
        label=f"l2_vi(m={m},case={case_id})",
    )
    return inst, prob


def gen_oracle_strong(rng: RngStream, m: int, rho: float) -> Problem:
    """Strongly monotone oracle: ``A(x) = rho*x + S*x`` with random skew S.

    The skew part is antisymmetrized from a strictly upper-triangular
    uniform(-1, 1) draw scaled by ``1/sqrt(m)``; its cross term vanishes,
    so the modulus of strong monotonicity is exactly ``rho`` and the
    Lipschitz constant is exactly ``sqrt(rho^2 + ||S||^2)``.  The backward
    operator is the orthant projection and zero is the registered
    solution.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if m < 1:
        raise ValueError("dimension must be >= 1")
    upper = np.triu(rng.generator().uniform(-1.0, 1.0, (m, m)), k=1)
    skew = (upper - upper.T) / np.sqrt(m)
    s_norm = float(np.linalg.norm(skew, 2)) if m > 1 else 0.0
    fwd_mat = rho * np.eye(m) + skew
    forward = replace(
        affine_forward(fwd_mat, np.zeros(m)),
        lipschitz=float(np.sqrt(rho**2 + s_norm**2)),
        strong_monotone_modulus=float(rho),
        label=f"strong_oracle(rho={rho:g})",
    )
    return Problem(
        forward=forward,
        backward=projector_as_resolvent(orthant_projector(m)),
        dimension=m,
        known_solution=np.zeros(m),
        x0=np.ones(m),
        x1=np.ones(m),
        label=f"oracle_strong(m={m},rho={rho:g},seed={rng.seed})",
    )


def oracle_orthant_vi(q: Vector) -> Problem:
    """Closed-form orthant oracle with identity linear part.

    For ``A(x) = x + q`` over the nonnegative orthant the solution is
    ``max(0, -q)`` componentwise.
    """
    q = np.asarray(q, dtype=float)
    m = q.size
    return Problem(
        forward=affine_forward(np.eye(m), q),
        backward=projector_as_resolvent(orthant_projector(m)),
        dimension=m,
        known_solution=np.maximum(0.0, -q),
        x0=np.ones(m),
        x1=np.ones(m),
        label=f"oracle_orthant(m={m})",
    )
