"""Catalog of forward operators and resolvents.

A monotone inclusion ``0 in (A + B)x`` is described to the solver by a
single-valued forward operator ``A`` and the resolvent of the set-valued
part ``B``, i.e. the map ``x -> (I + lam*B)^{-1} x``.  Variational
inequalities over a closed convex set are the special case where ``B`` is
the set's normal cone, whose resolvent is the metric projection onto the
set for every ``lam``: the orthant and hyperplane projections are built
as :class:`Resolvent` objects that ignore ``lam``.

Operators are immutable after construction and evaluation is pure, so
they are safe to share between concurrent solver runs.  Lipschitz and
strong-monotonicity metadata are optional, computed on first read and
read by the validators only; the solver itself never needs them.  Every
built-in map and problem builder declares its metadata this way, so
building an instance runs no SVD or eigenvalue solve.

A forward map that multiplies by a dense matrix keeps it C-contiguous and
starting on a 64-byte boundary (``linalg.aligned_matrix``), so no vector
load of the matrix spans two cache lines whatever address malloc gave the
caller's array.  The values, and so the products, are the same bits.

The affine map calls ``ndarray.dot``, which runs the same BLAS gemv as
``@`` without matmul's dispatch, about 1 us less per call at 50x50.  A
1x1 ``M`` with a zero ``q`` keeps ``@``: dot takes a one-entry vector for
a scalar and multiplies by it, so a ``-0.0`` product stays ``-0.0`` where
gemv's sum from ``+0.0`` reads ``0.0``.  The least-squares map keeps
``@``: no gain from dot was measured on it.  The positive parts take the
maximum against one read-only 0-d float64 zero, which NumPy takes as it
is, not the Python float ``0.0``, which it converts on every call; the
same float64 loop runs on the same values.  Both rest on float64
vectors: under NumPy 2's promotion rules the 0-d zero widens a float32
vector that ``0.0`` would leave float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .linalg import (
    DimensionMismatchError,
    Matrix,
    Vector,
    aligned_matrix,
    inner,
)

# the one zero the positive parts take the maximum against; read-only, so shared safely
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


@dataclass(frozen=True)
class ForwardOperator:
    """Single-valued map with optional regularity metadata.

    ``lipschitz`` and ``strong_monotone_modulus`` are cached properties:
    each calls its ``estimators`` entry on first read, and reads ``None``
    ("unknown", never "zero") without one.  A known value is an entry that
    returns it, as in ``{"lipschitz": lambda: 1.0}``.  ``repr``, ``==``,
    ``hash`` and ``dataclasses.replace`` see only ``fn``, so costly
    estimates are paid for by the validators that read them and nothing else.
    """

    fn: Callable[[Vector], Vector]
    estimators: Mapping[str, Callable[[], float]] = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, x: Vector) -> Vector:
        return self.fn(x)

    @cached_property
    def lipschitz(self) -> float | None:
        return self.estimators.get("lipschitz", lambda: None)()

    @cached_property
    def strong_monotone_modulus(self) -> float | None:
        return self.estimators.get("strong_monotone_modulus", lambda: None)()


@dataclass(frozen=True)
class Resolvent:
    """Parameterized backward map ``(x, lam) -> (I + lam*B)^{-1} x``."""

    fn: Callable[[Vector, float], Vector]

    def __call__(self, x: Vector, lam: float) -> Vector:
        return self.fn(x, lam)


def affine_forward(m_mat: Matrix, q: Vector) -> ForwardOperator:
    """Affine map ``x -> M x + q``, evaluated as ``M x`` when ``q`` is zero.

    The Lipschitz field is the spectral norm of ``M``, its largest singular
    value by LAPACK's SVD (``np.linalg.norm(M, 2)``): correct to rounding of
    order ``n * eps`` relative, either way, so not a certified upper bound.
    The strong-monotonicity modulus is the smallest eigenvalue of the
    symmetric part ``(M + M^T)/2`` by ``eigvalsh``, clipped at 0: its
    rounding, either way, is of order ``n * eps`` times that part's norm,
    not times the modulus, so a map that is not strongly monotone may read
    a small positive modulus.  Both are computed on first read.
    ``M`` is kept as given when it is C-contiguous on a 64-byte boundary,
    else as one aligned copy; the map and both values use that array.
    """
    m_mat = aligned_matrix(m_mat)
    q = np.asarray(q, dtype=np.float64)
    if m_mat.ndim != 2 or m_mat.shape[0] != m_mat.shape[1]:
        raise DimensionMismatchError(f"M must be square, got shape {m_mat.shape}")
    if q.shape != (m_mat.shape[0],):
        raise DimensionMismatchError(f"q has shape {q.shape}, expected ({m_mat.shape[0]},)")
    return ForwardOperator(
        # adding a zero q could only turn a -0.0 into 0.0; a nonzero q erases
        # the sign dot keeps on a 1x1 M's zero product (module docstring)
        fn=(lambda x: m_mat.dot(x) + q) if q.any() else (m_mat.dot if m_mat.shape[0] > 1 else m_mat.__matmul__),
        estimators={
            "lipschitz": lambda: float(np.linalg.norm(m_mat, 2)),
            "strong_monotone_modulus": lambda: max(0.0, float(np.linalg.eigvalsh(0.5 * (m_mat + m_mat.T))[0])),
        },
    )


def least_squares_gradient(a_mat: Matrix, y: Vector) -> ForwardOperator:
    """Gradient ``x -> A^T (A x - y)`` of the least-squares loss ``0.5*||Ax - y||^2``.

    The Lipschitz field, the squared spectral norm of ``A`` by LAPACK's SVD
    (``np.linalg.norm(A, 2) ** 2``, correct to rounding as in
    :func:`affine_forward`), is computed on first read.  ``A`` is kept as given
    when it is C-contiguous on a 64-byte boundary, else as one aligned copy;
    the map and the norm use that array.
    """
    a_mat = aligned_matrix(a_mat)
    y = np.asarray(y, dtype=np.float64)
    if a_mat.ndim != 2:
        raise DimensionMismatchError("A must be a matrix")
    if y.shape != (a_mat.shape[0],):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({a_mat.shape[0]},)")
    return ForwardOperator(
        fn=lambda x: a_mat.T @ (a_mat @ x - y),
        estimators={"lipschitz": lambda: float(np.linalg.norm(a_mat, 2)) ** 2},
    )


def pointwise_max_zero() -> ForwardOperator:
    """Coordinatewise positive part ``x -> max(x, 0)``; 1-Lipschitz, monotone.

    Not strongly monotone, so that modulus is deliberately left undeclared.
    """
    return ForwardOperator(fn=lambda x: np.maximum(x, _ZERO), estimators={"lipschitz": lambda: 1.0})


def soft_threshold_resolvent(rho: float) -> Resolvent:
    """Resolvent of the scaled l1 subdifferential: coordinatewise shrinkage.

    ``eval(x, lam)_i = sign(x_i) * max(|x_i| - lam*rho, 0)``.
    """
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")

    def fn(x: Vector, lam: float) -> Vector:
        if not lam > 0:
            raise ValueError(f"resolvent parameter must be positive, got {lam}")
        return np.sign(x) * np.maximum(np.abs(x) - lam * rho, _ZERO)

    return Resolvent(fn=fn)


def orthant_resolvent() -> Resolvent:
    """Projection onto the nonnegative orthant, the resolvent of its normal cone."""
    return Resolvent(fn=lambda x, lam: np.maximum(x, _ZERO))


def hyperplane_resolvent(w: Vector, b: float, weights: Vector | None = None) -> Resolvent:
    """Projection onto the hyperplane ``{x : <w, x> = b}``, the resolvent of its normal cone.

    With a positive ``weights`` vector the inner products (and hence the
    projection geometry) are quadrature-weighted; this realizes the
    projection onto a linear integral constraint for grid-sampled
    functions.  The returned map restores ``<w, J(x, lam)> = b`` exactly
    up to roundoff, whatever ``lam``.
    """
    w = np.asarray(w, dtype=np.float64)
    gram = inner(w, w, weights)
    if gram <= 0.0:
        raise ValueError("weight vector of the hyperplane must be nonzero")
    return Resolvent(fn=lambda x, lam: x - ((inner(w, x, weights) - b) / gram) * w)
