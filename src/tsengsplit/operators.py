"""Catalog of forward operators, resolvents, and convex-set projectors.

A monotone inclusion ``0 in (A + B)x`` is described to the solver by a
single-valued forward operator ``A`` and the resolvent of the set-valued
part ``B``, i.e. the map ``x -> (I + lam*B)^{-1} x``.  Variational
inequalities over a closed convex set are the special case where the
resolvent is the metric projection onto the set.

Operators are immutable after construction and evaluation is pure, so
they are safe to share between concurrent solver runs.  Lipschitz and
strong-monotonicity metadata are optional estimates used by validators
and certificates only; the solver itself never needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .linalg import (
    DimensionMismatchError,
    Matrix,
    Vector,
    inner,
    norm,
    spectral_norm_estimate,
)


class _Metadata:
    """A metadata field of :class:`ForwardOperator` that may be estimated lazily.

    A value given at construction is returned as is.  Left ``None``, the
    field is computed on first read by the operator's ``estimators`` entry
    of the same name, if any, and cached; without one it stays ``None``.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, op, owner=None):
        if op is None:
            return None  # the dataclass default
        values = op.__dict__
        if self.name not in values:
            estimate = op.estimators.get(self.name)
            values[self.name] = None if estimate is None else estimate()
        return values[self.name]

    def __set__(self, op, value):
        # runs once, from the dataclass __init__; the frozen __setattr__
        # rejects later assignments before they get here
        if value is not None:
            op.__dict__[self.name] = value


@dataclass(frozen=True)
class ForwardOperator:
    """Single-valued map with optional regularity metadata.

    ``lipschitz`` and ``strong_monotone_modulus`` are declarations about
    the map; leaving them ``None`` means "unknown", never "zero".  ``estimators`` maps either
    field name to a callable that computes it on first read, so costly
    estimates are only paid for by the validators that ask for them.
    """

    fn: Callable[[Vector], Vector]
    lipschitz: float | None = _Metadata()
    strong_monotone_modulus: float | None = _Metadata()
    label: str = ""
    estimators: Mapping[str, Callable[[], float]] = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, x: Vector) -> Vector:
        return self.fn(x)


@dataclass(frozen=True)
class Resolvent:
    """Parameterized backward map ``(x, lam) -> (I + lam*B)^{-1} x``."""

    fn: Callable[[Vector, float], Vector]
    label: str = ""

    def __call__(self, x: Vector, lam: float) -> Vector:
        return self.fn(x, lam)


@dataclass(frozen=True)
class ConvexSetProjector:
    """Metric projection onto a closed convex set plus a membership residual."""

    project: Callable[[Vector], Vector]
    membership_residual: Callable[[Vector], float]
    label: str = ""


def affine_forward(m_mat: Matrix, q: Vector) -> ForwardOperator:
    """Affine map ``x -> M x + q``.

    The Lipschitz field is a spectral-norm estimate of ``M`` (100 power
    iterations); the strong-monotonicity modulus is the clipped smallest
    eigenvalue of the symmetric part.  Both are computed on first read.
    """
    m_mat = np.asarray(m_mat, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if m_mat.ndim != 2 or m_mat.shape[0] != m_mat.shape[1]:
        raise DimensionMismatchError(f"M must be square, got shape {m_mat.shape}")
    if q.shape != (m_mat.shape[0],):
        raise DimensionMismatchError(f"q has shape {q.shape}, expected ({m_mat.shape[0]},)")
    return ForwardOperator(
        fn=lambda x: m_mat @ x + q,
        label="affine",
        estimators={
            "lipschitz": lambda: spectral_norm_estimate(m_mat, steps=100),
            "strong_monotone_modulus": lambda: max(0.0, float(np.linalg.eigvalsh(0.5 * (m_mat + m_mat.T))[0])),
        },
    )


def least_squares_gradient(a_mat: Matrix, y: Vector) -> ForwardOperator:
    """Gradient ``x -> A^T (A x - y)`` of the least-squares loss ``0.5*||Ax - y||^2``.

    The Lipschitz field, the squared spectral-norm estimate of ``A`` (100
    power iterations), is computed on first read.
    """
    a_mat = np.asarray(a_mat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if a_mat.ndim != 2:
        raise DimensionMismatchError("A must be a matrix")
    if y.shape != (a_mat.shape[0],):
        raise DimensionMismatchError(f"y has shape {y.shape}, expected ({a_mat.shape[0]},)")
    return ForwardOperator(
        fn=lambda x: a_mat.T @ (a_mat @ x - y),
        label="least_squares_gradient",
        estimators={"lipschitz": lambda: spectral_norm_estimate(a_mat, steps=100) ** 2},
    )


def pointwise_max_zero() -> ForwardOperator:
    """Coordinatewise positive part ``x -> max(x, 0)``; 1-Lipschitz, monotone.

    Not strongly monotone, so that modulus is deliberately left undeclared.
    """
    return ForwardOperator(
        fn=lambda x: np.maximum(x, 0.0),
        lipschitz=1.0,
        label="pointwise_max_zero",
    )


def soft_threshold_resolvent(rho: float) -> Resolvent:
    """Resolvent of the scaled l1 subdifferential: coordinatewise shrinkage.

    ``eval(x, lam)_i = sign(x_i) * max(|x_i| - lam*rho, 0)``.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")

    def fn(x: Vector, lam: float) -> Vector:
        if not lam > 0:
            raise ValueError(f"resolvent parameter must be positive, got {lam}")
        return np.sign(x) * np.maximum(np.abs(x) - lam * rho, 0.0)

    return Resolvent(fn=fn, label=f"soft_threshold(rho={rho:g})")


def orthant_projector(m: int) -> ConvexSetProjector:
    """Projection onto the nonnegative orthant of dimension ``m``."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    return ConvexSetProjector(
        project=lambda x: np.maximum(x, 0.0),
        membership_residual=lambda x: norm(np.minimum(x, 0.0)),
        label=f"orthant(m={m})",
    )


def weighted_hyperplane_projector(
    w: Vector, b: float, weights: Vector | None = None
) -> ConvexSetProjector:
    """Projection onto the hyperplane ``{x : <w, x> = b}``.

    With a positive ``weights`` vector the inner products (and hence the
    projection geometry) are quadrature-weighted; this realizes the
    projection onto a linear integral constraint for grid-sampled
    functions.  The returned map restores ``<w, project(x)> = b`` exactly
    up to roundoff.
    """
    w = np.asarray(w, dtype=np.float64)
    gram = inner(w, w, weights)
    if gram <= 0.0:
        raise ValueError("weight vector of the hyperplane must be nonzero")

    def project(x: Vector) -> Vector:
        return x - ((inner(w, x, weights) - b) / gram) * w

    return ConvexSetProjector(
        project=project,
        membership_residual=lambda x: abs(inner(w, x, weights) - b),
        label=f"hyperplane(b={b:g})",
    )


def projector_as_resolvent(p: ConvexSetProjector) -> Resolvent:
    """Resolvent of the normal cone of a convex set: the projection itself.

    Independent of the resolvent parameter, which is exactly what makes
    the inclusion solver cover variational inequalities.
    """
    return Resolvent(fn=lambda x, lam: p.project(x), label=f"normal_cone[{p.label}]")
