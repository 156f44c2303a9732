"""Dense vector arithmetic, inner products, and seeded random generation.

Vectors are 1-D ``float64`` numpy arrays, matrices are dense 2-D arrays.
Every operation here is a pure function of its inputs: binary operations
require equal dimensions and no NaN/Inf ever escapes without an error.

An optional positive weight vector turns the Euclidean inner product into
a quadrature-weighted one; the discretized function-space problems use
this to approximate integrals on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


class DimensionMismatchError(ValueError):
    """Binary operation on vectors of unequal dimension."""


class NonFiniteError(FloatingPointError):
    """An operation produced (or received) NaN or infinity."""


def as_vector(x, *, name: str = "vector") -> Vector:
    """Coerce ``x`` to a finite 1-D float64 array, copying if needed."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"{name} must be 1-D with at least one entry, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


def _check_same_dim(a: Vector, b: Vector) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def inner(a: Vector, b: Vector, weights: Vector | None = None) -> float:
    """Inner product ``sum_i a_i b_i`` (or ``sum_i w_i a_i b_i`` when weighted)."""
    _check_same_dim(a, b)
    if weights is None:
        out = float(np.dot(a, b))
    else:
        _check_same_dim(a, weights)
        out = float(np.dot(a * weights, b))
    if not np.isfinite(out):
        raise NonFiniteError("inner product is not finite")
    return out


def norm(a: Vector, weights: Vector | None = None) -> float:
    """Norm induced by :func:`inner`; nonnegative, zero only for the zero vector.

    The unweighted branch is ``sqrt(a.dot(a))``, which is exactly what
    ``numpy.linalg.norm`` computes for a 1-D float64 array, without its
    per-call dispatch.
    """
    if weights is None:
        out = math.sqrt(a.dot(a))
    else:
        _check_same_dim(a, weights)
        out = float(np.sqrt(np.dot(a * a, weights)))
    if not math.isfinite(out):
        raise NonFiniteError("norm is not finite")
    return out


@dataclass(frozen=True)
class RngStream:
    """A named, portable PRNG stream identified by a 64-bit seed.

    Identical seeds give identical draw sequences across runs and platforms.
    ``generator()`` returns a *fresh* generator each call, so two calls with
    the same stream replay the same sequence.  Use :meth:`child` to derive
    independent streams deterministically.
    """

    seed: int
    algorithm: str = "pcg64"

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.algorithm != "pcg64":
            raise ValueError(f"unsupported PRNG algorithm: {self.algorithm!r}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index: int) -> "RngStream":
        derived = np.random.SeedSequence([int(self.seed), int(index)])
        return RngStream(int(derived.generate_state(1, np.uint64)[0]), self.algorithm)


def uniform_matrix(rng: RngStream, rows: int, cols: int, lo: float, hi: float) -> Matrix:
    """Matrix with i.i.d. entries uniform on the open interval ``(lo, hi)``.

    Reproducible: the same stream always yields the same matrix.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if not lo < hi:
        raise ValueError(f"invalid bounds: need lo < hi, got ({lo}, {hi})")
    gen = rng.generator()
    m = lo + (hi - lo) * gen.random((rows, cols))
    # gen.random covers [0, 1); redraw the (measure-zero) boundary hits
    bad = (m <= lo) | (m >= hi)
    while bad.any():
        m[bad] = lo + (hi - lo) * gen.random(int(bad.sum()))
        bad = (m <= lo) | (m >= hi)
    return m


def spectral_norm_estimate(m: Matrix, steps: int = 100) -> float:
    """Largest-singular-value estimate of ``m`` by power iteration.

    Deterministic start vector; the result is an estimate (typically a
    slight underestimate), not a certified bound.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError("spectral_norm_estimate expects a matrix")
    v = np.ones(m.shape[1])
    v[:: 2] += 0.5  # break symmetry against alternating-sign top vectors
    v /= np.linalg.norm(v)
    for _ in range(steps):
        w = m.T @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(m @ v))
