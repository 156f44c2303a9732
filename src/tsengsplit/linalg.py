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


def aligned_empty(shape: tuple[int, ...]) -> Matrix:
    """Uninitialized C-contiguous float64 array whose data starts on a 64-byte boundary.

    malloc aligns to 16 bytes only, so a 64-byte vector load of a matrix it
    holds may span two cache lines; no load of one stored here does.
    """
    nbytes = 8 * math.prod(shape)
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start : start + nbytes].view(np.float64).reshape(shape)


def aligned_matrix(m: Matrix) -> Matrix:
    """``m`` itself when it is C-contiguous float64 on a 64-byte boundary, else one such copy."""
    m = np.asarray(m, dtype=np.float64)
    if m.flags.c_contiguous and m.ctypes.data % 64 == 0:
        return m
    out = aligned_empty(m.shape)
    out[...] = m
    return out


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
    """A portable PCG64 stream identified by a 64-bit seed.

    Identical seeds give identical draw sequences across runs and platforms.
    ``generator()`` returns a *fresh* generator each call, so two calls with
    the same stream replay the same sequence.  Use :meth:`child` to derive
    independent streams deterministically.
    """

    seed: int

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index: int) -> "RngStream":
        derived = np.random.SeedSequence([int(self.seed), int(index)])
        return RngStream(int(derived.generate_state(1, np.uint64)[0]))


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

