"""Core value types and matrix operations for damped Markov chains.

A damped chain mixes a base transition matrix with a rank-one "teleport"
matrix whose identical rows are a damping vector d:

    P(eps) = (1 - eps) * P0 + eps * D,    D[i, j] = d[j].

Everything here is float64 and immutable; the target scale is a few thousand
states at most. Entries are held dense, and every vector-matrix product goes
through ``StochasticMatrix.vecmat``. On a matrix with at most
``SPARSE_MAX_DENSITY`` of its entries nonzero (edge-list inputs have a handful
per row) that product reads a row-compressed view of the nonzeros, built on
first use; a denser matrix, such as a CSV input, keeps the dense product.
``DampedChain.vecmat`` multiplies by P(eps) through the rank-one form

    x P(eps) = (1 - eps) x P0 + eps (x . 1) d,

so the trajectory routes never form the dense P(eps).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError

DEFAULT_ROW_TOL = 1e-12
# Largest share of nonzero entries for which ``vecmat`` uses the sparse product.
# Measured with NumPy 2.4 and OpenBLAS on a 2-vCPU x86-64 machine at
# m = 600..2048: the sparse product costs about 8 ns per nonzero and the dense
# one about 0.2 ns per entry, so they break even near 5% nonzeros; at 1% the
# sparse one is about 5 times faster, and at 20% about 5 times slower.
SPARSE_MAX_DENSITY = 0.03


def _as_float_array(values, name, ndim):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return arr


def require_epsilon(epsilon: float) -> None:
    """Refuse a damping weight outside [0, 1]."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon}")


def require_dim(name: str, dim: int, matrix_dim: int) -> None:
    """Refuse a ``name`` vector whose dimension is not the matrix's."""
    if dim != matrix_dim:
        raise DimensionMismatchError(f"{name} dim {dim} != matrix dim {matrix_dim}")


def _freeze(obj, field, arr):
    arr = arr.copy()
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic matrix held as a dense array.

    Every entry must lie in [0, 1] and every row must sum to 1 within
    ``row_tol``. The entry array is copied and marked read-only, so values
    are safe to share across threads. ``vecmat`` is the one vector-matrix
    product; the sparse view it may use is built on its first call.
    """

    entries: np.ndarray
    row_tol: float = DEFAULT_ROW_TOL

    def __post_init__(self):
        arr = _as_float_array(self.entries, "matrix", 2)
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {arr.shape}")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValidationError("matrix entries must lie in [0, 1]")
        sums = arr.sum(axis=1)
        bad = np.abs(sums - 1.0) > self.row_tol
        if np.any(bad):
            i = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(
                f"row {i} sums to {sums[i]!r}, off by more than row_tol={self.row_tol}"
            )
        _freeze(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _nonzeros(self):
        """Row-compressed nonzeros (count per row, column ids, values), or None if too dense."""
        m = self.dim
        if np.count_nonzero(self.entries) > SPARSE_MAX_DENSITY * m * m:
            return None
        rows, cols = np.nonzero(self.entries)
        return np.bincount(rows, minlength=m), cols, self.entries[rows, cols]

    def vecmat(self, x: np.ndarray) -> np.ndarray:
        """The row vector ``x @ P``, by the sparse product when P is sparse enough."""
        nonzeros = self._nonzeros
        if nonzeros is None:
            return x @ self.entries
        counts, cols, values = nonzeros
        return np.bincount(cols, weights=np.repeat(x, counts) * values, minlength=self.dim)


@dataclass(frozen=True)
class DampingVector:
    """Strictly positive probability weights of the rank-one damping matrix."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.weights, "damping vector", 1)
        if np.any(arr <= 0.0):
            raise ValidationError("damping weights must be strictly positive")
        if abs(arr.sum() - 1.0) > DEFAULT_ROW_TOL:
            raise ValidationError(f"damping weights sum to {arr.sum()!r}, expected 1")
        _freeze(self, "weights", arr)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def uniform(cls, dim: int) -> "DampingVector":
        return cls(np.full(dim, 1.0 / dim))

    def as_distribution(self) -> "Distribution":
        return Distribution(self.weights)


@dataclass(frozen=True)
class Distribution:
    """Probability vector over states; zero entries are allowed.

    Entries within ``row_tol`` below zero are clipped to zero so that exact
    linear-algebra output (which may carry -1e-17 noise) validates cleanly.
    """

    probs: np.ndarray
    row_tol: float = DEFAULT_ROW_TOL

    def __post_init__(self):
        arr = _as_float_array(self.probs, "distribution", 1)
        if np.any(arr < -self.row_tol) or np.any(arr > 1.0 + self.row_tol):
            raise ValidationError("distribution entries must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > self.row_tol:
            raise ValidationError(f"distribution sums to {arr.sum()!r}, expected 1")
        arr = np.clip(arr, 0.0, 1.0)
        _freeze(self, "probs", arr)

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, dim: int) -> "Distribution":
        return cls(np.full(dim, 1.0 / dim))

    @classmethod
    def point_mass(cls, dim: int, state: int) -> "Distribution":
        if not 0 <= state < dim:
            raise ValidationError(f"state {state} outside 0..{dim - 1}")
        probs = np.zeros(dim)
        probs[state] = 1.0
        return cls(probs)


@dataclass(frozen=True)
class DampedChain:
    """Base matrix, damping vector and mixing weight epsilon in [0, 1]."""

    p0: StochasticMatrix
    damping: DampingVector
    epsilon: float

    def __post_init__(self):
        require_dim("damping", self.damping.dim, self.p0.dim)
        require_epsilon(self.epsilon)

    @property
    def dim(self) -> int:
        return self.p0.dim

    @property
    def row_tol(self) -> float:
        return self.p0.row_tol

    def vecmat(self, x: np.ndarray) -> np.ndarray:
        """The row vector ``x @ P(eps)`` by the rank-one form; P(eps) is not built."""
        eps = self.epsilon
        return (1.0 - eps) * self.p0.vecmat(x) + (eps * x.sum()) * self.damping.weights


def build_damped_matrix(chain: DampedChain) -> StochasticMatrix:
    """Mix the base matrix with the damping matrix.

    Parameters
    ----------
    chain : DampedChain
        Base matrix P0, damping weights d and mixing weight epsilon.

    Returns
    -------
    StochasticMatrix
        Matrix with entries ``(1 - eps) * P0[i, j] + eps * d[j]``.
    """
    eps = chain.epsilon
    entries = (1.0 - eps) * chain.p0.entries + eps * chain.damping.weights[np.newaxis, :]
    return StochasticMatrix(entries, chain.p0.row_tol)


def matrix_power(P: StochasticMatrix, n: int) -> StochasticMatrix:
    """n-step transition matrix P**n via repeated squaring.

    ``n = 0`` yields the identity. The result is validated with tolerance
    ``n * row_tol`` to absorb accumulated rounding.
    """
    if n < 0:
        raise ValidationError(f"power must be non-negative, got {n}")
    result = np.linalg.matrix_power(P.entries, n)
    return StochasticMatrix(result, max(1, n) * P.row_tol)


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance ``0.5 * sum |p_k - q_k|`` in [0, 1]."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dims differ: {p.dim} vs {q.dim}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())
