"""Core value types and matrix operations for damped Markov chains.

A damped chain mixes a base transition matrix with a rank-one "teleport"
matrix whose identical rows are a damping vector d:

    P(eps) = (1 - eps) * P0 + eps * D,    D[i, j] = d[j].

Everything here is float64 and immutable; the target scale is a few thousand
states at most. Entries are held dense. Every product of a row vector with
P0, P(eps) or a class matrix goes through ``vecmat``, and :func:`trajectory`
is the one loop that steps a row vector, but for ``-coeffs[k] @ M.entries``
in ``expansion._class_series``: by the sparse product it would sum in another
order and move printed coefficients in their 12th digit. A matrix with at
most ``SPARSE_MAX_DENSITY`` of its entries nonzero (edge-list inputs have a
handful per row) also has a row-compressed view of its nonzeros: the nonzeros
of each row, in column order. An edge list's view is built from its edges at
ingest; any other matrix's, a class block's included, is scanned from its
array on first use. ``vecmat``, the class search, the stationary systems
(each adds a whole matrix, :func:`add_block`) and the matrix echo read the
view. Every view holds every entry with nonzero bits, ``-0.0`` included, so a
matrix scattered from its view is bit for bit its array. A denser matrix,
such as a CSV input, has none and keeps the dense product;
:func:`row_nonzeros` and :func:`add_block` are the places that read its array
instead. Blocks of a matrix, a closed class's or the transient states', are
gathered from its array (``P.entries[np.ix_(S, S)]``); a class block is
checked and held as its class matrix's array, with no copy
(``StochasticMatrix._of_nonzeros``).
``DampedChain.vecmat`` multiplies by P(eps) through the rank-one form

    x P(eps) = (1 - eps) x P0 + eps (x . 1) d,

so the trajectory routes never form the dense P(eps).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, ValidationError

DEFAULT_ROW_TOL = 1e-12
# Largest share of nonzero entries for which ``vecmat`` uses the sparse product.
# Measured with NumPy 2.4 and OpenBLAS on a 2-vCPU x86-64 machine at
# m = 600..2048: the sparse product costs about 8 ns per nonzero and the dense
# one about 0.2 ns per entry, so they break even near 5% nonzeros; at 1% the
# sparse one is about 5 times faster, and at 20% about 5 times slower.
SPARSE_MAX_DENSITY = 0.03


def _as_float_array(values, name, ndim, finite=True):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if finite and not np.all(np.isfinite(arr)):
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


class RowNonzeros(NamedTuple):
    """The nonzeros of a matrix, row by row and in column order within a row.

    ``counts[i]`` is row i's number of nonzeros. These are all the matrix's
    entries with nonzero bits: a ``-0.0`` is one of them.
    """

    counts: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _sparse_enough(count: int, m: int) -> bool:
    return count <= SPARSE_MAX_DENSITY * m * m


def _scan(entries: np.ndarray) -> RowNonzeros:
    """The nonzeros of ``entries``, ``-0.0`` included."""
    rows, cols = np.nonzero((entries != 0.0) | np.signbit(entries))
    return RowNonzeros(np.bincount(rows, minlength=entries.shape[0]), cols, entries[rows, cols])


def _checked_matrix(values, row_tol: float) -> np.ndarray:
    """``values`` as a float array, refused unless square, in [0, 1] and with rows summing to 1.

    The entries are read three times in all, by a minimum, a maximum and the
    row sums; the finiteness scan runs only to name a failure.
    """
    arr = _as_float_array(values, "matrix", 2, finite=False)
    in_range = bool(arr.min() >= 0.0) and bool(arr.max() <= 1.0)  # False on NaN
    if not in_range:
        _as_float_array(arr, "matrix", 2)  # a NaN or an infinity is named first
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
    if not in_range:
        raise ValidationError("matrix entries must lie in [0, 1]")
    sums = arr.sum(axis=1)
    bad = np.abs(sums - 1.0) > row_tol
    if np.any(bad):
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(f"row {i} sums to {sums[i]!r}, off by more than row_tol={row_tol}")
    return arr


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic matrix held as a dense array.

    Every entry must lie in [0, 1] and every row must sum to 1 within
    ``row_tol``. The entry array is copied, unless the package built it
    (``_of_nonzeros``), and marked read-only, so values are safe to share
    across threads. ``vecmat`` is the vector-matrix product (see the module
    docstring for the one dense product left). The row-compressed view of a
    sparse matrix (``_nonzeros``, None for a dense one) comes with the matrix
    when ingest builds it from the nonzeros it already holds, and is otherwise
    scanned from the array on first use.
    """

    entries: np.ndarray
    row_tol: float = DEFAULT_ROW_TOL

    def __post_init__(self):
        _freeze(self, "entries", _checked_matrix(self.entries, self.row_tol))

    @classmethod
    def _of_nonzeros(cls, entries: np.ndarray, nonzeros: RowNonzeros = None, row_tol: float = DEFAULT_ROW_TOL):
        """The matrix of ``entries``, an array the package built, checked as any matrix is.

        ``entries`` is taken over and marked read-only, not copied, so it must
        be an array that no caller will write. Given ``nonzeros``, which must
        be exactly the nonzeros of ``entries``, the matrix has that view;
        without it, the view is scanned on first use.
        """
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "row_tol", row_tol)
        entries = _checked_matrix(entries, row_tol)
        entries.setflags(write=False)
        object.__setattr__(matrix, "entries", entries)
        if nonzeros is not None:
            # As in ``_nonzeros``, a view's ``-0.0`` entries do not count toward its density.
            sparse = _sparse_enough(np.count_nonzero(nonzeros.values), len(entries))
            vars(matrix)["_nonzeros"] = nonzeros if sparse else None
        return matrix

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _nonzeros(self):
        """The row-compressed view, or None if the matrix is too dense for one."""
        if not _sparse_enough(np.count_nonzero(self.entries), self.dim):
            return None
        return _scan(self.entries)

    def vecmat(self, x: np.ndarray) -> np.ndarray:
        """The row vector ``x @ P``, by the sparse product when P is sparse enough."""
        nonzeros = self._nonzeros
        if nonzeros is None:
            return x @ self.entries
        return np.bincount(
            nonzeros.cols, weights=np.repeat(x, nonzeros.counts) * nonzeros.values, minlength=self.dim
        )


def row_nonzeros(P: StochasticMatrix) -> RowNonzeros:
    """The nonzeros of P, row by row: P's view, or a scan of its array when P is too dense for one."""
    nonzeros = P._nonzeros
    return _scan(P.entries) if nonzeros is None else nonzeros


def add_block(out: np.ndarray, P: StochasticMatrix, scale: float) -> None:
    """``out += scale * P``, scattered from P's nonzeros when P has a row-compressed view.

    Each entry gets the same product and sum as in the dense formula, so
    ``out`` comes out bit for bit the same whether P's nonzeros are scattered
    or, for a matrix too dense for a view, its array is added whole.
    """
    nonzeros = P._nonzeros
    if nonzeros is None:
        out += scale * P.entries
        return
    out[np.repeat(np.arange(P.dim), nonzeros.counts), nonzeros.cols] += scale * nonzeros.values


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


def trajectory(M, x: np.ndarray):
    """Yield ``x, x M, x M^2, ...``, each vector formed by ``M.vecmat`` when it is taken.

    ``M`` is a :class:`StochasticMatrix` or a :class:`DampedChain`; k + 1
    vectors cost k products, since the first is ``x`` itself.
    """
    while True:
        yield x
        x = M.vecmat(x)


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
