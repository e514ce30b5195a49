"""Stationary distributions of damped chains and their small-epsilon limits.

Three independent routes to the stationary distribution are provided:

* ``stationary_direct`` -- solve the linear system pi P = pi, sum(pi) = 1;
* ``stationary_power``  -- iterate p <- p P until successive iterates agree;
* ``stationary_series`` -- for eps > 0, sum the geometric mixture of the
  undamped trajectory started from the damping weights:

      pi(eps)_j = eps * sum_l (d P0^l)_j (1 - eps)^l.

The series route needs no structural assumptions on P0 and is what makes the
eps -> 0 analysis tractable. ``limit_stationary`` returns the eps -> 0 limit
for both regimes, including its dependence on the initial distribution in the
singular case.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .core import DampingVector, Distribution, StochasticMatrix, build_damped_matrix, DampedChain
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    RegimeError,
    SingularSystemError,
    ValidationError,
)
from .structure import ChainStructure, Regime, class_mass, class_matrices

DEFAULT_SOLVER_TOL = 1e-10
DEFAULT_SERIES_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000


class Method(enum.Enum):
    DIRECT = "direct"
    POWER = "power"
    SERIES = "series"


@dataclass(frozen=True)
class StationarySolution:
    """Stationary distribution with provenance and achieved residual.

    ``residual`` is ``max_j |(pi P)_j - pi_j|`` recomputed after the solve;
    ``iterations_or_terms`` counts power-method steps or series terms (0 for
    the direct solver).
    """

    pi: Distribution
    method: Method
    iterations_or_terms: int
    residual: float


def _residual(pi: np.ndarray, P: np.ndarray) -> float:
    return float(np.max(np.abs(pi @ P - pi)))


def stationary_direct(P: StochasticMatrix, solver_tol: float = DEFAULT_SOLVER_TOL) -> StationarySolution:
    """Solve ``(P^T - I) pi = 0`` with the normalization row replacing the last equation.

    LU with partial pivoting; the solution is checked against ``solver_tol``.
    A residual beyond tolerance (or an exactly singular factorization) means
    the system has extra null directions -- several closed classes at
    eps = 0 -- and the caller should solve per class on the restricted
    matrices instead.
    """
    m = P.dim
    A = P.entries.T - np.eye(m)
    A[m - 1, :] = 1.0
    b = np.zeros(m)
    b[m - 1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "stationary system is singular; the matrix has several closed classes "
            "-- solve per class on structure.restrict(P0, cls)"
        ) from exc
    res = _residual(pi, P.entries)
    if not np.isfinite(res) or res > solver_tol:
        raise SingularSystemError(
            f"stationary solve residual {res:.3e} exceeds {solver_tol:.1e}; the matrix "
            "likely has several closed classes -- solve per class on structure.restrict"
        )
    return StationarySolution(Distribution(pi, P.row_tol), Method.DIRECT, 0, res)


def stationary_power(
    P: StochasticMatrix,
    p0: Distribution,
    tol: float = DEFAULT_SERIES_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> StationarySolution:
    """Power iteration from ``p0`` until successive iterates are ``tol``-close.

    Convergence is measured in total variation between successive iterates,
    which is cheap; the residual against P is recomputed for the report.
    Raises ConvergenceError carrying the last iterate when ``max_iter`` is
    exhausted.
    """
    if p0.dim != P.dim:
        raise DimensionMismatchError(f"start dim {p0.dim} != matrix dim {P.dim}")
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    prev = p0.probs
    for it in range(max_iter):
        nxt = prev @ P.entries
        if 0.5 * np.abs(nxt - prev).sum() < tol:
            res = _residual(nxt, P.entries)
            return StationarySolution(Distribution(nxt, max(P.row_tol, 1e-9)), Method.POWER, it, res)
        prev = nxt
    raise ConvergenceError(
        f"power method did not converge within {max_iter} iterations",
        last_iterate=prev,
        residual=_residual(prev, P.entries),
    )


def trajectory(d: np.ndarray, P0: np.ndarray, length: int) -> np.ndarray:
    """Rows ``d @ P0**l`` for l = 0..length-1, built by iterated products."""
    out = np.empty((length, d.shape[0]))
    v = d
    for l in range(length):
        out[l] = v
        v = v @ P0
    return out


def series_length(epsilon: float, tol: float) -> int:
    """Smallest L with ``(1 - eps)^(L + 1) < tol`` (the rigorous tail bound)."""
    if epsilon >= 1.0:
        return 0
    L = 0
    tail = 1.0 - epsilon
    while tail >= tol:
        tail *= 1.0 - epsilon
        L += 1
    return L


def stationary_series(
    P0: StochasticMatrix,
    d: DampingVector,
    epsilon: float,
    tol: float = DEFAULT_SERIES_TOL,
) -> StationarySolution:
    """Evaluate the geometric-mixture series for the damped stationary law.

    Truncates at the first L with ``(1 - eps)^(L + 1) < tol``; since every
    trajectory entry lies in [0, 1] the dropped tail is below ``tol`` per
    coordinate. The truncated sum is renormalized (its exact mass is
    ``1 - (1 - eps)^(L + 1)``), which perturbs entries by less than ``tol``.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError("series representation requires epsilon in (0, 1]")
    if P0.dim != d.dim:
        raise DimensionMismatchError(f"matrix dim {P0.dim} != damping dim {d.dim}")
    L = series_length(epsilon, tol)
    acc = np.zeros(P0.dim)
    v = d.weights
    weight = epsilon
    for _ in range(L + 1):
        acc += weight * v
        v = v @ P0.entries
        weight *= 1.0 - epsilon
    pi = acc / acc.sum()
    P_eps = build_damped_matrix(DampedChain(P0, d, epsilon))
    return StationarySolution(
        Distribution(pi, P0.row_tol), Method.SERIES, L, _residual(pi, P_eps.entries)
    )


def class_stationary(P0: StochasticMatrix, structure: ChainStructure, matrices=None) -> tuple:
    """Stationary law of each closed class, on its ``class_matrices`` matrix or ``matrices``."""
    if matrices is None:
        matrices = class_matrices(P0, structure)
    return tuple(stationary_direct(M).pi for M in matrices)


def limit_stationary(
    P0: StochasticMatrix,
    d: DampingVector,
    p: Distribution,
    structure: ChainStructure,
    pi0: tuple = None,
) -> Distribution:
    """Limit of the n-step law of the undamped chain started from ``p``.

    Regular regime: the unique stationary distribution of P0, independent of
    ``p``. Singular regime: per-class stationary distributions scaled by the
    class masses of ``p``. Called with ``p`` equal to the damping weights this
    is also the eps -> 0 limit of the damped stationary distributions. A
    caller holding the class laws from :func:`class_stationary` passes them
    as ``pi0``; otherwise they are solved here.
    """
    if structure.regime is Regime.UNSUPPORTED:
        raise RegimeError("limit distribution is only defined for regular or singular chains")
    if pi0 is None:
        pi0 = class_stationary(P0, structure)
    if structure.regime is Regime.REGULAR:
        return pi0[0]
    masses = class_mass(p, structure)
    out = np.zeros(P0.dim)
    for j, cls in enumerate(structure.classes):
        out[list(cls.states)] = masses[j] * pi0[j].probs
    return Distribution(out, max(P0.row_tol, 1e-10))
