"""Stationary distributions of damped chains and their small-epsilon limits.

Three independent routes to the stationary distribution are provided:

* ``stationary_direct`` -- solve the linear system pi P = pi, sum(pi) = 1;
* ``stationary_power``  -- iterate p <- p P until successive iterates agree;
* ``stationary_series`` -- for eps > 0, sum the geometric mixture of the
  undamped trajectory started from the damping weights:

      pi(eps)_j = eps * sum_l (d P0^l)_j (1 - eps)^l.

The series route needs no structural assumptions on P0 and is what makes the
eps -> 0 analysis tractable. ``series_sums`` serves a whole eps grid from one
walk of ``d P0^l``, to the longest series length on the grid, adding each step
into one accumulator row per eps; ``stationary_series`` is its one-eps case.

The power and series routes and every residual only push row vectors through
P0 or P(eps), by ``vecmat`` (sparse for sparse P0, and the rank-one form for
P(eps)); none of them builds the dense P(eps). The direct route, the one that
does not depend on the structure of P0, factors the dense system assembled in
place from P0 and d.

``limit_stationary`` returns the eps -> 0 limit for both regimes, including
its dependence on the initial distribution in the singular case. It reads
the class laws from the structure (``ChainStructure.laws``), which solves
each closed class once with ``stationary_direct``.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .core import DampedChain, DampingVector, Distribution, StochasticMatrix, require_dim
from .errors import (
    ConvergenceError,
    SingularSystemError,
    ValidationError,
)
from .structure import ChainStructure, Regime, class_mass

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


def require_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not a positive number."""
    if not tol > 0:
        raise ValidationError("tolerance must be positive")


def _residual(pi: np.ndarray, P) -> float:
    return float(np.max(np.abs(P.vecmat(pi) - pi)))


def _direct_system(P) -> np.ndarray:
    """``P^T - I`` with the normalization row of ones in place of the last equation.

    For a :class:`DampedChain` the system ``(1 - eps) P0^T + eps d 1^T - I`` is
    assembled in one m x m buffer, without forming P(eps) on its own.
    """
    if isinstance(P, DampedChain):
        A = (1.0 - P.epsilon) * P.p0.entries.T
        A += P.epsilon * P.damping.weights[:, np.newaxis]
    else:
        A = P.entries.T.copy()
    m = P.dim
    A[np.arange(m), np.arange(m)] -= 1.0
    A[m - 1, :] = 1.0
    return A


def stationary_direct(P, solver_tol: float = DEFAULT_SOLVER_TOL) -> StationarySolution:
    """Solve ``(P^T - I) pi = 0`` with the normalization row replacing the last equation.

    ``P`` is a :class:`StochasticMatrix` or a :class:`DampedChain`, whose
    P(eps) enters only through the system matrix. LU with partial pivoting;
    the solution is checked against ``solver_tol``.
    A residual beyond tolerance (or an exactly singular factorization) means
    the system has extra null directions -- several closed classes at
    eps = 0 -- and the caller should solve per class on the restricted
    matrices instead.
    """
    m = P.dim
    b = np.zeros(m)
    b[m - 1] = 1.0
    try:
        pi = np.linalg.solve(_direct_system(P), b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "stationary system is singular; the matrix has several closed classes "
            "-- solve per class on structure.restrict(P0, cls)"
        ) from exc
    res = _residual(pi, P)
    if not np.isfinite(res) or res > solver_tol:
        raise SingularSystemError(
            f"stationary solve residual {res:.3e} exceeds {solver_tol:.1e}; the matrix "
            "likely has several closed classes -- solve per class on structure.restrict"
        )
    return StationarySolution(Distribution(pi, P.row_tol), Method.DIRECT, 0, res)


def stationary_power(
    P,
    p0: Distribution,
    tol: float = DEFAULT_SERIES_TOL,
) -> StationarySolution:
    """Power iteration from ``p0`` until successive iterates are ``tol``-close.

    ``P`` is a :class:`StochasticMatrix` or a :class:`DampedChain`; each step
    is one ``P.vecmat`` product, the rank-one form for a damped chain.
    Convergence is measured in total variation between successive iterates,
    which is cheap; the residual against P is recomputed for the report.
    Raises ConvergenceError carrying the last iterate after
    ``DEFAULT_MAX_ITER`` steps.
    """
    require_dim("start", p0.dim, P.dim)
    require_tolerance(tol)
    prev = p0.probs
    for it in range(DEFAULT_MAX_ITER):
        nxt = P.vecmat(prev)
        if 0.5 * np.abs(nxt - prev).sum() < tol:
            res = _residual(nxt, P)
            return StationarySolution(Distribution(nxt, max(P.row_tol, 1e-9)), Method.POWER, it, res)
        prev = nxt
    raise ConvergenceError(
        f"power method did not converge within {DEFAULT_MAX_ITER} iterations",
        last_iterate=prev,
        residual=_residual(prev, P),
    )


def series_length(epsilon: float, tol: float) -> int:
    """Smallest L with ``(1 - eps)^(L + 1) < tol`` (the rigorous tail bound)."""
    require_tolerance(tol)
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError("series representation requires epsilon in (0, 1]")
    if 1.0 - epsilon == 1.0:
        # (1 - eps) rounds to 1, so the tail never shrinks below tol.
        raise ValidationError(
            f"epsilon {epsilon} is too small for the series: 1 - eps rounds to 1; "
            "use the direct route (stationary_direct)"
        )
    L = 0
    tail = 1.0 - epsilon
    while tail >= tol:
        tail *= 1.0 - epsilon
        L += 1
    return L


@dataclass(frozen=True)
class SeriesSums:
    """Truncated series ``eps * sum_{l <= L} (1 - eps)^l d P0^l``, one row per epsilon.

    ``lengths[k]`` is the L of ``epsilons[k]`` at truncation tolerance ``tol``;
    ``sums[k]`` is its sum, before renormalization.
    """

    epsilons: tuple
    tol: float
    lengths: tuple
    sums: np.ndarray


def series_sums(
    P0: StochasticMatrix,
    d: DampingVector,
    epsilons,
    tol: float = DEFAULT_SERIES_TOL,
) -> SeriesSums:
    """Sum the series for every epsilon of a grid from one walk of ``d P0^l``.

    The walk runs to the longest series length on the grid, max L products by
    P0, and adds each step into every row whose series is still open, so the
    memory is one row per epsilon whatever the walk's length.
    """
    require_dim("damping", d.dim, P0.dim)
    epsilons = tuple(float(eps) for eps in epsilons)
    lengths = tuple(series_length(eps, tol) for eps in epsilons)
    open_until = np.array(lengths)
    decay = 1.0 - np.array(epsilons)
    weights = np.array(epsilons)
    sums = np.zeros((len(epsilons), P0.dim))
    v = d.weights
    for l in range(max(lengths, default=-1) + 1):
        if l > 0:
            v = P0.vecmat(v)
        sums += weights[:, np.newaxis] * v
        weights = np.where(open_until > l, weights * decay, 0.0)
    return SeriesSums(epsilons, tol, lengths, sums)


def stationary_series(
    P0: StochasticMatrix,
    d: DampingVector,
    epsilon: float,
    tol: float = DEFAULT_SERIES_TOL,
    sums: SeriesSums = None,
) -> StationarySolution:
    """Evaluate the geometric-mixture series for the damped stationary law.

    Truncates at the first L with ``(1 - eps)^(L + 1) < tol``; since every
    trajectory entry lies in [0, 1] the dropped tail is below ``tol`` per
    coordinate. The truncated sum is renormalized (its exact mass is
    ``1 - (1 - eps)^(L + 1)``), which perturbs entries by less than ``tol``.
    This is the one-epsilon case of :func:`series_sums`; a caller solving a
    grid passes the ``sums`` of one walk over it, made with the same ``tol``.
    """
    if sums is None:
        sums = series_sums(P0, d, (epsilon,), tol)
    if sums.tol != tol:
        raise ValidationError(f"series sums were made with tol {sums.tol}, not {tol}")
    if epsilon not in sums.epsilons:
        raise ValidationError(f"epsilon {epsilon} is not on the grid of the series sums")
    k = sums.epsilons.index(epsilon)
    pi = sums.sums[k] / sums.sums[k].sum()
    residual = _residual(pi, DampedChain(P0, d, epsilon))
    return StationarySolution(Distribution(pi, P0.row_tol), Method.SERIES, sums.lengths[k], residual)


def limit_stationary(structure: ChainStructure, p: Distribution) -> Distribution:
    """Limit of the n-step law of the undamped chain ``structure.P0`` started from ``p``.

    Regular regime: the unique stationary distribution of P0, independent of
    ``p``. Singular regime: per-class stationary distributions scaled by the
    class masses of ``p``. Called with ``p`` equal to the damping weights this
    is also the eps -> 0 limit of the damped stationary distributions. The
    class laws are ``structure.laws``, solved once per structure; an
    unsupported chain is refused by their gate, ``require_classes``.
    """
    require_dim("start", p.dim, structure.P0.dim)
    laws = structure.laws
    if structure.regime is Regime.REGULAR:
        return laws[0]
    out = np.zeros(structure.P0.dim)
    for cls, mass, law in zip(structure.classes, class_mass(p, structure), laws):
        out[list(cls.states)] = mass * law.probs
    return Distribution(out, max(structure.P0.row_tol, 1e-10))
