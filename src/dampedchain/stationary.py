"""Stationary distributions of damped chains and their small-epsilon limits.

Three independent routes to the stationary distribution are provided:

* ``stationary_direct`` -- solve the linear system pi P = pi, sum(pi) = 1,
  for P(eps) with eps > 0 one closed class of P0 at a time;
* ``stationary_power``  -- iterate p <- p P until successive iterates agree;
* ``stationary_series`` -- for eps > 0, sum the geometric mixture of the
  undamped trajectory started from the damping weights:

      pi(eps)_j = eps * sum_l (d P0^l)_j (1 - eps)^l.

The series route needs no structural assumptions on P0 and is what makes the
eps -> 0 analysis tractable. ``series_sums`` returns the series solution at
every eps of a grid from one walk of ``d P0^l``, to the longest series length
on the grid, adding each step into one accumulator row per eps;
``stationary_series`` is its one-eps case.

The power and series routes and every residual only push row vectors through
P0 or P(eps), by ``vecmat`` (sparse for sparse P0, and the rank-one form for
P(eps)); none of them builds the dense P(eps), and neither reads the structure
of P0. The direct route factors dense systems assembled in place from a
matrix and d, from its nonzeros when it has a row-compressed view; a class
system reads its class matrix (``ChainStructure.matrices``), gathered once
per matrix, and the transient system P0's transient block, gathered from its
array. For eps > 0 it solves P(eps) by stochastic complementation (C. D. Meyer,
SIAM Review 31, 1989): one small system for the transient states of P0 and
one per closed class, each well conditioned for every eps > 0, where the
whole m x m system of a chain with several closed classes has condition about
1/eps. A regular chain is the one-class case, whose system is the whole
P(eps)'s. A matrix, and P(0) = P0, is solved whole, as the eps = 0 system of
the matrix. ``_damped_system`` assembles every one of these systems.

``limit_stationary`` returns the eps -> 0 limit for both regimes, including
its dependence on the initial distribution in the singular case. It reads
the class laws from the structure (``ChainStructure.laws``), which solves
each closed class once with ``stationary_direct``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import DampedChain, DampingVector, Distribution, StochasticMatrix, add_block, require_dim, trajectory
from .errors import (
    ConvergenceError,
    SingularSystemError,
    ValidationError,
)
from .structure import ChainStructure, Regime, class_mass, decompose

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


def _damped_system(M: StochasticMatrix, weights: np.ndarray, epsilon: float) -> np.ndarray:
    """The stationary system of ``(1 - eps) M + eps 1 w``.

    That is its transpose minus I, with the normalization row of ones in
    place of the last equation; a matrix is the eps = 0 case, with zero
    weights. The system is the transpose of a row-major buffer, so that it is
    already in the column-major order in which LAPACK factors it. The buffer
    is filled with ``eps w`` in every row, and ``(1 - eps) M`` is added to it
    (:func:`add_block`): each entry is the same sum of the same two products
    as in ``(1 - eps) M^T + eps w 1^T``, and P(eps) is never formed on its own.
    """
    m = len(weights)
    buffer = np.empty((m, m))
    buffer[...] = epsilon * weights
    add_block(buffer, M, 1.0 - epsilon)
    A = buffer.T
    A[np.arange(m), np.arange(m)] -= 1.0
    A[m - 1, :] = 1.0
    return A


def _law(A: np.ndarray) -> np.ndarray:
    """The solution of ``A x = e_m``: the stationary law of a system from :func:`_damped_system`."""
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def _complement_law(chain: DampedChain) -> np.ndarray:
    """pi(eps) for eps > 0, one system per closed class of P0 (stochastic complementation).

    With T the transient states and C_j the closed classes of P0, Q_TT and
    R_Tj its blocks (C. D. Meyer, "Stochastic complementation, uncoupling
    Markov chains, and the theory of nearly reducible systems", SIAM Review
    31, 1989):

    * ``pi_T = eps u`` with ``u = d_T (I - (1 - eps) Q_TT)^-1``;
    * class j is entered with weights ``e_j = d_j + (1 - eps) u R_Tj``,
      which is ``d_j + ((1 - eps) / eps) pi_T R_Tj``: all of them are
      ``d + (1 - eps) P0.vecmat(u)`` with u scattered onto an m-vector;
    * pi on C_j is ``|e_j|`` times the law of ``(1 - eps) P_j + eps 1 e_j/|e_j|``,
      which is irreducible and aperiodic for eps > 0 whatever P_j's period.

    Each system is of one class's size and well conditioned for every
    eps > 0, where the whole m x m system of P(eps) on a chain with several
    closed classes has condition about 1/eps. Class j's system is built on
    ``structure.matrices[j]``, and the transient system in place on Q_TT
    gathered from P0's array. A chain whose one closed class covers every
    state is its own kernel: its system is P(eps)'s, with ``d`` itself as the
    weights.
    """
    P0, d, eps = chain.p0, chain.damping.weights, chain.epsilon
    structure = decompose(P0)
    if structure.class_count == 1 and not structure.transient_states:
        return _law(_damped_system(P0, d, eps))
    pi = np.zeros(chain.dim)
    entry = d
    T = list(structure.transient_states)
    if T:
        # I - (1 - eps) Q_TT^T, as the transpose of a row-major buffer like the class systems.
        Q = P0.entries[np.ix_(T, T)]
        Q *= 1.0 - eps
        np.subtract(np.eye(len(T)), Q, out=Q)
        u = np.zeros(chain.dim)
        u[T] = np.linalg.solve(Q.T, d[T])
        pi = eps * u
        entry = d + (1.0 - eps) * P0.vecmat(u)
    for cls, M in zip(structure.classes, structure.matrices):
        idx = list(cls.states)
        e = entry[idx]
        mass = e.sum()
        pi[idx] = mass * _law(_damped_system(M, e / mass, eps))
    return pi


def stationary_direct(P, solver_tol: float = DEFAULT_SOLVER_TOL) -> StationarySolution:
    """Solve ``(P^T - I) pi = 0`` with the normalization row replacing the last equation.

    ``P`` is a :class:`StochasticMatrix` or a :class:`DampedChain`. A damped
    chain with eps > 0 is solved one closed class of P0 at a time
    (:func:`_complement_law`, after Meyer 1989), from the structure that
    :func:`decompose` keeps with P0; a regular chain is the one-class case,
    whose system is P(eps)'s own. A matrix, and P(0) = P0, is solved whole.
    LU with partial pivoting; the solution is checked against ``solver_tol``
    by its residual against the whole of ``P``.
    A residual beyond tolerance (or an exactly singular factorization) means
    a matrix, or P(0) = P0, with several closed classes; the caller should
    solve per class on the restricted matrices instead.
    """
    try:
        if isinstance(P, DampedChain) and P.epsilon > 0.0:
            pi = _complement_law(P)
        else:
            M = P.p0 if isinstance(P, DampedChain) else P
            pi = _law(_damped_system(M, np.zeros(M.dim), 0.0))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "stationary system is singular; the matrix (or P0, at eps = 0) has several closed "
            "classes -- solve per class on structure.restrict(P0, cls)"
        ) from exc
    res = _residual(pi, P)
    if not np.isfinite(res) or res > solver_tol:
        raise SingularSystemError(
            f"stationary solve residual {res:.3e} exceeds {solver_tol:.1e}; the matrix (or P0, "
            "at eps = 0) likely has several closed classes -- solve per class on structure.restrict"
        )
    return StationarySolution(Distribution(pi, P.row_tol), Method.DIRECT, 0, res)


def stationary_power(
    P,
    p0: Distribution,
    tol: float = DEFAULT_SERIES_TOL,
) -> StationarySolution:
    """Power iteration from ``p0`` until successive iterates are ``tol``-close.

    ``P`` is a :class:`StochasticMatrix` or a :class:`DampedChain`; the
    iterates are the :func:`~dampedchain.core.trajectory` of ``p0`` by P, its
    own walk, which reads neither the series walk nor an LU solve.
    Convergence is measured in total variation between successive iterates,
    which is cheap; the residual against P is recomputed for the report.
    Raises ConvergenceError carrying the last iterate after
    ``DEFAULT_MAX_ITER`` steps.
    """
    require_dim("start", p0.dim, P.dim)
    require_tolerance(tol)
    iterates = trajectory(P, p0.probs)
    prev = next(iterates)
    for it, nxt in zip(range(DEFAULT_MAX_ITER), iterates):
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
    """Smallest L with ``(1 - eps)^(L + 1) < tol`` (the rigorous tail bound).

    Estimated from ``log tol / log(1 - eps)`` and settled on the definition in
    a step or so. The logarithm is of the float ``1 - eps`` that the definition
    raises: ``log1p(-eps)`` is some 800 steps off at eps = 1e-9.
    """
    require_tolerance(tol)
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError("series representation requires epsilon in (0, 1]")
    decay = 1.0 - epsilon
    if decay == 1.0:
        # (1 - eps) rounds to 1, so the tail never shrinks below tol.
        raise ValidationError(
            f"epsilon {epsilon} is too small for the series: 1 - eps rounds to 1; "
            "use the direct route (stationary_direct)"
        )
    L = max(math.ceil(math.log(tol) / math.log(decay)) - 1, 0) if decay > 0.0 else 0
    while decay ** (L + 1) >= tol:
        L += 1
    while L > 0 and decay**L < tol:
        L -= 1
    return L


def series_sums(
    P0: StochasticMatrix,
    d: DampingVector,
    epsilons,
    tol: float = DEFAULT_SERIES_TOL,
) -> list:
    """The geometric-mixture series solution at every epsilon of a grid, from one walk of ``d P0^l``.

    Each series is truncated at the first L with ``(1 - eps)^(L + 1) < tol``;
    since every trajectory entry lies in [0, 1] the dropped tail is below
    ``tol`` per coordinate. The truncated sum is renormalized (its exact mass
    is ``1 - (1 - eps)^(L + 1)``), which perturbs entries by less than
    ``tol``. The walk, d's :func:`~dampedchain.core.trajectory` by P0, runs
    to the longest series length on the grid, max L products, and adds each
    step into every row whose series is still open, so the memory is one row
    per epsilon whatever the walk's length.
    The k-th solution is that of ``epsilons[k]``, with L as its term count and
    its residual against ``DampedChain(P0, d, epsilons[k])``.
    """
    require_dim("damping", d.dim, P0.dim)
    epsilons = tuple(float(eps) for eps in epsilons)
    lengths = tuple(series_length(eps, tol) for eps in epsilons)
    open_until = np.array(lengths)
    decay = 1.0 - np.array(epsilons)
    weights = np.array(epsilons)
    sums = np.zeros((len(epsilons), P0.dim))
    for l, v in zip(range(max(lengths, default=-1) + 1), trajectory(P0, d.weights)):
        sums += weights[:, np.newaxis] * v
        weights = np.where(open_until > l, weights * decay, 0.0)
    solutions = []
    for eps, L, row in zip(epsilons, lengths, sums):
        pi = row / row.sum()
        residual = _residual(pi, DampedChain(P0, d, eps))
        solutions.append(StationarySolution(Distribution(pi, P0.row_tol), Method.SERIES, L, residual))
    return solutions


def stationary_series(
    P0: StochasticMatrix,
    d: DampingVector,
    epsilon: float,
    tol: float = DEFAULT_SERIES_TOL,
) -> StationarySolution:
    """The geometric-mixture series solution at one epsilon: the one-epsilon case of :func:`series_sums`."""
    return series_sums(P0, d, (epsilon,), tol)[0]


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
