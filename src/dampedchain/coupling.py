"""Maximal couplings, the paired-chain kernel, and the meeting-time simulator.

The maximal coupling of two discrete distributions puts the largest possible
mass ``Q* = sum_i min(p_i, q_i)`` on the diagonal; off the diagonal it places
the normalized product of the two excess vectors. Running that construction
on every pair of rows of a transition matrix yields a transition kernel on
ordered state pairs whose two marginal chains each move by the original
matrix and whose diagonal is absorbing. The tail of the first meeting time of
the pair bounds the distance of the chain's n-step law from stationarity,
which is what the Monte Carlo simulator estimates.

The coupling factorises, so the simulator never builds an m x m pair row:
from (i, j) it draws i' from row i, lets the pair meet at i' with
probability ``min(P[i, i'], P[j, i']) / P[i, i']``, and otherwise draws j'
from the excess ``P[j] - min(P[i], P[j])``. That is O(m) work per move.
"""

from dataclasses import dataclass

import numpy as np

from .core import Distribution, StochasticMatrix
from .errors import DimensionMismatchError, ValidationError

MARGINAL_TOL = 1e-12

#: RNG algorithm and draw layout of the simulator (see ``simulate_coupling_time``);
#: recorded in reports for reproducibility.
GENERATOR_ID = "philox4x64-steptrial"

#: The simulator advances trials in blocks of ``BLOCK_ELEMENTS // m`` (at least
#: one), which bounds each block's working arrays at this many elements.
BLOCK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class CouplingJoint:
    """Joint law on ordered pairs with prescribed marginals.

    ``diagonal_mass`` is the coupled mass ``sum_i joint[i, i]``, equal to the
    overlap of the two marginals for a maximal coupling.
    """

    joint: np.ndarray
    diagonal_mass: float

    @property
    def dim(self) -> int:
        return self.joint.shape[0]


def overlap(p: np.ndarray, q: np.ndarray) -> float:
    """Shared mass ``sum_i min(p_i, q_i)`` of two probability vectors."""
    return float(np.minimum(p, q).sum())


def _maximal_joint(p: np.ndarray, q: np.ndarray):
    """The maximal coupling of p and q and its diagonal mass, at most 1.

    The excess product is divided by the excess mass of q, not by 1 - Q*,
    which equals it only when both vectors sum to exactly 1. So the rows sum
    to p whenever q has excess mass, and each marginal misses its vector by
    at most |sum p - sum q|.
    """
    mins = np.minimum(p, q)
    shared = min(float(mins.sum()), 1.0)
    excess = (q - mins).sum()
    m = p.shape[0]
    if excess <= 0.0:
        # q is covered by p: all of its mass on the diagonal.
        joint = np.zeros((m, m))
        np.fill_diagonal(joint, mins)
        return joint, shared
    joint = np.outer(p - mins, q - mins) / excess
    joint[np.diag_indices(m)] += mins
    return joint, shared


def maximal_coupling(p1: Distribution, p2: Distribution) -> CouplingJoint:
    """Joint distribution maximizing the probability that both coordinates agree.

    The diagonal carries ``min(p1_i, p2_i)``; the remaining mass is the outer
    product of the excesses scaled by one over p2's excess mass. Marginals are
    checked to 1e-12, widened by ``|sum p1 - sum p2|``, before returning.
    """
    if p1.dim != p2.dim:
        raise DimensionMismatchError(f"dims differ: {p1.dim} vs {p2.dim}")
    joint, shared = _maximal_joint(p1.probs, p2.probs)
    tol = MARGINAL_TOL + abs(p1.probs.sum() - p2.probs.sum())
    if np.max(np.abs(joint.sum(axis=1) - p1.probs)) > tol:
        raise ValidationError("coupling row marginal deviates from the first distribution")
    if np.max(np.abs(joint.sum(axis=0) - p2.probs)) > tol:
        raise ValidationError("coupling column marginal deviates from the second distribution")
    return CouplingJoint(joint, shared)


class CouplingKernel:
    """Transition kernel of the paired chain, one maximal coupling per state pair.

    The full kernel would be an m^2 x m^2 object; ``pair_law`` builds the
    m x m row of one pair when asked and keeps nothing. The simulator does not
    read these rows (it draws each move from the factorised coupling), so they
    serve as the reference law. Pass a matrix power of the one-step matrix to
    obtain the subsampled (block-of-N-steps) variant.
    """

    def __init__(self, P: StochasticMatrix):
        self._P = P

    @property
    def dim(self) -> int:
        return self._P.dim

    @property
    def matrix(self) -> StochasticMatrix:
        return self._P

    def pair_law(self, i: int, j: int) -> np.ndarray:
        """Joint law of the next pair given the current pair ``(i, j)``."""
        return _maximal_joint(self._P.entries[i], self._P.entries[j])[0]

    def pair_cdf(self, i: int, j: int) -> np.ndarray:
        """Cumulative sums of ``pair_law(i, j)`` flattened row-major."""
        return np.cumsum(self.pair_law(i, j).ravel())


@dataclass(frozen=True)
class CouplingTailEstimate:
    """Empirical tail of the meeting time with binomial standard errors.

    ``tail[n]`` estimates the probability the two coordinates have not met by
    time n, for n = 0..horizon. Reruns with identical parameters reproduce
    the estimate bit for bit.
    """

    tail: np.ndarray
    std_error: np.ndarray
    trials: int
    seed: int
    horizon: int
    generator: str = GENERATOR_ID


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: the number of cumulative entries <= ``u * total``.

    ``cdf`` is one cumulative-sum vector (shared by every u) or one row per u;
    ``total`` is its own last entry. As u < 1, the result is always a state
    with positive mass, even where rounding leaves the total below 1.
    """
    if cdf.ndim == 1:
        return np.searchsorted(cdf, u * cdf[-1], side="right")
    return np.count_nonzero(cdf <= (u * cdf[:, -1])[:, None], axis=1)


def _step_words(seed: int, step: int, first: int, count: int) -> np.ndarray:
    """The four draw words of trials ``first .. first + count - 1`` at ``step``."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=(step << 128) + first))
    return rng.random((count, 4))


def _move(P: np.ndarray, row_cdf: np.ndarray, i, j, words):
    """One maximal-coupling move of each pair ``(i[t], j[t])`` from its words."""
    i_next = _draw(row_cdf[i], words[:, 0])
    p_i = P[i, i_next]
    meet = words[:, 1] * p_i < np.minimum(p_i, P[j, i_next])
    j_next = i_next.copy()
    apart = np.flatnonzero(~meet)
    P_i, P_j = P[i[apart]], P[j[apart]]
    excess_cdf = np.cumsum(P_j - np.minimum(P_i, P_j), axis=1)
    drawn = _draw(excess_cdf, words[apart, 2])
    # An excess that rounding left without mass means equal rows: they meet.
    j_next[apart] = np.where(excess_cdf[:, -1] > 0.0, drawn, i_next[apart])
    return i_next, j_next


def require_simulation(trials: int, seed: int, horizon: int) -> None:
    """Refuse a trial count, seed or horizon that ``simulate_coupling_time`` cannot run."""
    if trials < 1:
        raise ValidationError("at least one trial is required")
    if horizon < 0:
        raise ValidationError(f"horizon must be at least 0, got {horizon}")
    if not 0 <= seed < 1 << 128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")


def simulate_coupling_time(
    kernel: CouplingKernel,
    start_joint: CouplingJoint,
    trials: int,
    seed: int,
    horizon: int,
) -> CouplingTailEstimate:
    """Monte Carlo tail of the first time the paired chain hits the diagonal.

    Draw layout (generator ``philox4x64-steptrial``): step s = 0 is the start
    draw and step s = 1, 2, ... is the s-th kernel move; the tail up to
    ``horizon`` reads steps 0 .. horizon. Trial t at step s reads the four
    doubles ``Generator(Philox(key=seed, counter=(s << 128) + t)).random(4)``.
    Every draw is an inverse CDF: the number of cumulative entries <= u times
    the last cumulative entry.

    - The start uses word 0 over ``cumsum(start_joint.joint.ravel())``; the
      pair is ``divmod(index, m)``.
    - A move from (i, j) uses word 0 to draw i' from ``P[i]``, meets at i'
      when word 1 times ``P[i, i']`` is below ``min(P[i, i'], P[j, i'])``,
      and otherwise uses word 2 to draw j' from ``P[j] - min(P[i], P[j])``
      (if rounding leaves that excess without mass, the pair meets at i').
      Word 3 is unused.

    So trial t's path depends only on (seed, t): trials are independent,
    reruns are bit-identical and the result does not depend on how trials are
    grouped. Trials advance in lockstep, a block of ``BLOCK_ELEMENTS // m`` at
    a time, so working memory is O(block * m) whatever ``trials`` is.
    """
    require_simulation(trials, seed, horizon)
    if start_joint.dim != kernel.dim:
        raise DimensionMismatchError(
            f"start joint dim {start_joint.dim} != kernel dim {kernel.dim}"
        )
    m = kernel.dim
    P = kernel.matrix.entries
    row_cdf = np.cumsum(P, axis=1)
    start_cdf = np.cumsum(start_joint.joint.ravel())
    block = max(1, BLOCK_ELEMENTS // m)
    exceed = np.zeros(horizon + 1, dtype=np.int64)
    for first in range(0, trials, block):
        trial = np.arange(first, min(first + block, trials))
        i, j = np.divmod(_draw(start_cdf, _step_words(seed, 0, first, trial.size)[:, 0]), m)
        for step in range(horizon + 1):
            if step:
                low = int(trial[0])
                words = _step_words(seed, step, low, trial[-1] - low + 1)[trial - low]
                i, j = _move(P, row_cdf, i, j, words)
            apart = i != j
            i, j, trial = i[apart], j[apart], trial[apart]
            if not trial.size:
                break
            exceed[step] += trial.size
    tail = exceed / trials
    std_error = np.sqrt(tail * (1.0 - tail) / trials)
    return CouplingTailEstimate(tail, std_error, trials, seed, horizon)
