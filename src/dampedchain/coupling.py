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
from the excess ``P[j] - min(P[i], P[j])``. Nor does it build the P(eps) of
a damped chain: a row of P(eps) is ``(1 - eps) P0[i] + eps d``, so i' comes
from d with probability eps and from P0's row i otherwise, the meet test
reads two entries of P0 and one of d, and the excess, ``(1 - eps)`` times
``P0[j] - min(P0[i], P0[j])``, lives on the nonzeros of P0's row j. With at
most k nonzeros in a row of P0, a move is O(k) work.

The words of each draw come from Philox4x64-10 (Salmon, Moraes, Dror & Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011). It is counter-based,
so each step evaluates the words of the trials still apart and of no other.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import DampedChain, Distribution, StochasticMatrix, row_nonzeros
from .errors import DimensionMismatchError, ValidationError

MARGINAL_TOL = 1e-12

#: RNG algorithm and draw layout of the simulator (see ``simulate_coupling_time``);
#: recorded in reports for reproducibility.
GENERATOR_ID = "philox4x64-steptrial-damped"

#: The simulator advances trials in blocks of ``BLOCK_ELEMENTS // k`` (at least
#: one), k the most nonzeros in a row of P0, which bounds each block's working
#: arrays at this many elements.
BLOCK_ELEMENTS = 1 << 21

# Philox4x64-10's two multipliers and two key increments (Salmon et al. 2011).
PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW = np.uint64(0xFFFFFFFF)
_WORD = (1 << 64) - 1


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


class _PaddedRows(NamedTuple):
    """P0's nonzeros, row by row in column order, padded to the longest row.

    A padding slot holds column 0 and the value 0.0, so ``cdf`` repeats the
    row's total there and no inverse-CDF draw lands on it.
    """

    cols: np.ndarray
    values: np.ndarray
    cdf: np.ndarray


class CouplingKernel:
    """Transition kernel of the paired chain, one maximal coupling per state pair.

    The chain moves by a :class:`StochasticMatrix` or by the P(eps) of a
    :class:`DampedChain`: P0 plus a rank-one damping part, which a plain
    matrix does not have. The full kernel would be an m^2 x m^2 object;
    ``pair_law`` builds the m x m row of one pair when asked and keeps
    nothing. The simulator does not read these rows (it draws each move from
    the factorised coupling on P0's nonzeros), so they serve as the reference
    law. Pass a matrix power of the one-step matrix to obtain the subsampled
    (block-of-N-steps) variant.
    """

    def __init__(self, P: StochasticMatrix | DampedChain):
        self._P = P
        self._P0 = P.p0 if isinstance(P, DampedChain) else P

    @property
    def dim(self) -> int:
        return self._P0.dim

    @property
    def matrix(self) -> StochasticMatrix | DampedChain:
        """What the kernel was built from: a :class:`StochasticMatrix` or a :class:`DampedChain`."""
        return self._P

    def _row(self, i: int) -> np.ndarray:
        """Row i of the one-step matrix; a damped chain's is ``build_damped_matrix``'s, bit for bit."""
        row = self._P0.entries[i]
        if self._P is self._P0:
            return row
        eps = self._P.epsilon
        return (1.0 - eps) * row + eps * self._P.damping.weights

    def pair_law(self, i: int, j: int) -> np.ndarray:
        """Joint law of the next pair given the current pair ``(i, j)``."""
        return _maximal_joint(self._row(i), self._row(j))[0]

    def pair_cdf(self, i: int, j: int) -> np.ndarray:
        """Cumulative sums of ``pair_law(i, j)`` flattened row-major."""
        return np.cumsum(self.pair_law(i, j).ravel())

    @cached_property
    def _rows(self) -> _PaddedRows:
        counts, cols, values = row_nonzeros(self._P0)
        m, k = counts.size, int(counts.max())
        row = np.repeat(np.arange(m), counts)
        slot = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
        padded_cols = np.zeros((m, k), dtype=cols.dtype)
        padded_values = np.zeros((m, k))
        padded_cols[row, slot] = cols
        padded_values[row, slot] = values
        return _PaddedRows(padded_cols, padded_values, np.cumsum(padded_values, axis=1))

    def _move(self, i, j, words):
        """One maximal-coupling move of each pair ``(i[t], j[t])`` from its words."""
        P0, rows = self._P0.entries, self._rows
        damped = self._P is not self._P0
        i_next = rows.cols[i, _draw(rows.cdf[i], words[:, 0])]
        if damped:
            eps, d = self._P.epsilon, self._P.damping.weights
            teleport = words[:, 3] < eps
            i_next[teleport] = _draw(np.cumsum(d), words[teleport, 0])
        p_i, p_j = P0[i, i_next], P0[j, i_next]
        if damped:
            # The entries of P(eps) at i', each formed as build_damped_matrix forms it.
            shared = eps * d[i_next]
            p_i, p_j = (1.0 - eps) * p_i + shared, (1.0 - eps) * p_j + shared
        meet = words[:, 1] * p_i < np.minimum(p_i, p_j)
        j_next = i_next.copy()
        apart = np.flatnonzero(~meet)
        cols, values = rows.cols[j[apart]], rows.values[j[apart]]
        # P0's excess of row j over row i: P(eps)'s is 1 - eps times it, which draws the same j'.
        excess_cdf = np.cumsum(values - np.minimum(P0[i[apart, None], cols], values), axis=1)
        # An excess without mass draws one slot past the row; np.where below discards it.
        slot = np.minimum(_draw(excess_cdf, words[apart, 2]), cols.shape[1] - 1)
        drawn = cols[np.arange(apart.size), slot]
        # An excess that rounding left without mass means equal rows: they meet.
        j_next[apart] = np.where(excess_cdf[:, -1] > 0.0, drawn, i_next[apart])
        return i_next, j_next


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


def _mulhi(a: int, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * b``, summed from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW, b >> np.uint64(32)
    low, mid = a_lo * b_lo, a_hi * b_lo
    cross = (low >> np.uint64(32)) + (mid & _LOW) + a_lo * b_hi
    return a_hi * b_hi + (mid >> np.uint64(32)) + (cross >> np.uint64(32))


def _step_words(seed: int, step: int, trial: np.ndarray) -> np.ndarray:
    """The four draw words of each trial id in ``trial`` at ``step``, one row per trial.

    Row r is ``Generator(Philox(key=seed, counter=(step << 128) + trial[r])).random(4)``.
    A run of consecutive ids, such as a block's start, is that generator's
    output from the run's first counter on. Other ids are encrypted here, at
    about seven times the generator's cost a trial, with NumPy's conventions:
    its Philox adds one to the counter before it encrypts a block, and a
    double is a word's top 53 bits times 2^-53.
    """
    first = int(trial[0])
    if trial[-1] - first + 1 == trial.size:
        rng = np.random.Generator(np.random.Philox(key=seed, counter=(step << 128) + first))
        return rng.random((trial.size, 4))
    c0 = trial.astype(np.uint64) + np.uint64(1)
    c1 = np.zeros_like(c0)
    c2 = np.full_like(c0, step & _WORD)
    c3 = np.full_like(c0, step >> 64)
    k0, k1 = seed & _WORD, seed >> 64
    m0, m1 = PHILOX_MULTIPLIERS
    for _ in range(10):
        hi0, hi1 = _mulhi(m0, c0), _mulhi(m1, c2)
        c0, c1, c2, c3 = (
            hi1 ^ c1 ^ np.uint64(k0), c2 * np.uint64(m1), hi0 ^ c3 ^ np.uint64(k1), c0 * np.uint64(m0)
        )
        k0, k1 = (k0 + PHILOX_KEY_STEPS[0]) & _WORD, (k1 + PHILOX_KEY_STEPS[1]) & _WORD
    return (np.stack([c0, c1, c2, c3], axis=1) >> np.uint64(11)) * 2.0**-53


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

    Draw layout (generator ``philox4x64-steptrial-damped``): step s = 0 is the
    start draw and step s = 1, 2, ... is the s-th kernel move; the tail up to
    ``horizon`` reads steps 0 .. horizon. Trial t at step s reads the four
    doubles ``Generator(Philox(key=seed, counter=(s << 128) + t)).random(4)``.
    Every draw is an inverse CDF: the number of cumulative entries <= u times
    the last cumulative entry. P is the kernel's one-step matrix: P0, or the
    damped chain's ``P(eps) = (1 - eps) P0 + eps 1 d``, never built.

    - The start uses word 0 over ``cumsum(start_joint.joint.ravel())``; the
      pair is ``divmod(index, m)``.
    - A move from (i, j) uses word 0 to draw i': from d when the kernel has a
      damping part and word 3 is below eps, else from P0's row i, over the
      cumulative sums of its nonzeros in column order. The pair meets at i'
      when word 1 times ``P[i, i']`` is below ``min(P[i, i'], P[j, i'])``,
      with each entry formed as ``build_damped_matrix`` forms it. Otherwise
      word 2 draws j' over the cumulative sums of ``P0[j] - min(P0[i], P0[j])``
      on row j's nonzeros; if rounding leaves that excess without mass, the
      pair meets at i'.

    A kernel without a damping part never reads word 3, and its cumulative
    sums at P0's nonzeros are those of the dense rows, so its tails are bit
    for bit those of the earlier dense-row layout ``philox4x64-steptrial``.
    Trial t's path depends only on (seed, t): trials are independent, reruns
    are bit-identical and the result does not depend on how trials are
    grouped. Trials advance in lockstep, a block of ``BLOCK_ELEMENTS // k`` at
    a time (k the most nonzeros in a row of P0), so working memory is
    O(block * k) whatever ``trials`` is, and each step evaluates the words of
    the block's trials still apart only.
    """
    require_simulation(trials, seed, horizon)
    if start_joint.dim != kernel.dim:
        raise DimensionMismatchError(
            f"start joint dim {start_joint.dim} != kernel dim {kernel.dim}"
        )
    m = kernel.dim
    start_cdf = np.cumsum(start_joint.joint.ravel())
    block = max(1, BLOCK_ELEMENTS // kernel._rows.cols.shape[1])
    exceed = np.zeros(horizon + 1, dtype=np.int64)
    for first in range(0, trials, block):
        trial = np.arange(first, min(first + block, trials))
        i, j = np.divmod(_draw(start_cdf, _step_words(seed, 0, trial)[:, 0]), m)
        for step in range(horizon + 1):
            if step:
                i, j = kernel._move(i, j, _step_words(seed, step, trial))
            apart = i != j
            i, j, trial = i[apart], j[apart], trial[apart]
            if not trial.size:
                break
            exceed[step] += trial.size
    tail = exceed / trials
    std_error = np.sqrt(tail * (1.0 - tail) / trials)
    return CouplingTailEstimate(tail, std_error, trials, seed, horizon)
