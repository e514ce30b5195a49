"""Maximal couplings, the paired-chain kernel, and the meeting-time simulator.

The maximal coupling of two discrete distributions puts the largest possible
mass ``Q* = sum_i min(p_i, q_i)`` on the diagonal; off the diagonal it places
the normalized product of the two excess vectors. Running that construction
on every pair of rows of a transition matrix yields a transition kernel on
ordered state pairs whose two marginal chains each move by the original
matrix and whose diagonal is absorbing. The tail of the first meeting time of
the pair bounds the distance of the chain's n-step law from stationarity,
which is what the Monte Carlo simulator estimates.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Distribution, StochasticMatrix
from .errors import DimensionMismatchError, ValidationError

MARGINAL_TOL = 1e-12

#: RNG algorithm used by the simulator; recorded in reports for reproducibility.
GENERATOR_ID = "philox4x64"


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
    mins = np.minimum(p, q)
    shared = mins.sum()
    m = p.shape[0]
    if 1.0 - shared <= 0.0:
        # Equal marginals: all mass on the diagonal.
        joint = np.zeros((m, m))
        np.fill_diagonal(joint, mins)
        return joint, 1.0
    if shared <= 0.0:
        # Disjoint supports: independent product.
        return np.outer(p, q), 0.0
    joint = np.outer(p - mins, q - mins) / (1.0 - shared)
    joint[np.diag_indices(m)] += mins
    return joint, float(shared)


def maximal_coupling(p1: Distribution, p2: Distribution) -> CouplingJoint:
    """Joint distribution maximizing the probability that both coordinates agree.

    The diagonal carries ``min(p1_i, p2_i)``; the remaining mass is the outer
    product of the excesses scaled by ``1 / (1 - Q*)``. Marginals are checked
    to 1e-12 before returning.
    """
    if p1.dim != p2.dim:
        raise DimensionMismatchError(f"dims differ: {p1.dim} vs {p2.dim}")
    joint, shared = _maximal_joint(p1.probs, p2.probs)
    if np.max(np.abs(joint.sum(axis=1) - p1.probs)) > MARGINAL_TOL:
        raise ValidationError("coupling row marginal deviates from the first distribution")
    if np.max(np.abs(joint.sum(axis=0) - p2.probs)) > MARGINAL_TOL:
        raise ValidationError("coupling column marginal deviates from the second distribution")
    return CouplingJoint(joint, shared)


class CouplingKernel:
    """Transition kernel of the paired chain, one maximal coupling per state pair.

    Rows are materialized on demand and memoized: the full kernel would be an
    m^2 x m^2 object, while the cache stays at one m x m table per distinct
    pair actually visited. The kernel is not meant to be shared between
    threads; the simulator reads it from one thread. Pass a matrix power of
    the one-step matrix to obtain the subsampled (block-of-N-steps) variant.
    """

    def __init__(self, P: StochasticMatrix):
        self._P = P
        self._rows = {}
        self._cdfs = {}

    @property
    def dim(self) -> int:
        return self._P.dim

    @property
    def matrix(self) -> StochasticMatrix:
        return self._P

    def pair_law(self, i: int, j: int) -> np.ndarray:
        """Joint law of the next pair given the current pair ``(i, j)``."""
        key = (i, j)
        row = self._rows.get(key)
        if row is None:
            row, _ = _maximal_joint(self._P.entries[i], self._P.entries[j])
            row.setflags(write=False)
            self._rows[key] = row
        return row

    def pair_cdf(self, i: int, j: int) -> np.ndarray:
        key = (i, j)
        cdf = self._cdfs.get(key)
        if cdf is None:
            cdf = np.cumsum(self.pair_law(i, j).ravel())
            self._cdfs[key] = cdf
        return cdf


def build_coupling_kernel(P_eps: StochasticMatrix) -> CouplingKernel:
    """Lazy paired-state kernel for the given (already damped) matrix."""
    return CouplingKernel(P_eps)


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
    meta: dict = field(default_factory=dict)


def simulate_coupling_time(
    kernel: CouplingKernel,
    start_joint: CouplingJoint,
    trials: int,
    seed: int,
    horizon: int,
) -> CouplingTailEstimate:
    """Monte Carlo tail of the first time the paired chain hits the diagonal.

    Each trial draws from its own counter-based stream (Philox keyed by
    ``seed`` with the counter offset by the trial index), so trials are
    independent and reproducible, and the result does not depend on the
    order in which they run. Trials run one after another.
    """
    if trials < 1:
        raise ValidationError("at least one trial is required")
    if start_joint.dim != kernel.dim:
        raise DimensionMismatchError(
            f"start joint dim {start_joint.dim} != kernel dim {kernel.dim}"
        )
    m = kernel.dim
    start_cdf = np.cumsum(start_joint.joint.ravel())
    exceed = np.zeros(horizon + 1, dtype=np.int64)
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=trial << 128))
        z = int(np.searchsorted(start_cdf, rng.random(), side="right"))
        i, j = divmod(z, m)
        n = 0
        while i != j and n <= horizon:
            exceed[n] += 1
            z = int(np.searchsorted(kernel.pair_cdf(i, j), rng.random(), side="right"))
            i, j = divmod(z, m)
            n += 1
    tail = exceed / trials
    std_error = np.sqrt(tail * (1.0 - tail) / trials)
    return CouplingTailEstimate(tail, std_error, trials, seed, horizon)
