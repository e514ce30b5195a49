"""Explicit convergence-rate and deviation bounds for damped chains.

Five bound families are implemented, numbered as the CLI exposes them:

* family 1, ``stationary_gap_bound`` with whole-matrix constants:
  per-state bound on |pi(eps) - pi(0)| of the form
  ``eps * (|d_j - pi0_j| + c * rate / (1 - rate))``.
* family 2, the same formula with per-class constants
  (``BoundContext.split_decay``) and the d-limit as reference, for chains
  that split into several closed classes.
* family 5, ``coupling_bound``: ``(1 - Q(p, pi_eps)) * (1 - Q(P0))^n * (1 - eps)^n``
  on |p(n)_j - pi(eps)_j|, from the one-step maximal coupling.
* family 6, ``coupling_bound_multistep``: the block-of-N variant driven by the
  ergodicity coefficient ``Delta_N = (1 - Q(P0^N))^(1/N)``, with floor(n/N)*N
  in both exponents.
* family 7, ``split_bound_context(...).bound_vector``: the per-class version
  for singular chains, including the class-mass mismatch term.

The constants of families 5, 6 and 7, and of the joint-limit bound
(``BoundContext.joint_limit``, evaluated by ``triangular``), do not depend on
the step count n. A command builds them once as a :class:`BoundContext` and
evaluates that across its n-grid; the public per-n functions build a context
and evaluate it once. Each ``Delta_N`` comes from one walk through the powers
of a closed class's matrix (P0 itself on a regular chain), one product per
step; a singular chain's whole-matrix ``Delta_N`` is 1 by structure. The
``ContractionError`` search continues the walks of the classes that fail.

The convention ``x^0 = 1`` applies throughout, including when x = 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DampedChain,
    DampingVector,
    Distribution,
    StochasticMatrix,
    build_damped_matrix,
)
from .coupling import overlap
from .errors import ContractionError, RegimeError, ValidationError
from .expansion import spectrum
from .stationary import class_stationary, stationary_direct
from .structure import (
    ChainStructure,
    ClosedClass,
    Regime,
    class_mass,
    class_matrices,
    restrict_damping,
)

DEFAULT_DECAY_HORIZON = 200

# Block lengths of the Delta_N profile in bound reports, also searched for
# the smallest contracting block when a ContractionError is raised.
PROFILE_STEPS = tuple(range(1, 13))

# Deviations below this are indistinguishable from float rounding; the
# amplitude scan stops there instead of dividing noise by a tiny rate**n.
DECAY_NOISE_FLOOR = 1e-13


def _pow(base: float, exponent: int) -> float:
    return 1.0 if exponent == 0 else base**exponent


def min_row_overlap(entries: np.ndarray) -> float:
    """Smallest pairwise row overlap ``min_{i,j} sum_k min(A[i,k], A[j,k])``.

    Overlaps are never negative, so the scan stops at the first row that has
    a partner with disjoint support.
    """
    m = entries.shape[0]
    q = 1.0
    for i in range(m):
        mins = np.minimum(entries[i], entries[i + 1 :])
        if mins.size:
            q = min(q, float(mins.sum(axis=1).min()))
        if q == 0.0:
            break
    return q


@dataclass(frozen=True)
class ErgodicityReport:
    """Ergodicity coefficient of the N-step matrix.

    ``delta = (1 - Q(P^N))^(1/N)`` where Q is the minimal pairwise row
    overlap. ``degenerate`` flags Q = 1 (identical rows), where delta is 0
    and powers of delta follow the 0^0 = 1 convention.
    """

    step: int
    overlap: float
    delta: float

    @property
    def degenerate(self) -> bool:
        return self.overlap >= 1.0

    def delta_pow(self, exponent: int) -> float:
        return _pow(self.delta, exponent)

    @classmethod
    def from_overlap(cls, step: int, q: float) -> "ErgodicityReport":
        """The report of an N-step matrix whose minimal row overlap is ``q``."""
        one_minus = max(0.0, 1.0 - q)
        # Identical rows leave 1 - q at summation-noise level; without snapping,
        # the N-th root would inflate that noise to a visibly nonzero delta.
        if one_minus <= 1e-12:
            return cls(step, 1.0, 0.0)
        return cls(step, q, one_minus ** (1.0 / step))


def _powers(P0: StochasticMatrix, last: int, start=(0, None)):
    """Yield ``(N, P0^N)`` up to N = last, one product per step, continuing after ``start``."""
    N, power = start
    for N in range(N + 1, last + 1):
        power = P0.entries if power is None else power @ P0.entries
        yield N, power


def _scan(M: StochasticMatrix, steps, keep: int = 0):
    """One walk through the powers of M: ``{N: Q(M^N)}`` for N in ``steps``, and M^keep."""
    overlaps, kept = {}, None
    for N, power in _powers(M, max(steps, default=0)):
        if N in steps:
            overlaps[N] = min_row_overlap(power)
        if N == keep:
            kept = power
    return overlaps, kept


def ergodicity_coefficient(P0: StochasticMatrix, N: int) -> ErgodicityReport:
    """Compute ``Delta_N`` from the N-step matrix by brute pairwise comparison.

    Equivalently the N-th root of the largest total-variation distance
    between rows of P0**N. Converges to the modulus of the second eigenvalue
    as N grows.
    """
    if N < 1:
        raise ValidationError("step count N must be at least 1")
    return ErgodicityReport.from_overlap(N, _scan(P0, {N})[0][N])


@dataclass(frozen=True)
class GeometricDecay:
    """Constants (amplitude, rate) with ``max_ij |P^n[i,j] - pi_j| <= amplitude * rate**n``."""

    amplitude: float
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValidationError(f"decay rate must lie in [0, 1), got {self.rate}")
        if self.amplitude < 0.0:
            raise ValidationError("decay amplitude must be non-negative")

    @property
    def tail_factor(self) -> float:
        """The geometric tail sum factor ``amplitude * rate / (1 - rate)``."""
        return self.amplitude * self.rate / (1.0 - self.rate)


def estimate_decay(
    P0: StochasticMatrix,
    pi0: Distribution = None,
    horizon: int = DEFAULT_DECAY_HORIZON,
) -> GeometricDecay:
    """Empirical decay constants for a single-class aperiodic matrix.

    The rate is the second-largest eigenvalue modulus; the amplitude is the
    largest observed ratio ``max_ij |P^n[i,j] - pi_j| / rate**n`` over
    n <= horizon. The scan stops once deviations sink below the float noise
    floor, where the ratio would measure rounding error rather than decay.
    """
    rate = spectrum(P0).second_modulus
    if rate >= 1.0:
        raise ContractionError(
            f"second eigenvalue modulus {rate} is not below 1; no geometric decay"
        )
    if pi0 is None:
        pi0 = stationary_direct(P0).pi
    amplitude = 0.0
    scale = 1.0
    for _, power in _powers(P0, horizon):
        dev = float(np.max(np.abs(power - pi0.probs[np.newaxis, :])))
        if dev <= DECAY_NOISE_FLOOR:
            break
        scale *= rate
        if scale <= 0.0:
            break
        amplitude = max(amplitude, dev / scale)
    return GeometricDecay(amplitude, rate)


def stationary_gap_bound(
    decay: GeometricDecay,
    d: DampingVector,
    reference: Distribution,
    epsilon: float,
) -> np.ndarray:
    """Per-state bound ``eps * (|d_j - ref_j| + amplitude * rate / (1 - rate))``.

    With whole-matrix constants and the stationary distribution as reference
    this bounds |pi(eps) - pi(0)| (family 1); with per-class worst-case
    constants and the d-limit as reference it is the singular variant
    (family 2).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon}")
    return epsilon * (np.abs(d.weights - reference.probs) + decay.tail_factor)


def _require_coupling_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError("coupling bounds require epsilon in (0, 1]")


def _class_dist(values: np.ndarray, cls: ClosedClass, mass: float) -> np.ndarray:
    return values[list(cls.states)] / mass


@dataclass(frozen=True)
class BoundContext:
    """The n-free constants of bound families 2, 5, 6 and 7 and of the joint-limit bound.

    Build once per command with :func:`bound_context`, then evaluate across a
    grid of step counts and states. Families read:

    * 5: ``start_overlap`` = Q(p, pi_eps) and ``one_step_overlap`` = Q(P0),
      the raw minimal row overlap (not snapped like ``ErgodicityReport.overlap``);
    * 6: ``start_overlap`` and ``profile[block]``; ``profile`` maps each
      computed N to the whole matrix's ergodicity coefficient;
    * 7 and the joint-limit bound: the per-class fields. A regular chain is
      its own single class with both class masses 1. With class masses f and
      superscript j for the restriction to class j renormalized by its mass,
      ``start_gap[j] = f_p[j] (1 - Q(p^j, pi0^j))`` (0 when f_p[j] = 0),
      ``damping_gap[j] = f_d[j] (1 - Q(d^j, pi0^j))``,
      ``drift_scale[j] = |f_p[j] - f_d[j]|`` and, for family 7,
      ``coupled[j] = f_d[j] (1 - Q(pi_eps^j, pi0^j)) + start_gap[j]``.

    Per class, ``matrices`` holds the ``class_matrices`` matrix (P0 itself on a
    regular chain), walked once to the block, and ``block_powers`` its power
    there, where ``require_contraction`` continues the walk; ``pi0`` holds the
    class laws, for ``limit_stationary`` without solving again. A singular
    chain's ``profile`` is 1 by structure and P0 is not walked: rows in
    different closed classes never share support, so Q(P0^N) = 0. Fields a
    command cannot use are left empty: per-class fields without a regular or
    singular structure, ``start_overlap`` and ``coupled`` without pi_eps.
    """

    P0: StochasticMatrix
    structure: ChainStructure
    epsilon: float
    block: int
    one_step_overlap: float
    profile: dict
    start_overlap: float
    class_reports: tuple = ()
    matrices: tuple = ()
    block_powers: tuple = ()
    pi0: tuple = ()
    start_gap: np.ndarray = None
    damping_gap: np.ndarray = None
    drift_scale: np.ndarray = None
    coupled: np.ndarray = None

    def onestep(self, n: int) -> float:
        """Family 5: ``(1 - Q(p, pi_eps)) * ((1 - Q(P0)) (1 - eps))^n``."""
        _require_coupling_epsilon(self.epsilon)
        return (1.0 - self.start_overlap) * _pow(
            (1.0 - self.one_step_overlap) * (1.0 - self.epsilon), n
        )

    def multistep(self, n: int) -> float:
        """Family 6: both geometric factors carry ``floor(n / block) * block``."""
        exponent = (n // self.block) * self.block
        return (
            (1.0 - self.start_overlap)
            * self.profile[self.block].delta_pow(exponent)
            * _pow(1.0 - self.epsilon, exponent)
        )

    def bound_vector(self, n: int) -> np.ndarray:
        """Family 7 at every state at step n, in natural state order.

        For a state inside closed class j the bound on |p(n)_state - pi(eps)_state| is

            ( (f_d[j] (1 - Q(pi_eps^j, pi0^j)) + f_p[j] (1 - Q(p^j, pi0^j)))
                * Delta_j^(floor(n/N)*N)
              + |f_p[j] - f_d[j]| * pi0^j_state ) * (1 - eps)^n

        where superscript j denotes restriction to the class renormalized by
        the class mass, and f are class masses (see the class docstring).
        """
        exponent = (n // self.block) * self.block
        survival = _pow(1.0 - self.epsilon, n)
        out = np.empty(sum(cls.size for cls in self.structure.classes))
        for j, cls in enumerate(self.structure.classes):
            geometric = self.coupled[j] * self.class_reports[j].delta_pow(exponent)
            out[list(cls.states)] = (geometric + self.drift_scale[j] * self.pi0[j].probs) * survival
        return out

    def joint_limit(self, n: int, t: float) -> float:
        """Joint-limit bound on ``max_k |p_eps(n)_k - pi(t)_k|`` at finite (eps, n).

        Per state k in class j, with N the block:

            (1 - Q(p^j, pi0^j)) f_p[j] * Delta_j^(floor(n/N)N)
              + (1 - Q(d^j, pi0^j)) f_d[j] * eps N / (1 - Delta_j^N)
              + |f_p[j] - f_d[j]| * pi0^j_k * |(1 - eps)^n - exp(-t)|.

        A regular chain is one class with both masses 1, so the last term
        vanishes. The value is the maximum over states, and it requires every
        class's ``Delta_N < 1`` (see :meth:`require_contraction`).
        """
        exponent = (n // self.block) * self.block
        discretization = abs((1.0 - self.epsilon) ** n - math.exp(-t))
        worst = 0.0
        for j, rep in enumerate(self.class_reports):
            term1 = self.start_gap[j] * rep.delta_pow(exponent)
            term2 = self.damping_gap[j] * self.epsilon * self.block / (1.0 - rep.delta**self.block)
            drift = self.drift_scale[j] * float(self.pi0[j].probs.max()) * discretization
            worst = max(worst, term1 + term2 + drift)
        return worst

    def split_decay(self) -> GeometricDecay:
        """Family 2: the worst-case :func:`estimate_decay` constants over the classes."""
        if not self.matrices:
            raise RegimeError("no closed classes to estimate decay on")
        per_class = [estimate_decay(M, law) for M, law in zip(self.matrices, self.pi0)]
        return GeometricDecay(max(d.amplitude for d in per_class), max(d.rate for d in per_class))

    def require_contraction(self) -> None:
        """Raise ContractionError unless every class has ``Delta_block < 1``.

        The message names the smallest N in ``PROFILE_STEPS`` at which every
        class contracts, or says that none does. Q(P^N) never decreases with N,
        so only N > block can qualify and only the failing classes can fail
        there: the search continues their walks from the block.
        """
        bad = [j for j, rep in enumerate(self.class_reports) if rep.delta >= 1.0]
        if not bad:
            return
        if self.structure.regime is Regime.SINGULAR:
            problem = f"classes {bad} have Delta_{self.block} = 1"
        else:
            problem = f"Delta_{self.block} = 1"
        # The walks advance in step; each power is scanned only while every
        # class before it contracts, so the search stops at the first such N.
        walks = (
            _powers(self.matrices[j], PROFILE_STEPS[-1], (self.block, self.block_powers[j]))
            for j in bad
        )
        for step in zip(*walks):
            N = step[0][0]
            reports = (ErgodicityReport.from_overlap(N, min_row_overlap(A)) for _, A in step)
            if all(rep.delta < 1.0 for rep in reports):
                hint = f"increase the block length to N = {N}, the smallest with Delta_N < 1"
                break
        else:
            hint = f"no block length N <= {PROFILE_STEPS[-1]} has Delta_N < 1"
        raise ContractionError(f"{problem}; {hint}")


def bound_context(
    P0: StochasticMatrix,
    d: DampingVector,
    p: Distribution,
    structure: ChainStructure,
    epsilon: float,
    block: int,
    pi_eps: Distribution = None,
    steps=(),
) -> BoundContext:
    """Compute the constants of :class:`BoundContext` once.

    ``steps`` lists the N at which the whole matrix's coefficient is needed,
    read from the walk of P0 when it is the class matrix or there is no regular
    or singular structure; ``one_step_overlap`` is set when ``steps`` contains 1.
    Pass ``structure=None`` (and any ``d``) when only families 5 and 6 are
    wanted. Nothing here checks that a family applies: family 5 checks epsilon
    when evaluated, and callers of family 7 or the joint-limit bound call
    ``require_contraction``.
    """
    if block < 1:
        raise ValidationError("block length must be at least 1")
    regime = None if structure is None else structure.regime
    start_overlap = None if pi_eps is None else overlap(p.probs, pi_eps.probs)
    if regime is Regime.SINGULAR:
        overlaps = {N: 0.0 for N in sorted(set(steps)) if N >= 1}
    elif regime is Regime.REGULAR:
        overlaps, block_power = _scan(P0, {*steps, block}, keep=block)
    else:
        overlaps, _ = _scan(P0, set(steps))
    profile = {N: ErgodicityReport.from_overlap(N, q) for N, q in overlaps.items()}

    constants = (P0, structure, epsilon, block, overlaps.get(1), profile, start_overlap)
    if regime not in (Regime.REGULAR, Regime.SINGULAR):
        return BoundContext(*constants)

    matrices = class_matrices(P0, structure)
    pi0 = class_stationary(P0, structure, matrices)
    if regime is Regime.REGULAR:
        return BoundContext(
            *constants,
            class_reports=(profile[block],),
            matrices=matrices,
            block_powers=(block_power,),
            pi0=pi0,
            start_gap=np.array([1.0 - overlap(p.probs, pi0[0].probs)]),
            damping_gap=np.array([1.0 - overlap(d.weights, pi0[0].probs)]),
            drift_scale=np.zeros(1),
        )

    walks = [_scan(M, {block}, keep=block) for M in matrices]
    f_p = class_mass(p, structure)
    f_d = class_mass(d.as_distribution(), structure)
    start_gap = np.zeros(len(pi0))
    damping_gap = np.zeros(len(pi0))
    for j, cls in enumerate(structure.classes):
        law = pi0[j].probs
        if f_p[j] > 0.0:
            start_gap[j] = f_p[j] * (1.0 - overlap(_class_dist(p.probs, cls, f_p[j]), law))
        damping_gap[j] = f_d[j] * (1.0 - overlap(restrict_damping(d, cls).weights, law))
    coupled = None
    if pi_eps is not None:
        coupled = start_gap + np.array(
            [
                f_d[j] * (1.0 - overlap(_class_dist(pi_eps.probs, cls, f_d[j]), pi0[j].probs))
                for j, cls in enumerate(structure.classes)
            ]
        )
    return BoundContext(
        *constants,
        class_reports=tuple(ErgodicityReport.from_overlap(block, q[block]) for q, _ in walks),
        matrices=matrices,
        block_powers=tuple(power for _, power in walks),
        pi0=pi0,
        start_gap=start_gap,
        damping_gap=damping_gap,
        drift_scale=np.abs(f_p - f_d),
        coupled=coupled,
    )


def coupling_bound(
    P0: StochasticMatrix,
    p: Distribution,
    pi_eps: Distribution,
    epsilon: float,
    n: int,
) -> float:
    """One-step coupling bound on ``max_j |p(n)_j - pi(eps)_j|`` (family 5)."""
    return bound_context(P0, None, p, None, epsilon, 1, pi_eps, steps=(1,)).onestep(n)


def coupling_bound_multistep(
    P0: StochasticMatrix,
    p: Distribution,
    pi_eps: Distribution,
    epsilon: float,
    block: int,
    n: int,
) -> float:
    """Block-of-N coupling bound (family 6); reduces to family 5 at block = 1.

    Both geometric factors carry the exponent ``floor(n / block) * block``.
    """
    return bound_context(P0, None, p, None, epsilon, block, pi_eps, steps=(block,)).multistep(n)


def split_bound_context(
    P0: StochasticMatrix,
    d: DampingVector,
    p: Distribution,
    epsilon: float,
    block: int,
    structure: ChainStructure,
    pi_eps: Distribution = None,
) -> BoundContext:
    """Build a :class:`BoundContext` for family 7 and check that family 7 applies.

    Requires a singular chain and the block-N ergodicity coefficient of every
    closed class to be strictly below 1. A class carrying no mass under ``p``
    contributes no start-overlap term.
    """
    if structure.regime is not Regime.SINGULAR:
        raise RegimeError("the split bound applies to singular chains; use families 5/6")
    _require_coupling_epsilon(epsilon)
    if pi_eps is None:
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P0, d, epsilon))).pi
    context = bound_context(P0, d, p, structure, epsilon, block, pi_eps)
    context.require_contraction()
    return context


@dataclass(frozen=True)
class BoundReport:
    """Bound family identifier, its constants, and evaluations on an n-grid."""

    family: str
    bound_id: str
    epsilon: float
    constants: dict = field(default_factory=dict)
    per_state: tuple = ()
    by_n: tuple = ()
