"""Explicit convergence-rate and deviation bounds for damped chains.

Five bound families are implemented, numbered as the CLI exposes them (``FAMILIES``):

* family 1, ``stationary_gap_bound`` with the certified constant of
  ``BoundContext.split_tail``: per-state bound on |pi(eps) - pi(0)| of the form
  ``eps * (|d_j - pi0_j| + S)``, S bounding ``max_j sum_(n>=1) max_i |P0^n(i, j) - pi0_j|``.
* family 2, the same formula with the largest S over the closed classes and
  the d-limit as reference, for chains that split into several closed classes.
* family 5, ``coupling_bound``: ``(1 - Q(p, pi_eps)) * (Delta_1 (1 - eps))^n``
  on |p(n)_j - pi(eps)_j|, from the one-step maximal coupling.
* family 6, ``coupling_bound_multistep``: the block-of-N variant driven by the
  ergodicity coefficient ``Delta_N = (1 - Q(P0^N))^(1/N)``, with floor(n/N)*N
  in both exponents.
* family 7, ``split_bound_context(...).bound_vector``: the per-class version
  for singular chains, including the class-mass mismatch term.

The constants of every family and of the joint-limit bound
(``BoundContext.joint_limit``, evaluated by ``triangular``) do not depend on
the step count n. They live on one :class:`BoundContext` per command, which
computes each the first time a section reads it; the public per-n functions
build a context and evaluate it once. Every per-class constant reads the class
matrices and laws of the structure (``ChainStructure.matrices`` and
``.laws``), and a regular chain is the one-class case. Every function that takes a :class:`ChainStructure` reads P0
from it (``structure.P0``), so the matrix and its classes cannot disagree.

:class:`PowerWalk` is the one place where this module forms a matrix power,
one product per step; ``estimate_decay`` and ``ergodicity_coefficient`` each
run a walk of their own. The walks a context reads belong to the
structure: each closed class's matrix has one, ``ChainStructure.walks``, and
P0 has one, ``ChainStructure.walk`` (the class walk on a regular chain, a
walk without a law on any other), each shared by every context on the
structure. A walk scans each ``Delta_N`` a context is asked for once and
keeps its :class:`ErgodicityReport` (:meth:`PowerWalk.ergodicity`); given its
class law, it records as it passes each power n the column maxima
``D_n(j) = max_i |M^n(i, j) - pi0_j|`` and ``t_n = max_i TV(M^n(i, .), pi0)``
from which :meth:`PowerWalk.tail` certifies the constant S of families 1
and 2 (Dobrushin contraction; Seneta, *Non-negative Matrices and Markov
Chains*, ch. 3-4). The ``ContractionError`` search and ``split_tail`` resume
it and never restart it; no eigenvalue is computed. Delta_1 is the first power
of P0's walk and a singular chain's whole-matrix ``Delta_N`` is 1 by
structure, so family 5 alone solves no class law and scans P0 at most once.

Each ``Delta_N`` reads the minimal row overlap Q of ``min_row_overlap``. Its
scan skips the row pairs that a lower bound cannot let reach the minimum:
``Q(a, b) >= (s_a + s_b) / 2 - sqrt(n |a - b|_2^2) / 2`` for rows a, b of
length n with sums s_a, s_b, where one Gram product ``A A^T`` gives every
squared distance. The pairs the bound leaves are screened on a float32 copy
of the power, and only those whose float32 score is near the smallest are
scored again in float64. Both the bound and the screen are compared with
margins derived from ``gamma_n = n u / (1 - n u)`` (u the unit roundoff of
each precision), which cover the rounding of any BLAS's products and of every
sum and entries below float32's range, so the result is the same float as
scanning every pair, whatever the BLAS thread count.

The convention ``x^0 = 1`` applies throughout, including when x = 0.
"""

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, Context, Decimal
from functools import cached_property

import numpy as np

from .core import DampedChain, DampingVector, Distribution, StochasticMatrix, require_dim, require_epsilon
from .coupling import overlap
from .errors import ContractionError, RegimeError, ValidationError
from .expansion import spectrum
from .stationary import StationarySolution, stationary_direct
from .structure import ChainStructure, Regime, class_mass

# Most powers a walk forms for the constant of families 1 and 2, and for
# estimate_decay's amplitude scan; also the longest block a context takes.
WALK_HORIZON = 200

# The walk certifies families 1 and 2 at the first power N whose Dobrushin
# bound c_N is at or below this; without one by WALK_HORIZON, at the N with
# the smallest c_N below 1.
CERTIFY_CONTRACTION = 1e-3

# Significant digits of the certified constants, each rounded up.
CERTIFIED_DIGITS = 6

# Block lengths of the Delta_N profile in bound reports, also searched for
# the smallest contracting block when a ContractionError is raised.
PROFILE_STEPS = tuple(range(1, 13))

# Rows per tile of min_row_overlap's exact scan: one small buffer, reused.
SCAN_TILE = 64

# Partner rows per tile of min_row_overlap's float32 screen, in a buffer of its own.
SCREEN_TILE = 256

# Decimal arithmetic wide enough that round_up's one quantize is its only rounding.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

# Each bound family's report name, and the regime it needs with the family to use instead.
FAMILIES = {
    "1": ("stationary-gap", Regime.REGULAR, "use family 2"),
    "2": ("stationary-gap-split", Regime.SINGULAR, "use family 1"),
    "5": ("coupling-onestep", None, None),
    "6": ("coupling-multistep", None, None),
    "7": ("coupling-split", Regime.SINGULAR, "use families 5/6"),
}


def require_known_family(family: str) -> None:
    """Refuse a bound family that ``FAMILIES`` does not name."""
    if family not in FAMILIES:
        raise RegimeError(f"unknown bound family {family!r}; choose from 1, 2, 5, 6, 7")


def default_families(regime: Regime) -> list:
    """The families that apply to a ``regime`` chain, run when none is named."""
    return [family for family, (_, needs, _) in FAMILIES.items() if needs in (None, regime)]


def _gamma(k: int, u: float = 2.0**-53) -> float:
    """``gamma_k = k u / (1 - k u)``, the relative error bound of a k-term sum with unit roundoff u (float64's by default)."""
    return k * u / (1.0 - k * u)


def round_up(x: float, digits: int) -> float:
    """The float nearest the least decimal with ``digits`` significant digits that is >= x >= 0.

    The decimal is x, read exactly, rounded toward +inf at its ``digits``-th
    significant place. Its conversion to float rounds to nearest, which is
    monotonic, so the result is at least x (``inf`` when the decimal is
    beyond the largest float), and it prints as that decimal at any precision
    from ``digits`` to 15 significant digits.
    """
    if x <= 0.0 or not math.isfinite(x):
        return x
    exact = Decimal(x)
    unit = Decimal(1).scaleb(exact.adjusted() - digits + 1, _EXACT)
    return float(exact.quantize(unit, rounding=ROUND_CEILING, context=_EXACT))


def _exact_min(entries: np.ndarray, i: int, partners: np.ndarray, tile: np.ndarray) -> float:
    """The smallest float overlap ``np.minimum(entries[i], rows).sum(axis=1)`` of row i with the ascending ``partners``; inf if none."""
    q = math.inf
    for start in range(0, partners.size, len(tile)):
        q = min(q, float(_pair_minima(entries, i, partners[start : start + len(tile)], tile).sum(axis=1).min()))
    return q


def _pair_minima(entries: np.ndarray, i: int, chunk: np.ndarray, tile: np.ndarray) -> np.ndarray:
    """``np.minimum(entries[i], entries[chunk])``, written into the first rows of ``tile``; ``chunk`` ascends."""
    out = tile[: chunk.size]
    first, last = int(chunk[0]), int(chunk[-1])
    if last - first == chunk.size - 1:
        np.minimum(entries[i], entries[first : last + 1], out=out)
    else:
        # mode="clip" lets take write into out unbuffered; chunk is in range.
        np.take(entries, chunk, axis=0, out=out, mode="clip")
        np.minimum(entries[i], out, out=out)
    return out


def min_row_overlap(entries: np.ndarray) -> float:
    """Smallest pairwise row overlap ``min(1, min_{i<j} sum_k min(A[i,k], A[j,k]))``.

    ``entries`` is an m x n float64 array with finite, non-negative entries.
    Every overlap that decides the result is the float
    ``np.minimum(A[i], rows).sum(axis=1)`` over contiguous rows, so the result
    is bit for bit that of scanning every pair; the scan only skips pairs that
    provably cannot reach the minimum. It skips them in two steps: a lower
    bound rules most pairs out, and a float32 screen of the rest leaves only
    the pairs near the minimum to be scored exactly.

    Lower bound. For rows a, b with sums s_a, s_b,
    ``Q(a, b) = (s_a + s_b - |a - b|_1) / 2 >= (s_a + s_b) / 2 - sqrt(n |a - b|_2^2) / 2``,
    and one product G = A A^T gives every ``|a - b|_2^2 = G_aa + G_bb - 2 G_ab``.
    The bound is built in place in G's buffer.

    Margin. With u = 2^-53, gamma_k = k u / (1 - k u) and gamma = gamma_(n+4):

    * every computed G_ab is within gamma_n G_ab + n 2^-1074 of the exact one,
      whatever the summation order, FMA use or thread count of the BLAS that
      computed it (the last term covers underflow). With the roundings of
      forming the squared distance, that is within
      ``E = 8 gamma max_a G_aa + 16 n 2^-1074``, which moves the bound by at
      most ``sqrt(n E) / 2``;
    * the row sums and the exact overlaps are sums of non-negative terms, each
      within gamma_n of its value, and the remaining arithmetic of the bound
      rounds by a few u (1 + sqrt(n)) max_a s_a; ``4 gamma (1 + sqrt(n)) max_a s_a``
      covers all of them with a factor 2 to spare, including the rounding of
      ``t + margin`` itself.

    So a pair whose computed bound exceeds a threshold t plus
    ``margin = sqrt(n E) / 2 + 4 gamma (1 + sqrt(n)) max_a s_a`` has a computed
    overlap above t, and no pair at or below the float minimum is skipped
    while t is at least that minimum.

    Screen. Each pair the bound leaves is scored on a float32 copy of A: the
    elementwise minimum of the two rows, summed by one BLAS matrix-vector
    product with a ones vector, ``SCREEN_TILE`` partner rows at a time. Let Q
    be a pair's exact overlap, q its float64 overlap and S its score. With
    v = 2^-24, gamma'_k = k v / (1 - k v), ``r = 3 gamma'_n`` (``spread``)
    and ``a = 4 n 2^-126`` (``floor``):

    * rounding is monotonic, so the float32 minimum of two entries is their
      minimum c rounded to float32, within ``v c + 2^-126`` of c. The
      absolute term covers entries below float32's subnormal range, which
      round to 0, and a BLAS that flushes subnormals to 0;
    * the float32 sum of the n minima, in any order and with any FMA use or
      thread count, is within gamma'_n of their sum plus 2^-126 for each
      addition that underflows, and q is within gamma_n Q of Q. As
      gamma'_n >= v and gamma'_n v dwarfs gamma_n, ``|S - q| <= r Q + a``;
    * so every pair has ``q <= (S + a) (1 + 2 r)``, and the running threshold
      ``t = min(q0, (S_min + a) (1 + 2 r))``, with q0 the exact overlaps
      scored so far and S_min the smallest score so far, is at least the
      float minimum q*. It is the threshold of the lower bound;
    * the pair giving q* has ``S <= q* (1 + r / (1 - gamma_n)) + a``, at most
      ``reach = t (1 + 2 r) + a`` whenever it is screened. So when a row is
      screened, its pairs scored at or below the reach are scored again
      exactly at once, and the pair giving q* is among them. q0 holds only
      exact overlaps, so the result is q*.

    n <= 2^16 keeps r <= 1/8, where the factor 1 + 2 r exceeds the exact
    factors it stands for, ``(1 - gamma_n) / (1 - gamma_n - r)`` and
    ``1 + r / (1 - gamma_n)``, by far more than the few u of rounding in
    computing t and reach. For longer rows, or row sums beyond 2^64, where
    float32 could overflow, every pair is scored exactly.

    The scan starts from the exact overlap of the pair with the smallest
    bound (where rows with disjoint support exist, as in a web chain's first
    powers, it is typically such a pair, and the scan stops at once at 0).
    Then each row with a later partner whose bound is within the margin of
    the running threshold is screened against those partners, and the pairs
    within the reach are scored again. The scan stops at an overlap of 0.
    A score costs about a third of an exact overlap, so the screen pays only
    while it rules out more pairs than it keeps. Once it has kept more pairs
    than it ruled out, as where every overlap is within the margin of the
    smallest, the rest of the scan is exact. The float32 copy of A is the
    screen's one m x n buffer.
    """
    m, n = entries.shape
    if m < 2:
        return 1.0
    sums = entries.sum(axis=1)
    bound = entries @ entries.T
    sq_norms = bound.diagonal().copy()
    bound *= -2.0
    bound += sq_norms[:, np.newaxis]
    bound += sq_norms
    np.maximum(bound, 0.0, out=bound)
    bound *= n
    np.sqrt(bound, out=bound)
    bound *= -0.5
    half = 0.5 * sums
    bound += half[:, np.newaxis]
    bound += half
    np.fill_diagonal(bound, np.inf)

    gamma = _gamma(n + 4)
    gram_error = 8.0 * gamma * float(sq_norms.max()) + 16.0 * n * math.ulp(0.0)
    margin = 0.5 * math.sqrt(n * gram_error) + 4.0 * gamma * (1.0 + math.sqrt(n)) * float(sums.max())
    # The screen's error bound holds up to these sizes; past them every pair is scored exactly.
    screens = n <= 2**16 and float(sums.max()) <= 2.0**64
    spread = 3.0 * _gamma(n, 2.0**-24) if screens else math.inf
    floor = 4.0 * n * 2.0**-126
    widen = 1.0 + 2.0 * spread

    a, b = sorted(divmod(int(bound.argmin()), m))
    exact_tile = np.empty((min(SCAN_TILE, m - 1), n))
    q = min(1.0, _exact_min(entries, a, np.array([b]), exact_tile))
    best = math.inf

    def threshold() -> float:
        return min(q, (best + floor) * widen)

    low = None
    balance = 0
    # The threshold only falls: a row with no partner within it now never has one.
    for i in np.flatnonzero((bound <= q + margin).any(axis=1)).tolist():
        if q == 0.0:
            return q
        partners = np.flatnonzero(bound[i, i + 1 :] <= threshold() + margin) + (i + 1)
        if partners.size == 0:
            continue
        if screens:
            if low is None:
                low = entries.astype(np.float32)
                screen_tile = np.empty((min(SCREEN_TILE, m - 1), n), dtype=np.float32)
                ones = np.ones(n, dtype=np.float32)
            scores = np.empty(partners.size, dtype=np.float32)
            for start in range(0, partners.size, SCREEN_TILE):
                chunk = partners[start : start + SCREEN_TILE]
                np.matmul(_pair_minima(low, i, chunk, screen_tile), ones, out=scores[start : start + chunk.size])
            best = min(best, float(scores.min()))
            # Rounding the reach to float32 for the comparison keeps every score at or below it.
            near = partners[scores <= threshold() * widen + floor]
            # The screen pays only while it rules out more pairs than it keeps.
            balance += partners.size - 2 * near.size
            screens = balance >= 0
            partners = near
        q = min(q, _exact_min(entries, i, partners, exact_tile))
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
        return self.delta**exponent

    @classmethod
    def from_overlap(cls, step: int, q: float) -> "ErgodicityReport":
        """The report of an N-step matrix whose minimal row overlap is ``q``."""
        one_minus = max(0.0, 1.0 - q)
        # Identical rows leave 1 - q at summation-noise level; without snapping,
        # the N-th root would inflate that noise to a visibly nonzero delta.
        if one_minus <= 1e-12:
            return cls(step, 1.0, 0.0)
        return cls(step, q, one_minus ** (1.0 / step))


def ergodicity_coefficient(P0: StochasticMatrix, N: int) -> ErgodicityReport:
    """Compute ``Delta_N`` by :func:`min_row_overlap`'s pruned scan of P0**N, formed by a :class:`PowerWalk`.

    Equivalently the N-th root of the largest total-variation distance
    between rows of P0**N. Converges to the modulus of the second eigenvalue
    as N grows.
    """
    return PowerWalk(P0).ergodicity(N)


def _require_step_count(N: int) -> None:
    """Refuse a step count N below 1: Delta_N is the N-th root of a scan of M^N."""
    if N < 1:
        raise ValidationError("step count N must be at least 1")


def _require_step(n: int) -> None:
    """Refuse a step n below 0: a per-n bound is on the law after n steps."""
    if n < 0:
        raise ValidationError(f"step n must be at least 0, got {n}")


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


@dataclass(frozen=True)
class CertifiedTail:
    """The certified constant of families 1 and 2, found by :meth:`PowerWalk.tail`.

    ``tail_factor`` is at least ``S = max_j sum_(n>=1) max_i |M^n(i, j) - pi0_j|``
    for the exact law pi0 of M, and at least ``|x_j - pi0_j|`` more, for the
    computed law x that serves as reference. ``steps`` is the power N where
    the walk stopped and ``contraction`` its bound c_N on Dobrushin's
    coefficient of M^N.
    """

    tail_factor: float
    steps: int
    contraction: float


class PowerWalk:
    """The powers M, M^2, ... of one matrix, each formed once, one product per step.

    The walk holds only its current power and is resumed, never restarted:
    ``ergodicity(N)`` advances it to N and keeps Delta_N from one scan of
    Q(M^N), and ``tail`` advances it as far as the certificate needs. Its
    first power is M itself. Given ``law``, a function returning the computed
    law x of M, each power n's column maxima ``D_n(j) = max_i |M^n(i, j) - x_j|``
    and ``t_n = max_i TV(M^n(i, .), x)`` are added to running sums before the
    walk moves past it, so the law is first fetched on the first product or
    ``tail`` read. The walk certifies at the first n with
    ``c_n <= CERTIFY_CONTRACTION``, or at ``WALK_HORIZON`` with the smallest
    c_n < 1 it saw, and stops recording there. Only ``ChainStructure.walks``,
    one per closed class, are given a law.

    The certificate. Let P be M with each row scaled exactly to sum to 1,
    pi its exact law, ``t_n`` and ``D_n`` taken against pi, ``T_N = sum_(r<=N) t_r``.

    * For a probability vector a, ``|a_j - pi_j| <= TV(a, pi)``, so D_n(j) <= t_n.
    * ``c_N = 2 max_i TV(P^N(i, .), x)`` bounds Dobrushin's coefficient
      ``max_(i,k) TV(P^N(i, .), P^N(k, .))`` from above by the triangle
      inequality, whatever x is. P^n(i, .) - pi = (P^(n-N)(i, .) - pi) P^N
      sums to 0, so t_n <= c_N t_(n-N), and for n = kN + r with k >= 1 and
      1 <= r <= N the tail is ``sum_(n>N) D_n(j) <= T_N c_N / (1 - c_N)``.
    * So ``S <= max_j sum_(n<=N) D_n(j) + T_N c_N / (1 - c_N)`` once c_N < 1.

    Rounding margin. With u = 2^-53, m the size of M and gamma = gamma_(m+H+8)
    (H = ``WALK_HORIZON``):

    * the row sums of M are within ``rho = max_i |fl(s_i) - 1| + 2 gamma_m``
      of 1, so M is within rho of P in row L1. A product with a row-stochastic
      factor adds at most ``gamma_m (1 + rho)`` times the row's L1 norm to
      its error, whatever the order, FMA use or thread count of the BLAS, and
      a stochastic factor never amplifies earlier error. With
      ``eta = 2 gamma_m + rho``, the computed n-th power A_n is within
      ``e_n = (1 + eta)^n - 1 <= 2 n eta`` (n eta <= 1/2) of P^n in row L1;
    * the computed x is within ``xi = (N |r|_1 + 2 |x.1 - 1|) / (1 - c_N)``
      of pi in L1, r = x - x P. Write y = x - pi: y - y P^N is the sum of
      r P^k over k < N, and y minus (x.1 - 1) pi sums to 0, so Dobrushin
      contraction gives ``|y|_1 <= N |r|_1 + c_N (|y|_1 + |x.1 - 1|) + |x.1 - 1|``.
      |r|_1 and x.1 are computed from fl(x M) and widened by ``gamma``, ``eta``
      and ``gamma_m`` as above;
    * the computed t_n and the running sums are sums of at most m + H
      non-negative terms, each within gamma of its value. So, with the
      computed sums H_N = max_j sum D_n(j) and T_N, the certified
      ``c_N = 2 (1 + gamma) t_N + e_N`` and ``delta = e_N + xi`` bounding
      every entry's error, the constant is
      ``(1 + gamma) (H_N + T_N q) + N delta (1 + q) + xi`` with
      q = c_N / (1 - c_N). The last xi bounds |x_j - pi_j| in the n = 0
      term, where x is the reference; the few roundings after the sums fit
      in gamma's spare 8 u.
    """

    def __init__(self, matrix: StochasticMatrix, law=None):
        self.matrix = matrix
        self.law = law
        self.step = 0
        self.power = None
        self.reports = {}
        self.recorded = 0
        self.column_sums = None
        self.tv_sum = 0.0
        # (N, c_N, e_N, column sums, T_N) at the smallest c_N < 1 recorded so far.
        self.best = None
        self.certified = None

    def _advance(self, N: int) -> None:
        entries = self.matrix.entries
        while self.step < N:
            if self.power is not None:
                self._record()
            self.power = entries if self.power is None else self.power @ entries
            self.step += 1

    @cached_property
    def _margins(self) -> tuple:
        """``(gamma, gamma_m, eta)`` of the class docstring, from M's row sums."""
        m = self.matrix.dim
        gamma_m = _gamma(m)
        rho = float(np.abs(self.matrix.entries.sum(axis=1) - 1.0).max()) + 2.0 * gamma_m
        return _gamma(m + WALK_HORIZON + 8), gamma_m, 2.0 * gamma_m + rho

    def _record(self) -> None:
        """Add the current power's D_n and t_n to the sums, once, and certify at the first small c_n."""
        if self.law is None or self.certified is not None or self.recorded == self.step:
            return
        dev = self.power - self.law().probs
        np.abs(dev, out=dev)
        column = dev.max(axis=0)
        tv = 0.5 * float(dev.sum(axis=1).max())
        self.column_sums = column if self.column_sums is None else self.column_sums + column
        self.tv_sum += tv
        self.recorded = n = self.step
        gamma, _, eta = self._margins
        error = 2.0 * n * eta if n * eta <= 0.5 else math.inf
        contraction = 2.0 * (1.0 + gamma) * tv + error
        if contraction < (1.0 if self.best is None else self.best[1]):
            self.best = (n, contraction, error, self.column_sums, self.tv_sum)
        if contraction <= CERTIFY_CONTRACTION:
            self.certified = self._certify(*self.best)

    def _certify(self, N: int, contraction: float, error: float, column_sums, tv_sum: float) -> CertifiedTail:
        gamma, gamma_m, eta = self._margins
        x = self.law().probs
        mass = float(x.sum())
        residual = (1.0 + gamma) * float(np.abs(x - self.matrix.vecmat(x)).sum()) + eta * (1.0 + gamma) * mass
        mass_defect = abs(mass - 1.0) + gamma_m * mass
        xi = (1.0 + gamma) * (N * residual + 2.0 * mass_defect) / (1.0 - contraction)
        q = contraction / (1.0 - contraction)
        head = float(column_sums.max())
        tail = (1.0 + gamma) * (head + tv_sum * q) + N * (error + xi) * (1.0 + q) + xi
        return CertifiedTail(tail, N, contraction)

    def tail(self) -> CertifiedTail:
        """The certified constant at the first N <= ``WALK_HORIZON`` with ``c_N <= CERTIFY_CONTRACTION``.

        Without such an N, the walk certifies at ``WALK_HORIZON`` with the
        smallest c_N it recorded, a looser but valid constant, and raises
        ContractionError only when no recorded c_N is below 1.
        """
        self._advance(1)
        self._record()
        while self.certified is None:
            if self.step >= WALK_HORIZON:
                if self.best is None:
                    raise ContractionError(
                        f"c_N = 2 max_i TV(M^N(i, .), pi0) is not below 1 for any N <= {WALK_HORIZON}; "
                        "bound families 1 and 2 have no certified constant here"
                    )
                self.certified = self._certify(*self.best)
                break
            self._advance(self.step + 1)
            self._record()
        return self.certified

    def ergodicity(self, N: int) -> ErgodicityReport:
        """Delta_N of M from one scan of Q(M^N), kept: every reader of N gets the one report."""
        _require_step_count(N)
        if N not in self.reports:
            # A walk past N unscanned (a tail ran first) leaves N to a walk of its own.
            walk = self if N >= self.step else PowerWalk(self.matrix)
            walk._advance(N)
            self.reports[N] = ErgodicityReport.from_overlap(N, min_row_overlap(walk.power))
        return self.reports[N]


def estimate_decay(P0: StochasticMatrix) -> GeometricDecay:
    """Empirical decay constants for a single-class aperiodic matrix.

    The rate is the second-largest eigenvalue modulus; the amplitude is the
    largest observed ratio ``max_ij |P^n[i,j] - pi_j| / rate**n`` over the
    powers n <= ``WALK_HORIZON`` of a :class:`PowerWalk`. The scan stops once
    deviations sink to 1e-13, where the ratio would measure rounding error
    rather than decay. These are estimates, not bounds; families 1 and 2 use
    :meth:`PowerWalk.tail`.
    """
    rate = spectrum(P0).second_modulus
    if rate >= 1.0:
        raise ContractionError(f"second eigenvalue modulus {rate} is not below 1; no geometric decay")
    pi0 = stationary_direct(P0).pi.probs
    amplitude = 0.0
    scale = 1.0
    walk = PowerWalk(P0)
    for n in range(1, WALK_HORIZON + 1):
        walk._advance(n)
        dev = float(np.max(np.abs(walk.power - pi0)))
        if dev <= 1e-13:
            break
        scale *= rate
        if scale <= 0.0:
            break
        amplitude = max(amplitude, dev / scale)
    return GeometricDecay(amplitude, rate)


def stationary_gap_bound(
    decay: "GeometricDecay | CertifiedTail",
    d: DampingVector,
    reference: Distribution,
    epsilon: float,
) -> np.ndarray:
    """Per-state bound ``eps * (|d_j - ref_j| + decay.tail_factor)``.

    ``decay`` is a :class:`GeometricDecay`, whose tail factor is
    ``amplitude * rate / (1 - rate)``, or the :class:`CertifiedTail` of
    ``BoundContext.split_tail``. With the stationary distribution as reference
    this bounds |pi(eps) - pi(0)| (family 1), and with the worst constant over
    the classes and the d-limit as reference it is the singular variant
    (family 2): ``pi(eps) - pi0 = eps sum_(n>=0) (1 - eps)^n (d P0^n - pi0)``,
    and on a state j of class J, ``|(d P0^n - pi0)_j| <= max_i |P0^n(i, j) - pi0_j|``.
    """
    require_epsilon(epsilon)
    return epsilon * (np.abs(d.weights - reference.probs) + decay.tail_factor)


class BoundContext:
    """The n-free constants of bound families 1, 2, 5, 6 and 7 and of the joint-limit bound.

    Build one per command from the structure of ``structure.P0``, damping
    ``d``, start ``p``, epsilon in [0, 1] and a block from 1 to
    ``WALK_HORIZON``, the most powers a walk forms. Building it checks these
    and the sizes of ``p`` and ``pi_eps``; nothing is computed then. Each
    constant is computed the first time it is read, and kept. Family 5 reads
    ``start_overlap`` = Q(p, pi_eps) and ``ergodicity(1)``; family 6 reads
    ``start_overlap`` and ``ergodicity(block)``; families 1 and 2 read
    ``split_tail()``, the certified S of :class:`PowerWalk` over the class
    walks, so that ``eps (|d_j - ref_j| + S)`` bounds
    ``|pi(eps)_j - ref_j|`` with no eigenvalue and no fitted constant; family 7 and the joint-limit bound read the per-class
    constants. A regular chain is its own single class. With class masses f,
    superscript j for the restriction to class j renormalized by its mass and
    pi0^j = ``structure.laws[j]``: ``start_gap[j] = f_p[j] (1 - Q(p^j, pi0^j))``
    (0 when f_p[j] = 0), ``damping_gap[j] = f_d[j] (1 - Q(d^j, pi0^j))``,
    ``drift_scale[j] = |f_p[j] - f_d[j]|``,
    ``coupled[j] = f_d[j] (1 - Q(pi_eps^j, pi0^j)) + start_gap[j]`` and
    ``class_reports[j]`` is ``structure.walks[j].ergodicity(block)``, the one
    :class:`PowerWalk` of ``structure.matrices[j]``, whose gate
    (``require_classes``) refuses every per-class constant of an unsupported
    chain. Every context built on one structure shares its walks.

    pi(eps) is ``pi_eps`` when given, else the law of ``direct``, the one
    direct solve of ``chain``, P(eps), once ``structure.require_unique_law``
    admits it; the stationary section reports that same solve at the
    context's epsilon.
    Callers of a family call ``require_family``, of the joint-limit bound ``require_contraction``.
    The whole matrix's Delta_N is 1 by structure on a singular chain (rows in
    different closed classes share no support) and is otherwise the report of
    P0's walk, ``structure.walk``: the one class's on a regular chain, a walk
    without a law on an unsupported chain, which has no per-class constants.
    """

    def __init__(self, structure, d, p, epsilon, block, pi_eps=None):
        self.structure = structure
        self.d = d
        self.p = p
        self.chain = DampedChain(structure.P0, d, epsilon)
        if block < 1:
            raise ValidationError("block length must be at least 1")
        if block > WALK_HORIZON:
            raise ValidationError(
                f"block length must be at most {WALK_HORIZON}, the most powers a walk forms; got {block}"
            )
        require_dim("start", p.dim, structure.P0.dim)
        self.epsilon = epsilon
        self.block = block
        if pi_eps is not None:
            require_dim("pi_eps", pi_eps.dim, structure.P0.dim)
            self.pi_eps = pi_eps

    @cached_property
    def direct(self) -> StationarySolution:
        """The direct solve of ``chain``, P(eps), once ``structure.require_unique_law`` admits it."""
        self.structure.require_unique_law(self.epsilon)
        return stationary_direct(self.chain)

    @cached_property
    def pi_eps(self) -> Distribution:
        return self.direct.pi

    @cached_property
    def start_overlap(self) -> float:
        return overlap(self.p.probs, self.pi_eps.probs)

    def ergodicity(self, N: int) -> ErgodicityReport:
        """The whole matrix's ``Delta_N``: 1 by structure on a singular chain, else P0's walk's report."""
        _require_step_count(N)
        if self.structure.regime is Regime.SINGULAR:
            return ErgodicityReport.from_overlap(N, 0.0)
        return self.structure.walk.ergodicity(N)

    def require_coupling_epsilon(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValidationError("coupling bounds require epsilon in (0, 1]")

    def require_family(self, family: str) -> None:
        """Refuse an unknown bound family, or one whose regime, epsilon or contraction fails here."""
        require_known_family(family)
        _, regime, instead = FAMILIES[family]
        if regime not in (None, self.structure.regime):
            raise RegimeError(f"bound family {family} needs a {regime.value} chain; {instead}")
        if family in ("5", "7"):
            self.require_coupling_epsilon()
        if family == "6":
            self.structure.require_unique_law(self.epsilon)
        if family == "7":
            self.require_contraction()

    @cached_property
    def class_reports(self) -> tuple:
        return tuple(walk.ergodicity(self.block) for walk in self.structure.walks)

    @cached_property
    def _masses(self) -> tuple:
        """The class masses (f_p, f_d) of the start and of the damping weights."""
        return class_mass(self.p, self.structure), class_mass(self.d.as_distribution(), self.structure)

    def _class_gaps(self, values: np.ndarray, masses: np.ndarray) -> np.ndarray:
        """``f[j] (1 - Q(v^j, pi0^j))`` for each class j of mass f[j] > 0 under ``values`` v, else 0."""
        gaps = np.zeros(self.structure.class_count)
        for j, (cls, law) in enumerate(zip(self.structure.classes, self.structure.laws)):
            if masses[j] > 0.0:
                gaps[j] = masses[j] * (1.0 - overlap(values[list(cls.states)] / masses[j], law.probs))
        return gaps

    @cached_property
    def start_gap(self) -> np.ndarray:
        return self._class_gaps(self.p.probs, self._masses[0])

    @cached_property
    def damping_gap(self) -> np.ndarray:
        return self._class_gaps(self.d.weights, self._masses[1])

    @cached_property
    def drift_scale(self) -> np.ndarray:
        return np.abs(self._masses[0] - self._masses[1])

    @cached_property
    def coupled(self) -> np.ndarray:
        return self._class_gaps(self.pi_eps.probs, self._masses[1]) + self.start_gap

    def onestep(self, n: int) -> float:
        """Family 5: ``(1 - Q(p, pi_eps)) * (Delta_1 (1 - eps))^n``, with Delta_1 = ``ergodicity(1)``."""
        _require_step(n)
        self.require_family("5")  # before pi_eps is solved
        rate = self.ergodicity(1).delta * (1.0 - self.epsilon)
        return (1.0 - self.start_overlap) * rate**n

    def multistep(self, n: int) -> float:
        """Family 6: both geometric factors carry ``floor(n / block) * block``."""
        _require_step(n)
        report = self.ergodicity(self.block)
        exponent = (n // self.block) * self.block
        return (
            (1.0 - self.start_overlap)
            * report.delta_pow(exponent)
            * (1.0 - self.epsilon) ** exponent
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
        _require_step(n)
        exponent = (n // self.block) * self.block
        survival = (1.0 - self.epsilon) ** n
        out = np.empty(sum(cls.size for cls in self.structure.classes))
        for j, (cls, law) in enumerate(zip(self.structure.classes, self.structure.laws)):
            geometric = self.coupled[j] * self.class_reports[j].delta_pow(exponent)
            out[list(cls.states)] = (geometric + self.drift_scale[j] * law.probs) * survival
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
        _require_step(n)
        exponent = (n // self.block) * self.block
        discretization = abs((1.0 - self.epsilon) ** n - math.exp(-t))
        worst = 0.0
        for start_gap, rep, term2, drift_scale in self._joint_terms:
            term1 = start_gap * rep.delta_pow(exponent)
            worst = max(worst, term1 + term2 + drift_scale * discretization)
        return worst

    @cached_property
    def _joint_terms(self) -> tuple:
        """Per class j, the n-free parts of :meth:`joint_limit`.

        They are ``f_p[j] (1 - Q(p^j, pi0^j))``, ``Delta_j``, the whole second
        term and ``|f_p[j] - f_d[j]| * max_k pi0^j_k``.
        """
        return tuple(
            (
                self.start_gap[j],
                rep,
                self.damping_gap[j] * self.epsilon * self.block / (1.0 - rep.delta**self.block),
                self.drift_scale[j] * float(law.probs.max()),
            )
            for j, (rep, law) in enumerate(zip(self.class_reports, self.structure.laws))
        )

    def split_tail(self) -> CertifiedTail:
        """Families 1 and 2: the certified constant, the worst over the closed classes.

        On a regular chain, the one class, it is P0's own. Each class's walk
        resumes where any context left it (``PowerWalk.tail``). The damping
        weights and class masses enter the n = 0 term of family 2's reference
        with a rounding error below ``2 (|fl(sum d) - 1| + gamma_m)``, and
        ``2 gamma_3 (1 + S)`` more covers the three roundings of
        ``eps (|d_j - ref_j| + S)`` in :func:`stationary_gap_bound`, where
        |d_j - ref_j| <= 1, and the two sums here. The report rounds each
        per-state value up to 12 significant digits (:func:`round_up`), so the
        printed value is still an upper bound. S and
        c_N are then rounded up to ``CERTIFIED_DIGITS`` significant digits, so
        that the last bits of the BLAS products, which vary with the thread
        count, reach the report only when a value lies within a few ulps of a
        6-digit decimal. The report's ``N`` is the longest walk
        and ``c_N`` the largest c_N.
        """
        tails = [walk.tail() for walk in self.structure.walks]
        weights = self.d.weights
        tail = max(t.tail_factor for t in tails) + 2.0 * (abs(float(weights.sum()) - 1.0) + _gamma(weights.size))
        return CertifiedTail(
            round_up(tail + 2.0 * _gamma(3) * (1.0 + tail), CERTIFIED_DIGITS),
            max(t.steps for t in tails),
            round_up(max(t.contraction for t in tails), CERTIFIED_DIGITS),
        )

    def require_contraction(self) -> None:
        """Raise ContractionError unless every class has ``Delta_block < 1``.

        The message names the smallest N in ``PROFILE_STEPS`` at which every
        class contracts, or says that none does. Q(P^N) never decreases with N,
        so only N > block can qualify and only the failing classes can fail
        there: the search resumes their walks from the block, and reads the
        reports a regular chain's profile already holds.
        """
        bad = [j for j, rep in enumerate(self.class_reports) if rep.delta >= 1.0]
        if not bad:
            return
        if self.structure.regime is Regime.SINGULAR:
            problem = f"classes {bad} have Delta_{self.block} = 1"
        else:
            problem = f"Delta_{self.block} = 1"
        # A class is scanned at N only while every class before it contracts
        # there, so the search stops at the first such N.
        walks = [self.structure.walks[j] for j in bad]
        for N in range(self.block + 1, PROFILE_STEPS[-1] + 1):
            if all(walk.ergodicity(N).delta < 1.0 for walk in walks):
                hint = f"increase the block length to N = {N}, the smallest with Delta_N < 1"
                break
        else:
            hint = f"no block length N <= {PROFILE_STEPS[-1]} has Delta_N < 1"
        raise ContractionError(f"{problem}; {hint}")


def coupling_bound(
    structure: ChainStructure,
    d: DampingVector,
    p: Distribution,
    pi_eps: Distribution,
    epsilon: float,
    n: int,
) -> float:
    """One-step coupling bound on ``max_j |p(n)_j - pi(eps)_j|`` (family 5), driven by Delta_1."""
    return BoundContext(structure, d, p, epsilon, 1, pi_eps).onestep(n)


def coupling_bound_multistep(
    structure: ChainStructure,
    d: DampingVector,
    p: Distribution,
    pi_eps: Distribution,
    epsilon: float,
    block: int,
    n: int,
) -> float:
    """Block-of-N coupling bound (family 6), driven by Delta_block.

    Both geometric factors carry the exponent ``floor(n / block) * block``, so
    at block = 1 it is family 5's bound up to rounding: ``a^n b^n`` for ``(a b)^n``.
    """
    return BoundContext(structure, d, p, epsilon, block, pi_eps).multistep(n)


def split_bound_context(
    structure: ChainStructure,
    d: DampingVector,
    p: Distribution,
    epsilon: float,
    block: int,
    pi_eps: Distribution = None,
) -> BoundContext:
    """Build a :class:`BoundContext` for family 7 once ``BoundContext.require_family`` admits it.

    A class carrying no mass under ``p`` contributes no start-overlap term.
    """
    context = BoundContext(structure, d, p, epsilon, block, pi_eps)
    context.require_family("7")
    return context
