"""Power-series expansion of the stationary law in epsilon, plus eigenvalue analysis.

The damped stationary law satisfies the identity

    pi(eps) (I - (1 - eps) P0) = eps d.

Writing pi(eps) = pi0 + a_1 eps + a_2 eps^2 + ... and matching powers of eps
gives, for a single closed class with stationary law pi0,

    a_1 (I - P0) = d - pi0,        a_k (I - P0) = -a_{k-1} P0   (k >= 2).

Every coefficient row sums to zero, so each equation can be solved against
the fundamental matrix Z = I - P0 + 1 pi0 instead of the singular I - P0:
a Z = a (I - P0) for such rows, and a Z^-1 = a H with H = Z^-1 - 1 pi0 the
deviation matrix (the group inverse of I - P0). One inverse of Z per class
then yields every order by a vector-matrix product.

In the singular regime P0 is block diagonal over its closed classes, so the
recursion runs per class with the renormalized damping weights and each class
table is scaled by the class mass of the damping vector. A regular chain is
the one-class case with mass 1.

``spectrum`` (eigenvalue reporting, decay rates of the bound families) and
the trajectory fit ``spectral_coefficients`` are independent of the series.
"""

from dataclasses import dataclass

import numpy as np

from .core import DampingVector, Distribution, StochasticMatrix
from .errors import (
    IllConditionedError,
    RegimeError,
    SingularSystemError,
    SpectralStructureError,
    ValidationError,
)
from .stationary import stationary_direct
from .structure import ChainStructure, Regime, class_mass, class_matrices, restrict_damping

DEFAULT_CLUSTER_TOL = 1e-8
VANDERMONDE_COND_LIMIT = 1e12
CONSTANT_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues sorted by descending modulus, plus distinct representatives.

    ``distinct`` holds (representative, multiplicity) pairs after merging
    eigenvalues that agree within ``cluster_tol``; the representative is the
    cluster mean. The leading representative must be 1 within 1e-8 for any
    row-stochastic input.
    """

    eigenvalues: tuple
    distinct: tuple
    cluster_tol: float

    @property
    def second_modulus(self) -> float:
        """|rho_2|: modulus of the largest non-leading distinct eigenvalue."""
        if len(self.distinct) < 2:
            return 0.0
        return abs(self.distinct[1][0])


@dataclass(frozen=True)
class SpectralCoefficients:
    """Per-state decomposition of the d-averaged trajectory.

    ``constant`` is the limiting row (the stationary distribution);
    ``coeffs[l - 1, j]`` is the complex weight of ``rates[l - 1]**n`` in
    coordinate j.
    """

    constant: np.ndarray
    rates: tuple
    coeffs: np.ndarray

    def reconstruct(self, n: int) -> np.ndarray:
        """Evaluate ``constant + sum_l rates_l**n * coeffs_l`` (complex)."""
        out = self.constant.astype(complex).copy()
        for rho, row in zip(self.rates, self.coeffs):
            out += rho**n * row
        return out


@dataclass(frozen=True)
class ExpansionSeries:
    """Power series of pi(eps) around eps = 0: base plus coefficient table.

    ``coeffs[k - 1, j]`` multiplies eps**k for state j. Each coefficient row
    sums to zero because every pi(eps) is a probability vector.
    """

    base: Distribution
    coeffs: np.ndarray

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    def evaluate(self, epsilon: float) -> np.ndarray:
        return evaluate_expansion(self, epsilon)

    def mass_defect(self, epsilon: float) -> float:
        return float(self.evaluate(epsilon).sum() - 1.0)


def spectrum(P0: StochasticMatrix, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """All eigenvalues of P0, sorted and merged into distinct representatives.

    Dense nonsymmetric solve (Hessenberg + shifted QR via LAPACK). Sorting is
    by descending modulus with a deterministic (real, imag) tie-break;
    clustering is greedy against the running cluster mean.
    """
    eigs = np.linalg.eigvals(P0.entries)
    order = sorted(range(len(eigs)), key=lambda i: (-abs(eigs[i]), -eigs[i].real, -eigs[i].imag))
    eigs = [complex(eigs[i]) for i in order]

    groups = []
    for e in eigs:
        for g in groups:
            if abs(e - sum(g) / len(g)) <= cluster_tol:
                g.append(e)
                break
        else:
            groups.append([e])
    distinct = tuple((sum(g) / len(g), len(g)) for g in groups)

    leading = distinct[0][0]
    if abs(leading - 1.0) > 1e-8:
        raise SpectralStructureError(
            f"leading eigenvalue {leading} is not 1 within 1e-8; matrix is not row-stochastic enough"
        )
    # Snap the leading representative to exactly 1; it is 1 in exact arithmetic.
    distinct = ((1.0 + 0.0j, distinct[0][1]),) + distinct[1:]
    return Spectrum(tuple(eigs), distinct, cluster_tol)


def spectral_coefficients(
    P0: StochasticMatrix, d: DampingVector, spec: Spectrum
) -> SpectralCoefficients:
    """Fit trajectory samples against the distinct eigenvalues.

    For each state j, solves the square Vandermonde system
    ``sum_l rho_l**n c_{j,l} = (d P0^n)_j`` over n = 0..m_bar-1. The fitted
    constant must match the directly solved stationary distribution; a
    mismatch beyond 1e-6 means the trajectory carries polynomial-in-n terms,
    i.e. the matrix is defective, and no coefficient table exists.

    The library no longer calls this fit: ``expansion`` uses the
    deviation-matrix recursion. It stays as an independent oracle for the
    series on small diagonalizable chains.
    """
    rhos = np.array([rep for rep, _ in spec.distinct], dtype=complex)
    mbar = len(rhos)
    samples = np.empty((mbar, P0.dim))
    v = d.weights
    for n in range(mbar):
        samples[n] = v
        v = v @ P0.entries
    V = np.vander(rhos, N=mbar, increasing=True).T  # V[n, l] = rho_l**n
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > VANDERMONDE_COND_LIMIT:
        raise IllConditionedError(
            f"eigenvalue sample matrix has condition {cond:.3e} (> {VANDERMONDE_COND_LIMIT:.0e}); "
            "increase cluster_tol so nearby eigenvalues merge. The trajectory fit only "
            f"supports a modest number of distinct eigenvalues ({mbar} here)"
        )
    coeffs = np.linalg.solve(V, samples.astype(complex))

    pi0 = stationary_direct(P0).pi.probs
    mismatch = float(np.max(np.abs(coeffs[0] - pi0)))
    if mismatch > CONSTANT_MATCH_TOL:
        raise SpectralStructureError(
            f"fitted constant term deviates from the stationary distribution by {mismatch:.3e}; "
            "the matrix appears defective (non-semisimple), which this decomposition cannot handle"
        )
    return SpectralCoefficients(pi0, tuple(rhos[1:]), coeffs[1:])


def _class_series(P0: StochasticMatrix, d: np.ndarray, n_max: int):
    """Stationary law and coefficients a_1..a_n_max of one closed class."""
    pi0 = stationary_direct(P0).pi.probs
    Z_inv = np.linalg.inv(np.eye(P0.dim) - P0.entries + pi0)
    coeffs = np.empty((n_max, P0.dim))
    rhs = d - pi0
    for k in range(n_max):
        coeffs[k] = rhs @ Z_inv
        rhs = -coeffs[k] @ P0.entries
    return pi0, coeffs


def expansion(
    P0: StochasticMatrix,
    d: DampingVector,
    structure: ChainStructure,
    n_max: int = 2,
) -> ExpansionSeries:
    """Power series of the damped stationary distribution around eps = 0.

    Runs the deviation-matrix recursion on each closed class with the damping
    weights renormalized to the class, and scales the class table by the
    class mass of d. A class whose stationary solve is singular holds several
    closed classes, which is refused with RegimeError.
    """
    if n_max < 1:
        raise ValidationError("expansion order must be at least 1")
    if structure.regime is Regime.UNSUPPORTED:
        raise RegimeError("expansion requires a regular or singular chain")

    masses = class_mass(d.as_distribution(), structure)
    base = np.zeros(P0.dim)
    coeffs = np.zeros((n_max, P0.dim))
    for j, (cls, M) in enumerate(zip(structure.classes, class_matrices(P0, structure))):
        try:
            pi0, table = _class_series(M, restrict_damping(d, cls).weights, n_max)
        except SingularSystemError as exc:
            raise RegimeError(
                f"closed class {cls.states} splits further; the chain must be treated as singular"
            ) from exc
        idx = list(cls.states)
        base[idx] = masses[j] * pi0
        coeffs[:, idx] = masses[j] * table
    return ExpansionSeries(Distribution(base, max(P0.row_tol, 1e-10)), coeffs)


def evaluate_expansion(series: ExpansionSeries, epsilon: float) -> np.ndarray:
    """Evaluate the truncated series at epsilon by Horner's rule.

    The value is a plain vector: truncation breaks exact normalization, so it
    need not sum to 1 (see ``ExpansionSeries.mass_defect``).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon}")
    acc = np.zeros(series.base.dim)
    for row in series.coeffs[::-1]:
        acc = row + epsilon * acc
    return series.base.probs + epsilon * acc
