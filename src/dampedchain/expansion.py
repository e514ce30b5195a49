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
the one-class case. Each class's matrix and pi0 are read from the structure
(``ChainStructure.matrices`` and ``.laws``), never solved here, and the base
of the series is ``limit_stationary``'s pi0, the one eps -> 0 limit.

``spectrum`` (eigenvalue reporting and ``estimate_decay``'s rate) and
the trajectory fit ``spectral_coefficients`` are independent of the series.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import DampingVector, Distribution, StochasticMatrix, require_dim, require_epsilon, trajectory
from .errors import IllConditionedError, SpectralStructureError, ValidationError
from .stationary import limit_stationary, stationary_direct
from .structure import ChainStructure, class_mass

DEFAULT_CLUSTER_TOL = 1e-8
VANDERMONDE_COND_LIMIT = 1e12
CONSTANT_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues sorted by descending modulus, plus distinct representatives.

    ``distinct`` holds (representative, multiplicity) pairs after merging
    eigenvalues that agree within ``DEFAULT_CLUSTER_TOL``; the representative
    is the cluster mean. The leading representative must be 1 within 1e-8 for
    any row-stochastic input.
    """

    eigenvalues: tuple
    distinct: tuple

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
        """The truncated series at epsilon by Horner's rule.

        The value is a plain vector: truncation breaks exact normalization,
        so it need not sum to 1.
        """
        require_epsilon(epsilon)
        acc = np.zeros(self.base.dim)
        for row in self.coeffs[::-1]:
            acc = row + epsilon * acc
        return self.base.probs + epsilon * acc


def spectrum(P0: StochasticMatrix) -> Spectrum:
    """All eigenvalues of P0, sorted and merged into distinct representatives.

    Dense nonsymmetric solve (Hessenberg + shifted QR via LAPACK). Sorting is
    by descending modulus with a deterministic (real, imag) tie-break;
    clustering is greedy against the running cluster mean
    (:func:`cluster_eigenvalues`).
    """
    eigs, distinct = cluster_eigenvalues(np.linalg.eigvals(P0.entries), DEFAULT_CLUSTER_TOL)
    leading = distinct[0][0]
    if abs(leading - 1.0) > 1e-8:
        raise SpectralStructureError(
            f"leading eigenvalue {leading} is not 1 within 1e-8; matrix is not row-stochastic enough"
        )
    # Snap the leading representative to exactly 1; it is 1 in exact arithmetic.
    distinct = ((1.0 + 0.0j, distinct[0][1]),) + distinct[1:]
    return Spectrum(eigs, distinct)


def cluster_eigenvalues(eigs, cluster_tol: float):
    """Sort eigenvalues and merge them greedily into ``(mean, multiplicity)`` clusters.

    The order is by descending modulus, then descending real and imaginary
    part, stable in input order. Each eigenvalue joins the first cluster, in
    creation order, whose mean (running sum over count) lies within
    ``cluster_tol``, or opens a new one. Moduli only fall along the order, so
    a cluster whose mean modulus exceeds ``|e| + cluster_tol`` can match
    neither ``e`` nor any later eigenvalue (triangle inequality): it is
    retired, and each eigenvalue is compared with the live clusters only. A
    relative slack of 1e-12 on that test, far above the few ulps of rounding
    in the moduli, keeps a cluster that could still match alive.

    Returns ``(eigenvalues, distinct)``: the sorted eigenvalues and the
    clusters, as tuples of Python complex numbers.
    """
    eigs = np.asarray(eigs, dtype=complex)
    moduli = np.array([abs(e) for e in eigs.tolist()])
    order = np.lexsort((-eigs.imag, -eigs.real, -moduli))
    ordered = eigs[order].tolist()
    groups, live = [], []
    for e, modulus in zip(ordered, moduli[order].tolist()):
        reach = (modulus + cluster_tol) * (1.0 + 1e-12)
        live = [g for g in live if abs(g[0] / g[1]) <= reach]
        for g in live:
            if abs(e - g[0] / g[1]) <= cluster_tol:
                break
        else:
            g = [0, 0]
            groups.append(g)
            live.append(g)
        g[0] += e
        g[1] += 1
    return tuple(ordered), tuple((total / count, count) for total, count in groups)


def spectral_coefficients(
    P0: StochasticMatrix, d: DampingVector, spec: Spectrum
) -> SpectralCoefficients:
    """Fit trajectory samples against the distinct eigenvalues.

    For each state j, solves the square Vandermonde system
    ``sum_l rho_l**n c_{j,l} = (d P0^n)_j`` over n = 0..m_bar-1 (d's
    :func:`~dampedchain.core.trajectory`). The fitted
    constant must match the directly solved stationary distribution; a
    mismatch beyond 1e-6 means the trajectory carries polynomial-in-n terms,
    i.e. the matrix is defective, and no coefficient table exists.

    The library no longer calls this fit: ``expansion`` uses the
    deviation-matrix recursion. It stays as an independent oracle for the
    series on small diagonalizable chains.
    """
    rhos = np.array([rep for rep, _ in spec.distinct], dtype=complex)
    mbar = len(rhos)
    samples = np.array(list(islice(trajectory(P0, d.weights), mbar)))
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


def _class_series(M: StochasticMatrix, pi0: np.ndarray, d: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficients a_1..a_n_max of one closed class with matrix M and stationary law pi0."""
    Z_inv = np.linalg.inv(np.eye(M.dim) - M.entries + pi0)
    coeffs = np.empty((n_max, M.dim))
    rhs = d - pi0
    for k in range(n_max):
        coeffs[k] = rhs @ Z_inv
        # Not M.vecmat: its order of summation moves printed coefficients (12th digit).
        rhs = -coeffs[k] @ M.entries
    return coeffs


def require_order(n_max: int) -> None:
    """Refuse an expansion order below 1."""
    if n_max < 1:
        raise ValidationError("expansion order must be at least 1")


def require_expansion(structure: ChainStructure, n_max: int) -> None:
    """Refuse an order below 1, then an unsupported chain (``ChainStructure.require_classes``)."""
    require_order(n_max)
    structure.require_classes()


def expansion(structure: ChainStructure, d: DampingVector, n_max: int = 2) -> ExpansionSeries:
    """Power series of the damped stationary distribution of ``structure.P0`` around eps = 0.

    The base is pi0 of :func:`limit_stationary`, the eps -> 0 limit at the
    damping weights. Runs the deviation-matrix recursion on each closed
    class's matrix and law (``structure.matrices`` and ``structure.laws``)
    with the damping weights renormalized to the class, and scales the class
    table by the class mass of d. A class whose stationary solve is singular
    holds several closed classes, which ``structure.laws`` refuses with
    RegimeError.
    """
    require_expansion(structure, n_max)
    require_dim("damping", d.dim, structure.P0.dim)
    p = d.as_distribution()
    coeffs = np.zeros((n_max, structure.P0.dim))
    masses = class_mass(p, structure)
    for cls, mass, M, law in zip(structure.classes, masses, structure.matrices, structure.laws):
        idx = list(cls.states)
        coeffs[:, idx] = mass * _class_series(M, law.probs, d.weights[idx] / mass, n_max)
    return ExpansionSeries(limit_stationary(structure, p), coeffs)
