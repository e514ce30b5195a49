import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chains
from oracle import exact_coefficients
from dampedchain import (
    DampedChain,
    DampingVector,
    RegimeError,
    SpectralStructureError,
    StochasticMatrix,
    build_damped_matrix,
    decompose,
    expansion,
    limit_stationary,
    spectrum,
    stationary_direct,
    stationary_series,
)
from dampedchain.errors import IllConditionedError
from dampedchain.expansion import DEFAULT_CLUSTER_TOL, Spectrum, cluster_eigenvalues, spectral_coefficients
from dampedchain.report import expansion_section, rounded
from conftest import count_products, rank_one


class TestSpectrum:
    def test_five_node_eigenvalues(self, five_node):
        P, _ = five_node
        spec = spectrum(P)
        got = sorted(spec.eigenvalues, key=lambda z: z.real)
        expected = sorted(chains.FIVE_NODE_EIGENVALUES)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-8
        # The repeated eigenvalue merges into one representative of multiplicity 2.
        multiplicities = {round(rep.real, 6): mult for rep, mult in spec.distinct}
        assert multiplicities[round(-1 / 3, 6)] == 2
        assert len(spec.distinct) == 4

    def test_four_node_eigenvalues(self, four_node):
        P, _ = four_node
        spec = spectrum(P)
        got = sorted(spec.eigenvalues, key=lambda z: z.real)
        for g, e in zip(got, sorted(chains.FOUR_NODE_EIGENVALUES)):
            assert abs(g - e) < 1e-8

    def test_identity_collapses_to_single_eigenvalue(self):
        spec = spectrum(StochasticMatrix(np.eye(4)))
        assert spec.distinct == ((1.0 + 0.0j, 4),)

    def test_leading_eigenvalue_snapped_to_one(self, four_node):
        P, _ = four_node
        assert spectrum(P).distinct[0][0] == 1.0

    def test_second_modulus(self, five_node):
        P, _ = five_node
        assert spectrum(P).second_modulus == pytest.approx(1 / 3, abs=1e-10)


def greedy_clusters(eigs, cluster_tol):
    """Quadratic greedy clustering, the oracle of ``cluster_eigenvalues``.

    Every eigenvalue is compared with every cluster, oldest first, against
    the mean ``sum(g) / len(g)`` recomputed from the members.
    """
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
    return tuple(eigs), tuple((sum(g) / len(g), len(g)) for g in groups)


# Offsets from a cluster centre in units of cluster_tol: inside, on and just
# past the tolerance, so that the running mean decides membership.
STRADDLE = [0.0, 0.3, 0.5, 0.9, 0.999999, 1.0, 1.000001, 1.1, 1.5, 2.0]


@st.composite
def spectra(draw):
    """Eigenvalue arrays with repeats, conjugate pairs and clusters straddling the tolerance."""
    tol = draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.05]))
    values = []
    for _ in range(draw(st.integers(1, 12))):
        radius = draw(st.sampled_from([0.0, 1 / 3, 0.5, 1.0]) | st.floats(0.0, 1.0))
        angle = draw(st.sampled_from([0.0, np.pi]) | st.floats(0.0, np.pi))
        centre = cmath.rect(radius, angle)
        for _ in range(draw(st.integers(1, 4))):
            offset = draw(st.sampled_from(STRADDLE)) * tol * cmath.exp(1j * draw(st.floats(0, 2 * np.pi)))
            z = centre + offset
            if z.imag == 0.0 and draw(st.booleans()):
                z = complex(z.real, -0.0)  # a signed zero that sum(g) from 0 turns positive
            values += [z, z.conjugate()] if draw(st.booleans()) else [z]
    values = draw(st.permutations(values))
    eigs = np.array(values, dtype=complex)
    if draw(st.booleans()):
        eigs = eigs.real.copy()  # eigvals returns a real array when every eigenvalue is real
    return eigs, tol


class TestClustering:
    @settings(max_examples=300, deadline=None)
    @given(spectra())
    def test_matches_greedy_clustering_bit_for_bit(self, case):
        eigs, tol = case
        got, expected = cluster_eigenvalues(eigs, tol), greedy_clusters(eigs, tol)
        assert repr(got) == repr(expected)

    def test_web_chain_spectrum(self):
        P, _ = chains.random_web_chain(np.random.default_rng(2), 120)
        spec = spectrum(P)
        eigs, distinct = greedy_clusters(np.linalg.eigvals(P.entries), DEFAULT_CLUSTER_TOL)
        assert repr(spec.eigenvalues) == repr(eigs)
        assert repr(spec.distinct[1:]) == repr(distinct[1:])


class TestSpectralCoefficients:
    def test_five_node_repeated_eigenvalue_has_zero_weight(self, five_node):
        # The damping-averaged trajectory does not excite the eigenvalue -1/3.
        P, d = five_node
        sc = spectral_coefficients(P, d, spectrum(P))
        idx = [i for i, rho in enumerate(sc.rates) if abs(rho + 1 / 3) < 1e-8]
        assert len(idx) == 1
        np.testing.assert_allclose(np.abs(sc.coeffs[idx[0]]), 0.0, atol=1e-12)

    def test_four_node_third_state_weights(self, four_node):
        P, d = four_node
        sc = spectral_coefficients(P, d, spectrum(P))
        assert sc.constant[2] == pytest.approx(0.25, abs=1e-12)
        moduli = sorted(abs(c) for c in sc.coeffs[:, 2])
        # Weights are 0 (for -1/2) and sqrt(33)/132 for the conjugate pair.
        assert moduli[0] == pytest.approx(0.0, abs=1e-12)
        assert moduli[1] == pytest.approx(np.sqrt(33) / 132, abs=1e-12)
        assert moduli[2] == pytest.approx(np.sqrt(33) / 132, abs=1e-12)

    def test_rank_one_matrix_has_constant_trajectory(self):
        d = DampingVector(np.array([0.1, 0.2, 0.3, 0.4]))
        D = rank_one(d)
        sc = spectral_coefficients(D, d, spectrum(D))
        np.testing.assert_allclose(np.abs(sc.coeffs), 0.0, atol=1e-12)
        np.testing.assert_allclose(sc.constant, d.weights, atol=1e-12)

    @pytest.mark.parametrize("chain_name", ["five_node", "four_node"])
    def test_reconstruction_matches_trajectory(self, chain_name, request):
        P, d = request.getfixturevalue(chain_name)
        sc = spectral_coefficients(P, d, spectrum(P))
        mbar = len(sc.rates) + 1
        v = d.weights
        for n in range(2 * mbar):
            rebuilt = sc.reconstruct(n)
            assert np.max(np.abs(rebuilt.real - v)) < 1e-8
            assert np.max(np.abs(rebuilt.imag)) < 1e-10
            v = v @ P.entries

    def test_samples_are_the_first_mbar_trajectory_vectors(self, monkeypatch, five_node):
        P, d = five_node
        spec = spectrum(P)
        products = count_products(monkeypatch)
        spectral_coefficients(P, d, spec)
        mbar = len(spec.distinct)
        # m_bar - 1 = 3 steps of d by P0, and the residual of the fit's direct solve.
        assert mbar == 4
        assert products["StochasticMatrix"] == (mbar - 1) + 1

    def test_defective_matrix_is_detected(self):
        # Upper-triangular chain: eigenvalue 1/2 twice with a single eigenvector.
        P = StochasticMatrix(
            np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        )
        d = DampingVector.uniform(3)
        with pytest.raises(SpectralStructureError, match="defective"):
            spectral_coefficients(P, d, spectrum(P))

    def test_unmerged_near_duplicates_are_rejected(self, five_node):
        P, d = five_node
        unmerged = Spectrum(*cluster_eigenvalues(np.linalg.eigvals(P.entries), 0.0))
        with pytest.raises(IllConditionedError, match="cluster_tol"):
            spectral_coefficients(P, d, unmerged)


class TestExpansion:
    def test_five_node_first_order_rationals(self, five_node):
        P, d = five_node
        series = expansion(decompose(P), d, n_max=2)
        expected = [307 / 2178, -50 / 1089, -23 / 726, -23 / 726, -23 / 726]
        np.testing.assert_allclose(series.coeffs[0], expected, atol=1e-12)

    def test_five_node_five_decimal_table(self, five_node):
        P, d = five_node
        series = expansion(decompose(P), d, n_max=2)
        first = [round(c, 5) for c in series.coeffs[0]]
        second = [round(c, 5) for c in series.coeffs[1]]
        assert first == [0.14096, -0.04591, -0.03168, -0.03168, -0.03168]
        assert second == [-0.01946, 0.00456, 0.00497, 0.00497, 0.00497]

    def test_four_node_exact_rationals(self, four_node):
        P, d = four_node
        series = expansion(decompose(P), d, n_max=2)
        np.testing.assert_allclose(series.base.probs, chains.FOUR_NODE_PI, atol=1e-12)
        np.testing.assert_allclose(series.coeffs, chains.FOUR_NODE_COEFFS, atol=1e-9)

    def test_eight_node_table(self, eight_node):
        P, d = eight_node
        series = expansion(decompose(P), d, n_max=2)
        np.testing.assert_allclose(series.base.probs, chains.EIGHT_NODE_BASE, atol=1e-12)
        np.testing.assert_allclose(series.coeffs, chains.EIGHT_NODE_COEFFS, atol=1e-9)

    @pytest.mark.parametrize("chain_name", ["five_node", "four_node", "eight_node"])
    def test_coefficient_rows_sum_to_zero(self, chain_name, request):
        P, d = request.getfixturevalue(chain_name)
        series = expansion(decompose(P), d, n_max=4)
        for row in series.coeffs:
            assert abs(row.sum()) < 1e-9

    def test_unsupported_regime_is_rejected(self):
        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        d = DampingVector.uniform(2)
        with pytest.raises(RegimeError):
            expansion(decompose(P), d)

    def test_split_chain_regular_path_is_rejected(self, eight_node):
        # Forcing the whole-matrix path on a two-class chain makes its
        # stationary solve singular, which expansion reports as a RegimeError.
        from dampedchain import ChainStructure, ClosedClass, Regime

        P, d = eight_node
        fake = ChainStructure((ClosedClass(tuple(range(8)), 1),), (), Regime.REGULAR, P)
        with pytest.raises(RegimeError, match="singular"):
            expansion(fake, d)

    @pytest.mark.parametrize("chain_name", ["web", "eight_node"])
    def test_base_is_the_limit_law_bit_for_bit(self, chain_name, request):
        # Uniform damping on 300 states sums to 1.0000000000000002, so a base
        # scaled by the class mass is not pi0 to the bit.
        if chain_name == "web":
            P, d = chains.random_web_chain(np.random.default_rng(3), 300)
        else:
            P, d = request.getfixturevalue(chain_name)
        structure = decompose(P)
        limit = limit_stationary(structure, d.as_distribution())
        np.testing.assert_array_equal(expansion(structure, d, 2).base.probs, limit.probs)


class TestRecursionOracles:
    @pytest.mark.parametrize("chain_name", ["five_node", "four_node"])
    def test_matches_eigenvalue_sum_formula(self, chain_name, request):
        # Independent route for diagonalizable chains: with (d P0^n)_j =
        # pi0_j + sum_l c_{j,l} rho_l^n, summing the geometric mixture gives
        #   a_1 = d - pi0 + sum_l c_l rho_l / (1 - rho_l),
        #   a_n = (-1)^(n-1) sum_l c_l rho_l^(n-1) / (1 - rho_l)^n.
        P, d = request.getfixturevalue(chain_name)
        n_max = 6
        sc = spectral_coefficients(P, d, spectrum(P))
        oracle = np.zeros((n_max, P.dim), dtype=complex)
        oracle[0] = d.weights - sc.constant
        for rho, row in zip(sc.rates, sc.coeffs):
            oracle[0] += row * rho / (1.0 - rho)
            for n in range(2, n_max + 1):
                oracle[n - 1] += (-1) ** (n - 1) * row * rho ** (n - 1) / (1.0 - rho) ** n
        series = expansion(decompose(P), d, n_max=n_max)
        np.testing.assert_allclose(np.abs(oracle.imag), 0.0, atol=1e-14)
        np.testing.assert_allclose(series.coeffs, oracle.real, rtol=0, atol=1e-14)
        np.testing.assert_allclose(series.base.probs, sc.constant, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("damping", ["uniform", "linear"])
    @pytest.mark.parametrize("chain_name", ["five_node", "four_node", "eight_node"])
    def test_matches_the_exact_coefficients(self, chain_name, damping, request):
        P, d = request.getfixturevalue(chain_name)
        if damping == "linear":
            d = chains.linear_damping(P.dim)
        series = expansion(decompose(P), d, n_max=4)
        for row, exact in zip(series.coeffs, exact_coefficients(P.entries, d.weights, 4)):
            scale = max(abs(x) for x in exact)
            assert max(abs(Fraction(x) - y) for x, y in zip(row.tolist(), exact)) <= 1e-12 * scale

    def test_web_chain_beyond_the_eigenvalue_fit(self):
        # The eigenvalue fit refuses this chain (IllConditionedError); the
        # recursion must agree with a direct solve up to its truncation.
        P, d = chains.random_web_chain(np.random.default_rng(0), 100)
        structure = decompose(P)
        eps = 0.01
        truth = stationary_direct(build_damped_matrix(DampedChain(P, d, eps))).pi.probs
        third = expansion(structure, d, n_max=3).evaluate(eps)
        fourth = expansion(structure, d, n_max=4)
        # Order 3 is off by the dropped a_4 eps^4 (about 1e-10 here) and no more.
        assert np.max(np.abs(third - truth)) <= 2 * np.max(np.abs(fourth.coeffs[3])) * eps**4
        assert np.max(np.abs(fourth.evaluate(eps) - truth)) < 1e-11


class TestEvaluate:
    def test_zero_epsilon_returns_base(self, five_node):
        P, d = five_node
        series = expansion(decompose(P), d)
        np.testing.assert_array_equal(series.evaluate(0.0), series.base.probs)

    def test_five_node_first_state_at_point_two(self, five_node):
        P, d = five_node
        series = expansion(decompose(P), d, n_max=2)
        value = series.evaluate(0.2)[0]
        assert value == pytest.approx(5 / 66 + 0.14096 * 0.2 - 0.01946 * 0.04, abs=5e-6)
        # The first-order term is about 37.22% of the limiting probability.
        first_term = series.coeffs[0][0] * 0.2
        assert round(first_term, 5) == 0.02819
        assert first_term / (5 / 66) == pytest.approx(0.3722, abs=5e-4)

    def test_order_difference_is_last_term(self, four_node):
        P, d = four_node
        s = decompose(P)
        eps = 0.3
        full = expansion(s, d, n_max=3)
        truncated = expansion(s, d, n_max=2)
        diff = full.evaluate(eps) - truncated.evaluate(eps)
        np.testing.assert_allclose(diff, full.coeffs[2] * eps**3, atol=1e-15)

    def test_mass_defect_is_reported(self, four_node):
        P, d = four_node
        structure = decompose(P)
        series = expansion(structure, d, n_max=2)
        (evaluation,) = expansion_section(structure, d, 2, [0.3])["evaluations"]
        assert evaluation["mass_defect"] == rounded(series.evaluate(0.3).sum() - 1.0)


@pytest.mark.parametrize(
    "chain_name", ["five_node", "four_node", "eight_node", "three_node_defective"]
)
def test_empirical_convergence_order(chain_name, request):
    P, d = request.getfixturevalue(chain_name)
    structure = decompose(P)
    n_max = 2
    series = expansion(structure, d, n_max=n_max)
    errors = []
    for eps in (0.1, 0.05, 0.025):
        truth = stationary_series(P, d, eps, tol=1e-14).pi.probs
        errors.append(np.max(np.abs(series.evaluate(eps) - truth)))
    limit = 0.5 ** (n_max + 1) * 1.5
    assert errors[1] <= errors[0] * limit
    assert errors[2] <= errors[1] * limit
