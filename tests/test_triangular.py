import math

import numpy as np
import pytest

import chains
from conftest import count_calls
from oracle import propagate
from dampedchain import (
    BoundContext,
    ContractionError,
    DampedChain,
    Distribution,
    RegimeError,
    StochasticMatrix,
    build_damped_matrix,
    decompose,
    limit_stationary,
    triangular_limit,
    triangular_sweep,
)
from dampedchain.triangular import triangular_bound

POINT_AT_FIRST = Distribution.point_mass(8, 0)


class TestLimit:
    def test_zero_time_returns_start_side(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        limit = triangular_limit(s, d, POINT_AT_FIRST, 0.0)
        assert limit.weight == 1.0
        np.testing.assert_array_equal(limit.values, limit.start_limit)

    def test_infinite_time_returns_damped_side(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        limit = triangular_limit(s, d, POINT_AT_FIRST, math.inf)
        assert limit.weight == 0.0
        np.testing.assert_array_equal(limit.values, limit.damped_limit)
        np.testing.assert_allclose(limit.values, chains.EIGHT_NODE_BASE, atol=1e-12)

    def test_mixture_identity_is_exact(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        for t in (0.3, 1.0, 2.5):
            limit = triangular_limit(s, d, POINT_AT_FIRST, t)
            expected = limit.start_limit * math.exp(-t) + limit.damped_limit * (
                1.0 - math.exp(-t)
            )
            np.testing.assert_array_equal(limit.values, expected)
            assert limit.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_first_state_at_unit_time(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        limit = triangular_limit(s, d, POINT_AT_FIRST, 1.0)
        expected = (1 / 8) * math.exp(-1) + (1 / 16) * (1 - math.exp(-1))
        assert limit.values[0] == pytest.approx(expected, abs=1e-12)
        assert round(limit.values[0], 5) == 0.08549
        # Cross-check against a nearly-degenerate damped trajectory.
        P_small = build_damped_matrix(DampedChain(P, d, 0.001))
        walked = propagate(POINT_AT_FIRST, P_small, 1000)
        assert abs(walked.probs[0] - limit.values[0]) < 5e-3

    def test_regular_chain_is_constant_in_t(self, five_node):
        P, d = five_node
        s = decompose(P)
        for t in (0.0, 1.0, math.inf):
            limit = triangular_limit(s, d, Distribution.point_mass(5, 0), t)
            np.testing.assert_allclose(limit.values, chains.FIVE_NODE_PI, atol=1e-12)

    def test_each_class_law_is_solved_once(self, eight_node, monkeypatch):
        P, d = eight_node
        s = decompose(P)
        solves = count_calls(monkeypatch, "stationary_direct")
        triangular_limit(s, d, POINT_AT_FIRST, 1.0)
        # Both sides share the two class laws.
        assert len(solves) == len(s.classes) == 2

    def test_unsupported_regime_rejected(self):
        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        d = chains.DampingVector.uniform(2)
        with pytest.raises(RegimeError):
            triangular_limit(decompose(P), d, Distribution.uniform(2), 1.0)


class TestBound:
    def test_matched_masses_drop_discretization_term(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        eps, n = 0.1, 14
        t_exact = -n * math.log(1.0 - eps)
        p = d.as_distribution()
        matched = triangular_bound(s, d, p, eps, n, 2, t_exact)
        shifted = triangular_bound(s, d, p, eps, n, 2, t_exact + 0.5)
        # p = d keeps the class masses equal, so R does not enter at all.
        assert matched == shifted

    def test_discretization_term_enters_for_point_mass(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        eps, n = 0.1, 14
        t_exact = -n * math.log(1.0 - eps)
        matched = triangular_bound(s, d, POINT_AT_FIRST, eps, n, 2, t_exact)
        shifted = triangular_bound(s, d, POINT_AT_FIRST, eps, n, 2, t_exact + 0.5)
        assert shifted > matched

    def test_regular_two_term_form(self, five_node):
        from dampedchain import ergodicity_coefficient, overlap, stationary_direct

        P, d = five_node
        s = decompose(P)
        p = Distribution.point_mass(5, 0)
        eps, n, block = 0.1, 9, 2
        got = triangular_bound(s, d, p, eps, n, block, eps * n)
        pi0 = stationary_direct(P).pi.probs
        rep = ergodicity_coefficient(P, block)
        exponent = (n // block) * block
        expected = (1 - overlap(p.probs, pi0)) * rep.delta**exponent + (
            1 - overlap(d.weights, pi0)
        ) * eps * block / (1 - rep.delta**block)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_block_one_is_rejected_when_not_contracting(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        with pytest.raises(ContractionError, match="to N = 2, the smallest"):
            triangular_bound(s, d, POINT_AT_FIRST, 0.1, 10, 1, 1.0)

    def test_error_says_when_no_block_contracts(self):
        # A 30-cycle with one self-loop is regular, but 12 steps from states 0
        # and 15 reach disjoint arcs, so Delta_N = 1 for every N <= 12.
        m = 30
        entries = np.zeros((m, m))
        for i in range(m):
            entries[i, (i + 1) % m] = 1.0
        entries[0] = [0.5, 0.5] + [0.0] * (m - 2)
        P = StochasticMatrix(entries)
        s = decompose(P)
        assert s.regime.value == "regular"
        d = chains.DampingVector.uniform(m)
        with pytest.raises(ContractionError, match="no block length N <= 12"):
            triangular_sweep(BoundContext(s, d, Distribution.uniform(m), 0.1, 3), [0, 1])

    @pytest.mark.parametrize("chain_name", ["five_node", "eight_node"])
    def test_bound_dominates_deviation_from_mixture(self, chain_name, request):
        P, d = request.getfixturevalue(chain_name)
        s = decompose(P)
        p = Distribution.point_mass(P.dim, 0)
        eps = 0.1
        P_eps = build_damped_matrix(DampedChain(P, d, eps))
        law = p.probs
        for n in range(0, 31):
            t = eps * n
            mixture = triangular_limit(s, d, p, t).values
            bound = triangular_bound(s, d, p, eps, n, 2, t)
            assert np.max(np.abs(law - mixture)) <= bound + 1e-12
            law = law @ P_eps.entries


class TestSweep:
    def test_first_row_compares_start_against_start_limit(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        sweep = triangular_sweep(BoundContext(s, d, POINT_AT_FIRST, 0.1, 2), [0, 5])
        row = sweep.rows[0]
        assert row.n == 0
        np.testing.assert_array_equal(row.trajectory, POINT_AT_FIRST.probs)
        np.testing.assert_allclose(
            row.mixture, limit_stationary(s, POINT_AT_FIRST).probs, atol=1e-14
        )

    def test_relative_error_profile(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        sweep = triangular_sweep(BoundContext(s, d, POINT_AT_FIRST, 0.1, 2), range(0, 31))
        by_n = {row.n: row for row in sweep.rows}
        assert by_n[10].rel_error[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert by_n[30].rel_error[0] == pytest.approx(math.exp(-3.0), abs=1e-12)

    @pytest.mark.parametrize("chain_name", ["five_node", "four_node", "web"])
    def test_regular_chain_relative_error_is_exactly_zero(self, chain_name, request):
        # Both limits are the one stationary law, so the mixture never leaves it.
        if chain_name == "web":
            P, d = chains.random_web_chain(np.random.default_rng(5), 60)
            block = 3
        else:
            P, d = request.getfixturevalue(chain_name)
            block = 2
        p = Distribution.point_mass(P.dim, 0)
        sweep = triangular_sweep(BoundContext(decompose(P), d, p, 0.1, block), range(31))
        assert all(np.all(row.rel_error == 0.0) for row in sweep.rows)

    def test_relative_error_is_the_weighted_gap_between_the_limits(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        start = limit_stationary(s, POINT_AT_FIRST).probs
        damped = limit_stationary(s, d.as_distribution()).probs
        for row in triangular_sweep(BoundContext(s, d, POINT_AT_FIRST, 0.1, 2), range(0, 31)).rows:
            via_mixture = np.abs(row.mixture - damped) / damped
            np.testing.assert_allclose(row.rel_error, via_mixture, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(row.rel_error == 0.0, start == damped)

    def test_bounds_cover_all_rows(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        sweep = triangular_sweep(BoundContext(s, d, POINT_AT_FIRST, 0.1, 2), range(0, 31))
        for row in sweep.rows:
            assert np.max(np.abs(row.trajectory - row.mixture)) <= row.bound + 1e-12

    def test_regular_chain_trajectory_approaches_single_limit(self, five_node):
        # At fixed eps the trajectory lands on pi(eps), which itself sits
        # O(eps) from the single limit, so shrink eps along the sweep length.
        P, d = five_node
        s = decompose(P)
        p = Distribution.point_mass(5, 0)
        sweep = triangular_sweep(BoundContext(s, d, p, 0.01, 2), [0, 100, 300])
        devs = [np.max(np.abs(r.trajectory - chains.FIVE_NODE_PI)) for r in sweep.rows]
        assert devs[0] > devs[1] >= devs[2]
        assert devs[-1] < 3e-3

    @pytest.mark.parametrize("chain_name", ["five_node", "eight_node"])
    def test_constants_are_built_once(self, chain_name, request, monkeypatch):
        P, d = request.getfixturevalue(chain_name)
        s = decompose(P)
        solves = count_calls(monkeypatch, "stationary_direct")
        limits = count_calls(monkeypatch, "limit_stationary")
        context = BoundContext(s, d, Distribution.point_mass(P.dim, 0), 0.1, 2)
        triangular_sweep(context, range(0, 31))
        # One solve per closed class; a regular chain's class is P0 itself.
        assert len(solves) == len(s.classes)
        if len(s.classes) == 1:
            assert solves[0][0] is P
        assert len(limits) == 2

    def test_diagonal_refinement_shrinks_deviation(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        t = 1.0
        devs = []
        for eps in (0.1, 0.05, 0.025):
            n = round(t / eps)
            P_eps = build_damped_matrix(DampedChain(P, d, eps))
            law = propagate(POINT_AT_FIRST, P_eps, n).probs
            mixture = triangular_limit(s, d, POINT_AT_FIRST, t).values
            devs.append(np.max(np.abs(law - mixture)))
        assert devs[0] > devs[1] > devs[2]
