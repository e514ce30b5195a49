from pathlib import Path

import numpy as np
import pytest

import chains
from conftest import count_calls, count_products, rank_one
from oracle import exact_damped_law, exact_limit_law, l1_error
from dampedchain import (
    BoundContext,
    ConvergenceError,
    DampedChain,
    DampingVector,
    Distribution,
    Method,
    Regime,
    SingularSystemError,
    StochasticMatrix,
    ValidationError,
    build_damped_matrix,
    decompose,
    limit_stationary,
    stationary_direct,
    stationary_power,
    stationary_series,
    tv_distance,
)
from dampedchain import report
from dampedchain.io import ingest
from dampedchain.stationary import _damped_system, series_length, series_sums

DATA = Path(__file__).parent / "data"


class TestDirect:
    def test_five_node_exact(self, five_node):
        P, _ = five_node
        sol = stationary_direct(P)
        np.testing.assert_allclose(sol.pi.probs, chains.FIVE_NODE_PI, atol=1e-12)
        assert sol.method is Method.DIRECT
        assert sol.residual <= 1e-10

    def test_four_node_exact(self, four_node):
        P, _ = four_node
        np.testing.assert_allclose(
            stationary_direct(P).pi.probs, chains.FOUR_NODE_PI, atol=1e-12
        )

    def test_rank_one_matrix_returns_damping(self):
        d = DampingVector(np.array([0.1, 0.2, 0.3, 0.4]))
        sol = stationary_direct(rank_one(d))
        np.testing.assert_allclose(sol.pi.probs, d.weights, atol=1e-12)

    @pytest.mark.parametrize("chain", ["five_node", "four_node", "dense-csv"])
    def test_a_matrix_is_solved_as_its_chain_at_zero_damping(self, chain, request, tmp_path):
        if chain == "dense-csv":
            M, _ = chains.random_regular_chain(np.random.default_rng(3), 40)
            path = tmp_path / "dense.csv"
            path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in M.entries) + "\n")
            P, _ = ingest(path)
            d = chains.linear_damping(P.dim)
        else:
            P, d = request.getfixturevalue(chain)
        whole, at_zero = stationary_direct(P), stationary_direct(DampedChain(P, d, 0.0))
        assert whole.pi.probs.tobytes() == at_zero.pi.probs.tobytes()
        assert whole.residual == at_zero.residual

    def test_split_chain_at_zero_damping_is_rejected(self, eight_node):
        P, _ = eight_node
        with pytest.raises(SingularSystemError, match="per class"):
            stationary_direct(P)


class TestPower:
    def test_fixed_point_converges_immediately(self, five_node):
        P, _ = five_node
        pi = stationary_direct(P).pi
        sol = stationary_power(P, pi, tol=1e-12)
        assert sol.iterations_or_terms == 0

    def test_full_damping_converges_in_one_step(self, five_node):
        P, d = five_node
        D = build_damped_matrix(DampedChain(P, d, 1.0))
        sol = stationary_power(D, Distribution.point_mass(5, 2), tol=1e-12)
        assert sol.iterations_or_terms == 1
        np.testing.assert_allclose(sol.pi.probs, d.weights, atol=1e-14)

    def test_matches_direct_on_damped_five_node(self, five_node):
        P, d = five_node
        P_eps = build_damped_matrix(DampedChain(P, d, 0.15))
        direct = stationary_direct(P_eps)
        power = stationary_power(P_eps, Distribution.uniform(5), tol=1e-14)
        np.testing.assert_allclose(power.pi.probs, direct.pi.probs, atol=1e-10)
        # Second-order-accurate reference values for this damping weight.
        np.testing.assert_allclose(
            power.pi.probs,
            [0.09646, 0.23564, 0.22263, 0.22263, 0.22263],
            atol=2e-5,
        )

    def test_periodic_chain_exhausts_iterations(self, monkeypatch):
        monkeypatch.setattr("dampedchain.stationary.DEFAULT_MAX_ITER", 500)
        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ConvergenceError) as info:
            stationary_power(P, Distribution.point_mass(2, 0), tol=1e-12)
        assert info.value.last_iterate is not None
        assert info.value.residual > 0


class TestSeries:
    def test_full_damping_reduces_to_first_term(self, five_node):
        P, d = five_node
        sol = stationary_series(P, d, 1.0)
        assert sol.iterations_or_terms == 0
        np.testing.assert_allclose(sol.pi.probs, d.weights, atol=1e-15)

    def test_agrees_with_direct(self, five_node):
        P, d = five_node
        series = stationary_series(P, d, 0.15)
        direct = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15)))
        assert np.max(np.abs(series.pi.probs - direct.pi.probs)) < 1e-9

    def test_split_chain_class_masses_follow_damping(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        for eps in (0.1, 0.5, 1.0):
            pi = stationary_series(P, d, eps).pi
            for cls in s.classes:
                assert pi.probs[list(cls.states)].sum() == pytest.approx(0.5, abs=1e-10)

    def test_zero_epsilon_is_rejected(self, five_node):
        P, d = five_node
        with pytest.raises(ValidationError):
            stationary_series(P, d, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_non_positive_tolerance_is_rejected(self, five_node, tol):
        # A tail bound below every float would never be reached.
        P, d = five_node
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            series_length(0.1, tol)
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            series_sums(P, d, (0.1, 0.5), tol)
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            stationary_series(P, d, 0.1, tol)

    @pytest.mark.parametrize("eps", [0.0, -0.2, 1.5, float("nan")])
    def test_epsilon_outside_unit_interval_is_rejected(self, five_node, eps):
        P, d = five_node
        with pytest.raises(ValidationError, match=r"epsilon in \(0, 1\]"):
            series_length(eps, 1e-12)
        with pytest.raises(ValidationError, match=r"epsilon in \(0, 1\]"):
            series_sums(P, d, (0.1, eps))

    @pytest.mark.parametrize("eps", [1e-20, 5e-324])
    def test_epsilon_below_float_resolution_is_refused_before_any_walk(self, five_node, eps):
        # 1 - eps rounds to 1, so the tail never shrinks and the count would never end.
        P, d = five_node
        with pytest.raises(ValidationError, match="use the direct route"):
            series_sums(P, d, (0.1, eps))

    def test_halving_tolerance_moves_result_at_most_tol(self, five_node):
        P, d = five_node
        for tol in (1e-6, 1e-8, 1e-10):
            coarse = stationary_series(P, d, 0.05, tol=tol).pi.probs
            fine = stationary_series(P, d, 0.05, tol=tol / 2).pi.probs
            assert np.max(np.abs(coarse - fine)) <= tol

    def test_residual_is_reported_against_damped_matrix(self, eight_node):
        P, d = eight_node
        sol = stationary_series(P, d, 0.2)
        assert sol.residual <= 1e-10
        assert sol.method is Method.SERIES


@pytest.mark.parametrize("eps", [0.05, 0.15, 0.5, 1.0])
def test_cross_method_agreement(five_node, eight_node, eps):
    for P, d in (five_node, eight_node):
        P_eps = build_damped_matrix(DampedChain(P, d, eps))
        direct = stationary_direct(P_eps)
        power = stationary_power(P_eps, Distribution.uniform(P.dim), tol=1e-13)
        series = stationary_series(P, d, eps)
        assert tv_distance(direct.pi, power.pi) <= 1e-8
        assert tv_distance(direct.pi, series.pi) <= 1e-8
        assert tv_distance(power.pi, series.pi) <= 1e-8


class TestLimit:
    def test_split_chain_damping_limit(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        limit = limit_stationary(s, d.as_distribution())
        np.testing.assert_allclose(limit.probs, chains.EIGHT_NODE_BASE, atol=1e-12)

    def test_split_chain_point_mass_limit(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        limit = limit_stationary(s, Distribution.point_mass(8, 0))
        expected = np.concatenate([chains.FOUR_NODE_PI, np.zeros(4)])
        np.testing.assert_allclose(limit.probs, expected, atol=1e-12)

    def test_regular_limit_ignores_initial_distribution(self, five_node):
        P, d = five_node
        s = decompose(P)
        for p in (Distribution.uniform(5), Distribution.point_mass(5, 3)):
            limit = limit_stationary(s, p)
            np.testing.assert_allclose(limit.probs, chains.FIVE_NODE_PI, atol=1e-12)

    @pytest.mark.parametrize("damping", ["uniform", "linear"])
    @pytest.mark.parametrize("chain_name", ["five_node", "four_node", "eight_node"])
    def test_matches_the_exact_limit_law(self, chain_name, damping, request):
        P, d = request.getfixturevalue(chain_name)
        if damping == "linear":
            d = chains.linear_damping(P.dim)
        limit = limit_stationary(decompose(P), d.as_distribution())
        assert l1_error(limit.probs, exact_limit_law(P.entries, d.weights)) <= 1e-15

    @pytest.mark.parametrize("damping", ["uniform", "linear"])
    def test_exact_limit_law_is_the_small_eps_limit_with_transient_states(self, damping):
        # The transient state's weight flows into both classes; without that
        # inflow the gap to pi(eps) would stay near d's weight on it as eps -> 0.
        P, _ = ingest(DATA / "two_cycles_transient_edges.txt")
        d = DampingVector.uniform(P.dim) if damping == "uniform" else chains.linear_damping(P.dim)
        limit = exact_limit_law(P.entries, d.weights)
        for eps in (1e-6, 1e-9):
            law = exact_damped_law(P.entries, d.weights, eps)
            assert sum(abs(x - y) for x, y in zip(law, limit)) < eps

    def test_damped_stationary_converges_to_limit(self, five_node, eight_node):
        for P, d in (five_node, eight_node):
            s = decompose(P)
            limit = limit_stationary(s, d.as_distribution())
            gaps = [
                tv_distance(stationary_series(P, d, eps).pi, limit)
                for eps in (0.2, 0.1, 0.05, 0.025)
            ]
            assert all(a >= b for a, b in zip(gaps, gaps[1:]))


EPS_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.85)


def reference_power(P_eps: np.ndarray, tol: float):
    """Power iteration by plain ``x @ P(eps)``: (iterations, law)."""
    prev = np.full(P_eps.shape[0], 1.0 / P_eps.shape[0])
    it = 0
    while True:
        nxt = prev @ P_eps
        if 0.5 * np.abs(nxt - prev).sum() < tol:
            return it, nxt
        prev = nxt
        it += 1


def reference_series_length(eps: float, tol: float) -> int:
    L = 0
    while (1.0 - eps) ** (L + 1) >= tol:
        L += 1
    return L


@pytest.mark.parametrize(
    "eps, tol",
    [(eps, 1e-12) for eps in EPS_GRID + (1.0, 1e-4, 1e-5)] + [(0.5, 2.0**-40), (0.3, 2.0)],
)
def test_series_length_matches_its_definition(eps, tol):
    assert series_length(eps, tol) == reference_series_length(eps, tol)


def test_series_length_at_a_tie_and_below_the_counting_range():
    # 0.5^40 equals tol exactly, so L = 40 is the first with 0.5^(L + 1) < tol.
    assert series_length(0.5, 2.0**-40) == 40
    # A counting loop would take 2.8e10 steps at eps = 1e-9.
    for eps in (1e-9, 1e-12, 1e-15):
        L = series_length(eps, 1e-12)
        assert (1.0 - eps) ** (L + 1) < 1e-12 <= (1.0 - eps) ** L


def seeded_damping(m: int) -> DampingVector:
    weights = np.random.default_rng(m).uniform(0.5, 1.5, m)
    return DampingVector(weights / weights.sum())


class TestStationarySection:
    """The report's stationary section: one series walk, no dense P(eps)."""

    @staticmethod
    def section(P0, d):
        context = BoundContext(decompose(P0), d, Distribution.uniform(P0.dim), EPS_GRID[0], 2)
        return report.stationary_section(context, EPS_GRID)

    def test_no_damped_matrix_and_one_walk_of_max_length(self, monkeypatch):
        P0, _ = chains.random_web_chain(np.random.default_rng(7), 300)
        d = seeded_damping(300)
        builds = count_calls(monkeypatch, "build_damped_matrix")
        products = count_products(monkeypatch)
        walks = []
        sums = report.series_sums

        def spy(*args, **kwargs):
            before = products["StochasticMatrix"]
            result = sums(*args, **kwargs)
            walks.append(products["StochasticMatrix"] - before)
            return result

        monkeypatch.setattr(report, "series_sums", spy)
        self.section(P0, d)
        assert builds == []
        # The walk, then one residual product per epsilon.
        assert walks == [max(reference_series_length(eps, 1e-12) for eps in EPS_GRID) + len(EPS_GRID)]

    @pytest.mark.parametrize("m", [300, 12])
    def test_counts_and_laws_match_dense_reference(self, m):
        P0, _ = chains.random_web_chain(np.random.default_rng(m), m)
        d = seeded_damping(m)
        section = self.section(P0, d)
        for eps, entry in zip(EPS_GRID, section["by_epsilon"]):
            iterations, law = reference_power(build_damped_matrix(DampedChain(P0, d, eps)).entries, 1e-12)
            assert entry["power"]["iterations_or_terms"] == iterations
            assert entry["series"]["iterations_or_terms"] == reference_series_length(eps, 1e-12)
            for method in ("direct", "power", "series"):
                np.testing.assert_allclose(entry[method]["pi"], law, rtol=0, atol=1e-11)

    def test_grid_walk_gives_the_one_epsilon_laws_bit_for_bit(self, eight_node):
        P, d = eight_node
        for shared, eps in zip(series_sums(P, d, EPS_GRID), EPS_GRID):
            alone = stationary_series(P, d, eps)
            np.testing.assert_array_equal(shared.pi.probs, alone.pi.probs)
            assert shared.iterations_or_terms == alone.iterations_or_terms

    @pytest.mark.parametrize("path", sorted(DATA.glob("*_edges.txt")), ids=lambda path: path.stem)
    def test_every_grid_entry_is_the_one_epsilon_solution(self, path):
        # A repeated epsilon, and eps = 1 whose series is its first term (L = 0).
        P, _ = ingest(path)
        d = chains.linear_damping(P.dim)
        grid = (0.05, 0.5, 1.0, 0.05, 0.15)
        solutions = series_sums(P, d, grid)
        assert len(solutions) == len(grid) and solutions[2].iterations_or_terms == 0
        for shared, eps in zip(solutions, grid):
            alone = stationary_series(P, d, eps)
            assert shared.pi.probs.tobytes() == alone.pi.probs.tobytes()
            assert shared.residual == alone.residual
            assert shared.iterations_or_terms == alone.iterations_or_terms
            assert shared.method is alone.method is Method.SERIES

    def test_in_place_direct_system_matches_built_matrix(self, five_node, eight_node):
        for P, d in (five_node, eight_node):
            for eps in (0.05, 0.5, 1.0):
                chain = DampedChain(P, d, eps)
                np.testing.assert_array_equal(
                    _damped_system(P, d.weights, eps),
                    _damped_system(build_damped_matrix(chain), np.zeros(P.dim), 0.0),
                )
        P, d = eight_node
        with pytest.raises(SingularSystemError, match="per class"):
            stationary_direct(DampedChain(P, d, 0.0))


@pytest.mark.parametrize("eps", [0.05, 0.15, 0.5, 1.0])
def test_every_route_matches_exact_rational_solve(eps):
    path = DATA / "eight_node_edges.txt"
    P, _ = ingest(path)
    d = DampingVector.uniform(P.dim)
    exact = [float(x) for x in exact_damped_law(P.entries, d.weights, eps)]
    chain = DampedChain(P, d, eps)
    routes = (
        stationary_direct(chain),
        stationary_power(chain, Distribution.uniform(P.dim), tol=1e-15),
        stationary_series(P, d, eps, tol=1e-15),
        series_sums(P, d, (0.05, 0.15, 0.5, 1.0), 1e-15)[(0.05, 0.15, 0.5, 1.0).index(eps)],
    )
    for solution in routes:
        np.testing.assert_allclose(solution.pi.probs, exact, rtol=0, atol=1e-12)


def weighted_two_cycles() -> StochasticMatrix:
    """``two_cycles_transient_edges.txt`` with the transient state's links weighted 0.5/0.3/0.2."""
    P, _ = ingest(DATA / "two_cycles_transient_edges.txt")
    entries = P.entries.copy()
    entries[5] = [0.5, 0.0, 0.0, 0.3, 0.0, 0.2]
    return StochasticMatrix(entries)


class TestClassByClassRoute:
    """The direct route of P(eps), eps > 0, solves one system per closed class of P0."""

    @pytest.mark.parametrize(
        "load",
        [
            lambda: ingest(DATA / "eight_node_edges.txt")[0],
            lambda: ingest(DATA / "two_cycles_transient_edges.txt")[0],
            weighted_two_cycles,
            lambda: ingest(DATA / "transient_edges.txt")[0],
        ],
        ids=["eight-node", "two-cycles-transient", "two-cycles-weighted", "transient"],
    )
    @pytest.mark.parametrize("eps", [0.1, 1e-3, 1e-6, 1e-9])
    def test_matches_the_exact_law(self, load, eps):
        # The whole-matrix LU has condition about 1/eps on these chains; its
        # error reached 1e-7 on eight-node at eps = 1e-9.
        P = load()
        d = chains.linear_damping(P.dim)
        solution = stationary_direct(DampedChain(P, d, eps))
        assert l1_error(solution.pi.probs, exact_damped_law(P.entries, d.weights, eps)) <= 1e-14

    @pytest.mark.parametrize("chain", ["five_node", "four_node", "web"])
    def test_regular_chain_solves_its_own_system_bit_for_bit(self, chain, request):
        if chain == "web":
            P, _ = chains.random_web_chain(np.random.default_rng(7), 300)
            d = seeded_damping(300)
        else:
            P, d = request.getfixturevalue(chain)
        assert decompose(P).regime is Regime.REGULAR
        last = np.zeros(P.dim)
        last[-1] = 1.0
        for eps in (0.02, 0.15, 0.5, 1.0):
            chain = DampedChain(P, d, eps)
            assert np.array_equal(
                stationary_direct(chain).pi.probs, np.linalg.solve(_damped_system(P, d.weights, eps), last)
            )

    def test_one_graph_search_per_matrix(self, monkeypatch):
        # The command's decompose and every later direct solve share one search
        # and one structure, with its per-class view.
        from dampedchain import structure

        searches = []
        search = structure._partition
        monkeypatch.setattr(structure, "_partition", lambda *a: searches.append(a) or search(*a))
        P, d = chains.eight_node()
        first = decompose(P)
        for eps in (0.1, 0.5):
            stationary_direct(DampedChain(P, d, eps))
        second = decompose(P)
        assert len(searches) == 1
        assert second is first
