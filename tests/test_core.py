from itertools import islice

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chains
from dampedchain import (
    BoundContext,
    CouplingKernel,
    DampedChain,
    DampingVector,
    DimensionMismatchError,
    Distribution,
    GeometricDecay,
    SingularSystemError,
    StochasticMatrix,
    ValidationError,
    build_damped_matrix,
    coupling_bound,
    coupling_bound_multistep,
    decompose,
    ergodicity_coefficient,
    maximal_coupling,
    simulate_coupling_time,
    spectrum,
    split_bound_context,
    stationary_direct,
    tv_distance,
)
from conftest import count_products
from oracle import naive_matmul, naive_vecmat, propagate
from dampedchain.bounds import PowerWalk
from dampedchain.core import SPARSE_MAX_DENSITY, matrix_power, trajectory
from dampedchain.io import ingest


class TestValidation:
    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError):
            StochasticMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError):
            StochasticMatrix(np.array([[0.6, 0.5], [0.5, 0.5]]))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            StochasticMatrix(np.array([[np.nan, 1.0], [0.5, 0.5]]))

    def test_row_tol_is_configurable(self):
        entries = np.array([[0.5, 0.5 + 1e-10], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            StochasticMatrix(entries)
        StochasticMatrix(entries, row_tol=1e-9)

    def test_damping_must_be_positive(self):
        with pytest.raises(ValidationError):
            DampingVector(np.array([0.0, 1.0]))

    def test_distribution_allows_zeros(self):
        Distribution(np.array([0.0, 1.0]))

    def test_entries_are_read_only(self):
        P, _ = chains.five_node()
        with pytest.raises(ValueError):
            P.entries[0, 0] = 0.5

    def test_chain_dimension_mismatch(self):
        P, _ = chains.five_node()
        with pytest.raises(DimensionMismatchError):
            DampedChain(P, DampingVector.uniform(4), 0.1)

    def test_chain_epsilon_range(self):
        P, d = chains.five_node()
        with pytest.raises(ValidationError):
            DampedChain(P, d, 1.5)


class TestBuildDampedMatrix:
    def test_epsilon_zero_returns_base(self, five_node):
        P, d = five_node
        result = build_damped_matrix(DampedChain(P, d, 0.0))
        np.testing.assert_array_equal(result.entries, P.entries)

    def test_epsilon_one_collapses_to_damping(self, five_node):
        P, d = five_node
        result = build_damped_matrix(DampedChain(P, d, 1.0))
        for row in result.entries:
            np.testing.assert_allclose(row, d.weights, rtol=0, atol=0)

    def test_entries_match_scalar_recomputation(self, five_node):
        P, d = five_node
        eps = 0.15
        result = build_damped_matrix(DampedChain(P, d, eps))
        for i in range(5):
            for j in range(5):
                expected = (1 - eps) * P.entries[i, j] + eps * d.weights[j]
                assert result.entries[i, j] == pytest.approx(expected, abs=1e-15)
        assert result.entries[0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_affine_in_epsilon(self, five_node):
        P, d = five_node
        at_zero = build_damped_matrix(DampedChain(P, d, 0.0)).entries
        at_one = build_damped_matrix(DampedChain(P, d, 1.0)).entries
        at_half = build_damped_matrix(DampedChain(P, d, 0.5)).entries
        np.testing.assert_allclose(at_half, 0.5 * (at_zero + at_one), rtol=0, atol=1e-16)


class TestMatrixPower:
    def test_power_zero_is_identity(self, five_node):
        P, _ = five_node
        np.testing.assert_array_equal(matrix_power(P, 0).entries, np.eye(5))

    def test_power_one_is_unchanged(self, five_node):
        P, _ = five_node
        np.testing.assert_array_equal(matrix_power(P, 1).entries, P.entries)

    def test_power_two_against_naive_multiply(self, five_node):
        P, _ = five_node
        expected = naive_matmul(P.entries, P.entries)
        np.testing.assert_allclose(matrix_power(P, 2).entries, expected, atol=1e-14)

    def test_negative_power_rejected(self, five_node):
        P, _ = five_node
        with pytest.raises(ValidationError):
            matrix_power(P, -1)

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 4), (7, 13), (20, 20)])
    def test_power_is_additive(self, five_node, a, b):
        P, _ = five_node
        combined = matrix_power(P, a + b).entries
        product = matrix_power(P, a).entries @ matrix_power(P, b).entries
        np.testing.assert_allclose(combined, product, atol=1e-10)


def _random_law(m: int, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).random(m)
    return x / x.sum()


class TestVecmat:
    @pytest.mark.parametrize("m, sparse", [(300, True), (240, True), (200, False), (60, False)])
    def test_matches_naive_loop_on_both_sides_of_cutoff(self, m, sparse):
        P, _ = chains.random_web_chain(np.random.default_rng(m), m)
        assert (7 / m <= SPARSE_MAX_DENSITY) == sparse
        assert (P._nonzeros is not None) == sparse
        x = _random_law(m, 1)
        np.testing.assert_allclose(P.vecmat(x), naive_vecmat(x, P.entries), rtol=0, atol=1e-15)

    def test_csv_matrix_keeps_dense_product(self, tmp_path):
        P, _ = chains.random_regular_chain(np.random.default_rng(3), 30)
        path = tmp_path / "dense.csv"
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in P.entries) + "\n")
        P, _ = ingest(path)
        assert P._nonzeros is None
        x = _random_law(30, 2)
        np.testing.assert_allclose(P.vecmat(x), naive_vecmat(x, P.entries), rtol=0, atol=1e-15)

    def test_single_state(self):
        P = StochasticMatrix(np.array([[1.0]]))
        np.testing.assert_array_equal(P.vecmat(np.array([0.7])), [0.7])
        chain = DampedChain(P, DampingVector.uniform(1), 0.3)
        assert chain.vecmat(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("m", [300, 12])
    def test_damped_product_is_rank_one_form(self, m):
        P0, _ = chains.random_web_chain(np.random.default_rng(m), m)
        chain = DampedChain(P0, DampingVector(_random_law(m, 3)), 0.15)
        x = _random_law(m, 4)
        expected = naive_vecmat(x, build_damped_matrix(chain).entries)
        np.testing.assert_allclose(chain.vecmat(x), expected, rtol=0, atol=1e-15)


class TestTrajectory:
    def test_first_vector_is_the_start_itself_with_no_product(self, monkeypatch, five_node):
        P, d = five_node
        products = count_products(monkeypatch)
        assert next(trajectory(P, d.weights)) is d.weights
        assert products == {"StochasticMatrix": 0, "DampedChain": 0}

    @pytest.mark.parametrize("k", [0, 1, 5])
    @pytest.mark.parametrize("damped", [False, True], ids=["P0", "P(eps)"])
    def test_k_products_for_k_plus_one_vectors(self, monkeypatch, k, damped):
        P0, _ = chains.random_web_chain(np.random.default_rng(7), 300)
        M = DampedChain(P0, DampingVector(_random_law(300, 5)), 0.2) if damped else P0
        x = _random_law(300, 6)
        expected = [x]
        for _ in range(k):
            expected.append(M.vecmat(expected[-1]))
        products = count_products(monkeypatch)
        vectors = list(islice(trajectory(M, x), k + 1))
        assert products == {"StochasticMatrix": k, "DampedChain": k if damped else 0}
        assert [v.tobytes() for v in vectors] == [v.tobytes() for v in expected]


class TestPropagate:
    """The trajectory oracle of the tests agrees with matrix powers and a scalar loop."""

    def test_zero_steps_returns_input(self, five_node):
        P, _ = five_node
        p = Distribution(np.array([0.5, 0.5, 0, 0, 0]))
        np.testing.assert_array_equal(propagate(p, P, 0).probs, p.probs)

    def test_point_mass_extracts_row(self, five_node):
        P, _ = five_node
        for i in range(5):
            p = Distribution.point_mass(5, i)
            np.testing.assert_allclose(
                propagate(p, P, 3).probs, matrix_power(P, 3).entries[i], atol=1e-14
            )

    def test_matches_iterative_oracle(self, eight_node):
        P0, d = eight_node
        P = build_damped_matrix(DampedChain(P0, d, 0.1))
        p = Distribution.point_mass(8, 0)
        v = p.probs.copy()
        for _ in range(10):
            v = np.array([sum(v[i] * P.entries[i, j] for i in range(8)) for j in range(8)])
        np.testing.assert_allclose(propagate(p, P, 10).probs, v, atol=1e-13)

    def test_preserves_mass(self, five_node):
        P, _ = five_node
        p = Distribution.uniform(5)
        assert propagate(p, P, 50).probs.sum() == pytest.approx(1.0, abs=50 * 1e-12)


def _dist(values):
    arr = np.array(values, dtype=float)
    return Distribution(arr / arr.sum())


class TestTvDistance:
    def test_identical_is_zero(self):
        p = _dist([1, 2, 3])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_is_one(self):
        p = Distribution(np.array([0.5, 0.5, 0.0]))
        q = Distribution(np.array([0.0, 0.0, 1.0]))
        assert tv_distance(p, q) == pytest.approx(1.0, abs=1e-15)

    def test_hand_computed_value(self):
        p = Distribution(np.array([0.5, 0.5, 0.0]))
        q = Distribution(np.array([0.25, 0.25, 0.5]))
        assert tv_distance(p, q) == pytest.approx(0.5, abs=1e-15)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )
    def test_is_a_metric(self, a, b, c):
        p, q, r = _dist(a), _dist(b), _dist(c)
        assert tv_distance(p, q) == tv_distance(q, p)
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-14
        assert 0.0 <= tv_distance(p, q) <= 1.0


def _simulation_from(start_dim: int):
    """A 4-trial simulation of a 2-state kernel from the uniform coupling on ``start_dim`` states."""
    start = maximal_coupling(Distribution.uniform(start_dim), Distribution.uniform(start_dim))
    kernel = CouplingKernel(StochasticMatrix(np.full((2, 2), 0.5)))
    return simulate_coupling_time(kernel, start, 4, 1, 3)


# Each refusal of an unusable input to a public function: the call, its error and its message.
def _bound_args(chain):
    """The structure, damping and start ``point:1`` of a test chain, at eps = 0.1."""
    P0, d = chain()
    return decompose(P0), d, Distribution.point_mass(P0.dim, 0), 0.1


def _pi_eps(chain):
    return stationary_direct(DampedChain(*chain(), 0.1)).pi


REFUSALS = {
    "damping-sum": (lambda: DampingVector(np.array([0.5, 0.6])), ValidationError, "damping weights sum to"),
    "distribution-sum": (lambda: Distribution(np.array([0.5, 0.6])), ValidationError, "distribution sums to"),
    "point-mass-past-the-end": (lambda: Distribution.point_mass(3, 3), ValidationError, "state 3 outside 0..2"),
    "point-mass-negative": (lambda: Distribution.point_mass(3, -1), ValidationError, "state -1 outside 0..2"),
    "matrix-1d": (lambda: StochasticMatrix(np.array([0.5, 0.5])), ValidationError, "must be 2-dimensional"),
    "matrix-empty": (lambda: StochasticMatrix(np.empty((0, 0))), ValidationError, "must be non-empty"),
    "matrix-not-square": (lambda: StochasticMatrix(np.full((2, 3), 1 / 3)), ValidationError, "must be square"),
    "tv-sizes": (
        lambda: tv_distance(Distribution.uniform(2), Distribution.uniform(3)),
        DimensionMismatchError,
        "dims differ: 2 vs 3",
    ),
    "coupling-sizes": (
        lambda: maximal_coupling(Distribution.uniform(2), Distribution.uniform(3)),
        DimensionMismatchError,
        "dims differ: 2 vs 3",
    ),
    "simulation-start-size": (lambda: _simulation_from(3), DimensionMismatchError, "start joint dim 3 != kernel"),
    "ergodicity-zero-steps": (
        lambda: ergodicity_coefficient(StochasticMatrix(np.eye(2)), 0),
        ValidationError,
        "at least 1",
    ),
    "walk-ergodicity-zero-steps": (
        lambda: PowerWalk(StochasticMatrix(np.eye(2))).ergodicity(0),
        ValidationError,
        "step count N must be at least 1",
    ),
    "context-ergodicity-zero-steps": (
        lambda: BoundContext(*_bound_args(chains.five_node), 2).ergodicity(0),
        ValidationError,
        "step count N must be at least 1",
    ),
    # A singular chain's whole-matrix Delta_N is 1 by structure, read without a scan.
    "singular-ergodicity-zero-steps": (
        lambda: BoundContext(*_bound_args(chains.eight_node), 2).ergodicity(0),
        ValidationError,
        "step count N must be at least 1",
    ),
    "singular-ergodicity-negative-steps": (
        lambda: BoundContext(*_bound_args(chains.eight_node), 2).ergodicity(-1),
        ValidationError,
        "step count N must be at least 1",
    ),
    "onestep-negative-step": (
        lambda: coupling_bound(*_bound_args(chains.five_node)[:3], _pi_eps(chains.five_node), 0.1, n=-1),
        ValidationError,
        "step n must be at least 0, got -1",
    ),
    "multistep-negative-step": (
        lambda: coupling_bound_multistep(
            *_bound_args(chains.five_node)[:3], _pi_eps(chains.five_node), 0.1, block=2, n=-3
        ),
        ValidationError,
        "step n must be at least 0, got -3",
    ),
    "joint-limit-negative-step": (
        lambda: BoundContext(*_bound_args(chains.five_node), 2).joint_limit(-2, 0.1),
        ValidationError,
        "step n must be at least 0, got -2",
    ),
    "split-bound-negative-step": (
        lambda: split_bound_context(*_bound_args(chains.eight_node), 2).bound_vector(-1),
        ValidationError,
        "step n must be at least 0, got -1",
    ),
    "decay-rate-one": (lambda: GeometricDecay(0.5, 1.0), ValidationError, "rate must lie in"),
    "decay-negative-amplitude": (lambda: GeometricDecay(-1.0, 0.5), ValidationError, "amplitude must be non-negative"),
    "residual-above-tol": (
        lambda: stationary_direct(chains.five_node()[0], solver_tol=1e-30),
        SingularSystemError,
        "exceeds 1.0e-30",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS.values()), ids=list(REFUSALS))
def test_unusable_inputs_are_refused(case):
    call, error, message = case
    with pytest.raises(error, match=message):
        call()


def test_one_state_has_no_second_eigenvalue():
    assert spectrum(StochasticMatrix(np.array([[1.0]]))).second_modulus == 0.0
