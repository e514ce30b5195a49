import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chains
from dampedchain import (
    CouplingKernel,
    DampedChain,
    Distribution,
    ValidationError,
    build_damped_matrix,
    ingest,
    maximal_coupling,
    simulate_coupling_time,
    stationary_direct,
)
from dampedchain import coupling
from dampedchain.cli import DEFAULT_HORIZON
from dampedchain.core import matrix_power


def _dist(values):
    arr = np.asarray(values, dtype=float)
    return Distribution(arr / arr.sum())


def binomial_central_interval(trials, p, level):
    """Central interval [lo, hi] of Bin(trials, p) with at most level/2 in each tail."""
    logs = [
        math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
        + (k * math.log(p) if k else 0.0) + ((trials - k) * math.log1p(-p) if k < trials else 0.0)
        for k in range(trials + 1)
    ]
    pmf = np.exp(logs)
    lo = int(np.count_nonzero(np.cumsum(pmf) <= level / 2))
    hi = trials - int(np.count_nonzero(np.cumsum(pmf[::-1]) <= level / 2))
    return lo, hi


def exact_tail(kernel, start, horizon):
    """P(T > n) for n = 0..horizon: the start law pushed through the off-diagonal
    part of the pair kernel, with the diagonal as the absorbing set."""
    m = kernel.dim
    apart = [(i, j) for i in range(m) for j in range(m) if i != j]
    flat = [i * m + j for i, j in apart]
    K = np.array([kernel.pair_law(i, j).ravel()[flat] for i, j in apart])
    mass = start.joint.ravel()[flat]
    tail = []
    for _ in range(horizon + 1):
        tail.append(mass.sum())
        mass = mass @ K
    return np.array(tail)


def reference_tail(kernel, start, trials, seed, horizon):
    """The documented draw layout, one trial at a time in plain Python."""
    rows = kernel.matrix.entries.tolist()
    m = len(rows)
    row_cdfs = [list(accumulate(row)) for row in rows]
    start_cdf = list(accumulate(start.joint.ravel().tolist()))

    def draw(cdf, u):
        target = u * cdf[-1]
        return sum(c <= target for c in cdf)

    exceed = [0] * (horizon + 1)
    for t in range(trials):

        def words(step):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=(step << 128) + t))
            return rng.random(4).tolist()

        i, j = divmod(draw(start_cdf, words(0)[0]), m)
        for n in range(horizon + 1):
            if n:
                u0, u1, u2, _ = words(n)
                k = draw(row_cdfs[i], u0)
                if u1 * rows[i][k] < min(rows[i][k], rows[j][k]):
                    i, j = k, k
                else:
                    excess = list(accumulate(b - min(a, b) for a, b in zip(rows[i], rows[j])))
                    i, j = k, (draw(excess, u2) if excess[-1] > 0.0 else k)
            if i == j:
                break
            exceed[n] += 1
    return np.array(exceed) / trials


def damped_reference_tail(chain, start, trials, seed, horizon):
    """The documented draw layout of a damped chain's kernel, one trial at a time in plain Python.

    It reads P0's rows at their nonzeros, ``-0.0`` included, and d; it never forms P(eps).
    """
    rows = chain.p0.entries.tolist()
    d = chain.damping.weights.tolist()
    eps = chain.epsilon
    m = len(rows)
    support = [[c for c, x in enumerate(row) if x != 0.0 or math.copysign(1.0, x) < 0.0] for row in rows]
    row_cdfs = [list(accumulate(rows[i][c] for c in support[i])) for i in range(m)]
    d_cdf = list(accumulate(d))
    start_cdf = list(accumulate(start.joint.ravel().tolist()))

    def draw(cdf, u):
        target = u * cdf[-1]
        return sum(c <= target for c in cdf)

    def entry(x, c):
        return (1.0 - eps) * rows[x][c] + eps * d[c]

    exceed = [0] * (horizon + 1)
    for t in range(trials):

        def words(step):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=(step << 128) + t))
            return rng.random(4).tolist()

        i, j = divmod(draw(start_cdf, words(0)[0]), m)
        for n in range(horizon + 1):
            if n:
                u0, u1, u2, u3 = words(n)
                k = draw(d_cdf, u0) if u3 < eps else support[i][draw(row_cdfs[i], u0)]
                a, b = entry(i, k), entry(j, k)
                if u1 * a < min(a, b):
                    i, j = k, k
                else:
                    excess = list(accumulate(rows[j][c] - min(rows[i][c], rows[j][c]) for c in support[j]))
                    i, j = k, (support[j][draw(excess, u2)] if excess[-1] > 0.0 else k)
            if i == j:
                break
            exceed[n] += 1
    return np.array(exceed) / trials


def _simulation_case(chain, eps, initial, power=1):
    P, d = chain
    P_eps = build_damped_matrix(DampedChain(P, d, eps))
    pi = stationary_direct(P_eps).pi
    p = Distribution.uniform(P.dim) if initial == "uniform" else Distribution.point_mass(P.dim, 0)
    kernel = CouplingKernel(P_eps if power == 1 else matrix_power(P_eps, power))
    return kernel, maximal_coupling(p, pi)


class TestMaximalCoupling:
    def test_equal_marginals_sit_on_diagonal(self):
        p = _dist([1, 2, 3])
        joint = maximal_coupling(p, p)
        assert joint.diagonal_mass == pytest.approx(1.0, abs=1e-15)
        off_diag = joint.joint - np.diag(np.diag(joint.joint))
        assert np.all(off_diag == 0.0)

    def test_disjoint_marginals_give_product(self):
        p = Distribution(np.array([1.0, 0.0]))
        q = Distribution(np.array([0.0, 1.0]))
        joint = maximal_coupling(p, q)
        assert joint.diagonal_mass == 0.0
        np.testing.assert_array_equal(joint.joint, np.outer(p.probs, q.probs))

    def test_partial_overlap_hand_case(self):
        p = Distribution(np.array([0.5, 0.5, 0.0]))
        q = Distribution(np.array([0.0, 0.5, 0.5]))
        joint = maximal_coupling(p, q)
        assert joint.diagonal_mass == pytest.approx(0.5, abs=1e-15)
        expected = np.zeros((3, 3))
        expected[1, 1] = 0.5
        expected[0, 2] = 0.5
        np.testing.assert_allclose(joint.joint, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([0.5 + 9.5e-13, 0.5], [0.5 - 9.5e-13, 0.5]),
            # Both sums above 1 within row_tol, and excess mass on both sides.
            ([0.3 + 6e-13, 0.3, 0.4 + 1e-13], [0.3, 0.3 + 1e-12, 0.4 - 1e-13]),
        ],
    )
    def test_near_equal_distributions_off_unit_sum_are_coupled(self, a, b):
        p, q = Distribution(np.array(a)), Distribution(np.array(b))
        joint = maximal_coupling(p, q)
        # Each marginal misses its vector by at most the difference of their sums.
        gap = abs(p.probs.sum() - q.probs.sum())
        assert np.max(np.abs(joint.joint.sum(axis=1) - p.probs)) <= 1e-15 + gap
        assert np.max(np.abs(joint.joint.sum(axis=0) - q.probs)) <= 1e-15 + gap
        assert joint.diagonal_mass == pytest.approx(np.minimum(p.probs, q.probs).sum(), abs=1e-15)
        assert np.all(joint.joint >= 0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5).filter(lambda v: sum(v) > 0.05),
        st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5).filter(lambda v: sum(v) > 0.05),
    )
    def test_marginals_are_exact(self, a, b):
        p, q = _dist(a), _dist(b)
        joint = maximal_coupling(p, q)
        np.testing.assert_allclose(joint.joint.sum(axis=1), p.probs, atol=1e-12)
        np.testing.assert_allclose(joint.joint.sum(axis=0), q.probs, atol=1e-12)
        assert joint.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert joint.diagonal_mass == pytest.approx(
            np.minimum(p.probs, q.probs).sum(), abs=1e-12
        )
        assert np.all(joint.joint >= 0.0)


class TestKernel:
    def test_marginalization_reproduces_rows(self, five_node):
        P, d = five_node
        P_eps = build_damped_matrix(DampedChain(P, d, 0.15))
        kernel = CouplingKernel(P_eps)
        for i in range(5):
            for j in range(5):
                law = kernel.pair_law(i, j)
                np.testing.assert_allclose(law.sum(axis=1), P_eps.entries[i], atol=1e-12)
                np.testing.assert_allclose(law.sum(axis=0), P_eps.entries[j], atol=1e-12)

    def test_diagonal_pairs_are_absorbing(self, five_node):
        P, d = five_node
        kernel = CouplingKernel(build_damped_matrix(DampedChain(P, d, 0.15)))
        for i in range(5):
            law = kernel.pair_law(i, i)
            off_diag = law - np.diag(np.diag(law))
            assert np.all(off_diag == 0.0)

    def test_disjoint_rows_give_product_law(self, four_node):
        P, _ = four_node
        kernel = CouplingKernel(P)
        # Rows 1 and 2 share no support in the undamped four-state chain.
        assert np.minimum(P.entries[0], P.entries[1]).sum() == 0.0
        law = kernel.pair_law(0, 1)
        np.testing.assert_array_equal(law, np.outer(P.entries[0], P.entries[1]))

    def test_pair_cdf_accumulates_the_flat_pair_law(self, five_node):
        P, d = five_node
        kernel = CouplingKernel(build_damped_matrix(DampedChain(P, d, 0.15)))
        cdf = kernel.pair_cdf(1, 2)
        assert cdf.shape == (25,)
        np.testing.assert_allclose(np.diff(cdf), kernel.pair_law(1, 2).ravel()[1:], atol=1e-15)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_multi_step_variant_couples_matrix_power(self, four_node):
        P, d = four_node
        P_eps = build_damped_matrix(DampedChain(P, d, 0.1))
        two_step = matrix_power(P_eps, 2)
        kernel = CouplingKernel(two_step)
        for i in range(4):
            for j in range(4):
                law = kernel.pair_law(i, j)
                np.testing.assert_allclose(law.sum(axis=1), two_step.entries[i], atol=1e-12)
                np.testing.assert_allclose(law.sum(axis=0), two_step.entries[j], atol=1e-12)
        # Diagonal absorption carries over to the subsampled chain.
        law = kernel.pair_law(2, 2)
        assert np.all((law - np.diag(np.diag(law))) == 0.0)


class TestSimulator:
    def test_diagonal_start_never_exceeds(self, five_node):
        P, d = five_node
        P_eps = build_damped_matrix(DampedChain(P, d, 0.15))
        pi = stationary_direct(P_eps).pi
        kernel = CouplingKernel(P_eps)
        start = maximal_coupling(pi, pi)
        estimate = simulate_coupling_time(kernel, start, trials=2000, seed=1, horizon=10)
        assert np.all(estimate.tail == 0.0)

    def test_same_seed_reproduces_bit_for_bit(self, five_node):
        P, d = five_node
        P_eps = build_damped_matrix(DampedChain(P, d, 0.15))
        pi = stationary_direct(P_eps).pi
        kernel = CouplingKernel(P_eps)
        start = maximal_coupling(Distribution.uniform(5), pi)
        a = simulate_coupling_time(kernel, start, trials=3000, seed=42, horizon=15)
        b = simulate_coupling_time(kernel, start, trials=3000, seed=42, horizon=15)
        np.testing.assert_array_equal(a.tail, b.tail)
        c = simulate_coupling_time(kernel, start, trials=3000, seed=43, horizon=15)
        assert not np.array_equal(a.tail, c.tail)

    def test_two_state_tail_matches_geometric_law(self):
        # With two states the paired chain leaves the off-diagonal only by
        # meeting, so the tail is exactly geometric and can be enumerated.
        P0 = chains.StochasticMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]))
        d = chains.DampingVector.uniform(2)
        P_eps = build_damped_matrix(DampedChain(P0, d, 0.2))
        pi = stationary_direct(P_eps).pi
        p = Distribution.point_mass(2, 0)
        kernel = CouplingKernel(P_eps)
        start = maximal_coupling(p, pi)
        trials = 40_000
        estimate = simulate_coupling_time(kernel, start, trials=trials, seed=7, horizon=12)
        miss = 1.0 - np.minimum(P_eps.entries[0], P_eps.entries[1]).sum()
        exact = (1.0 - start.diagonal_mass) * miss ** np.arange(13)
        # Trials are independent, so each count is exactly Bin(trials, exact[n]);
        # a normal band is wrong where less than one trial is expected.
        for n in range(13):
            count = round(estimate.tail[n] * trials)
            lo, hi = binomial_central_interval(trials, exact[n], 0.0027)
            assert lo <= count <= hi, f"n={n}: {count} outside [{lo}, {hi}]"

    def test_generator_is_identified(self, five_node):
        P, d = five_node
        P_eps = build_damped_matrix(DampedChain(P, d, 0.5))
        pi = stationary_direct(P_eps).pi
        kernel = CouplingKernel(P_eps)
        start = maximal_coupling(Distribution.uniform(5), pi)
        estimate = simulate_coupling_time(kernel, start, trials=10, seed=0, horizon=3)
        assert estimate.generator == "philox4x64-steptrial-damped"

    def test_tail_dominated_by_onestep_bound(self, five_node):
        from dampedchain import coupling_bound, decompose

        P, d = five_node
        eps = 0.15
        P_eps = build_damped_matrix(DampedChain(P, d, eps))
        pi = stationary_direct(P_eps).pi
        p = Distribution.uniform(5)
        kernel = CouplingKernel(P_eps)
        start = maximal_coupling(p, pi)
        trials = 20_000
        estimate = simulate_coupling_time(kernel, start, trials=trials, seed=11, horizon=20)
        structure = decompose(P)
        for n in range(21):
            bound = coupling_bound(structure, d, p, pi, eps, n)
            assert estimate.tail[n] <= bound + 3 * estimate.std_error[n] + 1e-12

    @pytest.mark.parametrize(
        "chain, eps, initial, power, horizon",
        [
            ("five_node", 0.15, "uniform", 1, 5),
            ("four_node", 0.1, "point", 1, 20),
            ("five_node", 0.15, "uniform", 2, 2),
            ("four_node", 0.1, "point", 2, 8),
        ],
        ids=["five_node", "four_node", "five_node-block2", "four_node-block2"],
    )
    def test_tail_matches_exact_absorption(self, request, chain, eps, initial, power, horizon):
        kernel, start = _simulation_case(request.getfixturevalue(chain), eps, initial, power)
        trials = 100_000
        exact = exact_tail(kernel, start, horizon)
        # Up to the horizon at least 10 trials are expected, so 4 SE is a fair band.
        assert exact[-1] * trials >= 10
        estimate = simulate_coupling_time(kernel, start, trials=trials, seed=3, horizon=horizon)
        se = np.sqrt(exact * (1.0 - exact) / trials)
        assert np.all(np.abs(estimate.tail - exact) <= 4.0 * se)

    @pytest.mark.parametrize("chain, initial", [("five_node", "uniform"), ("four_node", "point")])
    def test_matches_per_trial_reference_loop(self, request, chain, initial):
        kernel, start = _simulation_case(request.getfixturevalue(chain), 0.15, initial)
        estimate = simulate_coupling_time(kernel, start, trials=3000, seed=42, horizon=15)
        expected = reference_tail(kernel, start, trials=3000, seed=42, horizon=15)
        assert expected[1] > 0.0
        np.testing.assert_array_equal(estimate.tail, expected)

    @pytest.mark.parametrize("elements", [1, 35, 5 * 2999])
    def test_block_size_does_not_change_the_tail(self, five_node, monkeypatch, elements):
        # Blocks of 1, 7 and 2999 trials: none divides 3001.
        kernel, start = _simulation_case(five_node, 0.15, "uniform")
        whole = simulate_coupling_time(kernel, start, trials=3001, seed=42, horizon=15)
        monkeypatch.setattr(coupling, "BLOCK_ELEMENTS", elements)
        blocked = simulate_coupling_time(kernel, start, trials=3001, seed=42, horizon=15)
        np.testing.assert_array_equal(blocked.tail, whole.tail)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"seed": -1}, "seed"),
            ({"seed": 1 << 128}, "seed"),
            ({"horizon": -1}, "horizon"),
            ({"trials": 0}, "trial"),
        ],
    )
    def test_bad_arguments_are_rejected(self, five_node, kwargs, match):
        kernel, start = _simulation_case(five_node, 0.15, "uniform")
        args = {"trials": 10, "seed": 0, "horizon": 3, **kwargs}
        with pytest.raises(ValidationError, match=match):
            simulate_coupling_time(kernel, start, **args)

    def test_largest_seed_is_accepted(self, five_node):
        kernel, start = _simulation_case(five_node, 0.15, "uniform")
        estimate = simulate_coupling_time(kernel, start, trials=10, seed=(1 << 128) - 1, horizon=3)
        assert estimate.tail.shape == (4,)


class TestDraw:
    # The float cumsum of this row ends at nextafter(1, 0), below 1, and its
    # last two states have no mass.
    ROW = np.array([0.7, 0.2, 0.1, 0.0, 0.0])

    def test_top_word_draws_last_state_with_mass(self):
        cdf = np.cumsum(self.ROW)
        assert cdf[-1] < 1.0
        u = np.array([np.nextafter(1.0, 0.0)])
        assert coupling._draw(cdf, u)[0] == 2
        assert coupling._draw(cdf[None, :], u)[0] == 2

    def test_zero_word_skips_leading_states_without_mass(self):
        cdf = np.cumsum(self.ROW[::-1])
        u = np.array([0.0])
        assert coupling._draw(cdf, u)[0] == 2
        assert coupling._draw(cdf[None, :], u)[0] == 2

    def test_rows_equal_up_to_rounding_meet(self, monkeypatch):
        # Row 1 is row 0 less one ulp, so its excess over row 0 is empty; with
        # every word at its top the meet test fails all the same.
        P = chains.StochasticMatrix(np.array([[0.3, 0.7], [0.3, np.nextafter(0.7, 0.0)]]))
        top = np.nextafter(1.0, 0.0)
        monkeypatch.setattr(coupling, "_step_words", lambda seed, step, trial: np.full((trial.size, 4), top))
        start = maximal_coupling(Distribution.point_mass(2, 0), Distribution.point_mass(2, 1))
        estimate = simulate_coupling_time(CouplingKernel(P), start, trials=3, seed=0, horizon=2)
        np.testing.assert_array_equal(estimate.tail, [1.0, 0.0, 0.0])


def _damped_case(chain, eps, initial):
    """A damped chain's kernel, built on the chain itself, and the start coupling of p with pi(eps)."""
    P, d = chain
    damped = DampedChain(P, d, eps)
    pi = stationary_direct(damped).pi
    p = Distribution.uniform(P.dim) if initial == "uniform" else Distribution.point_mass(P.dim, 0)
    return damped, CouplingKernel(damped), maximal_coupling(p, pi)


DAMPED_CASES = [("five_node", "uniform"), ("four_node", "point"), ("eight_node", "uniform")]


class TestStepWords:
    @pytest.mark.parametrize("seed", [0, 7, (1 << 128) - 1])
    @pytest.mark.parametrize("step", [0, 1, DEFAULT_HORIZON, (1 << 64) + 5])
    def test_words_are_numpy_philox_at_each_counter(self, seed, step):
        # Scattered ids are evaluated directly; a run of consecutive ids comes from
        # NumPy's generator. Both hold the first and last trial of a block of 7-long rows.
        block = coupling.BLOCK_ELEMENTS // 7
        scattered = np.array([0, 3, 4, 1000, block - 1, block, 2 * block - 1, 1 << 40])
        for trial in (scattered, np.arange(block - 2, block + 3)):
            expected = [
                np.random.Generator(np.random.Philox(key=seed, counter=(step << 128) + int(t))).random(4)
                for t in trial
            ]
            np.testing.assert_array_equal(coupling._step_words(seed, step, trial), expected)


class TestDampedKernel:
    @pytest.mark.parametrize("chain", ["five_node", "four_node", "eight_node"])
    @pytest.mark.parametrize("eps", [0.05, 0.5, 1.0])
    def test_pair_law_is_the_dense_kernels(self, request, chain, eps):
        P, d = request.getfixturevalue(chain)
        damped = DampedChain(P, d, eps)
        kernel, dense = CouplingKernel(damped), CouplingKernel(build_damped_matrix(damped))
        assert kernel.matrix is damped
        for i in range(P.dim):
            for j in range(P.dim):
                assert np.max(np.abs(kernel.pair_law(i, j) - dense.pair_law(i, j))) <= 1e-15

    @pytest.mark.parametrize("chain, initial", DAMPED_CASES, ids=[c for c, _ in DAMPED_CASES])
    @pytest.mark.parametrize("eps", [0.05, 0.5])
    def test_tail_matches_exact_absorption(self, request, chain, initial, eps):
        _, kernel, start = _damped_case(request.getfixturevalue(chain), eps, initial)
        trials, horizon = 40_000, 12
        exact = exact_tail(kernel, start, horizon)
        estimate = simulate_coupling_time(kernel, start, trials=trials, seed=5, horizon=horizon)
        # Trials are independent, so each count is exactly Bin(trials, exact[n]).
        for n in range(horizon + 1):
            count = round(estimate.tail[n] * trials)
            lo, hi = binomial_central_interval(trials, exact[n], 0.0027)
            assert lo <= count <= hi, f"n={n}: {count} outside [{lo}, {hi}]"

    @pytest.mark.parametrize(
        "chain, initial, eps",
        [("five_node", "uniform", 0.05), ("four_node", "point", 0.5), ("eight_node", "uniform", 0.05)],
    )
    def test_matches_per_trial_reference_loop(self, request, chain, initial, eps):
        damped, kernel, start = _damped_case(request.getfixturevalue(chain), eps, initial)
        estimate = simulate_coupling_time(kernel, start, trials=1500, seed=42, horizon=15)
        expected = damped_reference_tail(damped, start, trials=1500, seed=42, horizon=15)
        assert expected[1] > 0.0
        np.testing.assert_array_equal(estimate.tail, expected)

    def test_full_damping_meets_in_one_move(self, four_node):
        # At eps = 1 both rows of P(1) are d, so every pair meets at its first move.
        _, kernel, start = _damped_case(four_node, 1.0, "point")
        estimate = simulate_coupling_time(kernel, start, trials=5000, seed=3, horizon=6)
        assert estimate.tail[0] > 0.0
        np.testing.assert_array_equal(estimate.tail[1:], 0.0)


# Rows of 1 to 4 nonzeros, so most rows are padded; -0.0 entries lead, sit inside
# and trail rows, and count as nonzeros of the row.
SIGNED_ZEROS = np.array(
    [
        [-0.0, 0.5, -0.0, 0.5],
        [0.25, 0.25, 0.25, 0.25],
        [1.0, -0.0, 0.0, -0.0],
        [0.0, 0.75, 0.0, 0.25],
    ]
)


def _dense_csv(tmp_path):
    """A 6-state row-stochastic matrix with every entry positive, read from a CSV file."""
    entries = np.random.default_rng(3).uniform(0.1, 1.0, (6, 6))
    entries /= entries.sum(axis=1, keepdims=True)
    path = tmp_path / "dense.csv"
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in entries) + "\n")
    return ingest(str(path))[0]


class TestRowWalk:
    """The walk on P0's padded nonzeros against the dense rows it replaced."""

    @pytest.fixture(params=["unequal-rows", "signed-zeros", "dense-csv"])
    def matrix(self, request, tmp_path):
        if request.param == "unequal-rows":
            return chains.eight_node()[0]
        if request.param == "signed-zeros":
            return chains.StochasticMatrix(SIGNED_ZEROS)
        P = _dense_csv(tmp_path)
        assert CouplingKernel(P)._rows.cols.shape == (6, 6)  # k = m
        return P

    def test_plain_kernel_keeps_the_dense_row_draws(self, matrix):
        m = matrix.dim
        kernel = CouplingKernel(matrix)
        start = maximal_coupling(Distribution.uniform(m), Distribution.point_mass(m, m - 1))
        estimate = simulate_coupling_time(kernel, start, trials=1500, seed=9, horizon=12)
        expected = reference_tail(kernel, start, trials=1500, seed=9, horizon=12)
        assert expected[1] > 0.0
        np.testing.assert_array_equal(estimate.tail, expected)

    def test_damped_kernel_matches_its_reference_loop(self, matrix):
        m = matrix.dim
        damped = DampedChain(matrix, chains.linear_damping(m), 0.2)
        start = maximal_coupling(Distribution.uniform(m), Distribution.point_mass(m, m - 1))
        estimate = simulate_coupling_time(CouplingKernel(damped), start, trials=1500, seed=9, horizon=12)
        expected = damped_reference_tail(damped, start, trials=1500, seed=9, horizon=12)
        assert expected[1] > 0.0
        np.testing.assert_array_equal(estimate.tail, expected)

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
    def test_extreme_words_draw_only_states_with_mass(self, matrix, u):
        # The first and last word draw a row's first and last positive entry, never padding.
        kernel = CouplingKernel(matrix)
        m = matrix.dim
        i = np.arange(m)
        i_next, _ = kernel._move(i, i, np.full((m, 4), u))
        positive = [np.flatnonzero(row > 0.0) for row in matrix.entries]
        np.testing.assert_array_equal(i_next, [cols[-1] if u else cols[0] for cols in positive])
