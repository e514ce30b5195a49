import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chains
from oracle import (
    exact_damped_law,
    exact_limit_law,
    exact_min_overlap,
    exact_round_up,
    exact_tail_sums,
    naive_matmul,
    naive_min_overlap,
    propagate,
    slice_min_overlap,
)
from dampedchain import (
    BoundContext,
    ContractionError,
    DampedChain,
    DampingVector,
    DimensionMismatchError,
    Distribution,
    GeometricDecay,
    Regime,
    RegimeError,
    StochasticMatrix,
    ValidationError,
    build_damped_matrix,
    class_mass,
    coupling_bound,
    coupling_bound_multistep,
    decompose,
    ergodicity_coefficient,
    limit_stationary,
    min_row_overlap,
    restrict,
    split_bound_context,
    stationary_direct,
    stationary_gap_bound,
    triangular_limit,
    triangular_sweep,
)
from dampedchain.bounds import (
    CERTIFIED_DIGITS,
    CERTIFY_CONTRACTION,
    PROFILE_STEPS,
    ErgodicityReport,
    PowerWalk,
    WALK_HORIZON,
    estimate_decay,
    round_up,
)
from dampedchain.io import ingest
from dampedchain.expansion import expansion
from dampedchain.stationary import series_sums
from dampedchain.triangular import triangular_bound
from conftest import benchmark_workloads, count_calls, log_products, rank_one

# Composite tail constant of the five-node example's known decay envelope.
FIVE_NODE_TAIL_FACTOR = (67 / 4488) * np.sqrt(34) + 49 / 132


class TestErgodicityCoefficient:
    def test_rank_one_matrix_is_degenerate(self):
        d = DampingVector(np.array([0.4, 0.3, 0.2, 0.1]))
        for N in (1, 2, 5):
            report = ergodicity_coefficient(rank_one(d), N)
            assert report.delta == 0.0
            assert report.degenerate
            assert report.delta_pow(0) == 1.0
            assert report.delta_pow(3) == 0.0

    def test_five_node_converges_to_second_modulus(self, five_node):
        P, _ = five_node
        deltas = [ergodicity_coefficient(P, N).delta for N in range(1, 13)]
        assert abs(deltas[-1] - 1 / 3) < 0.02
        assert deltas[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("chain_name", ["five_node", "four_node", "eight_node"])
    def test_overlap_matches_the_exact_overlap(self, chain_name, request):
        P, _ = request.getfixturevalue(chain_name)
        for N in range(1, 13):
            exact = exact_min_overlap(P.entries, N)
            assert abs(ergodicity_coefficient(P, N).overlap - exact) <= 1e-15, f"N={N}"

    def test_matches_naive_overlap_oracle(self, five_node):
        P, _ = five_node
        for N in (1, 3, 7):
            power = np.linalg.matrix_power(P.entries, N)
            expected = (1.0 - naive_min_overlap(power)) ** (1.0 / N)
            assert ergodicity_coefficient(P, N).delta == pytest.approx(expected, abs=1e-12)
        # Rows 0 and 1 share no support: the scan stops after row 0, at the
        # exact minimum.
        entries = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.25, 0.25, 0.25, 0.25],
                [0.5, 0.0, 0.5, 0.0],
            ]
        )
        assert min_row_overlap(entries) == naive_min_overlap(entries) == 0.0

    def test_four_node_has_disjoint_rows_at_one_step(self, four_node):
        P, _ = four_node
        report = ergodicity_coefficient(P, 1)
        assert report.delta == 1.0
        assert report.overlap == 0.0
        # Brute force over pairs: rows 1 and 2 (1-based) attain the zero overlap.
        overlaps = {
            (i, j): np.minimum(P.entries[i], P.entries[j]).sum()
            for i in range(4)
            for j in range(i + 1, 4)
        }
        assert min(overlaps.values()) == 0.0
        assert overlaps[(0, 1)] == 0.0

    def test_per_class_coefficients(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        reports = BoundContext(structure, d, Distribution.uniform(8), 0.1, 2).class_reports
        assert all(rep.delta < 1.0 for rep in reports)
        assert reports[0].delta == pytest.approx(np.sqrt(2 / 3), abs=1e-12)


def test_damped_overlap_beats_mixture_lower_bound():
    rng = np.random.default_rng(5)
    from dampedchain import StochasticMatrix, min_row_overlap

    for _ in range(10):
        m = rng.integers(3, 7)
        entries = rng.random((m, m)) ** 3
        entries /= entries.sum(axis=1, keepdims=True)
        P0 = StochasticMatrix(entries)
        w = rng.random(m) + 0.05
        d = DampingVector(w / w.sum())
        q0 = min_row_overlap(P0.entries)
        for eps in (0.1, 0.3, 0.7):
            P_eps = build_damped_matrix(DampedChain(P0, d, eps))
            assert min_row_overlap(P_eps.entries) >= (1 - eps) * q0 + eps - 1e-12


def stochastic(entries: np.ndarray) -> np.ndarray:
    return entries / entries.sum(axis=1, keepdims=True)


class TestMinRowOverlapOracle:
    """``min_row_overlap`` skips pairs but returns the every-pair scan's float exactly."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 8]), st.floats(0, 0.9))
    def test_random_stochastic_matrices(self, m, seed, power, sparsity):
        rng = np.random.default_rng(seed)
        entries = rng.random((m, m)) ** power
        entries[rng.random((m, m)) < sparsity] = 0.0
        entries[np.arange(m), rng.integers(0, m, m)] += 1e-3
        entries = stochastic(entries)
        q = min_row_overlap(entries)
        assert q == slice_min_overlap(entries)
        assert abs(q - naive_min_overlap(entries)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(7, 80), st.integers(0, 2**32 - 1))
    def test_powers_of_sparse_web_chains(self, m, seed):
        P, _ = chains.random_web_chain(np.random.default_rng(seed), m)
        power = P.entries
        for _ in range(8):
            assert min_row_overlap(power) == slice_min_overlap(power)
            power = power @ P.entries

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_smallest_matrices(self, m):
        rng = np.random.default_rng(m)
        for entries in (np.eye(m), np.full((m, m), 1.0 / m), stochastic(rng.random((m, m)))):
            assert min_row_overlap(entries) == slice_min_overlap(entries)
        assert min_row_overlap(np.eye(m)) == (1.0 if m == 1 else 0.0)

    def test_duplicated_rows_and_tied_minimal_pairs(self):
        rng = np.random.default_rng(3)
        distinct = stochastic(rng.random((4, 40)) + 0.05)
        entries = distinct[rng.integers(0, 4, 40)]
        assert min_row_overlap(entries) == slice_min_overlap(entries)
        # All rows identical: every pair ties, and the overlap is the row sum.
        same = np.tile(distinct[0], (40, 1))
        assert min_row_overlap(same) == slice_min_overlap(same) == min(1.0, float(distinct[0].sum()))

    def test_disjoint_supports(self):
        entries = np.zeros((50, 50))
        entries[np.arange(50), (np.arange(50) * 7) % 50] = 1.0
        assert min_row_overlap(entries) == slice_min_overlap(entries) == 0.0
        blocks = np.kron(np.eye(5), np.full((10, 10), 0.1))
        assert min_row_overlap(blocks) == 0.0

    def test_entries_whose_products_underflow(self):
        # Every product of two entries underflows to 0 in the Gram matrix.
        rng = np.random.default_rng(4)
        tiny = 1e-300 * (rng.random((30, 30)) + 0.5)
        assert min_row_overlap(tiny) == slice_min_overlap(tiny)
        mixed = stochastic(rng.random((30, 30)))
        mixed[::3] = tiny[::3]
        mixed[1::3, :5] = 1e-300
        assert min_row_overlap(mixed) == slice_min_overlap(mixed)

    @pytest.mark.parametrize("seed", range(60))
    def test_pairs_at_their_lower_bound(self, seed):
        # Rows x + c sigma and x - c sigma, sigma a balanced sign vector, differ
        # by c in every entry, so their overlap equals the lower bound exactly;
        # only the margin keeps rounding in G from skipping them.
        rng = np.random.default_rng(seed)
        x = stochastic(rng.random((1, 64)) + 0.5)[0]
        c = 10.0 ** rng.uniform(-12, -4)
        rows = []
        for _ in range(8):
            sigma = rng.permutation(np.repeat([1.0, -1.0], 32))
            rows += [x + c * sigma, x - c * sigma]
        entries = np.array(rows)
        assert min_row_overlap(entries) == slice_min_overlap(entries)

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_one_ulp_apart(self, seed):
        # Every overlap is the row sum up to a few ulps, so the minimum is
        # decided below any rounding-free margin.
        rng = np.random.default_rng(seed)
        entries = np.tile(stochastic(rng.random((1, 64))), (40, 1))
        for _ in range(80):
            i, j = rng.integers(0, 40), rng.integers(0, 64)
            entries[i, j] = np.nextafter(entries[i, j], rng.choice([0.0, 1.0]))
        assert min_row_overlap(entries) == slice_min_overlap(entries)

    def test_profile_powers_of_the_benchmark_web_chain(self, tmp_path, monkeypatch):
        # web-regular's seed-1 input: every power the Delta_N profile scans.
        workloads = benchmark_workloads()
        files, _ = workloads.generate(workloads.WORKLOADS["web-regular"], 1, str(tmp_path))
        P, _ = ingest(files["edges"])
        walk = PowerWalk(P)
        minima = count_calls(monkeypatch, "_pair_minima")
        for N in PROFILE_STEPS:
            minima.clear()
            walk._advance(N)
            assert min_row_overlap(walk.power) == slice_min_overlap(walk.power), N
            if N == 3:
                # Every pair passes the lower bound here, and the screen rules
                # out nearly all of them, so it screens every row to the end.
                screened = {args[1] for args in minima if args[0].dtype == np.float32}
                assert screened == set(range(P.dim - 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_entries_below_float32s_subnormal_range(self, seed):
        # float32's smallest subnormal is about 1.4e-45: 1e-50 rounds to 0 there,
        # so every score of these rows is 0 and each overlap is decided exactly.
        rng = np.random.default_rng(seed)
        tiny = 1e-50 * (rng.random((40, 40)) + 0.5)
        assert min_row_overlap(tiny) == slice_min_overlap(tiny)
        # Entries from 1e-50 to 1e-30 straddle float32's subnormal and normal ranges.
        straddle = 10.0 ** rng.uniform(-50, -30, (40, 40))
        assert min_row_overlap(straddle) == slice_min_overlap(straddle)
        # Normal rows whose smallest overlaps differ only in such entries.
        rows = np.tile(stochastic(rng.random((1, 40)) + 0.5), (40, 1))
        rows[:, :8] = 10.0 ** rng.uniform(-50, -35, (40, 8))
        assert min_row_overlap(rows) == slice_min_overlap(rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_in_float32_tie_in_the_screen(self, seed):
        # Rows apart by relative 1e-12 in float64 round to one float32 row, so
        # every pair has the same score: the screen keeps all of row 0's
        # partners, and the rest of the scan is exact.
        rng = np.random.default_rng(seed)
        x = stochastic(rng.random((1, 64)) + 0.5)
        entries = x * (1.0 + 1e-12 * rng.standard_normal((50, 64)))
        low = entries.astype(np.float32)
        assert np.all(low == low[0]) and len(np.unique(entries, axis=0)) == 50
        assert min_row_overlap(entries) == slice_min_overlap(entries)

    def test_the_screen_stops_where_every_pair_ties(self, monkeypatch):
        # 0.5 I + 0.5 J / m: every pair overlaps in 0.5. The screen of row 0
        # keeps all its partners and rules none out, so the other rows are
        # scored exactly without a screen.
        m = 60
        entries = np.full((m, m), 0.5 / m) + 0.5 * np.eye(m)
        minima = count_calls(monkeypatch, "_pair_minima")
        assert min_row_overlap(entries) == slice_min_overlap(entries)
        assert {args[1] for args in minima if args[0].dtype == np.float32} == {0}

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_apart_by_float32s_resolution(self, seed):
        # Overlaps apart by about float32's unit roundoff: rounding reorders
        # the scores, and only the screen's margin keeps the minimal pair.
        rng = np.random.default_rng(seed)
        x = stochastic(rng.random((1, 64)) + 0.5)
        entries = x * (1.0 + 3e-8 * rng.standard_normal((50, 64)))
        assert min_row_overlap(entries) == slice_min_overlap(entries)

    def test_subnormal_rounding_reorders_the_scores(self):
        # In units v = 2^-149, float32's smallest subnormal: rows 0 and 1
        # overlap in ten entries of 0.75 v, 7.5 v in all, each scored as v, so
        # their score is 10 v. Every other pair overlaps in whole entries of 8 v
        # and scores what it is, at least 8 v. The minimal pair's score is above
        # the smallest score by more than any relative margin.
        v = 2.0**-149
        entries = np.zeros((40, 80))
        entries[np.arange(40), np.arange(40)] = 1.0
        entries[:2, :2] *= 0.5
        entries[:2, 40:50] = 0.75 * v
        entries[0, 78] = entries[1, 77] = 8 * v
        entries[2:, 77:80] = 8 * v
        q = min_row_overlap(entries)
        assert q == slice_min_overlap(entries) == 7.5 * v

    def test_subnormal_rounding_lifts_the_minimal_score_past_the_first_overlap(self):
        # In units v = 2^-149: rows 0 and 1 alternate 0.75 v and 2 v, so they
        # overlap in 0.75 v per entry, 7.5 v in all, each entry scored as v.
        # Row 2 holds 0.9 v: its pairs overlap in 8.25 v, and the smallest
        # lower bound picks pair (0, 2) first. The minimal pair's score, 10 v,
        # is above that first overlap by more than any relative margin.
        v = 2.0**-149
        entries = np.full((3, 10), 0.9 * v)
        entries[0] = np.where(np.arange(10) % 2, 2.0, 0.75) * v
        entries[1] = np.where(np.arange(10) % 2, 0.75, 2.0) * v
        q = min_row_overlap(entries)
        assert q == slice_min_overlap(entries) == 7.5 * v

    @pytest.mark.parametrize("m", [256, 257, 258])
    @pytest.mark.parametrize("last", [False, True])
    def test_partner_counts_around_a_tile(self, m, last):
        # Heavy-tailed rows: the lower bound leaves every pair, so row 0 has
        # m - 1 = 255, 256 or 257 partners, one short of a full tile, a full
        # tile and one over. Its partner j, with mass only where row 0's
        # entries are smallest, gives the minimal overlap: the first partner,
        # or the last, which ends the first tile or is alone in the second.
        rng = np.random.default_rng(m)
        entries = stochastic(rng.random((m, m)) ** 8 + 1e-9)
        j = m - 1 if last else 1
        smallest = entries[0] <= np.quantile(entries[0], 0.2)
        entries[j] = stochastic((smallest * rng.random(m) + 1e-9)[np.newaxis])[0]
        sums = entries.sum(axis=1)
        gram = entries @ entries.T
        distance = np.diag(gram)[:, np.newaxis] + np.diag(gram) - 2 * gram
        lower = (sums[:, np.newaxis] + sums) / 2 - np.sqrt(m * np.maximum(distance, 0)) / 2
        q = min_row_overlap(entries)
        assert q == slice_min_overlap(entries) == slice_min_overlap(entries[[0, j]])
        assert lower[0, 1:].max() < q

    def test_entries_beyond_the_screens_range(self):
        # Row sums beyond 2^64, or rows longer than 2^16: every pair is scored exactly.
        rng = np.random.default_rng(5)
        huge = 1e30 * stochastic(rng.random((40, 40)))
        assert min_row_overlap(huge) == slice_min_overlap(huge)
        long_rows = stochastic(rng.random((40, 2**16 + 1)))
        assert min_row_overlap(long_rows) == slice_min_overlap(long_rows)


class TestStationaryGapBound:
    def test_five_node_reference_constants(self, five_node):
        P, d = five_node
        pi0 = stationary_direct(P).pi
        decay = GeometricDecay(2 * FIVE_NODE_TAIL_FACTOR, 1 / 3)
        values = stationary_gap_bound(decay, d, pi0, 0.15)
        assert [round(v, 5) for v in values] == [0.08738, 0.0751, 0.07283, 0.07283, 0.07283]

    def test_zero_epsilon_gives_zero(self, five_node):
        P, d = five_node
        pi0 = stationary_direct(P).pi
        decay = estimate_decay(P)
        assert np.all(stationary_gap_bound(decay, d, pi0, 0.0) == 0.0)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.15, 0.2])
    def test_estimated_constants_dominate_true_gap(self, five_node, four_node, eps):
        for P, d in (five_node, four_node):
            pi0 = stationary_direct(P).pi
            pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, eps))).pi
            bound = stationary_gap_bound(estimate_decay(P), d, pi0, eps)
            assert np.all(np.abs(pi_eps.probs - pi0.probs) <= bound + 1e-12)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_split_variant_dominates_gap_to_damping_limit(self, eight_node, eps):
        P, d = eight_node
        structure = decompose(P)
        reference = limit_stationary(structure, d.as_distribution())
        tail = BoundContext(structure, d, d.as_distribution(), eps, 2).split_tail()
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, eps))).pi
        bound = stationary_gap_bound(tail, d, reference, eps)
        assert np.all(np.abs(pi_eps.probs - reference.probs) <= bound + 1e-12)

    def test_split_tail_with_class_laws_is_bit_equal(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        context = BoundContext(structure, d, Distribution.uniform(8), 0.1, 2)
        context.split_tail()
        # Each class's walk with its law solved afresh; the structure's reuses its own.
        for walk, cls in zip(structure.walks, structure.classes):
            M = restrict(P, cls)
            law = stationary_direct(M).pi
            assert walk.tail() == PowerWalk(M, lambda: law).tail()

    @pytest.mark.parametrize("chain_name", ["five_node", "four_node", "web"])
    def test_split_tail_does_not_depend_on_the_profile(self, chain_name, request):
        if chain_name == "web":
            P, d = chains.random_web_chain(np.random.default_rng(3), 40)
        else:
            P, d = request.getfixturevalue(chain_name)
        # The profile walks P0 to N = 12 before the certificate resumes the walk.
        context = BoundContext(decompose(P), d, d.as_distribution(), 0.1, 3)
        for N in PROFILE_STEPS:
            context.ergodicity(N)
        fresh = BoundContext(decompose(P), d, d.as_distribution(), 0.1, 3)
        assert context.split_tail() == fresh.split_tail()

    def test_estimate_decay_rejects_periodic(self):
        from dampedchain import StochasticMatrix

        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ContractionError):
            estimate_decay(P)


# The tests/data chains that family 1 or 2 accepts: every state in an aperiodic closed class.
ACCEPTED = [
    path
    for path in sorted((Path(__file__).parent / "data").glob("*_edges.txt"))
    if decompose(ingest(path)[0]).regime is not Regime.UNSUPPORTED
]


def _class_walks(chain_name, request):
    """``(matrix, law, walk)`` for each closed class of a test chain, its walk certified."""
    P, d = request.getfixturevalue(chain_name)
    structure = decompose(P)
    context = BoundContext(structure, d, d.as_distribution(), 0.1, 2)
    context.split_tail()
    return list(zip(structure.matrices, structure.laws, structure.walks))


class TestCertifiedTail:
    @pytest.mark.parametrize("chain_name", ["five_node", "four_node", "eight_node"])
    def test_tail_covers_the_exact_partial_sums(self, chain_name, request):
        for M, _, walk in _class_walks(chain_name, request):
            tail = walk.tail()
            columns, tv = exact_tail_sums(M.entries, 80)
            # S is at least every partial sum; the last terms are below 1e-10.
            assert tv[-1] < 1e-10
            assert Fraction(tail.tail_factor) >= max(columns)
            # c_N bounds 2 t_N, and so Dobrushin's coefficient of M^N.
            assert tail.contraction <= CERTIFY_CONTRACTION
            assert Fraction(tail.contraction) >= 2 * tv[tail.steps - 1]

    @pytest.mark.parametrize("chain_name", ["five_node", "four_node", "eight_node"])
    def test_walk_stops_at_the_first_small_contraction(self, chain_name, request):
        for M, law, walk in _class_walks(chain_name, request):
            power, products = M.entries, []
            for _ in range(walk.tail().steps):
                power = naive_matmul(power, M.entries)
                products.append(power)
            assert _first_contracting(M.entries, law, products) == walk.tail().steps

    @pytest.mark.parametrize("eps", [1e-3, 0.15, 0.5])
    @pytest.mark.parametrize("path", ACCEPTED, ids=lambda path: path.stem)
    def test_families_cover_the_exact_gap(self, path, eps, capsys):
        from dampedchain.cli import main

        P, _ = ingest(path)
        d = DampingVector.uniform(P.dim)
        family = "1" if decompose(P).regime is Regime.REGULAR else "2"
        assert main(["bounds", "--input", str(path), "--theorem", family, "--epsilon", repr(eps)]) == 0
        (record,) = json.loads(capsys.readouterr().out)["bounds"]["reports"]
        # The printed, rounded values against pi(eps) and its eps -> 0 limit d Pi, exactly.
        pi_eps = exact_damped_law(P.entries, d.weights, eps)
        limit = exact_limit_law(P.entries, d.weights)
        for bound, x, y in zip(record["per_state"], pi_eps, limit):
            assert Fraction(bound) >= abs(x - y)

    def test_rank_one_gap_prints_as_a_bound(self, tmp_path, capsys):
        # The walk certifies at N = 1 with S about 1e-12, so the printed value
        # sits a few units of its 12th digit above the exact gap eps |d_0 - pi_0|.
        from dampedchain.cli import main

        entries, weights = [[0.2, 0.8], [0.2, 0.8]], [0.700000000001, 0.299999999999]
        path = tmp_path / "rank_one.json"
        path.write_text(json.dumps({"matrix": entries, "damping": weights}))
        assert main(["bounds", "--input", str(path), "--theorem", "1", "--epsilon", "0.2"]) == 0
        (record,) = json.loads(capsys.readouterr().out)["bounds"]["reports"]
        assert record["constants"]["N"] == 1
        pi_eps = exact_damped_law(np.array(entries), weights, 0.2)
        limit = exact_limit_law(np.array(entries), weights)
        for bound, x, y in zip(record["per_state"], pi_eps, limit):
            assert Fraction(bound) >= abs(x - y)

    @pytest.mark.parametrize("digits", [CERTIFIED_DIGITS, 12])
    @given(x=st.one_of(
        st.floats(min_value=1e-300, max_value=1e300),
        st.sampled_from([10.0**k for k in range(-20, 21)]),
        st.sampled_from([math.nextafter(10.0**k, 0.0) for k in range(-20, 21)]),
    ))
    def test_round_up_gives_the_least_printable_decimal(self, digits, x):
        y = round_up(x, digits)
        assert y >= x
        assert float(f"{y:.12g}") == y == float(f"{y:.{digits}g}")
        # One unit less in the last of the digits is below x.
        decimal = Fraction(f"{y:.{digits - 1}e}")
        unit = Fraction(10) ** (int(f"{y:.{digits - 1}e}".split("e")[1]) - digits + 1)
        assert decimal - unit < Fraction(x)

    @pytest.mark.parametrize("digits", [CERTIFIED_DIGITS, 12])
    @given(x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_round_up_matches_the_exact_oracle(self, digits, x):
        assert round_up(x, digits) == exact_round_up(x, digits)

    @pytest.mark.parametrize("x", [0.0, -1 / 3, math.inf, math.nan])
    def test_round_up_leaves_what_is_not_a_positive_float(self, x):
        # -1/3 rounded toward +inf at 6 digits would be -0.333333, and inf has no digits.
        y = round_up(x, CERTIFIED_DIGITS)
        assert y == x or (math.isnan(x) and math.isnan(y))

    @pytest.mark.parametrize("digits", [CERTIFIED_DIGITS, 12])
    def test_round_up_next_to_every_power_of_ten(self, digits):
        # Every float power of ten and its neighbours, where the decimal
        # exponent changes, and the largest float, whose round-up is inf.
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        xs = [y for p in powers for y in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
        for x in [*xs, sys.float_info.max]:
            assert round_up(x, digits) == exact_round_up(x, digits), x
        assert round_up(sys.float_info.max, digits) == math.inf

    def test_slow_walk_certifies_at_its_smallest_contraction(self):
        # Second eigenvalue 0.998: c_N = 0.998^N stays above 1e-3 for N <= 200,
        # and the walk certifies at N = 200, where c_N is smallest.
        P = StochasticMatrix(np.array([[0.999, 0.001], [0.001, 0.999]]))
        d = DampingVector.uniform(2)
        context = BoundContext(decompose(P), d, d.as_distribution(), 0.1, 1)
        tail = context.split_tail()
        assert context.structure.walks[0].step == WALK_HORIZON == tail.steps
        assert CERTIFY_CONTRACTION < tail.contraction < 1.0
        assert Fraction(tail.contraction) >= Fraction(998, 1000) ** WALK_HORIZON
        # S = sum_(n>=1) 0.998^n / 2 = 249.5 exactly.
        assert tail.tail_factor >= 249.5
        pi_eps = exact_damped_law(P.entries, d.weights, 0.1)
        bound = stationary_gap_bound(tail, d, d.as_distribution(), 0.1)
        assert all(Fraction(b) >= abs(x - Fraction(1, 2)) for b, x in zip(bound, pi_eps))

    def test_walk_without_contraction_is_refused(self):
        # A 2-cycle: every power has a row at distance 1/2 from pi0, so c_N = 1.
        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        law = Distribution(np.array([0.5, 0.5]))
        walk = PowerWalk(P, lambda: law)
        with pytest.raises(ContractionError, match="for any N <= 200"):
            walk.tail()
        assert walk.step == WALK_HORIZON


class TestCouplingBounds:
    def test_stationary_start_gives_zero(self, five_node):
        P, d = five_node
        structure = decompose(P)
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15))).pi
        for n in (0, 1, 10):
            bound = coupling_bound(structure, d, pi_eps, pi_eps, 0.15, n)
            assert bound == pytest.approx(0.0, abs=1e-12)

    def test_step_zero_is_one_minus_overlap(self, five_node):
        P, d = five_node
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15))).pi
        p = Distribution.point_mass(5, 0)
        expected = 1.0 - np.minimum(p.probs, pi_eps.probs).sum()
        bound = coupling_bound(decompose(P), d, p, pi_eps, 0.15, 0)
        assert bound == pytest.approx(expected, abs=1e-14)

    def test_block_one_reduces_to_onestep(self, five_node):
        P, d = five_node
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15))).pi
        p = Distribution.uniform(5)
        structure = decompose(P)
        for n in range(0, 12):
            assert coupling_bound_multistep(structure, d, p, pi_eps, 0.15, 1, n) == pytest.approx(
                coupling_bound(structure, d, p, pi_eps, 0.15, n), abs=1e-14
            )

    def test_steps_below_block_keep_start_term(self, five_node):
        P, d = five_node
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15))).pi
        p = Distribution.uniform(5)
        start = 1.0 - np.minimum(p.probs, pi_eps.probs).sum()
        structure = decompose(P)
        for n in range(0, 4):
            assert coupling_bound_multistep(structure, d, p, pi_eps, 0.15, 4, n) == pytest.approx(
                start, abs=1e-14
            )

    def test_four_node_blocked_bound_improves_and_holds(self, four_node):
        P, d = four_node
        eps = 0.1
        P_eps = build_damped_matrix(DampedChain(P, d, eps))
        pi_eps = stationary_direct(P_eps).pi
        p = Distribution.uniform(4)
        n = 20
        structure = decompose(P)
        onestep = coupling_bound(structure, d, p, pi_eps, eps, n)
        blocked = coupling_bound_multistep(structure, d, p, pi_eps, eps, 2, n)
        true_dev = np.max(np.abs(propagate(p, P_eps, n).probs - pi_eps.probs))
        assert blocked < onestep
        assert true_dev <= blocked + 1e-12

    def test_split_bound_matching_masses_drop_drift_term(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        context = split_bound_context(structure, d, d.as_distribution(), 0.1, 2)
        np.testing.assert_array_equal(context.drift_scale, [0.0, 0.0])

    def test_split_bound_point_mass_drift_level(self, eight_node):
        # Point mass on the first class: the opposite class keeps a floor of
        # |f_p - f_d| * pi0 = 0.5 * 1/6 = 1/12 before the (1-eps)^n factor.
        P, d = eight_node
        structure = decompose(P)
        eps = 0.1
        p = Distribution.point_mass(8, 0)
        n = 400
        bound = split_bound_context(structure, d, p, eps, 2).bound_vector(n)[4]
        assert bound / (1 - eps) ** n == pytest.approx(1 / 12, abs=1e-6)

    def test_split_bound_rejects_regular_chains(self, five_node):
        P, d = five_node
        structure = decompose(P)
        with pytest.raises(RegimeError):
            split_bound_context(structure, d, Distribution.uniform(5), 0.1, 2).bound_vector(5)[0]

    def test_split_bound_names_family_seven(self, five_node):
        P, d = five_node
        with pytest.raises(RegimeError) as info:
            split_bound_context(decompose(P), d, Distribution.uniform(5), 0.1, 2)
        assert str(info.value) == "bound family 7 needs a singular chain; use families 5/6"

    def test_split_bound_requires_contraction(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        # Both classes have disjoint-row pairs at one step, so block 1 fails.
        with pytest.raises(ContractionError):
            split_bound_context(structure, d, Distribution.uniform(8), 0.1, 1).bound_vector(5)[0]

    def test_bound_sequences_are_nonincreasing_in_n(self, five_node, eight_node):
        P5, d5 = five_node
        eps = 0.15
        pi5 = stationary_direct(build_damped_matrix(DampedChain(P5, d5, eps))).pi
        p5 = Distribution.point_mass(5, 0)
        s5 = decompose(P5)
        onestep = [coupling_bound(s5, d5, p5, pi5, eps, n) for n in range(25)]
        blocked = [coupling_bound_multistep(s5, d5, p5, pi5, eps, 3, n) for n in range(25)]
        assert all(a >= b >= 0.0 for a, b in zip(onestep, onestep[1:]))
        assert all(a >= b >= 0.0 for a, b in zip(blocked, blocked[1:]))

        P8, d8 = eight_node
        structure = decompose(P8)
        context = split_bound_context(structure, d8, Distribution.point_mass(8, 0), eps, 2)
        split = [context.bound_vector(n)[4] for n in range(25)]
        assert all(a >= b >= 0.0 for a, b in zip(split, split[1:]))

    def test_split_bound_dominates_per_state(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        eps = 0.15
        P_eps = build_damped_matrix(DampedChain(P, d, eps))
        pi_eps = stationary_direct(P_eps).pi
        for p in (Distribution.uniform(8), Distribution.point_mass(8, 0)):
            context = split_bound_context(structure, d, p, eps, 2, pi_eps=pi_eps)
            law = p.probs.copy()
            for n in range(0, 40):
                bounds_vec = context.bound_vector(n)
                assert np.all(np.abs(law - pi_eps.probs) <= bounds_vec + 1e-12)
                law = law @ P_eps.entries


class TestOneContextPerCommand:
    """Constants that do not depend on n are computed once per bounds section."""

    @pytest.mark.parametrize("block", [2, 13])
    def test_regular_section_scans_each_step_once(self, five_node, monkeypatch, block):
        from dampedchain.report import bounds_section

        P, d = five_node
        scans = count_calls(monkeypatch, "min_row_overlap")
        context = BoundContext(decompose(P), d, Distribution.uniform(5), 0.15, block)
        bounds_section(context, ["1", "5", "6"], 30)
        # Delta_1..Delta_12 and the block: family 5 reuses Delta_1's raw overlap.
        assert len(scans) <= 13

    def test_singular_section_adds_one_scan_per_class(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        structure = decompose(P)
        scans = count_calls(monkeypatch, "min_row_overlap")
        families = ["2", "5", "6", "7"]
        bounds_section(BoundContext(structure, d, Distribution.uniform(8), 0.15, 2), families, 30)
        # Delta_N of the whole matrix is 1 by structure; each class is scanned at the block.
        assert len(scans) == len(structure.classes)

    def test_singular_section_solves_each_class_law_once(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        solves = count_calls(monkeypatch, "stationary_direct")
        families = ["2", "5", "6", "7"]
        context = BoundContext(decompose(P), d, Distribution.uniform(8), 0.15, 2)
        bounds_section(context, families, 30)
        # pi(eps) once and each of the two class laws once; family 2 reuses them.
        assert len(solves) == 3


def _first_contracting(entries, law, products) -> int:
    """The first n with ``max_i |M^n(i, .) - pi0|_1 <= CERTIFY_CONTRACTION`` among M and the logged products."""
    powers = [entries, *products]
    return next(n for n, A in enumerate(powers, 1) if np.abs(A - law.probs).sum(axis=1).max() <= CERTIFY_CONTRACTION)


class TestOneWalkPerClass:
    """Each closed class is restricted and walked once per command."""

    FAMILIES = ["2", "5", "6", "7"]

    def test_singular_section_restricts_each_class_once(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        structure = decompose(P)
        restricts = count_calls(monkeypatch, "restrict")
        context = BoundContext(structure, d, Distribution.uniform(8), 0.15, 2)
        bounds_section(context, self.FAMILIES, 30)
        assert len(restricts) == len(structure.classes)

    def test_sweep_restricts_each_class_once(self, eight_node, monkeypatch):
        P, d = eight_node
        structure = decompose(P)
        restricts = count_calls(monkeypatch, "restrict")
        triangular_sweep(BoundContext(structure, d, Distribution.uniform(8), 0.1, 2), range(31))
        assert len(restricts) == len(structure.classes)

    def test_regular_chain_is_never_restricted(self, five_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = five_node
        structure = decompose(P)
        restricts = count_calls(monkeypatch, "restrict")
        expansion(structure, d, n_max=3)
        context = BoundContext(structure, d, Distribution.uniform(5), 0.15, 2)
        bounds_section(context, ["1", "5", "6"], 30)
        triangular_sweep(BoundContext(structure, d, Distribution.uniform(5), 0.1, 2), range(31))
        assert restricts == []

    def test_report_restricts_and_solves_each_class_once(self, monkeypatch):
        from dampedchain.cli import make_parser, run_command

        path = str(Path(__file__).parent / "data" / "eight_node_edges.txt")
        argv = ["report", "--input", path, "--epsilon", "0.1", "--seed", "7", "--trials", "200"]
        restricts = count_calls(monkeypatch, "restrict")
        solves = count_calls(monkeypatch, "stationary_direct")
        run_command("report", make_parser().parse_args(argv))
        assert [cls.size for _, cls in restricts] == [4, 4]
        # Every other direct solve is of the whole 8-state P(eps).
        assert [args[0].dim for args in solves if args[0].dim != 8] == [4, 4]

    def test_preconditions_are_checked_before_any_family_runs(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        decays = count_calls(monkeypatch, "estimate_decay")
        spectra = count_calls(monkeypatch, "spectrum")
        context = BoundContext(decompose(P), d, Distribution.uniform(8), 0.15, 1)
        with pytest.raises(ContractionError, match="to N = 2, the smallest"):
            bounds_section(context, self.FAMILIES, 30)
        assert decays == [] and spectra == []

    @pytest.mark.parametrize(
        "chain_name, families, block",
        [
            ("five_node", ["1", "5", "6"], 2),
            ("eight_node", FAMILIES, 2),
            # The certified tail walks past the block before a later record or
            # the class profile reads it, so the block is scanned first.
            ("eight_node", ["2"], 3),
            ("four_node", ["1", "6"], 14),
        ],
        ids=["regular", "singular", "singular-tail-past-block", "regular-tail-past-block"],
    )
    def test_bounds_section_forms_each_class_power_once(self, chain_name, families, block, request):
        from dampedchain.report import bounds_section

        P, d = request.getfixturevalue(chain_name)
        structure = decompose(P)
        plain = [M.entries for M in structure.matrices]
        logs = [log_products(M) for M in structure.matrices]
        context = BoundContext(structure, d, Distribution.uniform(P.dim), 0.15, block)
        bounds_section(context, families, 30)
        for entries, law, products in zip(plain, structure.laws, logs):
            # M^2, M^3, ... in order, each once: the profile, the block and the
            # certified tail of family 1 or 2 share one walk.
            power = entries
            for product in products:
                power = naive_matmul(power, entries)
                np.testing.assert_allclose(product, power, rtol=0, atol=1e-13)
            # The walk went on past the profile and the block to the first N with a small c_N.
            walked = max(PROFILE_STEPS[-1], _first_contracting(entries, law, products))
            if "6" in families:
                walked = max(walked, block)
            assert len(products) + 1 == walked

    @pytest.mark.parametrize(
        "name, block", [("five_node", "2"), ("five_node", "3"), ("eight_node", "2")]
    )
    def test_report_forms_each_class_power_once(self, name, block, monkeypatch):
        from dampedchain import cli

        structures, plain, logs = [], [], []

        def logged_decompose(matrix):
            structure = decompose(matrix)
            plain.extend(M.entries for M in structure.matrices)
            logs.extend(log_products(M) for M in structure.matrices)
            structures.append(structure)
            return structure

        monkeypatch.setattr(cli, "decompose", logged_decompose)
        scans = count_calls(monkeypatch, "min_row_overlap")
        solves = count_calls(monkeypatch, "stationary_direct")
        path = str(Path(__file__).parent / "data" / f"{name}_edges.txt")
        argv = ["report", "--input", path, "--epsilon", "0.1", "--seed", "7", "--trials", "200",
                "--coupling-N", block]
        cli.run_command("report", cli.make_parser().parse_args(argv))
        (structure,) = structures
        for entries, law, products in zip(plain, structure.laws, logs):
            # M^2, M^3, ... in order, each once, across the bounds, coupling-sim
            # and triangular sections: one walk serves the profile, the block
            # and the certified tail of family 1 or 2.
            power = entries
            for product in products:
                power = naive_matmul(power, entries)
                np.testing.assert_allclose(product, power, rtol=0, atol=1e-13)
            assert len(products) + 1 == max(PROFILE_STEPS[-1], _first_contracting(entries, law, products))
        # P0 is scanned at N = 1 once on the regular chain, and never on the
        # singular one, whose whole-matrix Delta_N is 1 by structure.
        regular = structure.regime is Regime.REGULAR
        assert sum(args[0] is structure.P0.entries for args in scans) == int(regular)
        # One solve at the context's epsilon, the context's direct solve that
        # the stationary section reports and pi(eps) reads, and one per class.
        assert len(solves) == 1 + structure.class_count

    @pytest.mark.parametrize("name, classes", [("five_node", 1), ("eight_node", 2)])
    def test_report_eigen_solves_each_class_once(self, name, classes, monkeypatch):
        from dampedchain.cli import make_parser, run_command

        path = str(Path(__file__).parent / "data" / f"{name}_edges.txt")
        argv = ["report", "--input", path, "--epsilon", "0.1", "--seed", "7", "--trials", "200"]
        spectra = count_calls(monkeypatch, "spectrum")
        run_command("report", make_parser().parse_args(argv))
        # The spectrum section's; the bounds section computes no eigenvalue.
        assert len(spectra) == classes

    @pytest.mark.parametrize("chain_name", ["web", "eight_node"])
    def test_contexts_on_one_structure_share_its_class_walks(self, chain_name, request, monkeypatch):
        if chain_name == "web":
            P, d = chains.random_web_chain(np.random.default_rng(3), 40)
        else:
            P, d = request.getfixturevalue(chain_name)
        structure = decompose(P)
        first = BoundContext(structure, d, d.as_distribution(), 0.1, 3)
        profile = [first.ergodicity(N) for N in PROFILE_STEPS]
        reports, tail = first.class_reports, first.split_tail()
        products = [log_products(M) for M in structure.matrices]
        scans = count_calls(monkeypatch, "min_row_overlap")
        # Another epsilon and start: every N the first context scanned is read, not formed or scanned.
        second = BoundContext(structure, d, Distribution.uniform(P.dim), 0.02, 3)
        assert [second.ergodicity(N) for N in PROFILE_STEPS] == profile
        assert second.class_reports == reports
        assert second.split_tail() == tail
        assert scans == [] and products == [[] for _ in products]

    @pytest.mark.parametrize("name", ["transient_edges", "two_cycles_transient_edges"])
    def test_contexts_on_an_unsupported_chain_share_the_walk_of_p0(self, name, monkeypatch):
        # Such a chain has no class walks; P0's own walk is the structure's too.
        P, _ = ingest(Path(__file__).parent / "data" / f"{name}.txt")
        d, structure = DampingVector.uniform(P.dim), decompose(P)
        assert structure.regime is Regime.UNSUPPORTED
        first = BoundContext(structure, d, d.as_distribution(), 0.1, 3)
        profile = [first.ergodicity(N) for N in PROFILE_STEPS]
        products = log_products(P)
        scans = count_calls(monkeypatch, "min_row_overlap")
        second = BoundContext(structure, d, Distribution.uniform(P.dim), 0.3, 3)
        assert [second.ergodicity(N) for N in PROFILE_STEPS] == profile
        assert scans == [] and products == []

    @pytest.mark.parametrize("chain_name", ["web300", "eight_node"])
    def test_every_reader_of_a_delta_gets_the_walks_one_report(self, chain_name, request, tmp_path):
        if chain_name == "web300":
            path = tmp_path / "web300.txt"
            path.write_text("\n".join(benchmark_workloads().web_edges(random.Random(5), 300)) + "\n")
            P, _ = ingest(path)
        else:
            P, _ = request.getfixturevalue(chain_name)
        structure = decompose(P)
        d = DampingVector.uniform(P.dim)
        # Two contexts on one structure, at different epsilons and starts.
        for eps, p in ((0.1, d.as_distribution()), (0.02, Distribution.point_mass(P.dim, 0))):
            context = BoundContext(structure, d, p, eps, 3)
            for j, walk in enumerate(structure.walks):
                assert context.class_reports[j] is walk.ergodicity(3)
            if structure.regime is Regime.REGULAR:
                for N in PROFILE_STEPS:
                    assert context.ergodicity(N) is structure.walk.ergodicity(N)
            # Family 5's rate is the profile's Delta_1.
            rate = context.ergodicity(1).delta * (1.0 - eps)
            assert context.onestep(4) == (1.0 - context.start_overlap) * rate**4

    def test_search_after_the_decay_walk_gives_the_same_answer(self):
        # A 6-cycle with a self-loop at state 0: Delta_N = 1 up to N = 4. The
        # certified tail walks far beyond N = 5, so the search must not read its power.
        entries = np.roll(np.eye(6), 1, axis=1)
        entries[0] = [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
        P = StochasticMatrix(entries)
        d, p = DampingVector.uniform(6), Distribution.uniform(6)
        messages = []
        for decay_first in (False, True):
            # A structure of its own, so that the walk has scanned nothing yet.
            context = BoundContext(decompose(P), d, p, 0.1, 2)
            if decay_first:
                context.split_tail()
            with pytest.raises(ContractionError) as info:
                context.require_contraction()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "to N = 5, the smallest" in messages[0]

    def test_search_never_walks_the_whole_singular_matrix(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        scans = count_calls(monkeypatch, "min_row_overlap")
        context = BoundContext(decompose(P), d, Distribution.uniform(8), 0.15, 1)
        with pytest.raises(ContractionError, match="to N = 2, the smallest"):
            bounds_section(context, ["7"], 30)
        # Both classes at the block, then both again at N = 2.
        assert [args[0].shape for args in scans] == [(4, 4)] * 4

    def test_search_continues_from_the_block(self, monkeypatch):
        # A 4-cycle with a self-loop at state 0: Delta_1 = Delta_2 = 1 and Delta_3 < 1.
        entries = np.roll(np.eye(4), 1, axis=1)
        entries[0] = [0.5, 0.5, 0.0, 0.0]
        P = StochasticMatrix(entries)
        d = DampingVector(np.full(4, 0.25))
        context = BoundContext(decompose(P), d, Distribution.uniform(4), 0.1, 2)
        scans = count_calls(monkeypatch, "min_row_overlap")
        with pytest.raises(ContractionError) as info:
            triangular_sweep(context, range(5))
        assert str(info.value) == (
            "Delta_2 = 1; increase the block length to N = 3, the smallest with Delta_N < 1"
        )
        # Delta_2 once in the context, then Delta_3; N = 1 and 2 are not scanned again.
        assert len(scans) == 2

    def test_profile_and_class_reports_match_brute_powers(self, eight_node):
        P, d = eight_node
        perm = np.random.default_rng(11).permutation(8)
        Q = StochasticMatrix(P.entries[np.ix_(perm, perm)])
        structure = decompose(Q)
        power = np.eye(8)
        for N in PROFILE_STEPS:
            power = naive_matmul(power, Q.entries)
            context = BoundContext(
                structure, DampingVector(d.weights[perm]), Distribution.uniform(8), 0.1, N
            )
            assert context.ergodicity(N) == ErgodicityReport.from_overlap(N, naive_min_overlap(power))
            for cls, report in zip(structure.classes, context.class_reports):
                block = power[np.ix_(cls.states, cls.states)]
                expected = ErgodicityReport.from_overlap(N, naive_min_overlap(block))
                assert report.step == N
                assert report.overlap == pytest.approx(expected.overlap, abs=1e-14)
                assert report.delta == pytest.approx(expected.delta, abs=1e-12)


class TestInterleavedClasses:
    """Family 7 and the joint-limit bound on a chain whose classes interleave."""

    EPS = 0.15
    # Non-uniform damping, so the class masses of d differ from those of p.
    WEIGHTS = np.arange(1.0, 9.0) / 36.0

    @pytest.fixture
    def permuted(self, eight_node):
        P, _ = eight_node
        perm = np.random.default_rng(11).permutation(8)
        Q = StochasticMatrix(P.entries[np.ix_(perm, perm)])
        classes = decompose(Q).classes
        assert any(cls.states[-1] - cls.states[0] >= cls.size for cls in classes)
        return P, Q, perm

    @staticmethod
    def starts(perm):
        """Pairs (start on the original chain, the same start on the permuted chain)."""
        point = Distribution.point_mass(8, 0)
        return [
            (Distribution.uniform(8), Distribution.uniform(8)),
            (point, Distribution(point.probs[perm])),
        ]

    def test_bounds_commute_with_permutation(self, permuted):
        P, Q, perm = permuted
        sP, sQ = decompose(P), decompose(Q)
        d = DampingVector(self.WEIGHTS)
        dq = DampingVector(self.WEIGHTS[perm])
        for p, pq in self.starts(perm):
            original = split_bound_context(sP, d, p, self.EPS, 2)
            moved = split_bound_context(sQ, dq, pq, self.EPS, 2)
            for n in range(41):
                np.testing.assert_allclose(
                    moved.bound_vector(n), original.bound_vector(n)[perm], rtol=1e-12, atol=1e-15
                )
                t = self.EPS * n
                expected = triangular_bound(sP, d, p, self.EPS, n, 2, t)
                got = triangular_bound(sQ, dq, pq, self.EPS, n, 2, t)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_bound_vector_matches_per_state_formula(self, permuted):
        _, Q, perm = permuted
        d = DampingVector(self.WEIGHTS[perm])
        structure = decompose(Q)
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(Q, d, self.EPS))).pi.probs
        laws = [stationary_direct(restrict(Q, cls)).pi.probs for cls in structure.classes]
        deltas = []
        for cls in structure.classes:
            block = Q.entries[np.ix_(cls.states, cls.states)]
            deltas.append(np.sqrt(1.0 - naive_min_overlap(block @ block)))
        for _, p in self.starts(perm):
            context = split_bound_context(structure, d, p, self.EPS, 2)
            for n in range(41):
                # The same arithmetic on the context's constants, one state at a time.
                looped = np.full(8, np.nan)
                for j, cls in enumerate(structure.classes):
                    delta_n = context.class_reports[j].delta_pow((n // 2) * 2)
                    for local, state in enumerate(cls.states):
                        drift = context.drift_scale[j] * structure.laws[j].probs[local]
                        looped[state] = (context.coupled[j] * delta_n + drift) * (1 - self.EPS) ** n
                np.testing.assert_array_equal(context.bound_vector(n), looped)

                # The family-7 formula from independently computed constants.
                expected = np.full(8, np.nan)
                for cls, law, delta in zip(structure.classes, laws, deltas):
                    states = list(cls.states)
                    f_p, f_d = p.probs[states].sum(), d.weights[states].sum()
                    start = 0.0
                    if f_p > 0:
                        start = f_p * (1.0 - np.minimum(p.probs[states] / f_p, law).sum())
                    coupled = f_d * (1.0 - np.minimum(pi_eps[states] / f_d, law).sum()) + start
                    for local, state in enumerate(states):
                        geometric = coupled * delta ** ((n // 2) * 2)
                        drift = abs(f_p - f_d) * law[local]
                        expected[state] = (geometric + drift) * (1.0 - self.EPS) ** n
                np.testing.assert_allclose(
                    context.bound_vector(n), expected, rtol=1e-12, atol=1e-15
                )


@pytest.mark.parametrize(
    "chain_name, call, message",
    [
        ("five_node", lambda s, d: BoundContext(s, d, Distribution.uniform(3), 0.15, 2), "start dim 3"),
        (
            "five_node",
            lambda s, d: coupling_bound(s, d, Distribution.uniform(5), Distribution.uniform(3), 0.15, 3),
            "pi_eps dim 3",
        ),
        ("five_node", lambda s, d: limit_stationary(s, Distribution.uniform(3)), "start dim 3"),
        ("eight_node", lambda s, d: limit_stationary(s, Distribution.uniform(3)), "start dim 3"),
        ("eight_node", lambda s, d: triangular_limit(s, d, Distribution.uniform(20), 1.0), "start dim 20"),
        ("eight_node", lambda s, d: class_mass(Distribution.uniform(20), s), "distribution dim 20"),
        (
            "eight_node",
            lambda s, d: triangular_limit(s, DampingVector.uniform(3), Distribution.uniform(8), 1.0),
            "damping dim 3",
        ),
        ("eight_node", lambda s, d: expansion(s, DampingVector.uniform(3)), "damping dim 3"),
        ("eight_node", lambda s, d: DampedChain(s.P0, DampingVector.uniform(3), 0.1), "damping dim 3"),
        ("eight_node", lambda s, d: series_sums(s.P0, DampingVector.uniform(3), [0.1]), "damping dim 3"),
    ],
    ids=[
        "context", "coupling-bound", "limit-regular", "limit-singular", "triangular-limit", "class-mass",
        "triangular-limit-damping", "expansion-damping", "damped-chain-damping", "series-sums-damping",
    ],
)
def test_inputs_of_the_wrong_size_are_refused(chain_name, call, message, request):
    P, d = request.getfixturevalue(chain_name)
    with pytest.raises(DimensionMismatchError) as info:
        call(decompose(P), d)
    assert str(info.value) == f"{message} != matrix dim {P.dim}"


def test_block_length_runs_from_one_to_the_walk_horizon(five_node):
    # A longer block would ask for more powers than a certificate walk ever forms.
    P, d = five_node
    structure, start = decompose(P), Distribution.uniform(5)
    assert BoundContext(structure, d, start, 0.15, WALK_HORIZON).ergodicity(WALK_HORIZON).step == WALK_HORIZON
    with pytest.raises(ValidationError) as info:
        BoundContext(structure, d, start, 0.15, WALK_HORIZON + 1)
    assert str(info.value) == f"block length must be at most {WALK_HORIZON}, the most powers a walk forms; got {WALK_HORIZON + 1}"
