import numpy as np
import pytest

from dampedchain import (
    ContractionError,
    DampedChain,
    DampingVector,
    Distribution,
    GeometricDecay,
    RegimeError,
    StochasticMatrix,
    bound_context,
    build_damped_matrix,
    coupling_bound,
    coupling_bound_multistep,
    decompose,
    ergodicity_coefficient,
    estimate_decay,
    limit_stationary,
    min_row_overlap,
    propagate,
    restrict,
    split_bound_context,
    stationary_direct,
    stationary_gap_bound,
    triangular_bound,
    triangular_sweep,
)
from dampedchain.bounds import PROFILE_STEPS, ErgodicityReport
from dampedchain.expansion import expansion
from conftest import count_calls, naive_matmul, naive_min_overlap

# Composite tail constant of the five-node example's known decay envelope.
FIVE_NODE_TAIL_FACTOR = (67 / 4488) * np.sqrt(34) + 49 / 132


class TestErgodicityCoefficient:
    def test_rank_one_matrix_is_degenerate(self):
        d = DampingVector(np.array([0.4, 0.3, 0.2, 0.1]))
        for N in (1, 2, 5):
            report = ergodicity_coefficient(d.matrix(), N)
            assert report.delta == 0.0
            assert report.degenerate
            assert report.delta_pow(0) == 1.0
            assert report.delta_pow(3) == 0.0

    def test_five_node_converges_to_second_modulus(self, five_node):
        P, _ = five_node
        deltas = [ergodicity_coefficient(P, N).delta for N in range(1, 13)]
        assert abs(deltas[-1] - 1 / 3) < 0.02
        assert deltas[0] == pytest.approx(0.5, abs=1e-12)

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
        reports = bound_context(P, d, Distribution.uniform(8), structure, 0.1, 2).class_reports
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
        reference = limit_stationary(P, d, d.as_distribution(), structure)
        decay = bound_context(P, d, d.as_distribution(), structure, eps, 2).split_decay()
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, eps))).pi
        bound = stationary_gap_bound(decay, d, reference, eps)
        assert np.all(np.abs(pi_eps.probs - reference.probs) <= bound + 1e-12)

    def test_split_decay_with_class_laws_is_bit_equal(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        context = bound_context(P, d, Distribution.uniform(8), structure, 0.1, 2)
        # Each class's decay with its law solved afresh; the context reuses its own.
        per_class = [estimate_decay(restrict(P, cls)) for cls in structure.classes]
        expected = (max(c.amplitude for c in per_class), max(c.rate for c in per_class))
        decay = context.split_decay()
        assert (decay.amplitude, decay.rate) == expected

    def test_estimate_decay_rejects_periodic(self):
        from dampedchain import StochasticMatrix

        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ContractionError):
            estimate_decay(P)


class TestCouplingBounds:
    def test_stationary_start_gives_zero(self, five_node):
        P, d = five_node
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15))).pi
        for n in (0, 1, 10):
            assert coupling_bound(P, pi_eps, pi_eps, 0.15, n) == pytest.approx(0.0, abs=1e-12)

    def test_step_zero_is_one_minus_overlap(self, five_node):
        P, d = five_node
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15))).pi
        p = Distribution.point_mass(5, 0)
        expected = 1.0 - np.minimum(p.probs, pi_eps.probs).sum()
        assert coupling_bound(P, p, pi_eps, 0.15, 0) == pytest.approx(expected, abs=1e-14)

    def test_block_one_reduces_to_onestep(self, five_node):
        P, d = five_node
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15))).pi
        p = Distribution.uniform(5)
        for n in range(0, 12):
            assert coupling_bound_multistep(P, p, pi_eps, 0.15, 1, n) == pytest.approx(
                coupling_bound(P, p, pi_eps, 0.15, n), abs=1e-14
            )

    def test_steps_below_block_keep_start_term(self, five_node):
        P, d = five_node
        pi_eps = stationary_direct(build_damped_matrix(DampedChain(P, d, 0.15))).pi
        p = Distribution.uniform(5)
        start = 1.0 - np.minimum(p.probs, pi_eps.probs).sum()
        for n in range(0, 4):
            assert coupling_bound_multistep(P, p, pi_eps, 0.15, 4, n) == pytest.approx(
                start, abs=1e-14
            )

    def test_four_node_blocked_bound_improves_and_holds(self, four_node):
        P, d = four_node
        eps = 0.1
        P_eps = build_damped_matrix(DampedChain(P, d, eps))
        pi_eps = stationary_direct(P_eps).pi
        p = Distribution.uniform(4)
        n = 20
        onestep = coupling_bound(P, p, pi_eps, eps, n)
        blocked = coupling_bound_multistep(P, p, pi_eps, eps, 2, n)
        true_dev = np.max(np.abs(propagate(p, P_eps, n).probs - pi_eps.probs))
        assert blocked < onestep
        assert true_dev <= blocked + 1e-12

    def test_split_bound_matching_masses_drop_drift_term(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        context = split_bound_context(P, d, d.as_distribution(), 0.1, 2, structure)
        np.testing.assert_array_equal(context.drift_scale, [0.0, 0.0])

    def test_split_bound_point_mass_drift_level(self, eight_node):
        # Point mass on the first class: the opposite class keeps a floor of
        # |f_p - f_d| * pi0 = 0.5 * 1/6 = 1/12 before the (1-eps)^n factor.
        P, d = eight_node
        structure = decompose(P)
        eps = 0.1
        p = Distribution.point_mass(8, 0)
        n = 400
        bound = split_bound_context(P, d, p, eps, 2, structure).bound_vector(n)[4]
        assert bound / (1 - eps) ** n == pytest.approx(1 / 12, abs=1e-6)

    def test_split_bound_rejects_regular_chains(self, five_node):
        P, d = five_node
        structure = decompose(P)
        with pytest.raises(RegimeError):
            split_bound_context(P, d, Distribution.uniform(5), 0.1, 2, structure).bound_vector(5)[0]

    def test_split_bound_requires_contraction(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        # Both classes have disjoint-row pairs at one step, so block 1 fails.
        with pytest.raises(ContractionError):
            split_bound_context(P, d, Distribution.uniform(8), 0.1, 1, structure).bound_vector(5)[0]

    def test_bound_sequences_are_nonincreasing_in_n(self, five_node, eight_node):
        P5, d5 = five_node
        eps = 0.15
        pi5 = stationary_direct(build_damped_matrix(DampedChain(P5, d5, eps))).pi
        p5 = Distribution.point_mass(5, 0)
        onestep = [coupling_bound(P5, p5, pi5, eps, n) for n in range(25)]
        blocked = [coupling_bound_multistep(P5, p5, pi5, eps, 3, n) for n in range(25)]
        assert all(a >= b >= 0.0 for a, b in zip(onestep, onestep[1:]))
        assert all(a >= b >= 0.0 for a, b in zip(blocked, blocked[1:]))

        P8, d8 = eight_node
        structure = decompose(P8)
        context = split_bound_context(P8, d8, Distribution.point_mass(8, 0), eps, 2, structure)
        split = [context.bound_vector(n)[4] for n in range(25)]
        assert all(a >= b >= 0.0 for a, b in zip(split, split[1:]))

    def test_split_bound_dominates_per_state(self, eight_node):
        P, d = eight_node
        structure = decompose(P)
        eps = 0.15
        P_eps = build_damped_matrix(DampedChain(P, d, eps))
        pi_eps = stationary_direct(P_eps).pi
        for p in (Distribution.uniform(8), Distribution.point_mass(8, 0)):
            context = split_bound_context(P, d, p, eps, 2, structure, pi_eps=pi_eps)
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
        chain = DampedChain(P, d, 0.15)
        bounds_section(chain, decompose(P), Distribution.uniform(5), 0.15, block, ["1", "5", "6"], 30)
        # Delta_1..Delta_12 and the block: family 5 reuses Delta_1's raw overlap.
        assert len(scans) <= 13

    def test_singular_section_adds_one_scan_per_class(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        structure = decompose(P)
        scans = count_calls(monkeypatch, "min_row_overlap")
        chain = DampedChain(P, d, 0.15)
        families = ["2", "5", "6", "7"]
        bounds_section(chain, structure, Distribution.uniform(8), 0.15, 2, families, 30)
        # Delta_N of the whole matrix is 1 by structure; each class is scanned at the block.
        assert len(scans) == len(structure.classes)

    def test_singular_section_solves_each_class_law_once(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        solves = count_calls(monkeypatch, "stationary_direct")
        chain = DampedChain(P, d, 0.15)
        families = ["2", "5", "6", "7"]
        bounds_section(chain, decompose(P), Distribution.uniform(8), 0.15, 2, families, 30)
        # pi(eps) once and each of the two class laws once; family 2 reuses them.
        assert len(solves) == 3


class TestOneWalkPerClass:
    """Each closed class is restricted and walked once per command."""

    FAMILIES = ["2", "5", "6", "7"]

    def test_singular_section_restricts_each_class_once(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        structure = decompose(P)
        restricts = count_calls(monkeypatch, "restrict")
        chain = DampedChain(P, d, 0.15)
        bounds_section(chain, structure, Distribution.uniform(8), 0.15, 2, self.FAMILIES, 30)
        assert len(restricts) == len(structure.classes)

    def test_sweep_restricts_each_class_once(self, eight_node, monkeypatch):
        P, d = eight_node
        structure = decompose(P)
        restricts = count_calls(monkeypatch, "restrict")
        triangular_sweep(P, d, Distribution.uniform(8), structure, 0.1, range(31), 2)
        assert len(restricts) == len(structure.classes)

    def test_regular_chain_is_never_restricted(self, five_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = five_node
        structure = decompose(P)
        restricts = count_calls(monkeypatch, "restrict")
        expansion(P, d, structure, n_max=3)
        chain = DampedChain(P, d, 0.15)
        bounds_section(chain, structure, Distribution.uniform(5), 0.15, 2, ["1", "5", "6"], 30)
        triangular_sweep(P, d, Distribution.uniform(5), structure, 0.1, range(31), 2)
        assert restricts == []

    def test_preconditions_are_checked_before_any_family_runs(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        decays = count_calls(monkeypatch, "estimate_decay")
        spectra = count_calls(monkeypatch, "spectrum")
        chain = DampedChain(P, d, 0.15)
        with pytest.raises(ContractionError, match="to N = 2, the smallest"):
            bounds_section(chain, decompose(P), Distribution.uniform(8), 0.15, 1, self.FAMILIES, 30)
        assert decays == [] and spectra == []

    def test_singular_section_walks_each_class_once(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        walks = count_calls(monkeypatch, "_powers")
        chain = DampedChain(P, d, 0.15)
        bounds_section(chain, decompose(P), Distribution.uniform(8), 0.15, 2, ["5", "6", "7"], 30)
        # One walk per 4-state class matrix; the 8-state P0 is never walked.
        assert [args[0].dim for args in walks] == [4, 4]

    def test_search_never_walks_the_whole_singular_matrix(self, eight_node, monkeypatch):
        from dampedchain.report import bounds_section

        P, d = eight_node
        scans = count_calls(monkeypatch, "min_row_overlap")
        chain = DampedChain(P, d, 0.15)
        with pytest.raises(ContractionError, match="to N = 2, the smallest"):
            bounds_section(chain, decompose(P), Distribution.uniform(8), 0.15, 1, ["7"], 30)
        # Both classes at the block, then both again at N = 2.
        assert [args[0].shape for args in scans] == [(4, 4)] * 4

    def test_search_continues_from_the_block(self, monkeypatch):
        # A 4-cycle with a self-loop at state 0: Delta_1 = Delta_2 = 1 and Delta_3 < 1.
        entries = np.roll(np.eye(4), 1, axis=1)
        entries[0] = [0.5, 0.5, 0.0, 0.0]
        P = StochasticMatrix(entries)
        d = DampingVector(np.full(4, 0.25))
        scans = count_calls(monkeypatch, "min_row_overlap")
        with pytest.raises(ContractionError) as info:
            triangular_sweep(P, d, Distribution.uniform(4), decompose(P), 0.1, range(5), 2)
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
            context = bound_context(
                Q, DampingVector(d.weights[perm]), Distribution.uniform(8), structure, 0.1, N,
                steps=PROFILE_STEPS,
            )
            assert context.profile[N] == ErgodicityReport.from_overlap(N, naive_min_overlap(power))
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
            original = split_bound_context(P, d, p, self.EPS, 2, sP)
            moved = split_bound_context(Q, dq, pq, self.EPS, 2, sQ)
            for n in range(41):
                np.testing.assert_allclose(
                    moved.bound_vector(n), original.bound_vector(n)[perm], rtol=1e-12, atol=1e-15
                )
                t = self.EPS * n
                expected = triangular_bound(P, d, p, sP, self.EPS, n, 2, t)
                got = triangular_bound(Q, dq, pq, sQ, self.EPS, n, 2, t)
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
            context = split_bound_context(Q, d, p, self.EPS, 2, structure)
            for n in range(41):
                # The same arithmetic on the context's constants, one state at a time.
                looped = np.full(8, np.nan)
                for j, cls in enumerate(structure.classes):
                    delta_n = context.class_reports[j].delta_pow((n // 2) * 2)
                    for local, state in enumerate(cls.states):
                        drift = context.drift_scale[j] * context.pi0[j].probs[local]
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
