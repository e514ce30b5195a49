import tracemalloc
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chains
from dampedchain import (
    DampingVector,
    Distribution,
    Regime,
    RegimeError,
    StochasticMatrix,
    ValidationError,
    class_mass,
    decompose,
    expansion,
    ingest,
    limit_stationary,
    restrict,
)

# The refusal of every per-class law and walk on an unsupported chain.
GATE = (
    "per-class analysis needs a regular or singular chain (every state in an aperiodic closed class); "
    "stationary, coupling-sim and bound families 5 and 6 still run on this chain"
)


def test_five_node_is_regular(five_node):
    P, _ = five_node
    s = decompose(P)
    assert s.regime is Regime.REGULAR
    assert len(s.classes) == 1
    assert s.classes[0].states == (0, 1, 2, 3, 4)
    assert s.classes[0].aperiodic
    assert s.transient_states == ()


def test_eight_node_is_singular_with_two_classes(eight_node):
    P, _ = eight_node
    s = decompose(P)
    assert s.regime is Regime.SINGULAR
    assert [c.states for c in s.classes] == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert all(c.aperiodic for c in s.classes)
    assert s.transient_states == ()


def test_two_state_swap_is_periodic_unsupported():
    P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    s = decompose(P)
    assert len(s.classes) == 1
    assert s.classes[0].period == 2
    assert not s.classes[0].aperiodic
    assert s.regime is Regime.UNSUPPORTED


def test_transient_states_are_detected_and_unsupported():
    # State 3 leaks into the closed class {1, 2}.
    P = StochasticMatrix(
        np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    )
    s = decompose(P)
    assert s.transient_states == (2,)
    assert [c.states for c in s.classes] == [(0, 1)]
    assert s.regime is Regime.UNSUPPORTED


def test_self_loop_state_has_period_one():
    P = StochasticMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
    s = decompose(P)
    assert s.classes[0].states == (0,)
    assert s.classes[0].period == 1


def brute_force_structure(adjacency):
    """Closed classes as (states, period), transient states and regime, from boolean matrix powers."""
    m = adjacency.shape[0]
    reach = adjacency | np.eye(m, dtype=bool)
    for k in range(m):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    powers = [adjacency]
    for _ in range(m * m - 1):
        powers.append((powers[-1].astype(int) @ adjacency.astype(int)) > 0)
    classes, transient = [], []
    for i in range(m):
        members = tuple(int(j) for j in np.flatnonzero(reach[i] & reach[:, i]))
        if members[0] != i:
            continue
        if reach[i].sum() > len(members):
            transient.extend(members)
            continue
        period = 0
        for n, power in enumerate(powers, start=1):
            if power[i, i]:
                period = gcd(period, n)
        classes.append((members, period))
    aperiodic = all(period == 1 for _, period in classes)
    if transient or not aperiodic:
        regime = Regime.UNSUPPORTED
    else:
        regime = Regime.REGULAR if len(classes) == 1 else Regime.SINGULAR
    return classes, tuple(sorted(transient)), regime


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.1, 0.3]))
def test_decompose_matches_brute_force(m, seed, density):
    # One random successor per state gives cycles of every length, periodic
    # ones and self-loops among them, with trees of transient states leading
    # into them; extra edges at ``density`` merge them, and sparse ones chain
    # transient components several levels deep.
    rng = np.random.default_rng(seed)
    adjacency = rng.random((m, m)) < density
    adjacency[np.arange(m), rng.integers(0, m, m)] = True
    s = decompose(StochasticMatrix(adjacency / adjacency.sum(axis=1, keepdims=True)))
    classes, transient, regime = brute_force_structure(adjacency)
    assert [(c.states, c.period) for c in s.classes] == classes
    assert s.transient_states == transient
    assert s.regime is regime


def test_a_path_deeper_than_the_recursion_limit_is_searched():
    # 0 -> 1 -> ... -> 1499 -> 1498: one closed 2-cycle at the end of a path
    # 1500 states deep, past Python's default recursion limit of 1000.
    m = 1500
    entries = np.zeros((m, m))
    entries[np.arange(m - 1), np.arange(1, m)] = 1.0
    entries[m - 1, m - 2] = 1.0
    s = decompose(StochasticMatrix(entries))
    assert [(c.states, c.period) for c in s.classes] == [((m - 2, m - 1), 2)]
    assert s.transient_states == tuple(range(m - 2))
    assert s.regime is Regime.UNSUPPORTED


class TestClassMass:
    def test_uniform_splits_evenly(self, eight_node):
        P, d = eight_node
        s = decompose(P)
        masses = class_mass(d.as_distribution(), s)
        np.testing.assert_allclose(masses, [0.5, 0.5], atol=1e-15)

    def test_point_mass_concentrates(self, eight_node):
        P, _ = eight_node
        s = decompose(P)
        masses = class_mass(Distribution.point_mass(8, 0), s)
        np.testing.assert_allclose(masses, [1.0, 0.0], atol=0)

    def test_regular_regime_gives_one(self, five_node):
        P, _ = five_node
        s = decompose(P)
        masses = class_mass(Distribution.uniform(5), s)
        np.testing.assert_allclose(masses, [1.0], atol=1e-15)

    def test_transient_mass_is_rejected(self):
        P = StochasticMatrix(
            np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        )
        s = decompose(P)
        with pytest.raises(RegimeError):
            class_mass(Distribution.uniform(3), s)

    def test_masses_account_for_all_probability(self, eight_node):
        P, _ = eight_node
        s = decompose(P)
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = rng.random(8)
            p = Distribution(w / w.sum())
            assert class_mass(p, s).sum() == pytest.approx(1.0, abs=1e-12)


class TestRestrict:
    def test_eight_node_first_class_equals_four_node(self, eight_node, four_node):
        P8, _ = eight_node
        P4, _ = four_node
        s = decompose(P8)
        sub = restrict(P8, s.classes[0])
        np.testing.assert_array_equal(sub.entries, P4.entries)

    def test_whole_space_class_is_identity_restriction(self, five_node):
        P, _ = five_node
        s = decompose(P)
        np.testing.assert_array_equal(restrict(P, s.classes[0]).entries, P.entries)

    def test_non_closed_class_is_rejected(self, eight_node):
        from dampedchain.structure import ClosedClass

        P, _ = eight_node
        with pytest.raises(ValidationError):
            restrict(P, ClosedClass((0, 1, 2), 1))

    @pytest.mark.parametrize("states", [(99,), (5,), (-1,), (), (0, 0)])
    def test_a_class_that_is_not_a_set_of_states_is_refused(self, five_node, states):
        from dampedchain.structure import ClosedClass

        P, _ = five_node
        with pytest.raises(ValidationError) as info:
            restrict(P, ClosedClass(states, 1))
        assert str(info.value) == f"class {states} must be one or more distinct states in 0..4"
        # The states of a class that decompose found pass.
        assert restrict(P, decompose(P).classes[0]).dim == 5

    def test_a_class_block_is_held_once(self):
        # A dense chain, so the class matrix has no view to scan.
        P, _ = chains.random_singular_chain(np.random.default_rng(0), (1024, 8))
        cls = decompose(P).classes[0]
        assert cls.size == 1024
        tracemalloc.start()
        try:
            M = restrict(P, cls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The gather is the class matrix's array; a copy of it would double the peak.
        assert peak <= 1.1 * M.entries.nbytes
        assert M.entries.tobytes() == P.entries[np.ix_(cls.states, cls.states)].tobytes()


def test_restricted_classes_are_regular(eight_node):
    P, _ = eight_node
    s = decompose(P)
    for cls in s.classes:
        sub_structure = decompose(restrict(P, cls))
        assert sub_structure.regime is Regime.REGULAR


def test_decompose_commutes_with_permutation(eight_node):
    P, _ = eight_node
    rng = np.random.default_rng(11)
    perm = rng.permutation(8)
    permuted = StochasticMatrix(P.entries[np.ix_(perm, perm)])
    s = decompose(permuted)
    assert s.regime is Regime.SINGULAR
    # Mapping permuted class members back to original labels recovers the classes.
    found = {frozenset(int(perm[s_]) for s_ in c.states) for c in s.classes}
    assert found == {frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})}


class TestPerClassView:
    def test_singular_class_matrices_and_laws(self, eight_node):
        P, _ = eight_node
        s = decompose(P)
        for cls, M, law in zip(s.classes, s.matrices, s.laws):
            np.testing.assert_array_equal(M.entries, P.entries[np.ix_(cls.states, cls.states)])
            # An independent oracle: the law is a fixed point of its class matrix.
            np.testing.assert_allclose(law.probs @ M.entries, law.probs, atol=1e-14)

    def test_one_structure_per_matrix(self, eight_node):
        P, _ = eight_node
        assert decompose(P) is decompose(P)
        assert decompose(StochasticMatrix(P.entries)) is not decompose(P)

    def test_an_unsupported_chain_has_class_matrices_and_no_laws_or_walks(self):
        P, _ = ingest(Path(__file__).parent / "data" / "two_cycles_transient_edges.txt")
        s = decompose(P)
        assert s.regime is Regime.UNSUPPORTED and s.transient_states
        assert [M.entries.tobytes() for M in s.matrices] == [
            P.entries[np.ix_(cls.states, cls.states)].tobytes() for cls in s.classes
        ]
        refusals = {
            "laws": lambda: s.laws,
            "walks": lambda: s.walks,
            "limit_stationary": lambda: limit_stationary(s, Distribution.uniform(P.dim)),
            "expansion": lambda: expansion(s, DampingVector.uniform(P.dim)),
        }
        for refused in refusals.values():
            with pytest.raises(RegimeError) as info:
                refused()
            assert str(info.value) == GATE

    def test_p0_takes_no_part_in_equality_or_repr(self, eight_node, five_node):
        P8, _ = eight_node
        P5, _ = five_node
        s = decompose(P8)
        moved = StochasticMatrix(P8.entries * 0.5 + np.eye(8) * 0.5)
        assert s == decompose(moved) and hash(s) == hash(decompose(moved))
        assert "P0" not in repr(s)
        assert s != decompose(P5)
