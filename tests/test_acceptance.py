"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <k>: PASS`` line once its assertions
hold (run with ``pytest -s`` to see them); a failing criterion shows up as a
plain pytest failure. Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import chains
from dampedchain import (
    BoundContext,
    CouplingKernel,
    DampedChain,
    Distribution,
    GeometricDecay,
    Regime,
    build_damped_matrix,
    coupling_bound,
    coupling_bound_multistep,
    decompose,
    ergodicity_coefficient,
    expansion,
    maximal_coupling,
    simulate_coupling_time,
    split_bound_context,
    spectrum,
    stationary_direct,
    stationary_power,
    stationary_series,
    stationary_gap_bound,
    triangular_sweep,
    tv_distance,
)
from conftest import naive_min_overlap

FLOAT_SLACK = 1e-12  # allowance for rounding noise in exact-inequality checks


def _report(k, message):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def test_criterion_1_five_node_stationary_exact_and_fast(five_node):
    P, _ = five_node
    expected = np.array([5 / 66, 8 / 33, 5 / 22, 5 / 22, 5 / 22])
    sol = stationary_direct(P)
    np.testing.assert_allclose(sol.pi.probs, expected, rtol=0, atol=1e-10)

    stationary_direct(P)  # warm caches before timing
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        stationary_direct(P)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"direct solve took {best * 1e3:.3f} ms"
    _report(1, f"stationary matches to 1e-10, solve time {best * 1e6:.0f} us")


def test_criterion_2_five_node_eigenvalues(five_node):
    P, _ = five_node
    got = sorted(spectrum(P).eigenvalues, key=lambda z: (z.real, z.imag))
    expected = sorted(chains.FIVE_NODE_EIGENVALUES)
    assert len(got) == 5
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-8
    _report(2, "all five eigenvalues within 1e-8")


def test_criterion_3_five_node_expansion_table(five_node):
    P, d = five_node
    series = expansion(decompose(P), d, n_max=2)
    first = [round(float(c), 5) for c in series.coeffs[0]]
    second = [round(float(c), 5) for c in series.coeffs[1]]
    assert first == [0.14096, -0.04591, -0.03168, -0.03168, -0.03168]
    assert second == [-0.01946, 0.00456, 0.00497, 0.00497, 0.00497]
    for row in series.coeffs:
        assert abs(row.sum()) < 1e-9
    _report(3, "order-2 coefficients match to 5 decimals, rows sum to zero")


def test_criterion_4_five_node_reference_row(five_node):
    P, d = five_node
    eps = 0.15
    pi0 = stationary_direct(P).pi.probs
    series = expansion(decompose(P), d, n_max=2)
    # The reference stationary column is second-order accurate in eps; the
    # exact solve agrees with it at the size of the dropped third-order term.
    pi_eps = series.evaluate(eps)
    exact = stationary_direct(build_damped_matrix(DampedChain(P, d, eps))).pi.probs
    assert np.max(np.abs(pi_eps - exact)) < 2e-5

    assert [round(float(v), 5) for v in pi_eps] == [0.09646, 0.23564, 0.22263, 0.22263, 0.22263]
    deviations = np.abs(pi_eps - pi0)
    assert [round(float(v), 5) for v in deviations[:3]] == [0.02071, 0.00678, 0.00464]

    tail_factor = (67 / 4488) * np.sqrt(34) + 49 / 132
    decay = GeometricDecay(2 * tail_factor, 1 / 3)  # amplitude*rate/(1-rate) = factor
    bound = stationary_gap_bound(decay, d, Distribution(pi0), eps)
    assert [round(float(v), 5) for v in bound[:3]] == [0.08738, 0.07510, 0.07283]
    assert np.all(bound >= deviations)
    assert np.all(bound >= np.abs(exact - pi0))
    _report(4, "reference stationary row, deviations and envelope all match to 5 decimals")


def test_criterion_5_ergodicity_coefficient_profile(five_node):
    P, _ = five_node
    deltas = [ergodicity_coefficient(P, N).delta for N in range(1, 13)]
    # Independent oracle: naive repeated multiplication and scalar overlaps.
    # The N-th root near overlap 1 amplifies last-bit matmul differences to
    # about 1e-11, hence the tolerance.
    power = np.eye(5)
    for N in range(1, 13):
        power = power @ P.entries
        oracle = (1.0 - naive_min_overlap(power)) ** (1.0 / N)
        assert deltas[N - 1] == pytest.approx(oracle, abs=1e-9)
    assert abs(deltas[11] - 1 / 3) < 0.05
    assert abs(deltas[11] - 1 / 3) < 0.02
    _report(5, f"Delta_N computed for N=1..12; Delta_12 = {deltas[11]:.6f}")


def test_criterion_6_four_node_eigen_and_expansion(four_node):
    P, d = four_node
    got = sorted(spectrum(P).eigenvalues, key=lambda z: (z.real, z.imag))
    for g, e in zip(got, sorted(chains.FOUR_NODE_EIGENVALUES)):
        assert abs(g - e) < 1e-8
    series = expansion(decompose(P), d, n_max=2)
    np.testing.assert_allclose(series.base.probs, chains.FOUR_NODE_PI, atol=1e-9)
    np.testing.assert_allclose(series.coeffs, chains.FOUR_NODE_COEFFS, atol=1e-9)
    _report(6, "eigenvalues within 1e-8, expansion coefficients within 1e-9 of rationals")


def test_criterion_7_eight_node_split_expansion(eight_node):
    P, d = eight_node
    structure = decompose(P)
    assert structure.regime is Regime.SINGULAR
    assert [c.states for c in structure.classes] == [(0, 1, 2, 3), (4, 5, 6, 7)]
    series = expansion(structure, d, n_max=2)
    np.testing.assert_allclose(series.base.probs, chains.EIGHT_NODE_BASE, atol=1e-9)
    np.testing.assert_allclose(series.coeffs, chains.EIGHT_NODE_COEFFS, atol=1e-9)
    _report(7, "classes {1..4},{5..8} found, full coefficient table within 1e-9")


def test_criterion_8_triangular_sweep_profile(eight_node):
    P, d = eight_node
    structure = decompose(P)
    p = Distribution.point_mass(8, 0)
    sweep = triangular_sweep(BoundContext(structure, d, p, 0.1, 2), range(0, 31))
    by_n = {row.n: row for row in sweep.rows}
    assert 0.30 <= by_n[10].rel_error[0] <= 0.45
    assert 0.02 <= by_n[30].rel_error[0] <= 0.07
    for row in sweep.rows:
        deviation = np.max(np.abs(row.trajectory - row.mixture))
        assert deviation <= row.bound + FLOAT_SLACK, f"n={row.n}"
    _report(
        8,
        f"relative error {by_n[10].rel_error[0]:.4f} -> {by_n[30].rel_error[0]:.4f}, "
        "bound covers every sweep row",
    )


def _test_chains():
    items = [chains.five_node(), chains.four_node(), chains.eight_node()]
    rng = np.random.default_rng(20240809)
    for k in range(10):
        items.append(chains.random_regular_chain(rng, int(rng.integers(3, 8))))
    for k in range(10):
        sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        items.append(chains.random_singular_chain(rng, sizes))
    return items


def test_criterion_9_property_suite():
    started = time.perf_counter()

    # (a) coupling bounds dominate true deviations on paper and random chains.
    checked = 0
    for P, d in _test_chains():
        m = P.dim
        structure = decompose(P)
        starts = [Distribution.uniform(m), Distribution.point_mass(m, 0),
                  Distribution.point_mass(m, m - 1), d.as_distribution()]
        for eps in (0.05, 0.15, 0.5):
            P_eps = build_damped_matrix(DampedChain(P, d, eps))
            pi_eps = stationary_direct(P_eps).pi
            rep2 = ergodicity_coefficient(P, 2)
            q0 = 1.0 - ergodicity_coefficient(P, 1).overlap
            for p in starts:
                q_start = 1.0 - np.minimum(p.probs, pi_eps.probs).sum()
                context = None
                if structure.regime is Regime.SINGULAR:
                    context = split_bound_context(structure, d, p, eps, 2, pi_eps=pi_eps)
                law = p.probs
                for n in range(0, 51):
                    deviation = np.max(np.abs(law - pi_eps.probs))
                    b5 = q_start * (q0 * (1.0 - eps)) ** n if n else q_start
                    exp6 = (n // 2) * 2
                    b6 = q_start * rep2.delta_pow(exp6) * (1.0 - eps) ** exp6
                    assert deviation <= b5 + FLOAT_SLACK
                    assert deviation <= b6 + FLOAT_SLACK
                    if context is not None:
                        per_state = context.bound_vector(n)
                        assert np.all(np.abs(law - pi_eps.probs) <= per_state + FLOAT_SLACK)
                    law = law @ P_eps.entries
                    checked += 1
                # Spot-check that the inline formulas above equal the library ones.
                for n in (0, 7, 50):
                    assert coupling_bound(structure, d, p, pi_eps, eps, n) == pytest.approx(
                        q_start * (q0 * (1.0 - eps)) ** n if n else q_start, abs=1e-13
                    )
                    exp6 = (n // 2) * 2
                    six = coupling_bound_multistep(structure, d, p, pi_eps, eps, 2, n)
                    assert six == pytest.approx(
                        q_start * rep2.delta_pow(exp6) * (1.0 - eps) ** exp6, abs=1e-13
                    )

    # (b) maximal coupling marginal exactness on 1000 random pairs.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        a = rng.random(m) ** 2
        b = rng.random(m) ** 2
        if rng.random() < 0.2:  # force some disjoint or partial supports
            a[: m // 2] = 0.0
            b[m // 2 :] = 0.0
        if a.sum() == 0 or b.sum() == 0:
            continue
        p = Distribution(a / a.sum())
        q = Distribution(b / b.sum())
        joint = maximal_coupling(p, q)
        assert np.max(np.abs(joint.joint.sum(axis=1) - p.probs)) <= 1e-12
        assert np.max(np.abs(joint.joint.sum(axis=0) - q.probs)) <= 1e-12
        assert abs(joint.diagonal_mass - np.minimum(p.probs, q.probs).sum()) <= 1e-12

    # (c) coupled-kernel rows marginalize exactly to the damped matrix rows.
    for P, d in (chains.five_node(), chains.four_node(), chains.eight_node()):
        P_eps = build_damped_matrix(DampedChain(P, d, 0.15))
        kernel = CouplingKernel(P_eps)
        for i in range(P.dim):
            for j in range(P.dim):
                law = kernel.pair_law(i, j)
                assert np.max(np.abs(law.sum(axis=1) - P_eps.entries[i])) <= 1e-12
                assert np.max(np.abs(law.sum(axis=0) - P_eps.entries[j])) <= 1e-12

    # (d) the three stationary solvers agree pairwise in total variation.
    for P, d in (chains.five_node(), chains.four_node(), chains.eight_node()):
        for eps in (0.05, 0.15, 0.5, 1.0):
            P_eps = build_damped_matrix(DampedChain(P, d, eps))
            direct = stationary_direct(P_eps).pi
            power = stationary_power(P_eps, Distribution.uniform(P.dim), tol=1e-13).pi
            series = stationary_series(P, d, eps).pi
            assert tv_distance(direct, power) <= 1e-8
            assert tv_distance(direct, series) <= 1e-8
            assert tv_distance(power, series) <= 1e-8

    # (e) truncating at order n leaves an empirical error of order >= n+1.
    n_max = 2
    shrink_limit = 0.5 ** (n_max + 1) * 1.5
    for P, d in (chains.five_node(), chains.four_node(), chains.eight_node()):
        series = expansion(decompose(P), d, n_max=n_max)
        errors = []
        for eps in (0.1, 0.05, 0.025):
            truth = stationary_series(P, d, eps, tol=1e-14).pi.probs
            errors.append(np.max(np.abs(series.evaluate(eps) - truth)))
        assert errors[1] <= errors[0] * shrink_limit
        assert errors[2] <= errors[1] * shrink_limit

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"property suite took {elapsed:.1f} s"
    _report(9, f"domination checked at {checked} grid points; suite ran in {elapsed:.1f} s")


def test_criterion_10_monte_carlo_tail(five_node):
    P, d = five_node
    eps = 0.15
    P_eps = build_damped_matrix(DampedChain(P, d, eps))
    pi_eps = stationary_direct(P_eps).pi
    p = Distribution.uniform(5)
    kernel = CouplingKernel(P_eps)
    start = maximal_coupling(p, pi_eps)

    started = time.perf_counter()
    estimate = simulate_coupling_time(kernel, start, trials=100_000, seed=20240809, horizon=30)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"simulation took {elapsed:.1f} s"

    structure = decompose(P)
    for n in range(31):
        bound = coupling_bound(structure, d, p, pi_eps, eps, n)
        assert estimate.tail[n] <= bound + 3.0 * estimate.std_error[n] + FLOAT_SLACK, f"n={n}"

    repeat = simulate_coupling_time(
        CouplingKernel(P_eps), start, trials=100_000, seed=20240809, horizon=30
    )
    np.testing.assert_array_equal(estimate.tail, repeat.tail)
    _report(10, f"tail within bound + 3 SE at all n <= 30, reproducible, {elapsed:.1f} s")
