"""Assembly of machine-readable analysis reports.

Reports are plain JSON with a fixed field order and two float conventions:
analysis values carry 12 significant digits, while input echoes (matrix,
damping, initial distribution) keep exact shortest round-trip floats so a
report can be re-ingested and reproduced bit for bit with the same BLAS build
and thread count (the multithreaded LU of the direct solver can move its last
digits). State ids in reports are 1-based, matching the edge-list input
convention.
"""

import numpy as np

from . import __version__
from .bounds import FAMILIES, PROFILE_STEPS, BoundContext, round_up, stationary_gap_bound
from .core import DampedChain, DampingVector, Distribution
from .coupling import CouplingKernel, maximal_coupling, simulate_coupling_time
from .expansion import expansion, spectrum
from .io import MATRIX_SLOT, dumps_with_matrix
from .stationary import limit_stationary, series_sums, stationary_direct, stationary_power
from .structure import Regime
from .triangular import triangular_sweep

SIGNIFICANT_DIGITS = 12


def rounded(x: float) -> float:
    """Fix a float to 12 significant digits for deterministic serialization."""
    return float(f"{float(x):.{SIGNIFICANT_DIGITS}g}")


def rounded_list(values) -> list:
    return [rounded(v) for v in np.asarray(values).ravel()]


def structure_section(structure) -> dict:
    return {
        "regime": structure.regime.value,
        "classes": [
            {
                "states": [s + 1 for s in cls.states],
                "period": cls.period,
                "aperiodic": cls.aperiodic,
            }
            for cls in structure.classes
        ],
        "transient_states": [s + 1 for s in structure.transient_states],
    }


def _solution_entry(solution) -> dict:
    return {
        "method": solution.method.value,
        "pi": rounded_list(solution.pi.probs),
        "iterations_or_terms": solution.iterations_or_terms,
        "residual": rounded(solution.residual),
    }


def stationary_section(context: BoundContext, epsilons) -> dict:
    """The three solutions at each epsilon of the context's P0 and d, and the limit law.

    The direct solution at the context's epsilon is ``context.direct``, the
    solve that gives the context its pi(eps) unless one was given to it, so a
    command solves that system once; every other epsilon is solved here. The
    series solutions of the whole grid come from one :func:`series_sums` walk.
    Every route runs at its default tolerance.
    """
    structure, d = context.structure, context.d
    P0 = structure.P0
    grid = [eps for eps in epsilons if 0.0 < eps <= 1.0]
    series = dict(zip(grid, series_sums(P0, d, grid)))
    start = Distribution.uniform(P0.dim)
    by_epsilon = []
    for eps in epsilons:
        damped = DampedChain(P0, d, eps)
        entry = {"epsilon": rounded(eps)}
        direct = context.direct if eps == context.epsilon else stationary_direct(damped)
        entry["direct"] = _solution_entry(direct)
        entry["power"] = _solution_entry(stationary_power(damped, start))
        if eps > 0.0:
            entry["series"] = _solution_entry(series[eps])
        by_epsilon.append(entry)

    section = {"by_epsilon": by_epsilon}
    if structure.regime is not Regime.UNSUPPORTED:
        limit = limit_stationary(structure, d.as_distribution())
        section["limit"] = rounded_list(limit.probs)
    return section


def spectrum_section(structure) -> dict:
    """Each closed class's spectrum, one eigen-solve per class matrix; a regular chain's one class is P0."""

    def spectrum_entry(spec):
        return {
            "eigenvalues": [{"re": rounded(z.real), "im": rounded(z.imag)} for z in spec.eigenvalues],
            "distinct": [
                {"re": rounded(z.real), "im": rounded(z.imag), "multiplicity": mult}
                for z, mult in spec.distinct
            ],
            "second_modulus": rounded(spec.second_modulus),
        }

    entries = [spectrum_entry(spectrum(M)) for M in structure.matrices]
    return entries[0] if structure.regime is Regime.REGULAR else {"per_class": entries}


def expansion_section(structure, d: DampingVector, order: int, epsilons) -> dict:
    series = expansion(structure, d, n_max=order)
    section = {
        "order": series.order,
        "base": rounded_list(series.base.probs),
        "coefficients": [rounded_list(row) for row in series.coeffs],
    }
    evaluations = []
    for eps in epsilons:
        values = series.evaluate(eps)
        evaluations.append(
            {
                "epsilon": rounded(eps),
                "values": rounded_list(values),
                "mass_defect": rounded(values.sum() - 1.0),
            }
        )
    if evaluations:
        section["evaluations"] = evaluations
    return section


def bounds_section(context: BoundContext, families, horizon: int) -> dict:
    """The bounds of ``families`` in order, computed once every family's precondition holds."""
    for family in families:
        context.require_family(family)
    structure, d, epsilon, block = context.structure, context.d, context.epsilon, context.block
    # The profile is read first: on a regular chain it comes from the walk of
    # P0 that the block and the certified tail of family 1 go on with.
    ergodicity = [{"N": N, "delta": rounded(context.ergodicity(N).delta)} for N in PROFILE_STEPS]
    records = []
    section = {"epsilon": rounded(epsilon), "reports": records, "ergodicity": ergodicity}
    # Every Delta_block the section reads is scanned next, before the certified
    # tail of family 1 or 2 walks past the block and would leave it to a new walk.
    if structure.regime is Regime.SINGULAR:
        section["class_ergodicity"] = [
            {"class": j + 1, "N": block, "delta": rounded(rep.delta)}
            for j, rep in enumerate(context.class_reports)
        ]
    if "6" in families:
        context.ergodicity(block)
    n_grid = range(horizon + 1)
    for family in families:
        record = {"family": FAMILIES[family][0], "id": family, "epsilon": rounded(epsilon)}
        if family in ("1", "2"):
            # A regular chain is the one-class case of the split constants.
            tail = context.split_tail()
            reference = limit_stationary(structure, d.as_distribution())
            record["constants"] = {
                "label": "certified",
                "tail_sum": rounded(tail.tail_factor),
                "N": tail.steps,
                "c_N": rounded(tail.contraction),
            }
            # Rounded up, not to nearest, so that each printed value is still a bound.
            gaps = stationary_gap_bound(tail, d, reference, epsilon)
            record["per_state"] = [round_up(float(x), SIGNIFICANT_DIGITS) for x in gaps]
        elif family == "5":
            record["constants"] = {}
            record["by_n"] = [[n, rounded(context.onestep(n))] for n in n_grid]
        elif family == "6":
            record["constants"] = {"block": rounded(block)}
            record["by_n"] = [[n, rounded(context.multistep(n))] for n in n_grid]
        else:
            record["constants"] = {"block": rounded(block), "n": rounded(horizon)}
            record["per_state"] = rounded_list(context.bound_vector(horizon))
        records.append(record)
    return section


def coupling_sim_section(context: BoundContext, trials: int, seed: int, horizon: int) -> dict:
    start = maximal_coupling(context.p, context.pi_eps)
    # The kernel moves on P0's nonzeros and d, with no dense P(eps); pi(eps) is the context's.
    estimate = simulate_coupling_time(CouplingKernel(context.chain), start, trials, seed, horizon)
    bound = [context.onestep(n) for n in range(horizon + 1)]
    return {
        "epsilon": rounded(context.epsilon),
        "trials": trials,
        "seed": seed,
        "horizon": horizon,
        "generator": estimate.generator,
        "start_overlap": rounded(context.start_overlap),
        "tail": rounded_list(estimate.tail),
        "std_error": rounded_list(estimate.std_error),
        "onestep_bound": rounded_list(bound),
    }


def triangular_section(context: BoundContext, n_grid) -> dict:
    sweep = triangular_sweep(context, n_grid)
    return {
        "epsilon": rounded(context.epsilon),
        "block": sweep.block,
        "rows": [
            {
                "n": row.n,
                "eps_n": rounded(row.eps_n),
                "trajectory": rounded_list(row.trajectory),
                "mixture": rounded_list(row.mixture),
                "rel_error": rounded_list(row.rel_error),
                "bound": rounded(row.bound),
            }
            for row in sweep.rows
        ],
    }


def build_report(command: str, inputs_echo: dict, sections: dict) -> dict:
    report = {
        "tool": "dampedchain",
        "version": __version__,
        "command": command,
        "inputs": inputs_echo,
    }
    report.update(sections)
    return report


def serialize(report: dict) -> str:
    """The report as indent-2 JSON; the matrix echo is written from its array."""
    inputs = report["inputs"]
    shell = dict(report, inputs=dict(inputs, matrix=MATRIX_SLOT))
    return dumps_with_matrix(shell, inputs["matrix"])
