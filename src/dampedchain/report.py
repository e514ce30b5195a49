"""Assembly of machine-readable analysis reports.

Reports are plain JSON with a fixed field order and two float conventions:
analysis values carry 12 significant digits, while input echoes (matrix,
damping, initial distribution) keep exact shortest round-trip floats so a
report can be re-ingested and reproduced bit for bit. State ids in reports
are 1-based, matching the edge-list input convention.
"""

import json
from importlib import resources

import numpy as np

from . import __version__
from .bounds import (
    PROFILE_STEPS,
    BoundReport,
    bound_context,
    estimate_decay,
    stationary_gap_bound,
)
from .core import DampedChain, Distribution, build_damped_matrix
from .coupling import build_coupling_kernel, maximal_coupling, simulate_coupling_time
from .errors import RegimeError
from .expansion import expansion, spectrum
from .io import MATRIX_SLOT, dumps_with_matrix
from .stationary import (
    limit_stationary,
    stationary_direct,
    stationary_power,
    stationary_series,
)
from .structure import Regime, class_matrices
from .triangular import triangular_sweep

SIGNIFICANT_DIGITS = 12


def rounded(x: float) -> float:
    """Fix a float to 12 significant digits for deterministic serialization."""
    return float(f"{float(x):.{SIGNIFICANT_DIGITS}g}")


def rounded_list(values) -> list:
    return [rounded(v) for v in np.asarray(values).ravel()]


def exact_list(values) -> list:
    return [float(v) for v in np.asarray(values).ravel()]


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


def stationary_section(chain: DampedChain, structure, epsilons, tol: float) -> dict:
    def solve_at(eps):
        P_eps = build_damped_matrix(DampedChain(chain.p0, chain.damping, eps))
        entry = {"epsilon": rounded(eps)}
        entry["direct"] = _solution_entry(stationary_direct(P_eps, solver_tol=max(tol, 1e-10)))
        entry["power"] = _solution_entry(
            stationary_power(P_eps, Distribution.uniform(chain.dim), tol=min(tol, 1e-12))
        )
        if eps > 0.0:
            entry["series"] = _solution_entry(
                stationary_series(chain.p0, chain.damping, eps, tol=min(tol, 1e-12))
            )
        return entry

    section = {"by_epsilon": [solve_at(eps) for eps in epsilons]}
    if structure.regime is not Regime.UNSUPPORTED:
        limit = limit_stationary(chain.p0, chain.damping, chain.damping.as_distribution(), structure)
        section["limit"] = rounded_list(limit.probs)
    return section


def spectrum_section(chain: DampedChain, structure) -> dict:
    def spectrum_entry(P):
        spec = spectrum(P)
        return {
            "eigenvalues": [{"re": rounded(z.real), "im": rounded(z.imag)} for z in spec.eigenvalues],
            "distinct": [
                {"re": rounded(z.real), "im": rounded(z.imag), "multiplicity": mult}
                for z, mult in spec.distinct
            ],
            "second_modulus": rounded(spec.second_modulus),
        }

    if structure.regime is Regime.SINGULAR:
        return {"per_class": [spectrum_entry(M) for M in class_matrices(chain.p0, structure)]}
    return spectrum_entry(chain.p0)


def expansion_section(chain: DampedChain, structure, order: int, epsilons) -> dict:
    series = expansion(chain.p0, chain.damping, structure, n_max=order)
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


def _bound_record(report: BoundReport) -> dict:
    record = {
        "family": report.family,
        "id": report.bound_id,
        "epsilon": rounded(report.epsilon),
        "constants": {k: rounded(v) for k, v in report.constants.items()},
    }
    if report.per_state:
        record["per_state"] = rounded_list(report.per_state)
    if report.by_n:
        record["by_n"] = [[n, rounded(v)] for n, v in report.by_n]
    return record


# Each bound family's report name, and the regime it needs with the family to use instead.
FAMILIES = {
    "1": ("stationary-gap", Regime.REGULAR, "use family 2"),
    "2": ("stationary-gap-split", Regime.SINGULAR, "use family 1"),
    "5": ("coupling-onestep", None, None),
    "6": ("coupling-multistep", None, None),
    "7": ("coupling-split", Regime.SINGULAR, "use families 5/6"),
}


def bounds_section(
    chain: DampedChain,
    structure,
    p: Distribution,
    epsilon: float,
    block: int,
    families,
    horizon: int,
) -> dict:
    """The bounds of ``families`` in order, computed once every family's precondition holds."""
    n_grid = list(range(0, horizon + 1))
    P_eps = build_damped_matrix(DampedChain(chain.p0, chain.damping, epsilon))
    pi_eps = stationary_direct(P_eps).pi
    context = bound_context(
        chain.p0, chain.damping, p, structure, epsilon, block, pi_eps, (*PROFILE_STEPS, block)
    )
    for family in families:
        if family not in FAMILIES:
            raise RegimeError(f"unknown bound family {family!r}; choose from 1, 2, 5, 6, 7")
        _, regime, instead = FAMILIES[family]
        if regime not in (None, structure.regime):
            raise RegimeError(f"bound family {family} needs a {regime.value} chain; {instead}")
        if family == "5":
            context.onestep(0)  # refuses epsilon outside (0, 1]
        elif family == "7":
            context.require_contraction()

    reports = []
    for family in families:
        constants, per_state, by_n = {}, (), ()
        if family in ("1", "2"):
            if family == "1":
                reference = context.pi0[0]
                decay = estimate_decay(chain.p0, pi0=reference)
            else:
                decay = context.split_decay()
                reference = limit_stationary(
                    chain.p0, chain.damping, chain.damping.as_distribution(), structure, context.pi0
                )
            constants = {"amplitude": decay.amplitude, "rate": decay.rate}
            per_state = tuple(stationary_gap_bound(decay, chain.damping, reference, epsilon))
        elif family == "5":
            by_n = tuple((n, context.onestep(n)) for n in n_grid)
        elif family == "6":
            constants = {"block": block}
            by_n = tuple((n, context.multistep(n)) for n in n_grid)
        else:
            constants = {"block": block, "n": horizon}
            per_state = tuple(context.bound_vector(horizon))
        reports.append(BoundReport(FAMILIES[family][0], family, epsilon, constants, per_state, by_n))

    ergodicity = [{"N": N, "delta": rounded(context.profile[N].delta)} for N in PROFILE_STEPS]
    section = {"epsilon": rounded(epsilon), "reports": [_bound_record(r) for r in reports]}
    section["ergodicity"] = ergodicity
    if structure.regime is Regime.SINGULAR:
        section["class_ergodicity"] = [
            {"class": j + 1, "N": block, "delta": rounded(rep.delta)}
            for j, rep in enumerate(context.class_reports)
        ]
    return section


def coupling_sim_section(
    chain: DampedChain,
    p: Distribution,
    epsilon: float,
    trials: int,
    seed: int,
    horizon: int,
) -> dict:
    P_eps = build_damped_matrix(DampedChain(chain.p0, chain.damping, epsilon))
    pi_eps = stationary_direct(P_eps).pi
    kernel = build_coupling_kernel(P_eps)
    start = maximal_coupling(p, pi_eps)
    estimate = simulate_coupling_time(kernel, start, trials, seed, horizon)
    context = bound_context(chain.p0, chain.damping, p, None, epsilon, 1, pi_eps, steps=(1,))
    bound = [context.onestep(n) for n in range(horizon + 1)]
    return {
        "epsilon": rounded(epsilon),
        "trials": trials,
        "seed": seed,
        "horizon": horizon,
        "generator": estimate.generator,
        "start_overlap": rounded(start.diagonal_mass),
        "tail": rounded_list(estimate.tail),
        "std_error": rounded_list(estimate.std_error),
        "onestep_bound": rounded_list(bound),
    }


def triangular_section(
    chain: DampedChain,
    structure,
    p: Distribution,
    epsilon: float,
    n_grid,
    block: int,
) -> dict:
    sweep = triangular_sweep(chain.p0, chain.damping, p, structure, epsilon, n_grid, block)
    return {
        "epsilon": rounded(epsilon),
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


def load_schema() -> dict:
    with resources.files("dampedchain.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)
