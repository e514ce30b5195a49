"""Output checks on the reports the CLI writes.

Each check returns a list of problems; an empty list means the report
passed. A command whose report has a problem counts as failed.
"""

import json
import os

import jsonschema
import numpy as np

# Direct, power and series solutions agree to this (max abs over states).
# Power iteration stops at successive-iterate TV < 1e-12, which bounds its
# error by 1e-12 / eps; the grids start at eps = 0.02.
AGREE_TOL = 1e-9
# A coupling-sim tail may exceed its bound by this many standard errors.
TAIL_SIGMAS = 4.0


def load_schema(root):
    with open(os.path.join(root, "src", "dampedchain", "schemas", "report.schema.json")) as fh:
        return json.load(fh)


def expected_inputs(files):
    """The matrix and damping the CLI must echo, rebuilt from the input files."""
    edges = np.loadtxt(files["edges"], dtype=np.int64, ndmin=2) - 1
    m = int(edges.max()) + 1
    degree = np.bincount(edges[:, 0], minlength=m)
    matrix = np.zeros((m, m))
    matrix[edges[:, 0], edges[:, 1]] = 1.0 / degree[edges[:, 0]]
    if "damping" in files:
        with open(files["damping"]) as fh:
            damping = np.array([float(x) for x in fh.read().split()])
    else:
        damping = np.full(m, 1.0 / m)
    return matrix, damping


def schema_and_echo(report, schema, expected):
    """The report validates against the schema and echoes the inputs exactly.

    The m*m matrix echo is compared with the input, entry for entry, instead
    of going through the schema validator, which would take seconds on it;
    its first row still goes through the validator.
    """
    matrix, damping = expected
    echo = np.array(report["inputs"]["matrix"])
    problems = []
    if echo.dtype != np.float64 or echo.shape != matrix.shape or not np.array_equal(echo, matrix):
        problems.append("matrix echo differs from the input")
    if report["inputs"]["damping"] != damping.tolist():
        problems.append("damping echo differs from the input")
    trimmed = dict(report, inputs=dict(report["inputs"], matrix=report["inputs"]["matrix"][:1]))
    try:
        jsonschema.validate(trimmed, schema)
    except jsonschema.ValidationError as exc:
        problems.append(f"schema: {exc.message}")
    return problems


def structure(report, classes):
    section = report["structure"]
    regime = "regular" if classes == 1 else "singular"
    if section["regime"] != regime or len(section["classes"]) != classes or section["transient_states"]:
        return [f"expected a {regime} chain with {classes} closed classes"]
    return []


def stationary(report):
    problems = []
    for entry in report["stationary"]["by_epsilon"]:
        direct = np.array(entry["direct"]["pi"])
        for method in ("power", "series"):
            gap = float(np.max(np.abs(np.array(entry[method]["pi"]) - direct)))
            if gap > AGREE_TOL:
                problems.append(f"{method} differs from direct by {gap:.2e} at eps={entry['epsilon']}")
    return problems


def expansion(report, direct_by_eps):
    """The series at the smallest eps shared with stationary matches the direct solve.

    The allowed error is the size of the last term kept, max|a_K| * eps^K:
    when the series converges, the truncation error is smaller than that.
    """
    section = report["expansion"]
    shared = [e for e in section["evaluations"] if e["epsilon"] in direct_by_eps]
    if not shared:
        return ["no expansion evaluation at an epsilon the stationary command solved"]
    entry = min(shared, key=lambda e: e["epsilon"])
    eps = entry["epsilon"]
    last_term = float(np.max(np.abs(section["coefficients"][-1]))) * eps ** section["order"]
    error = float(np.max(np.abs(np.array(entry["values"]) - direct_by_eps[eps])))
    if error > last_term:
        return [f"expansion error {error:.2e} at eps={eps} exceeds its last term {last_term:.2e}"]
    return []


def coupling_tail(report):
    sim = report["coupling_sim"]
    tail, se, bound = (np.array(sim[k]) for k in ("tail", "std_error", "onestep_bound"))
    over = np.nonzero(tail > bound + TAIL_SIGMAS * se)[0]
    if over.size:
        return [f"simulated tail exceeds onestep_bound + {TAIL_SIGMAS:g} std_error at n={over.tolist()}"]
    return []
