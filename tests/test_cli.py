import csv
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import benchmark_workloads, count_calls, count_products
from oracle import naive_matmul, naive_min_overlap
from dampedchain import (
    BoundContext,
    ContractionError,
    DampedChain,
    DampingVector,
    Distribution,
    Regime,
    RegimeError,
    ValidationError,
    decompose,
    expansion,
    ingest,
    limit_stationary,
    stationary_direct,
    triangular_limit,
    triangular_sweep,
)
from dampedchain.bounds import default_families
from dampedchain.cli import COMMANDS, main

DATA = Path(__file__).parent / "data"
FIVE = str(DATA / "five_node_edges.txt")
FOUR = str(DATA / "four_node_edges.txt")
EIGHT = str(DATA / "eight_node_edges.txt")
TRANSIENT = str(DATA / "transient_edges.txt")
# The one refusal of every per-class quantity on an unsupported chain.
GATE = (
    "per-class analysis needs a regular or singular chain (every state in an aperiodic closed class); "
    "stationary, coupling-sim and bound families 5 and 6 still run on this chain"
)


def load_schema() -> dict:
    """The report schema the package ships."""
    return json.loads(resources.files("dampedchain.schemas").joinpath("report.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_structure_commands(capsys):
    report = run_json(capsys, "structure", "--input", FOUR)
    assert report["structure"]["regime"] == "regular"
    report = run_json(capsys, "structure", "--input", EIGHT)
    assert report["structure"]["regime"] == "singular"
    assert [c["states"] for c in report["structure"]["classes"]] == [
        [1, 2, 3, 4],
        [5, 6, 7, 8],
    ]


def test_expand_reproduces_coefficient_table(capsys):
    report = run_json(capsys, "expand", "--input", FIVE, "--order", "2")
    coeffs = report["expansion"]["coefficients"]
    assert [round(c, 5) for c in coeffs[0]] == [0.14096, -0.04591, -0.03168, -0.03168, -0.03168]
    assert [round(c, 5) for c in coeffs[1]] == [-0.01946, 0.00456, 0.00497, 0.00497, 0.00497]
    base = report["expansion"]["base"]
    assert base[0] == pytest.approx(5 / 66, abs=1e-11)


def test_bounds_family_one_reproduces_reference_row(capsys):
    report = run_json(
        capsys, "bounds", "--input", FIVE, "--epsilon", "0.15", "--theorem", "1"
    )
    record = report["bounds"]["reports"][0]
    assert record["id"] == "1"
    per_state = [round(v, 4) for v in record["per_state"]]
    # The empirically estimated constants land near the known envelope values.
    assert per_state[0] == pytest.approx(0.0874, abs=0.02)
    deltas = [row["delta"] for row in report["bounds"]["ergodicity"]]
    assert len(deltas) == 12
    assert deltas[0] == pytest.approx(0.5, abs=1e-9)
    assert deltas[11] == pytest.approx(1 / 3, abs=1e-6)


def test_stationary_epsilon_grid(capsys):
    report = run_json(
        capsys, "stationary", "--input", FIVE, "--epsilon-grid", "0.05,0.15"
    )
    entries = report["stationary"]["by_epsilon"]
    assert [e["epsilon"] for e in entries] == [0.05, 0.15]
    for entry in entries:
        assert entry["direct"]["pi"] == pytest.approx(entry["series"]["pi"], abs=1e-8)
        assert entry["direct"]["pi"] == pytest.approx(entry["power"]["pi"], abs=1e-8)


def test_triangular_sweep_command(capsys, tmp_path):
    plot = tmp_path / "sweep.csv"
    report = run_json(
        capsys,
        "triangular",
        "--input",
        EIGHT,
        "--epsilon",
        "0.1",
        "--initial",
        "point:1",
        "--n-grid",
        "0:30",
        "--plot-data",
        str(plot),
    )
    rows = report["triangular"]["rows"]
    assert rows[10]["rel_error"][0] == pytest.approx(0.36788, abs=1e-4)
    assert rows[30]["rel_error"][0] == pytest.approx(0.04979, abs=1e-4)
    with plot.open() as fh:
        table = list(csv.reader(fh))
    assert table[0][:3] == ["n", "eps_n", "bound"]
    assert len(table) == 32


def test_coupling_sim_requires_seed(capsys):
    code, out = run_cli(capsys, "coupling-sim", "--input", FIVE)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ChainError"


def test_coupling_sim_runs_and_is_deterministic(capsys):
    args = (
        "coupling-sim",
        "--input",
        FIVE,
        "--epsilon",
        "0.15",
        "--seed",
        "9",
        "--trials",
        "2000",
        "--horizon",
        "10",
    )
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first == second
    sim = first["coupling_sim"]
    assert sim["generator"] == "philox4x64-steptrial-damped"
    assert len(sim["tail"]) == 11


@pytest.mark.parametrize("bad", [("--seed", "-1"), ("--seed", str(1 << 128)), ("--horizon", "-1")])
def test_coupling_sim_rejects_bad_arguments(capsys, bad):
    # The later --seed wins, so each case overrides the valid one.
    code, out = run_cli(capsys, "coupling-sim", "--input", FIVE, "--seed", "9", *bad)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("stationary", "--trials", "0"), "at least one trial is required"),
        (("stationary", "--seed=-1"), "seed must lie in [0, 2**128), got -1"),
        (("report", "--seed", "7", "--order", "0"), "expansion order must be at least 1"),
        (("stationary", "--epsilon-grid", "0,0.1,1.5", "--trials", "0"), "at least one trial is required"),
        (("stationary", "--epsilon-grid", "0.1,1.5"), "epsilon must lie in [0, 1], got 1.5"),
        (("stationary", "--epsilon-grid", "0.1,-0.2"), "epsilon must lie in [0, 1], got -0.2"),
        (("stationary", "--epsilon-grid", "0.1,nan"), "epsilon must lie in [0, 1], got nan"),
        (
            ("stationary", "--epsilon-grid", "0.1,x"),
            "bad --epsilon-grid '0.1,x'; use comma-separated numbers",
        ),
        (
            ("triangular", "--n-grid", "0:10:0"),
            "bad --n-grid '0:10:0'; use 'a:b', 'a:b:s' with s != 0, or a comma list of integers",
        ),
        (
            ("triangular", "--n-grid", "a:3"),
            "bad --n-grid 'a:3'; use 'a:b', 'a:b:s' with s != 0, or a comma list of integers",
        ),
        (
            ("stationary", "--initial", "point:x"),
            "bad --initial 'point:x'; use 'point:K' with K a state id in 1..5",
        ),
        (
            ("stationary", "--initial", "point:0"),
            "bad --initial 'point:0'; use 'point:K' with K a state id in 1..5",
        ),
        (
            ("stationary", "--epsilon", "1e-20"),
            "epsilon 1e-20 is too small for the series: 1 - eps rounds to 1; "
            "use the direct route (stationary_direct)",
        ),
    ],
)
def test_stationary_rejects_bad_tolerance_and_grid(capsys, argv, message):
    # A bad count or seed is reported before any eps is checked or solved, even
    # on a command that does not read it; each eps is checked in grid order, so
    # the first bad one names itself.
    code, out = run_cli(capsys, *argv, "--input", FIVE)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ValidationError", "message": message}


@pytest.mark.parametrize("command", COMMANDS)
def test_no_echoed_flag_value_escapes_its_check(capsys, command):
    # Every report echoes these flags, so every command refuses a bad value,
    # as a structured error and not a traceback, even when it does not read it.
    base = (command, "--input", FIVE, "--seed", "1", "--trials", "200")
    bads = (("--epsilon", "nan"), ("--epsilon-grid", "0.1,inf"), ("--trials", "0"), ("--seed", "-1"), ("--order", "0"))
    for bad in bads:
        code, out = run_cli(capsys, *base, *bad)
        assert code == 1, bad
        assert json.loads(out)["error"]["type"] == "ValidationError", bad
    # The solvers' tolerances are no flag: each route runs at its default.
    with pytest.raises(SystemExit) as info:
        main([*base, "--tol", "1e-3"])
    assert info.value.code == 2
    assert "tolerance" not in run_json(capsys, *base)["inputs"]


@pytest.mark.parametrize(
    "grid, steps",
    [
        ("0:6:2", [0, 2, 4, 6]),
        ("6:0:-2", [0, 2, 4, 6]),
        ("5:0:-2", [1, 3, 5]),
        ("3:0:-1", [0, 1, 2, 3]),
    ],
)
def test_n_grid_range_ends_inclusively_in_the_step_direction(capsys, grid, steps):
    report = run_json(capsys, "triangular", "--input", FIVE, "--epsilon", "0.1", "--n-grid", grid)
    assert [row["n"] for row in report["triangular"]["rows"]] == steps


@pytest.mark.parametrize("command", ["bounds", "triangular", "report"])
def test_negative_horizon_is_rejected(capsys, command):
    code, out = run_cli(capsys, command, "--input", EIGHT, "--seed", "9", "--horizon", "-1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValidationError"


def test_report_is_byte_identical_and_schema_valid(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _ = run_cli(
            capsys,
            "report",
            "--input",
            EIGHT,
            "--epsilon",
            "0.1",
            "--initial",
            "point:1",
            "--seed",
            "5",
            "--trials",
            "500",
            "--horizon",
            "12",
            "--out",
            str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    jsonschema.validate(report, load_schema())


@pytest.mark.parametrize(
    "argv",
    [
        ("structure", "--input", FIVE),
        ("stationary", "--input", FOUR, "--epsilon", "0.2"),
        ("expand", "--input", EIGHT, "--epsilon", "0.1"),
        ("bounds", "--input", EIGHT, "--epsilon", "0.1"),
        ("triangular", "--input", EIGHT, "--epsilon", "0.1", "--n-grid", "0:6"),
    ],
)
def test_all_commands_emit_schema_valid_reports(capsys, argv):
    report = run_json(capsys, *argv)
    jsonschema.validate(report, load_schema())


def test_error_reports_are_structured(capsys, tmp_path):
    # Asking for the regular-chain bound family on a split chain must fail loudly.
    code, out = run_cli(
        capsys, "bounds", "--input", EIGHT, "--epsilon", "0.1", "--theorem", "1"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "RegimeError"
    assert "family 1" in payload["error"]["message"]


def test_bounds_plot_data_is_ergodicity_table(capsys, tmp_path):
    plot = tmp_path / "delta.csv"
    run_json(
        capsys, "bounds", "--input", FIVE, "--epsilon", "0.15", "--theorem", "5",
        "--plot-data", str(plot),
    )
    with plot.open() as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["N", "delta"]
    assert len(table) == 13
    assert float(table[1][1]) == pytest.approx(0.5, abs=1e-9)


def test_damping_file_flag(capsys, tmp_path):
    weights = tmp_path / "weights.txt"
    weights.write_text("0.4 0.1 0.1 0.2 0.2\n")
    report = run_json(
        capsys, "stationary", "--input", FIVE, "--epsilon", "1.0",
        "--damping", str(weights),
    )
    # At full damping the stationary law is the damping vector itself.
    entry = report["stationary"]["by_epsilon"][0]
    assert entry["direct"]["pi"] == pytest.approx([0.4, 0.1, 0.1, 0.2, 0.2], abs=1e-10)


def test_json_damping_and_damping_file_exclude_each_other(capsys, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": [[0.5, 0.5], [0.5, 0.5]], "damping": [0.9, 0.1]}))
    weights = tmp_path / "weights.txt"
    weights.write_text("0.5 0.5\n")
    for damping in (str(weights), "uniform"):
        code, out = run_cli(capsys, "structure", "--input", str(matrix), "--damping", damping)
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "ValidationError",
            "message": f"{matrix} holds damping weights and --damping names {damping}; give one of them",
        }


def test_expand_defective_chain_with_damping_file(capsys, tmp_path):
    # The eigenvalue -1/2 of this chain has a 2x2 Jordan block.
    edges = tmp_path / "edges.txt"
    edges.write_text("1 3\n2 1\n2 3\n3 1\n3 2\n")
    weights = tmp_path / "weights.txt"
    weights.write_text("0.6 0.3 0.1\n")
    code, out = run_cli(capsys, "expand", "--input", str(edges), "--damping", str(weights))
    assert code == 0, out
    assert len(json.loads(out)["expansion"]["coefficients"]) == 2


def test_matrix_echo_reingests_identically(capsys, tmp_path):
    report = run_json(capsys, "structure", "--input", FIVE)
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps({"matrix": report["inputs"]["matrix"]}))
    second = run_json(capsys, "structure", "--input", str(echo))
    assert second["inputs"]["matrix"] == report["inputs"]["matrix"]
    assert second["structure"] == report["structure"]


def test_full_report_reproducible_from_its_own_echo(capsys, tmp_path):
    # Feeding the echoed matrix and damping back with the same seed must
    # reproduce every analysis section bit for bit.
    argv = (
        "report", "--input", EIGHT, "--epsilon", "0.1", "--initial", "point:1",
        "--seed", "77", "--trials", "400", "--horizon", "8",
    )
    first = run_json(capsys, *argv)
    echo = tmp_path / "echo.json"
    echo.write_text(
        json.dumps({
            "matrix": first["inputs"]["matrix"],
            "damping": first["inputs"]["damping"],
        })
    )
    second = run_json(
        capsys,
        "report", "--input", str(echo), "--epsilon", "0.1", "--initial", "point:1",
        "--seed", "77", "--trials", "400", "--horizon", "8",
    )
    for section in ("structure", "stationary", "spectrum", "expansion", "bounds",
                    "coupling_sim", "triangular"):
        assert second[section] == first[section], section


CSV_WITH_NEGATIVE_ZERO = "0.5,0.5,0.0\n0.25,0.25,0.5\n1.0,-0.0,0.0\n"
ROUND_TRIP_ARGS = {
    "structure": (),
    "stationary": ("--epsilon-grid", "0.05,0.2"),
    "expand": ("--epsilon", "0.1"),
    "bounds": ("--epsilon", "0.1", "--coupling-N", "3"),
    "coupling-sim": ("--epsilon", "0.1", "--seed", "3", "--trials", "300", "--horizon", "6"),
    "triangular": ("--epsilon", "0.1", "--n-grid", "0:6", "--coupling-N", "3"),
    "report": ("--epsilon", "0.1", "--seed", "3", "--trials", "300", "--horizon", "6",
               "--coupling-N", "3"),
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGS))
@pytest.mark.parametrize("chain", ["five", "four", "eight", "csv"])
def test_report_text_is_what_json_writes(capsys, tmp_path, chain, command):
    # The matrix echo is written from the array; the text must still be
    # exactly json's indent-2 rendering of the parsed report.
    if chain == "csv":
        path = tmp_path / "m.csv"
        path.write_text(CSV_WITH_NEGATIVE_ZERO)
    else:
        path = {"five": FIVE, "four": FOUR, "eight": EIGHT}[chain]
    code, out = run_cli(capsys, command, "--input", str(path), *ROUND_TRIP_ARGS[command])
    assert code == 0, out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if chain == "csv":
        assert "-0.0" in out


def two_rings_json(n: int, zero: float) -> str:
    """Two closed n-state rings with self-loops, ``zero`` at a row of the first and a column of the second."""
    entries = np.zeros((2 * n, 2 * n))
    for start in (0, n):
        for i in range(start, start + n):
            entries[i, i] = entries[i, start + (i - start + 1) % n] = 0.5
    entries[0, n + 1] = zero
    return json.dumps({"matrix": entries.tolist()})


@pytest.mark.parametrize("n", [2, 50], ids=["dense", "with-view"])
def test_negative_zero_is_no_edge(capsys, tmp_path, n):
    reports = {}
    for name, zero in (("negative", -0.0), ("positive", 0.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(two_rings_json(n, zero))
        reports[name] = run_json(capsys, "structure", "--input", str(path))
    structure = reports["negative"]["structure"]
    assert structure == reports["positive"]["structure"]
    assert structure["regime"] == "singular" and not structure["transient_states"]
    echoed = reports["negative"]["inputs"]["matrix"][0][n + 1]
    assert echoed == 0.0 and np.signbit(echoed)


class TestUnsupportedChainBounds:
    """Families 5 and 6 on a chain with transient states walk the whole matrix."""

    EPS = 0.15
    HORIZON = 12

    def expected(self):
        P, _ = ingest(TRANSIENT)
        d = DampingVector.uniform(P.dim)
        p = Distribution.uniform(P.dim)
        pi_eps = stationary_direct(DampedChain(P, d, self.EPS)).pi.probs
        start = 1.0 - np.minimum(p.probs, pi_eps).sum()
        overlaps, power = [], np.eye(P.dim)
        for _ in range(12):
            power = naive_matmul(power, P.entries)
            overlaps.append(naive_min_overlap(power))
        return start, overlaps

    def test_bounds_match_brute_powers(self, capsys):
        report = run_json(
            capsys, "bounds", "--input", TRANSIENT, "--epsilon", str(self.EPS),
            "--horizon", str(self.HORIZON),
        )
        assert report["bounds"]["reports"][0]["family"] == "coupling-onestep"
        start, overlaps = self.expected()
        deltas = [(1.0 - q) ** (1.0 / N) for N, q in enumerate(overlaps, 1)]
        got = [row["delta"] for row in report["bounds"]["ergodicity"]]
        assert got == pytest.approx(deltas, rel=1e-11, abs=1e-15)
        onestep, multistep = (r["by_n"] for r in report["bounds"]["reports"])
        for (n, five), (_, six) in zip(onestep, multistep):
            assert five == pytest.approx(
                start * ((1.0 - overlaps[0]) * (1.0 - self.EPS)) ** n, rel=1e-11
            )
            exponent = (n // 2) * 2
            assert six == pytest.approx(
                start * deltas[1] ** exponent * (1.0 - self.EPS) ** exponent, rel=1e-11
            )

    def test_coupling_sim_bound_matches_brute_overlap(self, capsys):
        report = run_json(
            capsys, "coupling-sim", "--input", TRANSIENT, "--epsilon", str(self.EPS),
            "--seed", "5", "--trials", "500", "--horizon", str(self.HORIZON),
        )
        start, overlaps = self.expected()
        expected = [
            start * ((1.0 - overlaps[0]) * (1.0 - self.EPS)) ** n for n in range(self.HORIZON + 1)
        ]
        assert report["coupling_sim"]["onestep_bound"] == pytest.approx(expected, rel=1e-11)


def _run(argv):
    from dampedchain.cli import make_parser, run_command

    return run_command(argv[0], make_parser().parse_args(argv))


@pytest.mark.parametrize(
    "name, scans", [("five_node", 1), ("four_node", 1), ("transient", 1), ("eight_node", 0)]
)
def test_coupling_sim_reads_only_the_one_step_overlap(monkeypatch, name, scans):
    solves = count_calls(monkeypatch, "stationary_direct")
    overlaps = count_calls(monkeypatch, "min_row_overlap")
    _run(["coupling-sim", "--input", str(DATA / f"{name}_edges.txt"), "--seed", "3", "--trials", "50"])
    # The one solve is P(eps)'s; no class law is solved. Q(P0) is one scan,
    # and 0 by structure on the singular chain.
    assert len(solves) == 1
    assert len(overlaps) == scans


# Chains whose rows are all equal: 1 - Q(P0) is summation noise, which Delta_1 snaps to 0.
IDENTICAL_ROWS = {"three-rows": [[0.7, 0.2, 0.1]] * 3, "seven-uniform-rows": [[1 / 7] * 7] * 7}


@pytest.mark.parametrize("rows", IDENTICAL_ROWS.values(), ids=IDENTICAL_ROWS)
def test_family_five_reads_the_profiles_delta_one(capsys, tmp_path, rows):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"matrix": rows}))
    args = ("--input", str(path), "--initial", "point:1", "--horizon", "3")
    bounds = run_json(capsys, "bounds", *args, "--coupling-N", "1", "--theorem", "5,6")["bounds"]
    assert bounds["ergodicity"][0] == {"N": 1, "delta": 0.0}
    onestep, multistep = (record["by_n"] for record in bounds["reports"])
    # At block 1 family 6 is family 5, and Delta_1 = 0 leaves only the start term.
    assert onestep == multistep
    assert onestep[0][1] > 0.0 and [value for _, value in onestep[1:]] == [0.0] * 3
    sim = run_json(capsys, "coupling-sim", *args, "--seed", "1", "--trials", "100")["coupling_sim"]
    assert sim["onestep_bound"] == [value for _, value in onestep]


@pytest.mark.parametrize("command", ["expand", "report"])
def test_unsupported_chain_is_refused_before_any_eigen_solve(monkeypatch, command):
    spectra = count_calls(monkeypatch, "spectrum")
    with pytest.raises(RegimeError, match=re.escape(GATE)):
        _run([command, "--input", TRANSIENT, "--seed", "7", "--trials", "50"])
    assert spectra == []


@pytest.mark.parametrize(
    "entry",
    ["expand", "report", "triangular", "limit_stationary", "expansion", "triangular_sweep", "split_tail"],
)
@pytest.mark.parametrize("chain", ["transient", "three-cycle"])
def test_per_class_gate_refuses_every_entry_point(monkeypatch, tmp_path, chain, entry):
    path = TRANSIENT
    if chain == "three-cycle":
        path = tmp_path / "cycle.txt"
        path.write_text("1 2\n2 3\n3 1\n")
    P, _ = ingest(path)
    structure = decompose(P)
    assert structure.regime is Regime.UNSUPPORTED
    d, p = DampingVector.uniform(P.dim), Distribution.uniform(P.dim)
    library = {
        "limit_stationary": lambda: limit_stationary(structure, p),
        "expansion": lambda: expansion(structure, d),
        "triangular_sweep": lambda: triangular_sweep(BoundContext(structure, d, p, 0.15, 2), range(5)),
        "split_tail": lambda: BoundContext(structure, d, p, 0.15, 2).split_tail(),
    }
    solves = count_calls(monkeypatch, "stationary_direct")
    spectra = count_calls(monkeypatch, "spectrum")
    with pytest.raises(RegimeError) as info:
        if entry in library:
            library[entry]()
        else:
            _run([entry, "--input", str(path), "--seed", "7", "--trials", "50"])
    assert str(info.value) == GATE
    assert solves == [] and spectra == []


def _web_edges(tmp_path, m: int) -> str:
    """The benchmark's web graph ``web_edges(random.Random(5), m)``, written to a file."""
    path = tmp_path / f"web{m}.txt"
    path.write_text("\n".join(benchmark_workloads().web_edges(random.Random(5), m)) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "argv, by_p0, by_damped",
    [
        (("stationary", "--epsilon-grid", "0.02,0.1,0.5"), 1460, 92),
        (("triangular", "--coupling-N", "3", "--epsilon", "0.1", "--n-grid", "0:200:7"), 197, 196),
    ],
    ids=["stationary", "triangular"],
)
def test_row_vector_products_on_the_benchmark_web_chain(monkeypatch, tmp_path, argv, by_p0, by_damped):
    # The series walk, the power route and the residuals, or the sweep to n = 196:
    # each trajectory makes one product a step and none ahead of the vectors it yields.
    workloads = benchmark_workloads()
    files, _ = workloads.generate(workloads.WORKLOADS["web-regular"], 1, str(tmp_path))
    products = count_products(monkeypatch)
    _run([*argv, "--input", files["edges"]])
    assert products == {"StochasticMatrix": by_p0, "DampedChain": by_damped}


@pytest.mark.parametrize("chain", ["five_node", "web300"])
def test_bounds_computes_no_spectrum(monkeypatch, tmp_path, chain):
    path = _web_edges(tmp_path, 300) if chain == "web300" else FIVE
    spectra = count_calls(monkeypatch, "spectrum")
    report = _run(["bounds", "--input", path, "--coupling-N", "3"])
    assert spectra == []
    assert report["bounds"]["reports"][0]["constants"]["label"] == "certified"


@pytest.mark.parametrize("command", ["coupling-sim", "report"])
def test_simulator_builds_no_dense_damped_matrix(monkeypatch, tmp_path, command):
    # The simulator's kernel moves on P0's nonzeros and d; nothing forms P(eps).
    web = _web_edges(tmp_path, 300)
    builds = count_calls(monkeypatch, "build_damped_matrix")
    report = _run([command, "--input", web, "--epsilon", "0.1", "--coupling-N", "3", "--seed", "7", "--trials", "500"])
    assert builds == []
    assert report["coupling_sim"]["generator"] == "philox4x64-steptrial-damped"


@pytest.mark.parametrize("command", ["bounds", "coupling-sim", "triangular"])
def test_one_epsilon_commands_refuse_a_longer_grid(monkeypatch, command):
    solves = count_calls(monkeypatch, "stationary_direct")
    with pytest.raises(ValidationError) as info:
        _run([command, "--input", EIGHT, "--seed", "7", "--epsilon-grid", "0.01,0.001,0.0001"])
    assert str(info.value) == (
        f"{command} reads one epsilon and --epsilon-grid gives 3; use --epsilon or a one-entry grid"
    )
    assert solves == []


def test_one_entry_grid_and_report_grid_are_accepted(capsys):
    bounds = run_json(capsys, "bounds", "--input", EIGHT, "--epsilon-grid", "0.01", "--theorem", "2")
    assert bounds["bounds"]["epsilon"] == 0.01
    # report runs its one-epsilon sections at the grid's first entry.
    report = run_json(capsys, "report", "--input", EIGHT, "--epsilon-grid", "0.01,0.1", "--seed", "7", "--trials", "50")
    assert report["bounds"]["epsilon"] == 0.01
    assert [entry["epsilon"] for entry in report["stationary"]["by_epsilon"]] == [0.01, 0.1]


def test_report_expansion_base_is_the_stationary_limit(capsys, tmp_path):
    web = _web_edges(tmp_path, 300)
    report = run_json(
        capsys, "report", "--input", web, "--epsilon", "0.1", "--coupling-N", "3", "--seed", "7", "--trials", "200"
    )
    assert report["expansion"]["base"] == report["stationary"]["limit"]


def test_report_refuses_contraction_before_any_section_computes(monkeypatch, tmp_path):
    # Delta_1 = Delta_2 = 1 on this chain, so the default block 2 cannot contract.
    web = _web_edges(tmp_path, 600)
    spectra = count_calls(monkeypatch, "spectrum")
    sums = count_calls(monkeypatch, "series_sums")
    simulations = count_calls(monkeypatch, "simulate_coupling_time")
    with pytest.raises(ContractionError) as info:
        _run(["report", "--input", web, "--epsilon", "0.1", "--seed", "7", "--trials", "200"])
    assert str(info.value) == (
        "Delta_2 = 1; increase the block length to N = 3, the smallest with Delta_N < 1"
    )
    assert spectra == [] and sums == [] and simulations == []


@pytest.mark.parametrize("path", [FIVE, EIGHT], ids=["regular", "singular"])
def test_coupling_sim_refuses_epsilon_zero_before_simulating(monkeypatch, path):
    simulations = count_calls(monkeypatch, "simulate_coupling_time")
    solves = count_calls(monkeypatch, "stationary_direct")
    with pytest.raises(ValidationError, match=r"coupling bounds require epsilon in \(0, 1\]"):
        _run(["coupling-sim", "--input", path, "--epsilon", "0", "--seed", "3", "--trials", "50"])
    assert simulations == [] and solves == []


BAD_THEOREM = "bad --theorem {}; use a comma list of bound families, e.g. '1' or '5,6'"
BAD_N_GRID = "bad --n-grid {}; use 'a:b', 'a:b:s' with s != 0, or a comma list of integers"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("stationary", "--epsilon-grid", "0.02,0.05,0.1,2"), "epsilon must lie in [0, 1], got 2.0"),
        (("stationary", "--epsilon-grid", "0.1,nan"), "epsilon must lie in [0, 1], got nan"),
        (("expand", "--order", "4", "--epsilon-grid", "0.05,1.5"), "epsilon must lie in [0, 1], got 1.5"),
        (("report", "--seed", "1", "--epsilon-grid", "0.1,-0.2"), "epsilon must lie in [0, 1], got -0.2"),
        (("report", "--seed", "1", "--trials", "0"), "at least one trial is required"),
        (("report", "--seed", str(1 << 128)), f"seed must lie in [0, 2**128), got {1 << 128}"),
        (("coupling-sim", "--seed", "1", "--trials", "0"), "at least one trial is required"),
        (("coupling-sim", "--seed", "-1"), "seed must lie in [0, 2**128), got -1"),
        (("structure", "--epsilon-grid", "0.1,2"), "epsilon must lie in [0, 1], got 2.0"),
        (("bounds", "--epsilon-grid", "0.1,2"), "epsilon must lie in [0, 1], got 2.0"),
        (("coupling-sim", "--seed", "1", "--epsilon-grid", "0.1,2"), "epsilon must lie in [0, 1], got 2.0"),
        (("triangular", "--epsilon-grid", "0.1,2"), "epsilon must lie in [0, 1], got 2.0"),
        (
            ("stationary", "--epsilon", "0.3", "--epsilon-grid", "0.1"),
            "--epsilon and --epsilon-grid exclude each other; give one of them",
        ),
        (("structure", "--coupling-N", "0"), "block length must be at least 1"),
        # An empty flag value, or an empty entry in one, is refused, not read as an absent flag.
        (("stationary", "--epsilon-grid="), "bad --epsilon-grid ''; use comma-separated numbers"),
        (("expand", "--epsilon-grid", "0.1,"), "bad --epsilon-grid '0.1,'; use comma-separated numbers"),
        (
            ("stationary", "--epsilon-grid=", "--epsilon", "0.1"),
            "--epsilon and --epsilon-grid exclude each other; give one of them",
        ),
        (("bounds", "--theorem="), BAD_THEOREM.format("''")),
        (("bounds", "--theorem", "1,,5"), BAD_THEOREM.format("'1,,5'")),
        (("report", "--seed", "1", "--theorem", " , "), BAD_THEOREM.format("' , '")),
        (("triangular", "--n-grid="), BAD_N_GRID.format("''")),
        (("report", "--seed", "1", "--n-grid", "0,,3"), BAD_N_GRID.format("'0,,3'")),
        (("structure", "--input="), "bad --input ''; use a file path"),
        (("stationary", "--damping="), "bad --damping ''; use 'uniform' or a file path"),
        (("report", "--seed", "1", "--initial="), "bad --initial ''; use 'uniform', 'point:K' or a file path"),
        (("bounds", "--coupling-N", "201"), "block length must be at most 200, the most powers a walk forms; got 201"),
    ],
)
def test_bad_arguments_are_refused_before_any_solve(monkeypatch, argv, message):
    # With block 1 the five-node chain contracts at once, so the checks of the
    # bounds and triangular sections need no class law either.
    solves = count_calls(monkeypatch, "stationary_direct")
    spectra = count_calls(monkeypatch, "spectrum")
    with pytest.raises(ValidationError) as info:
        _run([argv[0], "--input", FIVE, "--coupling-N", "1", *argv[1:]])
    assert str(info.value) == message
    assert solves == [] and spectra == []


# Per-step tables on the five-state chain: the flag, its rows and the numbers in a row.
TABLES = [
    (("coupling-sim", "--seed", "1", "--trials", "20", "--horizon", "40"), "--horizon", "40", 41, 3),
    (("bounds", "--theorem", "5,6", "--horizon", "40"), "--horizon", "40", 41, 4),
    (("bounds", "--theorem", "1,6", "--horizon", "40"), "--horizon", "40", 41, 2),
    (("triangular", "--horizon", "40"), "--horizon", "40", 41, 18),
    (("triangular", "--n-grid", "0:40:2"), "--n-grid", "'0:40:2'", 21, 18),
    (("expand", "--order", "40"), "--order", "40", 40, 5),
    # Families 1, 5 and 6, the simulator and the sweep.
    (("report", "--seed", "1", "--trials", "20", "--horizon", "40"), "--horizon", "40", 41, 4 + 3 + 18),
]


@pytest.mark.parametrize("argv, flag, value, rows, width", TABLES)
def test_a_table_fits_up_to_physical_memory(monkeypatch, argv, flag, value, rows, width):
    import dampedchain.cli as cli

    need = rows * width * cli.REPORT_BYTES_PER_NUMBER
    monkeypatch.setattr(cli, "physical_memory", lambda: need - 1)
    with pytest.raises(ValidationError) as info:
        _run([argv[0], "--input", FIVE, *argv[1:]])
    assert str(info.value).startswith(f"{flag} {value} asks for a report table of {rows} rows of {width} numbers")
    monkeypatch.setattr(cli, "physical_memory", lambda: need)
    _run([argv[0], "--input", FIVE, *argv[1:]])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("coupling-sim", "--seed", "1", "--trials", "1", "--horizon", "1000000000000"), "--horizon"),
        (("triangular", "--epsilon", "0.1", "--n-grid", "0:1000000000"), "--n-grid"),
        (("expand", "--order", "1000000000"), "--order"),
        (("bounds", "--theorem", "5", "--horizon", "30000000"), "--horizon"),
    ],
)
def test_oversized_tables_are_refused_before_any_solve(monkeypatch, argv, flag):
    import dampedchain.cli as cli

    monkeypatch.setattr(cli, "physical_memory", lambda: 8 * 2**30)
    solves = count_calls(monkeypatch, "stationary_direct")
    with pytest.raises(ValidationError, match=f"^{flag} .* GiB of physical memory; use a smaller {flag}$"):
        _run([argv[0], "--input", FIVE, *argv[1:]])
    assert solves == []


@pytest.mark.parametrize(
    "regime, families",
    [(Regime.REGULAR, ["1", "5", "6"]), (Regime.SINGULAR, ["2", "5", "6", "7"]), (Regime.UNSUPPORTED, ["5", "6"])],
)
def test_default_families_are_those_that_apply(regime, families):
    assert default_families(regime) == families


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--order", "0"), "expansion order must be at least 1"),
        (("--epsilon-grid", "0.1,2"), "epsilon must lie in [0, 1], got 2.0"),
        (("--trials", "0"), "at least one trial is required"),
    ],
)
def test_report_refuses_bad_arguments_before_any_scan(monkeypatch, argv, message):
    # With block 5, the bounds and triangular checks would scan P0^1 .. P0^5.
    scans = count_calls(monkeypatch, "min_row_overlap")
    solves = count_calls(monkeypatch, "stationary_direct")
    with pytest.raises(ValidationError) as info:
        _run(["report", "--input", FIVE, "--coupling-N", "5", "--seed", "1", *argv])
    assert str(info.value) == message
    assert scans == [] and solves == []


@pytest.mark.parametrize("command", ["bounds", "report"])
def test_repeated_family_is_refused_before_any_scan(monkeypatch, command):
    scans = count_calls(monkeypatch, "min_row_overlap")
    solves = count_calls(monkeypatch, "stationary_direct")
    with pytest.raises(ValidationError) as info:
        _run([command, "--input", FIVE, "--theorem", "1,5,1", "--seed", "1"])
    assert str(info.value) == "--theorem '1,5,1' names bound family 1 more than once; name each family once"
    assert scans == [] and solves == []


def test_unknown_family_is_refused_before_any_scan(monkeypatch):
    # Family 7's contraction check would scan each class at the block first.
    scans = count_calls(monkeypatch, "min_row_overlap")
    with pytest.raises(RegimeError) as info:
        _run(["bounds", "--input", EIGHT, "--theorem", "7,9"])
    assert str(info.value) == "unknown bound family '9'; choose from 1, 2, 5, 6, 7"
    assert scans == []


def test_family_seven_refuses_epsilon_zero_before_any_scan(monkeypatch):
    scans = count_calls(monkeypatch, "min_row_overlap")
    solves = count_calls(monkeypatch, "stationary_direct")
    with pytest.raises(ValidationError) as info:
        _run(["bounds", "--input", EIGHT, "--theorem", "7", "--epsilon", "0"])
    assert str(info.value) == "coupling bounds require epsilon in (0, 1]"
    assert scans == [] and solves == []


# P(0) = P0 on eight_node has two closed classes and no unique stationary law.
NO_UNIQUE_LAW = (
    "P(0) = P0 has 2 closed classes and no unique stationary law; use epsilon > 0 "
    "(on a singular chain, the stationary section's 'limit' entry is the eps -> 0 limit)"
)


@pytest.mark.parametrize(
    "entry",
    [
        ("stationary", "--epsilon", "0"),
        ("stationary", "--epsilon-grid", "0.1,0"),
        ("bounds", "--theorem", "6", "--epsilon", "0"),
        ("report", "--epsilon", "0", "--seed", "1"),
        "pi_eps",
    ],
    ids=["stationary", "stationary-grid", "family-6", "report", "pi_eps"],
)
def test_epsilon_zero_is_refused_without_a_unique_law(monkeypatch, entry):
    solves = count_calls(monkeypatch, "stationary_direct")
    with pytest.raises(RegimeError) as info:
        if entry == "pi_eps":
            P, _ = ingest(EIGHT)
            BoundContext(decompose(P), DampingVector.uniform(8), Distribution.uniform(8), 0.0, 2).pi_eps
        else:
            _run([entry[0], "--input", EIGHT, *entry[1:]])
    assert str(info.value) == NO_UNIQUE_LAW
    assert solves == []


@pytest.mark.parametrize(
    "edges, command, message",
    [
        ("1 2\n2 1\n2 3\n3 2\n", "stationary", "closed class 1 of P0 (3 states from state 1) has period 2"),
        # The uniform start of the 2-cycle is stationary, but the chain has no n-step limit either.
        ("1 2\n2 1\n", "stationary", "closed class 1 of P0 (2 states from state 1) has period 2"),
        # The stationary section's check comes before the expansion's gate.
        ("1 2\n2 1\n", "report", "closed class 1 of P0 (2 states from state 1) has period 2"),
        ("1 2\n2 3\n3 4\n4 3\n", "stationary", "closed class 1 of P0 (2 states from state 3) has period 2"),
    ],
    ids=["three-state", "two-cycle", "report", "transient"],
)
def test_epsilon_zero_is_refused_on_a_periodic_class(monkeypatch, tmp_path, edges, command, message):
    path = tmp_path / "periodic.txt"
    path.write_text(edges)
    solves = count_calls(monkeypatch, "stationary_direct")
    powers = count_calls(monkeypatch, "stationary_power")
    with pytest.raises(RegimeError) as info:
        _run([command, "--input", str(path), "--epsilon", "0", "--seed", "1"])
    assert str(info.value) == (
        f"{message}, so the n-step law of P(0) = P0 has no limit and the power route cannot converge; "
        "use epsilon > 0"
    )
    assert solves == [] and powers == []
    # Any epsilon > 0 damps the period away.
    assert _run(["stationary", "--input", str(path), "--epsilon", "0.1"])["stationary"]["by_epsilon"]


@pytest.mark.parametrize("path", [FIVE, TRANSIENT], ids=["regular", "one-class-unsupported"])
def test_epsilon_zero_still_runs_with_one_closed_class(capsys, path):
    stationary = run_json(capsys, "stationary", "--input", path, "--epsilon", "0")
    assert stationary["stationary"]["by_epsilon"][0]["epsilon"] == 0.0
    bounds = run_json(
        capsys, "bounds", "--input", path, "--theorem", "6", "--epsilon", "0", "--coupling-N", "1"
    )
    assert bounds["bounds"]["reports"][0]["family"] == "coupling-multistep"


# Each refused command: files written to a temporary directory ``{tmp}``, the
# arguments, and the error printed.
REFUSALS = {
    "edge-line": ({"g.txt": "1 2 3\n"}, ("structure", "--input", "{tmp}/g.txt"),
                  "IngestError", "line 1: expected 'src dst', got '1 2 3'"),
    "no-edges": ({"g.txt": "# nothing\n"}, ("structure", "--input", "{tmp}/g.txt"),
                 "IngestError", "edge list contains no edges"),
    "csv-floats": ({"g.csv": "0.5,x\n"}, ("structure", "--input", "{tmp}/g.csv"),
                   "IngestError", "line 1: could not parse CSV floats: '0.5,x'"),
    "csv-empty": ({"g.csv": "\n"}, ("structure", "--input", "{tmp}/g.csv"),
                  "IngestError", "CSV matrix is empty"),
    "json-invalid": ({"g.json": ""}, ("structure", "--input", "{tmp}/g.json"),
                     "IngestError", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "json-not-object": ({"g.json": "[1]"}, ("structure", "--input", "{tmp}/g.json"),
                        "IngestError", "matrix JSON must be an object with a 'matrix' field"),
    "json-not-square": ({"g.json": '{"matrix": [[0.5, 0.5]]}'}, ("structure", "--input", "{tmp}/g.json"),
                        "IngestError", "'matrix' must be square, got shape (1, 2)"),
    "json-damping-length": ({"g.json": '{"matrix": [[0.5, 0.5], [0.5, 0.5]], "damping": [1.0]}'},
                            ("structure", "--input", "{tmp}/g.json"),
                            "IngestError", "'damping' length must match the matrix dimension"),
    "weights-missing": ({}, ("structure", "--input", FIVE, "--damping", "{tmp}/nope.txt"),
                        "IngestError", "damping file not found: {tmp}/nope.txt"),
    "weights-not-float": ({"w.txt": "0.5 x\n"}, ("structure", "--input", FIVE, "--initial", "{tmp}/w.txt"),
                          "IngestError",
                          "--initial file must contain floats: could not convert string to float: 'x'"),
    "order-zero": ({}, ("expand", "--input", FIVE, "--order", "0"),
                   "ValidationError", "expansion order must be at least 1"),
    "unknown-theorem": ({}, ("bounds", "--input", FIVE, "--theorem", "5,9"),
                        "RegimeError", "unknown bound family '9'; choose from 1, 2, 5, 6, 7"),
    "negative-n-grid": ({}, ("triangular", "--input", FIVE, "--n-grid=-3:-1"),
                        "ValidationError", "n grid must be non-empty with non-negative entries"),
}


@pytest.mark.parametrize("case", [*REFUSALS, "triangular-limit-negative-t"])
def test_refusals_name_their_fault(capsys, tmp_path, case):
    if case == "triangular-limit-negative-t":
        structure = decompose(ingest(EIGHT)[0])
        with pytest.raises(ValidationError) as info:
            triangular_limit(structure, DampingVector.uniform(8), Distribution.uniform(8), -1.0)
        assert str(info.value) == "t must lie in [0, infinity], got -1.0"
        return
    files, argv, error, message = REFUSALS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out = run_cli(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 1
    assert json.loads(out)["error"] == {"type": error, "message": message.replace("{tmp}", str(tmp_path))}


# Each file that cannot be read or written: the command line, with {tmp} a
# temporary directory holding bom.txt, whose first bytes are 0xff 0xfe, the
# type of the error and the start of its message. An empty path is refused
# before any file is read, probed or written.
UNUSABLE_FILES = {
    "input-directory": (("structure", "--input", "{tmp}"), "IngestError", "input file {tmp} cannot be read: "),
    "input-not-utf8": (("structure", "--input", "{tmp}/bom.txt"), "IngestError",
                       "input file {tmp}/bom.txt is not UTF-8 text: "),
    "damping-directory": (("structure", "--input", FIVE, "--damping", "{tmp}"), "IngestError",
                          "damping file {tmp} cannot be read: "),
    "initial-not-utf8": (("structure", "--input", FIVE, "--initial", "{tmp}/bom.txt"), "IngestError",
                         "--initial file {tmp}/bom.txt is not UTF-8 text: "),
    "out-missing-directory": (("structure", "--input", FIVE, "--out", "{tmp}/missing/r.json"), "IngestError",
                              "--out file {tmp}/missing/r.json cannot be written: "),
    "plot-data-missing-directory": (("stationary", "--input", FIVE, "--plot-data", "{tmp}/missing/p.csv"),
                                    "IngestError", "--plot-data file {tmp}/missing/p.csv cannot be written: "),
    "input-empty": (("structure", "--input="), "ValidationError", "bad --input ''; use a file path"),
    "damping-empty": (("stationary", "--input", FIVE, "--damping="), "ValidationError", "bad --damping ''"),
    "initial-empty": (("stationary", "--input", FIVE, "--initial="), "ValidationError", "bad --initial ''"),
    "out-empty": (("bounds", "--input", FIVE, "--out="), "ValidationError", "bad --out ''; use a file path"),
    "plot-data-empty": (("bounds", "--input", FIVE, "--plot-data="), "ValidationError",
                        "bad --plot-data ''; use a file path"),
}


@pytest.mark.parametrize("case", UNUSABLE_FILES)
def test_unusable_files_give_the_structured_error(capsys, tmp_path, case):
    (tmp_path / "bom.txt").write_bytes(b"\xff\xfe1 2\n")
    argv, error_type, start = UNUSABLE_FILES[case]
    code, out = run_cli(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 1
    # The error alone is printed: no report precedes a failed write.
    error = json.loads(out)["error"]
    assert error["type"] == error_type
    assert error["message"].startswith(start.replace("{tmp}", str(tmp_path)))


@pytest.mark.parametrize("flag", ["--out", "--plot-data"])
def test_unwritable_report_file_is_refused_before_ingest(capsys, monkeypatch, tmp_path, flag):
    ingests = count_calls(monkeypatch, "ingest")
    decompositions = count_calls(monkeypatch, "decompose")
    path = tmp_path / "missing" / "r.json"
    code, out = run_cli(capsys, "stationary", "--input", FIVE, flag, str(path))
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "IngestError",
        "message": f"{flag} file {path} cannot be written: No such file or directory",
    }
    assert ingests == [] and decompositions == []


def test_writability_check_leaves_report_files_as_they_were(capsys, tmp_path):
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.csv"
    kept.write_text("earlier report\n")
    code, out = run_cli(
        capsys, "stationary", "--input", FIVE, "--epsilon", "2", "--out", str(kept), "--plot-data", str(fresh)
    )
    assert code == 1 and json.loads(out)["error"]["type"] == "ValidationError"
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_a_device_report_file_is_opened_only_to_write(capsys, monkeypatch):
    import dampedchain.cli as cli

    opened = []
    write = cli._write

    def spy(path, flag, *rest, **kwargs):
        opened.append(path)
        write(path, flag, *rest, **kwargs)

    monkeypatch.setattr(cli, "_write", spy)
    code, out = run_cli(capsys, "bounds", "--input", FIVE, "--out", os.devnull)
    # The writability check leaves a device alone; the report's write is its one open.
    assert (code, out, opened) == (0, "", [os.devnull])


def test_structure_never_opens_its_plot_file(capsys, tmp_path):
    # structure writes no plot table, so an unusable --plot-data path is not refused.
    code, _ = run_cli(capsys, "structure", "--input", FIVE, "--plot-data", str(tmp_path / "missing" / "p.csv"))
    assert code == 0


@pytest.mark.parametrize("theorem", ["5,6", "1,5,6"])
def test_each_law_is_solved_once_whatever_the_families(monkeypatch, theorem):
    calls = count_calls(monkeypatch, "stationary_direct")
    _run(["bounds", "--input", FIVE, "--theorem", theorem])
    # pi(eps), and P0's law, which the class walk records as the profile passes
    # its powers, whether or not family 1 reads the certified constant.
    solved = [args[0] for args in calls]
    assert len(solved) == 2
    assert sorted(type(x).__name__ for x in solved) == ["DampedChain", "StochasticMatrix"]


@pytest.mark.parametrize(
    "command, argv, section",
    [
        ("stationary", ("--epsilon-grid", "0.05,0.1,0.2"), "stationary"),
        ("expand", ("--epsilon-grid", "0.05,0.1"), "expansion"),
        ("coupling-sim", ("--seed", "3", "--trials", "100", "--horizon", "4"), "coupling_sim"),
        ("triangular", ("--coupling-N", "1", "--n-grid", "4,0,2"), "triangular"),
    ],
)
def test_plot_data_tables_match_their_report(capsys, tmp_path, command, argv, section):
    plot = tmp_path / "plot.csv"
    report = run_json(capsys, command, "--input", FIVE, *argv, "--plot-data", str(plot))[section]
    with plot.open() as fh:
        header, *rows = list(csv.reader(fh))
    states = range(1, 6)
    if command == "stationary":
        assert header == ["epsilon", *[f"pi_{k}" for k in states]]
        expected = [[e["epsilon"], *e["direct"]["pi"]] for e in report["by_epsilon"]]
    elif command == "expand":
        assert header == ["epsilon", *[f"value_{k}" for k in states], "mass_defect"]
        expected = [[e["epsilon"], *e["values"], e["mass_defect"]] for e in report["evaluations"]]
    elif command == "coupling-sim":
        assert header == ["n", "tail", "std_error", "onestep_bound"]
        columns = (report["tail"], report["std_error"], report["onestep_bound"])
        expected = [list(row) for row in zip(range(5), *columns)]
    else:
        assert header[:3] == ["n", "eps_n", "bound"]
        assert [row["n"] for row in report["rows"]] == [0, 2, 4]
        expected = [
            [row["n"], row["eps_n"], row["bound"], *row["trajectory"], *row["mixture"], *row["rel_error"]]
            for row in report["rows"]
        ]
    assert [[float(x) for x in row] for row in rows] == expected


class TestInitialFile:
    ARGS = ("--input", FIVE, "--epsilon", "0.1", "--seed", "7", "--trials", "200")

    def test_zero_weights_give_the_point_mass_report(self, capsys, tmp_path):
        weights = tmp_path / "initial.txt"
        weights.write_text("1 0 0 0 0\n")
        from_file = run_cli(capsys, "report", *self.ARGS, "--initial", str(weights))
        point = run_cli(capsys, "report", *self.ARGS, "--initial", "point:1")
        assert from_file[0] == 0
        assert from_file == point
        assert run_cli(capsys, "structure", "--input", FIVE, "--initial", str(weights))[0] == 0

    def test_bad_file_is_named_as_the_initial_distribution(self, capsys, tmp_path):
        weights = tmp_path / "initial.txt"
        weights.write_text("1.5 -0.5 0 0 0\n")
        code, out = run_cli(capsys, "structure", "--input", FIVE, "--initial", str(weights))
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "IngestError",
            "message": "--initial failed validation: distribution entries must lie in [0, 1]",
        }

    def test_damping_file_still_needs_positive_weights(self, capsys, tmp_path):
        weights = tmp_path / "damping.txt"
        weights.write_text("1 0 0 0 0\n")
        code, out = run_cli(capsys, "structure", "--input", FIVE, "--damping", str(weights))
        assert code == 1
        assert json.loads(out)["error"]["message"] == (
            "damping failed validation: damping weights must be strictly positive"
        )


def test_a_reader_that_closes_the_pipe_gets_no_traceback(capsys, tmp_path):
    # A ring of 200 self-looped states, whose structure report echoes the matrix.
    edges = tmp_path / "ring.txt"
    edges.write_text("".join(f"{i} {i}\n{i} {i % 200 + 1}\n" for i in range(1, 201)))
    code, out = run_cli(capsys, "structure", "--input", str(edges))
    # More than a 64 KiB pipe buffer holds, so the write meets the closed pipe.
    assert code == 0 and len(out) > 1 << 18
    env = dict(os.environ, PYTHONPATH=str(Path(main.__code__.co_filename).parents[1]))
    reader = subprocess.Popen(
        [sys.executable, "-m", "dampedchain.cli", "structure", "--input", str(edges)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert reader.stdout.read(20) == out.encode()[:20]
    reader.stdout.close()
    stderr = reader.stderr.read()
    assert reader.wait(timeout=120) == 1
    assert stderr == b""


# Node 4 has no out-links; each dangling policy gives it the edges written here.
DANGLING_EDGES = "1 2\n2 3\n3 1\n3 4\n"
POLICY_EDGES = {"self-loop": "4 4\n", "uniform-jump": "4 1\n4 2\n4 3\n4 4\n"}


def test_a_dangling_node_is_refused_without_a_policy(capsys, tmp_path):
    path = tmp_path / "dangling.txt"
    path.write_text(DANGLING_EDGES)
    code, out = run_cli(capsys, "structure", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "IngestError",
        "message": "node 4 has no out-links; choose a dangling policy (self-loop or uniform-jump) to accept it",
    }


@pytest.mark.parametrize("policy", POLICY_EDGES)
def test_a_dangling_policy_is_the_edges_it_adds(capsys, tmp_path, policy):
    dangling, explicit = tmp_path / "dangling.txt", tmp_path / "explicit.txt"
    dangling.write_text(DANGLING_EDGES)
    explicit.write_text(DANGLING_EDGES + POLICY_EDGES[policy])
    for command, args in (("structure", ()), ("stationary", ("--epsilon-grid", "0.05,0.5"))):
        got = run_json(capsys, command, "--input", str(dangling), "--dangling-policy", policy, *args)
        want = run_json(capsys, command, "--input", str(explicit), *args)
        assert got[command] == want[command]
        assert got["inputs"]["matrix"] == want["inputs"]["matrix"]
        assert got["inputs"]["dangling_policy"] == policy


def test_the_format_flag_overrides_the_file_extension(capsys, tmp_path):
    document = json.dumps({"matrix": [[0.5, 0.5], [0.25, 0.75]], "damping": [0.9, 0.1]})
    data, named = tmp_path / "matrix.data", tmp_path / "matrix.json"
    data.write_text(document)
    named.write_text(document)
    args = ("--epsilon-grid", "0.05,0.5")
    got = run_json(capsys, "stationary", "--input", str(data), "--format", "json", *args)
    assert got == run_json(capsys, "stationary", "--input", str(named), *args)
    assert got["inputs"]["damping"] == [0.9, 0.1]
    # Read as the edge list its extension names, the document is refused.
    code, out = run_cli(capsys, "structure", "--input", str(data), "--format", "edges")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "IngestError",
        "message": f"line 1: expected 'src dst', got {document!r}",
    }
