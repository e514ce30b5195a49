"""Seeded inputs and command lists of the benchmark workloads.

Every input file is generated from the seed given on the command line and
written under the run directory. The program only ever sees those files,
and their SHA-256 digests are printed with the results, so a parent commit
and a change are compared on identical bytes.

A "web" graph gives each state 5 distinct random out-links, plus a ring
edge i -> i+1 and a self-loop; the CLI gives the out-links uniform weight.
"""

import hashlib
import os
import random
from dataclasses import dataclass

EPS_GRID = "0.02,0.05,0.1,0.15,0.2,0.3,0.5,0.85"
SIM_TRIALS = 100_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation.

    ``label`` names it in the detail record; its wall time is added to the
    end-to-end metric ``metric`` when that is set. ``refusals`` are the
    typed errors with which the command is known to refuse its input today;
    such an exit is reported in failed_share but is not a wrong output.
    """

    label: str
    argv: tuple
    metric: str = None
    trials: int = 0
    refusals: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int  # closed classes the structure report must show
    make: object  # rng -> {role: lines of the input file}
    commands: tuple
    # The command run once more before timing, to check the report bytes repeat.
    repeat: str

    def command(self, label):
        return next(c for c in self.commands if c.label == label)


def web_edges(rng, m, offset=0):
    """Edge lines of a web graph on states offset+1 .. offset+m."""
    lines = []
    for i in range(m):
        succ = (i + 1) % m
        # Out-links avoid i and its ring successor, so every state has 7 out-links.
        others = [k for k in range(m) if k != i and k != succ]
        for t in sorted(rng.sample(others, 5) + [i, succ]):
            lines.append(f"{offset + i + 1} {offset + t + 1}")
    return lines


def ehrenfest_edges(dim, offset=0):
    """Lazy walk on the dim-cube: a self-loop plus one edge per bit flip."""
    lines = []
    for s in range(1 << dim):
        for t in sorted([s] + [s ^ (1 << b) for b in range(dim)]):
            lines.append(f"{offset + s + 1} {offset + t + 1}")
    return lines


def random_damping(rng, m):
    """Strictly positive, non-uniform weights written as exact float reprs."""
    raw = [rng.uniform(0.5, 1.5) for _ in range(m)]
    total = sum(raw)
    return [repr(w / total) for w in raw]


def _write(path, lines):
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _web_regular(rng):
    return {"edges": web_edges(rng, 600)}


def _ehrenfest_split(rng):
    half = 1 << 10
    return {
        "edges": ehrenfest_edges(10) + ehrenfest_edges(10, offset=half),
        "damping": random_damping(rng, 2 * half),
    }


def _split_sim(rng):
    return {"edges": web_edges(rng, 32) + web_edges(rng, 32, offset=32)}


def _five_node(rng):
    with open(os.path.join("tests", "data", "five_node_edges.txt")) as fh:
        return {"edges": [line.strip() for line in fh if line.strip() and not line.startswith("#")]}


def _sim(eps, trials=SIM_TRIALS):
    argv = ("coupling-sim", "--seed", "7", "--trials", str(trials), "--epsilon", eps)
    return Command(f"coupling-sim@{eps}", argv, "coupling_sim_s", trials)


WORKLOADS = {
    "web-regular": Workload(
        "web-regular",
        # The bounds/triangular workload: those two commands take most of a pass.
        # Block 3 is the smallest that contracts (Delta_1 = Delta_2 = 1); with the
        # default block 2, triangular raises ContractionError. expand is kept on
        # purpose although it is refused today (IllConditionedError), so that the
        # defect stays visible in failed_share.
        "m=600 regular web graph, uniform damping; the bounds/triangular workload",
        1,
        _web_regular,
        (
            Command("structure", ("structure",)),
            Command("stationary", ("stationary", "--epsilon-grid", EPS_GRID), "stationary_s"),
            Command(
                "expand",
                ("expand", "--order", "3", "--epsilon-grid", "0.05,0.15"),
                "expand_s",
                refusals=("IllConditionedError",),
            ),
            Command("bounds", ("bounds", "--coupling-N", "3"), "bounds_s"),
            Command(
                "triangular",
                ("triangular", "--coupling-N", "3", "--epsilon", "0.1",
                 "--initial", "point:1", "--n-grid", "0:30"),
                "triangular_s",
            ),
        ),
        repeat="structure",
    ),
    "ehrenfest-split": Workload(
        "ehrenfest-split",
        # The large-m end of the README's range. It stresses stationary (power
        # and series over a 33.5 MB matrix), the per-class expansion (which
        # succeeds here: 11 distinct eigenvalues per class) and the report layer,
        # which echoes a 55 MB matrix in every command. Damping is non-uniform:
        # with uniform damping this doubly stochastic walk has a uniform pi(eps)
        # for every eps. bounds and triangular are left out: min_row_overlap at
        # m = 2048 would dominate the run.
        "m=2048, two closed 10-cube Ehrenfest classes, seeded damping; stationary, expansion and report echo",
        2,
        _ehrenfest_split,
        (
            Command("structure", ("structure",), "structure_s"),
            Command("stationary", ("stationary", "--epsilon-grid", EPS_GRID), "stationary_s"),
            Command("expand", ("expand", "--order", "4", "--epsilon-grid", "0.02,0.05,0.1,0.15"), "expand_s"),
        ),
        repeat="structure",
    ),
    "split-sim": Workload(
        "split-sim",
        # The simulator workload: simulate_coupling_time is nearly all of each
        # coupling-sim command. m = 64 caps the pair memo at m^4 * 16 B = 268 MB,
        # enough to show its cost and safe in memory; tails are longer at
        # eps = 0.05. bounds and triangular cover the singular code paths
        # (families 2 and 7, the singular sweep) at low cost.
        "m=64, two closed 32-state web classes; the meeting-time simulator workload",
        2,
        _split_sim,
        (
            _sim("0.15"),
            _sim("0.05"),
            Command("bounds", ("bounds",)),
            Command("triangular", ("triangular", "--epsilon", "0.1", "--initial", "point:1", "--n-grid", "0:30")),
        ),
        repeat="coupling-sim@0.15",
    ),
}

# The benchmark's own check (run.py --smoke): every command kind on the
# five-node test chain, with few simulator trials, so that every metric appears.
SMOKE = Workload(
    "smoke",
    "five-node test chain; checks that the benchmark prints every metric",
    1,
    _five_node,
    (
        Command("structure", ("structure",), "structure_s"),
        Command("stationary", ("stationary", "--epsilon-grid", "0.05,0.15"), "stationary_s"),
        Command("expand", ("expand", "--order", "2", "--epsilon-grid", "0.05,0.15"), "expand_s"),
        Command("bounds", ("bounds",), "bounds_s"),
        Command("triangular", ("triangular", "--epsilon", "0.1", "--n-grid", "0:30"), "triangular_s"),
        _sim("0.15", trials=2000),
    ),
    repeat="structure",
)


def generate(workload, seed, directory):
    """Write the workload's inputs for ``seed``.

    Returns ``(files, digests)``: role ("edges", "damping") -> path, and
    file name -> SHA-256 of its bytes.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    files, digests = {}, {}
    for role, lines in workload.make(rng).items():
        path = os.path.join(directory, f"{workload.name}.{role}.txt")
        digests[os.path.basename(path)] = _write(path, lines)
        files[role] = path
    return files, digests


def input_args(files):
    """CLI arguments naming the generated inputs."""
    args = ["--input", files["edges"]]
    if "damping" in files:
        args += ["--damping", files["damping"]]
    return args
