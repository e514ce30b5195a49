"""Command-line interface.

Subcommands mirror the analysis modules::

    dampedchain structure    --input graph.txt
    dampedchain stationary   --input graph.txt --epsilon 0.15
    dampedchain expand       --input graph.txt --order 2 --epsilon-grid 0.05,0.1
    dampedchain bounds       --input graph.txt --epsilon 0.15 --theorem 1
    dampedchain coupling-sim --input graph.txt --epsilon 0.15 --seed 7 --trials 100000
    dampedchain triangular   --input graph.txt --epsilon 0.1 --n-grid 0:30
    dampedchain report       --input graph.txt --epsilon 0.15 --seed 7

Output is a JSON report on stdout (or --out FILE); --plot-data FILE
additionally writes a CSV table suited for plotting. Failures print a
structured error JSON and exit nonzero.
"""

import argparse
import csv
import json
import os
import sys

from .bounds import PROFILE_STEPS, BoundContext, default_families, require_known_family
from .core import DampingVector, Distribution, require_epsilon
from .coupling import require_simulation
from .errors import ChainError, IngestError, ValidationError
from .expansion import require_expansion, require_order
from .io import DanglingPolicy, GraphFormat, ingest, load_damping, load_weights, physical_memory
from .report import (
    bounds_section,
    build_report,
    coupling_sim_section,
    expansion_section,
    serialize,
    spectrum_section,
    stationary_section,
    structure_section,
    triangular_section,
)
from .structure import decompose
from .triangular import sweep_grid

DEFAULT_EPSILON = 0.15
DEFAULT_TRIALS = 100_000
DEFAULT_HORIZON = 30

# Peak bytes that one number of a per-step report table costs: its float, its
# list slot and its share of the indent-2 JSON text. Peak RSS grew by 237-249
# bytes a number for the bounds, triangular and expand tables of 10^5 to 10^6
# rows of a five-state chain, and by 128-138 for the simulator's.
REPORT_BYTES_PER_NUMBER = 256

COMMANDS = ("structure", "stationary", "expand", "bounds", "coupling-sim", "triangular", "report")
# Commands that compute at one epsilon and so refuse a longer grid; report
# computes its one-epsilon sections at the grid's first entry.
ONE_EPSILON_COMMANDS = ("bounds", "coupling-sim", "triangular")


def _add_common(sub):
    sub.add_argument("--input", required=True, help="path to graph or matrix file")
    sub.add_argument(
        "--format",
        choices=[f.value for f in GraphFormat],
        default=None,
        help="input format (default: guessed from the file extension)",
    )
    sub.add_argument(
        "--damping",
        default=None,
        help="'uniform' or a path to a whitespace-separated weights file (default: the "
        "input's own weights, else uniform)",
    )
    sub.add_argument(
        "--dangling-policy",
        choices=[p.value for p in DanglingPolicy],
        default=DanglingPolicy.REJECT.value,
        help="what to do with nodes that have no out-links",
    )
    sub.add_argument(
        "--initial",
        default="uniform",
        help="initial distribution: 'uniform', 'point:K' (1-based), or a weights file",
    )
    sub.add_argument("--epsilon", type=float, default=None, help="damping weight in (0, 1]")
    sub.add_argument(
        "--epsilon-grid",
        default=None,
        help="comma-separated damping weights, e.g. 0.05,0.1,0.15",
    )
    sub.add_argument("--order", type=int, default=2, help="expansion order (default 2)")
    sub.add_argument(
        "--coupling-N",
        dest="coupling_n",
        type=int,
        default=2,
        help="block length N for multi-step coupling quantities (default 2)",
    )
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (required for simulation)")
    sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sub.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    sub.add_argument("--n-grid", default=None, help="sweep steps: 'a:b[:s]' or comma list")
    sub.add_argument("--theorem", default=None, help="bound families, e.g. '1' or '5,6'")
    sub.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    sub.add_argument("--plot-data", default=None, help="write a CSV plot table here")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampedchain",
        description="Perturbation analysis of finite Markov chains with a damping component.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common(subparsers.add_parser(name))
    return parser


def _parse_grid(raw: str):
    bad = f"bad --n-grid {raw!r}; use 'a:b', 'a:b:s' with s != 0, or a comma list of integers"
    try:
        parts = [int(x) for x in raw.split(":" if ":" in raw else ",")]
    except ValueError:
        raise ValidationError(bad) from None
    if ":" not in raw:
        return parts
    if len(parts) not in (2, 3) or parts[2:] == [0]:
        raise ValidationError(bad)
    start, stop, step = (*parts, 1)[:3]
    return range(start, stop + (1 if step > 0 else -1), step)


def _require_table_fits(flag: str, value, rows: int, width: int) -> None:
    """Refuse a ``flag`` value whose report table of ``rows`` rows of ``width`` numbers cannot fit in memory."""
    need = rows * width * REPORT_BYTES_PER_NUMBER
    memory = physical_memory()
    if need > memory:
        raise ValidationError(
            f"{flag} {value} asks for a report table of {rows} rows of {width} numbers, about "
            f"{need / 2**30:.1f} GiB at {REPORT_BYTES_PER_NUMBER} bytes a number, more than the "
            f"{memory / 2**30:.1f} GiB of physical memory; use a smaller {flag}"
        )


def _initial(spec: str, dim: int) -> Distribution:
    if spec == "uniform":
        return Distribution.uniform(dim)
    if spec.startswith("point:"):
        state = spec.split(":", 1)[1]
        if not (state.isdecimal() and 1 <= int(state) <= dim):
            raise ValidationError(
                f"bad --initial {spec!r}; use 'point:K' with K a state id in 1..{dim}"
            )
        return Distribution.point_mass(dim, int(state) - 1)
    return load_weights(spec, dim, "--initial", Distribution)


def _require_nonempty(flag: str, value, use: str) -> None:
    """Refuse an empty value of a flag that can name a file: it is no absent flag and no path."""
    if value == "":
        raise ValidationError(f"bad {flag} ''; use {use}")


def _epsilons(args):
    if args.epsilon_grid is not None and args.epsilon is not None:
        raise ValidationError("--epsilon and --epsilon-grid exclude each other; give one of them")
    if args.epsilon_grid is not None:
        try:
            return [float(x) for x in args.epsilon_grid.split(",")]
        except ValueError:
            raise ValidationError(
                f"bad --epsilon-grid {args.epsilon_grid!r}; use comma-separated numbers"
            ) from None
    return [args.epsilon if args.epsilon is not None else DEFAULT_EPSILON]


def _load(args):
    matrix, damping = ingest(args.input, args.format, args.dangling_policy)
    if args.damping is not None and damping is not None:
        raise ValidationError(
            f"{args.input} holds damping weights and --damping names {args.damping}; give one of them"
        )
    if args.damping not in (None, "uniform"):
        damping = load_damping(args.damping, matrix.dim)
    elif damping is None:
        damping = DampingVector.uniform(matrix.dim)
    return matrix, damping


def _inputs_echo(args, matrix, damping, p, epsilons) -> dict:
    return {
        "matrix": matrix,
        "damping": [float(x) for x in damping.weights],
        "initial": [float(x) for x in p.probs],
        "epsilon": args.epsilon,
        "epsilon_grid": epsilons if args.epsilon_grid is not None else None,
        "order": args.order,
        "coupling_block": args.coupling_n,
        "seed": args.seed,
        "trials": args.trials,
        "horizon": args.horizon,
        "dangling_policy": args.dangling_policy,
    }


# The report section each command's --plot-data table is drawn from; structure has none.
_PLOT_SECTIONS = {
    "bounds": "bounds",
    "report": "bounds",
    "triangular": "triangular",
    "coupling-sim": "coupling_sim",
    "expand": "expansion",
    "stationary": "stationary",
}


def _plot_rows(command: str, sections: dict):
    key = _PLOT_SECTIONS.get(command)
    if key not in sections:
        return
    section = sections[key]
    if key == "bounds":
        yield ["N", "delta"]
        for item in section["ergodicity"]:
            yield [item["N"], item["delta"]]
    elif key == "triangular":
        rows = section["rows"]
        m = len(rows[0]["trajectory"]) if rows else 0
        header = ["n", "eps_n", "bound"]
        header += [f"trajectory_{k + 1}" for k in range(m)]
        header += [f"mixture_{k + 1}" for k in range(m)]
        header += [f"rel_error_{k + 1}" for k in range(m)]
        yield header
        for row in rows:
            yield [row["n"], row["eps_n"], row["bound"], *row["trajectory"], *row["mixture"], *row["rel_error"]]
    elif key == "coupling_sim":
        yield ["n", "tail", "std_error", "onestep_bound"]
        for n, (t, s, b) in enumerate(zip(section["tail"], section["std_error"], section["onestep_bound"])):
            yield [n, t, s, b]
    elif key == "expansion":
        evals = section.get("evaluations", [])
        m = len(section["base"])
        yield ["epsilon", *[f"value_{k + 1}" for k in range(m)], "mass_defect"]
        for entry in evals:
            yield [entry["epsilon"], *entry["values"], entry["mass_defect"]]
    elif key == "stationary":
        entries = section["by_epsilon"]
        m = len(entries[0]["direct"]["pi"]) if entries else 0
        yield ["epsilon", *[f"pi_{k + 1}" for k in range(m)]]
        for entry in entries:
            yield [entry["epsilon"], *entry["direct"]["pi"]]


def run_command(command: str, args) -> dict:
    """Execute one subcommand and return the report as a dict.

    The sections share one :class:`BoundContext`. Every argument is checked
    first, then each section's preconditions in section order, all before any
    section computes.
    """
    _require_nonempty("--input", args.input, "a file path")
    _require_nonempty("--damping", args.damping, "'uniform' or a file path")
    _require_nonempty("--initial", args.initial, "'uniform', 'point:K' or a file path")
    if args.horizon < 0:
        raise ValidationError(f"--horizon must be at least 0, got {args.horizon}")
    # Every report echoes the counts and the seed, so every command checks them; the seed when given.
    require_simulation(args.trials, 0 if args.seed is None else args.seed, args.horizon)
    require_order(args.order)
    matrix, damping = _load(args)
    epsilons = _epsilons(args)
    p = _initial(args.initial, matrix.dim)
    structure = decompose(matrix)

    def runs(section_command):
        return command in (section_command, "report")

    families = []
    if runs("bounds"):
        if args.theorem is not None:
            families = [x.strip() for x in args.theorem.split(",")]
        else:
            families = default_families(structure.regime)
    context = BoundContext(structure, damping, p, epsilons[0], args.coupling_n)
    echo = _inputs_echo(args, matrix, damping, p, epsilons)

    # Argument checks; none of them computes. Every command checks each grid epsilon.
    for eps in epsilons:
        require_epsilon(eps)
    if command in ONE_EPSILON_COMMANDS and len(epsilons) > 1:
        raise ValidationError(
            f"{command} reads one epsilon and --epsilon-grid gives {len(epsilons)}; "
            "use --epsilon or a one-entry grid"
        )
    if runs("coupling-sim"):
        if args.seed is None:
            raise ChainError("--seed is required for the coupling simulation")
    # Each flag's per-step tables, as rows times the numbers in a row: n and the
    # bound of families 5 and 6, the simulator's three columns, and a sweep
    # row's n, eps_n, bound and three m-vectors.
    horizon_width = 2 * len({"5", "6"}.intersection(families)) + 3 * runs("coupling-sim")
    if runs("triangular"):
        steps = _parse_grid(args.n_grid) if args.n_grid is not None else range(args.horizon + 1)
        if args.n_grid is None:
            horizon_width += 3 * matrix.dim + 3
        else:
            _require_table_fits("--n-grid", repr(args.n_grid), len(steps), 3 * matrix.dim + 3)
    _require_table_fits("--horizon", args.horizon, args.horizon + 1, horizon_width)
    if runs("expand"):
        _require_table_fits("--order", args.order, args.order, matrix.dim)
    if runs("bounds"):
        if "" in families:
            raise ValidationError(
                f"bad --theorem {args.theorem!r}; use a comma list of bound families, e.g. '1' or '5,6'"
            )
        repeated = [family for i, family in enumerate(families) if family in families[:i]]
        if repeated:
            raise ValidationError(
                f"--theorem {args.theorem!r} names bound family {repeated[0]} more than once; "
                "name each family once"
            )
        for family in families:
            require_known_family(family)

    # Preconditions, in section order; only the contraction checks scan.
    if runs("stationary"):
        for eps in epsilons:
            structure.require_unique_law(eps)
            structure.require_n_step_limit(eps)
    if runs("expand"):
        require_expansion(structure, args.order)
    for family in families:
        context.require_family(family)
    if runs("coupling-sim"):
        context.require_coupling_epsilon()
    if runs("triangular"):
        if runs("bounds"):
            # The bounds section's profile comes first on the walk of a regular
            # chain's P0, which the contraction check advances to the block.
            for N in range(1, min(args.coupling_n, PROFILE_STEPS[-1] + 1)):
                context.ergodicity(N)
        grid = sweep_grid(context, steps)

    sections = {}
    if runs("structure"):
        sections["structure"] = structure_section(structure)
    if runs("stationary"):
        sections["stationary"] = stationary_section(context, epsilons)
    if runs("expand"):
        sections["spectrum"] = spectrum_section(structure)
        sections["expansion"] = expansion_section(structure, damping, args.order, epsilons)
    if runs("bounds"):
        sections["bounds"] = bounds_section(context, families, args.horizon)
    if runs("coupling-sim"):
        sections["coupling_sim"] = coupling_sim_section(context, args.trials, args.seed, args.horizon)
    if runs("triangular"):
        sections["triangular"] = triangular_section(context, grid)
    return build_report(command, echo, sections)


def _write(path, flag: str, write, newline=None, mode="w") -> None:
    """Call ``write`` on the file ``path`` opened for text; a failed write is an IngestError naming ``flag``."""
    try:
        with open(path, mode, newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise IngestError(f"{flag} file {path} cannot be written: {exc.strerror or exc}") from exc


def _require_writable(path, flag: str) -> None:
    """Refuse, before anything is computed, a report file that :func:`_write` could not open.

    The file is opened for appending and closed, and removed if that made
    it, so that the check leaves it as it was. A device or pipe is left to
    the one open that writes it.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not (os.path.isfile(target) or os.path.isdir(target)):
        return
    made = not os.path.exists(target)
    _write(path, flag, lambda fh: None, mode="a")
    if made:
        os.remove(target)


def _print(text: str) -> bool:
    """Print ``text`` to stdout; False if the reader has closed the pipe.

    Stdout is then pointed at ``os.devnull``, as Python's ``signal`` docs
    advise, so that the interpreter's final flush does not raise again.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        files = {"--out": args.out}
        if args.command in _PLOT_SECTIONS:
            files["--plot-data"] = args.plot_data
        for flag, path in files.items():
            _require_nonempty(flag, path, "a file path")
        for flag, path in files.items():
            if path is not None:
                _require_writable(path, flag)
        report = run_command(args.command, args)
        # The text and its newline are written apart: the echo can be tens of MB.
        text = serialize(report)
        if args.out:
            _write(args.out, "--out", lambda fh: fh.writelines([text, "\n"]))
        rows = list(_plot_rows(args.command, report)) if args.plot_data else []
        if rows:
            _write(args.plot_data, "--plot-data", lambda fh: csv.writer(fh).writerows(rows), newline="")
    except ChainError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        _print(json.dumps(error, indent=2))
        return 1
    if not args.out and not _print(text):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
