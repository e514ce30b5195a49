"""One benchmark child process: a single CLI command, or one set-up.

    python3 perfbench/child.py run SPANS COMMAND_ID ARGV...
    python3 perfbench/child.py setup INPUT

``run`` calls ``dampedchain.cli.main(ARGV)`` and exits with its status.
When SPANS is not ``-``, timing wrappers are first installed around the
public functions listed in TRACED, and the spans they record are kept in
memory and written to SPANS as JSON when the command returns. Nothing under
``src/`` is edited: the wrappers replace every module-level name bound to a
traced function, because modules import each other's functions by name.

``setup`` is the fixed cost every command pays: import the package, read
the input and decompose it.
"""

import json
import sys
import threading
import time

TRACED = {
    "io": ("ingest",),
    "structure": ("decompose", "restrict"),
    "core": ("build_damped_matrix", "matrix_power"),
    "stationary": ("stationary_direct", "stationary_power", "stationary_series", "limit_stationary"),
    "expansion": ("spectrum", "spectral_coefficients", "expansion"),
    "bounds": (
        "min_row_overlap",
        "ergodicity_coefficient",
        "estimate_decay",
        "coupling_bound",
        "coupling_bound_multistep",
        "split_bound_context",
    ),
    "triangular": ("triangular_sweep", "triangular_bound", "triangular_limit"),
    "coupling": ("simulate_coupling_time",),
    "report": (
        "structure_section",
        "stationary_section",
        "spectrum_section",
        "expansion_section",
        "bounds_section",
        "coupling_sim_section",
        "triangular_section",
        "serialize",
    ),
    "cli": ("main",),
}


def _solver_steps(result):
    return {"steps": result.iterations_or_terms, "m": result.pi.dim}


# Counts read from a traced function's return value.
RESULT_ATTRS = {
    "stationary.stationary_power": _solver_steps,
    "stationary.stationary_series": _solver_steps,
    "report.serialize": lambda text: {"bytes": len(text.encode())},
}


class Tracer:
    """Spans of one command, kept in memory until ``dump``.

    A span is [name, start, end, parent index, command id, failed, attrs].
    The parent is the innermost open span of the same thread; a worker
    thread with no open span is attributed to the main thread's innermost
    span, which is the one that submitted the work.
    """

    def __init__(self, command_id):
        self.command_id = command_id
        self.spans = []
        self.pair_calls = 0
        self.pairs = {}  # kernel dimension and visited pairs, keyed by kernel id
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        attrs_of = RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = [name, 0.0, 0.0, parent, self.command_id, False, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[6] = attrs_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_pair_cdf(self, method):
        # Called once per simulated step: counted, not spanned.
        def pair_cdf(kernel, i, j):
            self.pair_calls += 1
            self.pairs.setdefault(id(kernel), (kernel.dim, set()))[1].add((i, j))
            return method(kernel, i, j)

        return pair_cdf

    def dump(self, path):
        counts = {
            "coupling.pair_cdf.calls": self.pair_calls,
            "coupling.pair_cdf.distinct": sum(len(p) for _, p in self.pairs.values()),
            # Each visited pair memoises a pair law and its CDF, m*m float64 each.
            "coupling.memo_bytes": sum(16 * m * m * len(p) for m, p in self.pairs.values()),
        }
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def install(tracer):
    """Replace every package-level binding of each traced function by a wrapper."""
    import importlib

    from dampedchain.coupling import CouplingKernel

    traced = {name: importlib.import_module(f"dampedchain.{name}") for name in TRACED}
    modules = [m for n, m in sys.modules.items() if n == "dampedchain" or n.startswith("dampedchain.")]
    for module_name, names in TRACED.items():
        module = traced[module_name]
        for fname in names:
            original = getattr(module, fname)
            wrapper = tracer.wrap(f"{module_name}.{fname}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    CouplingKernel.pair_cdf = tracer.wrap_pair_cdf(CouplingKernel.pair_cdf)


def run(spans_path, command_id, argv):
    if spans_path == "-":
        from dampedchain import cli

        return cli.main(argv)
    tracer = Tracer(command_id)
    install(tracer)
    from dampedchain import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


def setup(path):
    from dampedchain import decompose, ingest

    matrix, _ = ingest(path)
    decompose(matrix)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "run":
        sys.exit(run(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit(setup(sys.argv[2]))
