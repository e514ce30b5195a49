"""Benchmark of the dampedchain command line on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload web-regular --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each CLI command runs in a fresh child process, one at a time, as a user
runs it: a closed loop with one client. A run generates the workload's
inputs from the seed, times the set-up cost, runs the workload's repeat
command once untimed (its report bytes must repeat), then makes passes over
the workload's commands while another pass fits in --seconds, and at least
one. Every report is checked (see checks.py).

With --trace 0 the run measures end-to-end metrics with tracing off. With
--trace 1 it alternates untraced and traced passes: the traced ones give
the per-layer metrics from spans recorded around the package's public
functions (see child.py), and the difference between the two kinds of pass
is the tracing overhead.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}, where metrics are the ones BENCHMARK.json lists for the trace
mode. Before it comes one JSON record with everything else: environment,
input digests, every metric with its unit and sample count, per-command
samples and check results.

BENCHMARK.json lists only metrics that every workload produces. End to end,
those are setup_s, wall_s and peak_rss_mb: per-command times exist on some
workloads only, and failed_share is 0 on most, so they stay in the detail
record. Per layer, it lists the times of layers that every workload reaches,
and counts; a layer time that reads 0 on every run of a workload stays in
the detail record too.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from child import TRACED
from workloads import WORKLOADS, generate, input_args

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 15
# Every run must end within 180 s; children still running at this point are killed.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DAMPED_CHAIN_THREADS")

COMPUTED = {
    "stationary.matvec_bytes": "computed as (iterations + terms) * m^2 * 8, not measured",
    "coupling.memo_bytes": "computed as 16 * m^2 * distinct pairs, not measured",
}


class Child:
    """Starts benchmark children in the checkout and reaps them."""

    def __init__(self, root, run_dir, deadline):
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, args):
        """Run child.py with ``args``; return (wall s, CPU s, peak RSS MB, exit code, output).

        The output is standard output followed by standard error.
        """
        out_path = os.path.join(self.run_dir, "child.out")
        err_path = os.path.join(self.run_dir, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), *args],
                cwd=self.root, env=self.env, stdout=out, stderr=err,
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = b""
        for path in (out_path, err_path):
            with open(path, "rb") as fh:
                output += fh.read()
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, output.decode(errors="replace")


@dataclass
class Pass:
    """One pass over a workload's commands."""

    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    trials: int = 0  # simulator trials run
    by_metric: dict = field(default_factory=dict)  # end-to-end metric -> summed wall s
    layers: dict = None  # per-layer totals, traced passes only


class Run:
    """One workload at one seed: inputs, set-up, passes, checks and metrics."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = os.path.join(root, ".perfbench_run", f"{workload.name}-{os.getpid()}")
        self.schema = checks.load_schema(root)
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)
        self.attempts = []  # one dict per timed command run
        self.passes = []
        self.setup = []  # wall s of each set-up child
        self.warmup = None
        self.digests = {}  # command label -> sha256 of its first report
        self.by_command = {}  # command label -> its per-layer totals in the last traced pass

    def execute(self):
        os.makedirs(self.run_dir, exist_ok=True)
        try:
            self.child = Child(self.root, self.run_dir, time.monotonic() + RUN_LIMIT_S)
            self.files, self.inputs = generate(self.workload, self.seed, self.run_dir)
            self.expected = checks.expected_inputs(self.files)
            self.warmup = self.command_run(self.workload.command(self.workload.repeat), False, "warm-up", {})
            self.make_passes()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.run_dir))
            except OSError:
                pass  # another run still uses it

    def make_passes(self):
        begin = time.monotonic()
        traced = False
        while True:
            pass_start = time.monotonic()
            self.one_pass(len(self.passes), traced)
            now = time.monotonic()
            kinds = {p.traced for p in self.passes}
            enough = kinds == {False, True} if self.trace else True
            if now >= self.child.deadline or (enough and now - begin + (now - pass_start) > self.seconds):
                return
            if self.trace:
                traced = not traced

    def one_pass(self, index, traced):
        ctx = {}
        current = Pass(traced, layers={} if traced else None)
        for command in self.workload.commands:
            self.setup_samples(index)
            attempt = self.command_run(command, traced, index, ctx, current.layers)
            self.attempts.append(attempt)
            current.wall_s += attempt["wall_s"]
            current.rss_mb = max(current.rss_mb, attempt["rss_mb"])
            current.trials += command.trials
            if command.metric:
                current.by_metric[command.metric] = current.by_metric.get(command.metric, 0.0) + attempt["wall_s"]
            if time.monotonic() >= self.child.deadline:
                break
        self.passes.append(current)

    def setup_samples(self, pass_index):
        """Time set-up children before each command of the first pass.

        Spreading the samples over a pass, rather than taking them in one
        burst, lets their median see the same machine load as the pass.
        """
        if self.trace or pass_index != 0:
            return
        for _ in range(-(-SETUP_REPEATS // len(self.workload.commands))):
            wall, _, _, code, out = self.child.spawn(["setup", self.files["edges"]])
            if code != 0:
                raise RuntimeError(f"set-up failed: {out}")
            self.setup.append(wall)

    def command_run(self, command, traced, pass_id, ctx, layers=None):
        report_path = os.path.join(self.run_dir, "report.json")
        spans_path = os.path.join(self.run_dir, "spans.json") if traced else "-"
        argv = [*command.argv, *input_args(self.files), "--out", report_path]
        if os.path.exists(report_path):
            os.remove(report_path)
        wall, cpu, rss, code, out = self.child.spawn(["run", spans_path, f"{command.label}#{pass_id}", *argv])
        attempt = {"command": command.label, "pass": pass_id, "traced": traced, "wall_s": wall,
                   "cpu_s": cpu, "rss_mb": rss, "exit": code, "problems": []}
        if traced:
            with open(spans_path) as fh:
                trace = json.load(fh)
            own = {}
            add_layers(own, trace)
            self.by_command[command.label] = own
            add_layers(layers, trace)
        if code == 0:
            with open(report_path, "rb") as fh:
                data = fh.read()
            attempt["problems"] = self.check(command, data, ctx)
            attempt["status"] = "failed" if attempt["problems"] else "ok"
        else:
            attempt["status"], attempt["problems"] = refusal(command, code, out)
        return attempt

    def check(self, command, data, ctx):
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if self.digests.setdefault(command.label, digest) != digest:
            problems.append("report bytes differ from an earlier run of the same command")
        report = json.loads(data)
        problems += checks.schema_and_echo(report, self.schema, self.expected)
        if "structure" in report:
            problems += checks.structure(report, self.workload.classes)
        if "stationary" in report:
            problems += checks.stationary(report)
            ctx["direct"] = {e["epsilon"]: np.array(e["direct"]["pi"]) for e in report["stationary"]["by_epsilon"]}
        if "expansion" in report:
            problems += checks.expansion(report, ctx.get("direct", {}))
        if "coupling_sim" in report:
            problems += checks.coupling_tail(report)
        return problems

    def result(self):
        """(final line, detail record) of the run."""
        timed = len(self.attempts)
        not_ok = sum(a["status"] != "ok" for a in self.attempts)
        # The final line counts the untimed repeat run too; failed_share does not.
        failed = sum(a["status"] == "failed" for a in [self.warmup, *self.attempts])
        plain = [p for p in self.passes if not p.traced]
        metrics = {
            "wall_s": measured([p.wall_s for p in plain], "s"),
            "peak_rss_mb": measured([p.rss_mb for p in plain], "MB"),
            "failed_share": {"value": not_ok / timed, "unit": "ratio", "samples": timed},
        }
        if self.setup:
            metrics["setup_s"] = measured(self.setup, "s")
        for name in sorted({k for p in plain for k in p.by_metric}):
            metrics[name] = measured([p.by_metric[name] for p in plain], "s")
        if "coupling_sim_s" in metrics:
            rates = [p.trials / p.by_metric["coupling_sim_s"] for p in plain]
            metrics["sim_trials_per_s"] = measured(rates, "1/s")
        detail = {
            "workload": self.workload.name,
            "why": self.workload.why,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(),
            "inputs_sha256": self.inputs,
            "metrics": metrics,
            "warm_up": self.warmup,
            "attempts": self.attempts,
        }
        layered = [p for p in self.passes if p.traced]
        if layered:
            names = {f"{m}.{f}.{k}" for m, fs in TRACED.items() for f in fs for k in ("s", "self_s", "calls", "failed")}
            names |= {k for p in layered for k in p.layers} | {m["name"] for m in self.spec["per_layer"]}
            names.discard("trace.overhead_s")
            layers = {}
            for name in sorted(names):
                layers[name] = measured([p.layers.get(name, 0) for p in layered], layer_unit(name))
            overhead = statistics.median(p.wall_s for p in layered) - metrics["wall_s"]["value"]
            layers["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": len(layered) + len(plain),
                                          "note": "median traced wall_s minus median untraced wall_s"}
            for name, note in COMPUTED.items():
                layers[name]["note"] = note
            detail["layers"] = layers
            detail["layers_by_command"] = self.by_command
            wanted = {m["name"]: layers[m["name"]] for m in self.spec["per_layer"]}
        else:
            wanted = {m["name"]: metrics[m["name"]] for m in self.spec["end_to_end"]}
        line = {
            "correct": failed == 0,
            "attempted": timed + 1,
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in wanted.items()},
        }
        return line, detail


def layer_unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    return "B" if name.endswith("bytes") else "count"


def measured(samples, unit):
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples)}


def refusal(command, code, out):
    """Classify a nonzero exit: the typed refusal the command may give, or a failure."""
    try:
        error = json.JSONDecoder().raw_decode(out.lstrip())[0]["error"]["type"]
    except (ValueError, KeyError, TypeError):
        error = None
    if code == 1 and error is not None and error in command.refusals:
        return "refused", [f"refused with {error}"]
    return "failed", [f"exit {code}: {out[-500:]}"]


def add_layers(layers, trace):
    """Add one command's spans and counts to the pass totals in ``layers``."""
    spans = trace["spans"]
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append(span)

    def bump(key, value):
        layers[key] = layers.get(key, 0) + value

    for index, (name, start, end, parent, _, failed, attrs) in enumerate(spans):
        bump(f"{name}.calls", 1)
        bump(f"{name}.failed", int(failed))
        bump(f"{name}.self_s", (end - start) - covered(children.get(index, []), start, end))
        if not nested_in(spans, parent, name):
            bump(f"{name}.s", end - start)
        if attrs and "steps" in attrs:
            kind = "iterations" if name.endswith("power") else "terms"
            bump(f"{name}.{kind}", attrs["steps"])
            bump("stationary.matvec_bytes", attrs["steps"] * attrs["m"] ** 2 * 8)
        if attrs and "bytes" in attrs:
            bump(f"{name}.bytes", attrs["bytes"])
    for key, value in trace["counts"].items():
        bump(key, value)


def covered(spans, start, end):
    """Length of [start, end] covered by the union of the spans' intervals."""
    total, reach = 0.0, start
    for _, s, e, *_ in sorted(spans, key=lambda span: span[1]):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def nested_in(spans, parent, name):
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def environment():
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout
            return int(out.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "l2_cache_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "bandwidth_to_peak": "not given: arrays of 4x the reported last-level cache would not fit these workloads",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the benchmark itself on a five-node chain")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dampedchain", "cli.py")):
        print("perfbench: run from the root of a dampedchain checkout (src/dampedchain not found)", file=sys.stderr)
        return 2
    if args.smoke:
        from smoke import smoke

        return smoke(root, Run)
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = Run(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        run.execute()
        line, detail = run.result()
        print(json.dumps(detail, indent=1))
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + k: v for k, v in line["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
