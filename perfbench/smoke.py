"""Self-check of the benchmark on the five-node test chain (run.py --smoke).

Runs every command kind once untraced and once traced, with few simulator
trials, and checks that every metric BENCHMARK.json lists is printed with
the unit listed there, that the detail record has every end-to-end metric
with its unit and sample count, and that no command failed or was refused.
"""

import json

from workloads import SMOKE

# Every end-to-end metric of the detail record, with its unit.
DETAIL_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "structure_s": "s",
    "stationary_s": "s",
    "expand_s": "s",
    "bounds_s": "s",
    "triangular_s": "s",
    "coupling_sim_s": "s",
    "sim_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}


def smoke(root, run_class):
    problems = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        run = run_class(root, SMOKE, 1, 1.0, trace)
        listed = run.spec[kind]
        run.execute()
        line, detail = run.result()
        print(json.dumps(line))
        wanted = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != wanted:
            problems.append(f"trace {int(trace)}: final line metrics {got} differ from BENCHMARK.json {wanted}")
        if not trace:
            missing = {k: u for k, u in DETAIL_METRICS.items() if detail["metrics"].get(k, {}).get("unit") != u}
            if missing or any("samples" not in v for v in detail["metrics"].values()):
                problems.append(f"detail record lacks metrics or sample counts: {missing}")
            if detail["metrics"]["failed_share"]["value"] != 0:
                problems.append(f"failed_share is {detail['metrics']['failed_share']['value']}")
        if not line["correct"] or line["failed"]:
            problems.append(f"trace {int(trace)}: {[a for a in detail['attempts'] if a['status'] != 'ok']}")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0
