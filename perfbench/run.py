"""Repository benchmark: wall-clock workloads through the paths users run.

Usage (from the repository root):

    python3 perfbench/run.py --workload registry-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that attributes time to layers.  Progress goes to stderr;
stdout carries one line per metric, a host/notes record, and as its last line
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The run
fails (exit 1, ``correct: false``) on any wrong answer or leaked resource,
and exits 2 without a result when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (MANIFEST, ROOT, SRC, WORK_DIR, host_facts, leak_report, log,  # noqa: E402
                    shm_segments, stop_resource_tracker)

WORKLOADS = ("registry-cold", "skew-parallel", "served-mix")


def load_metric_table() -> dict:
    """Metric names and units from the manifest, checked against BENCHMARK.json."""
    manifest = json.loads(MANIFEST.read_text())
    table = {kind: {m["name"]: m["unit"] for m in manifest[kind]}
             for kind in ("end_to_end", "per_layer")}
    benchmark_file = ROOT / "BENCHMARK.json"
    if benchmark_file.exists():
        declared = json.loads(benchmark_file.read_text())
        for kind, metrics in table.items():
            listed = {m["name"]: m["unit"] for m in declared[kind]}
            if listed != metrics:
                raise SystemExit(f"error: BENCHMARK.json {kind} disagrees with "
                                 f"{MANIFEST.name}")
        if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
            raise SystemExit("error: BENCHMARK.json workloads disagree with run.py")
    return table


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "registry-cold":
        import registry_cold as module
    elif name == "skew-parallel":
        import skew_parallel as module
    else:
        import served_mix as module
    return module.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: source tree not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = load_metric_table()
    kind = "per_layer" if args.trace else "end_to_end"

    shm_before = shm_segments()
    if WORK_DIR.exists():
        shutil.rmtree(WORK_DIR)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
        leaks = leak_report(shm_before)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    for leak in leaks:
        outcome.fail(f"resource leak: {leak}")

    values = outcome.end_to_end if kind == "end_to_end" else outcome.per_layer
    metrics = {}
    for name, unit in table[kind].items():
        if name not in values and kind == "end_to_end":
            outcome.fail(f"metric {name} was not measured")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
        print(f"{name:34s} {metrics[name]['value']:14.4f} {unit}")
    for problem in outcome.problems:
        log(f"FAIL: {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "host": host_facts(), "notes": outcome.notes}))
    correct = not outcome.problems and outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(1, outcome.attempted),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
