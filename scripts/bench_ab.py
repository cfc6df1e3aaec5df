"""A/B runs of the repository benchmark: this checkout against a base revision.

Usage (from the repository root):

    python3 scripts/bench_ab.py --base HEAD~1 --workload registry-cold
    python3 scripts/bench_ab.py --base main --workload registry-cold \\
        --pairs 10 --seconds 10 --first-seed 101 --claim query_p50_ms

Both sides run from fresh trees in one temporary directory, which is removed
on every exit path.  The base revision is checked out there with
``git worktree add --detach``.  The change is a copy of this checkout's
working tree: the files ``git ls-files --cached --others --exclude-standard``
lists (tracked, and untracked but not ignored), minus paths deleted in the
working tree.  So neither side runs with this checkout's bytecode caches or
other leftovers.  Each pair runs
``python3 <tree>/perfbench/run.py --workload W --seed S --seconds T --trace 0``
once per side with the same seed; which side goes first alternates between
pairs.  For every end-to-end metric of ``BENCHMARK.json`` the summary gives
each side's median and quartiles, the change's wins (direction from the
metric's ``better``; ties count for neither side), the paired mean difference
± SEM, and whether the change's median is worse than the base's by more than
the metric's bound.  ``attempted`` and ``failed`` are printed per run, so a
metric that rises with throughput (peak RSS) can be read next to it.

``--claim METRIC`` also checks the claim rule: the change wins at least 9 of
every 10 pairs, and its median beats the base's by more than the base's
interquartile range (which puts it outside that range).  ``--trace 1``
compares the per-layer metrics instead (no bounds).  The exit code is 1 when
any run is not ``correct``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs a claimed metric must win (9 of 10).
CLAIM_WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; the exclusive method keeps small-sample IQRs wide."""
    if len(values) < 2:
        value = values[0] if values else math.nan
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, median, q3


def compare_metric(base: list[float], change: list[float], better: str,
                   bound: float | None = None) -> dict:
    """Paired comparison of one metric; ``base[i]`` and ``change[i]`` share a seed."""
    lower = better == "lower"
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    losses = sum(1 for b, c in zip(base, change) if (c > b if lower else c < b))
    diffs = [c - b for b, c in zip(base, change)]
    sem = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else 0.0
    base_q = quartiles(base)
    change_q = quartiles(change)
    gain = base_q[1] - change_q[1] if lower else change_q[1] - base_q[1]
    worse_by = -gain / base_q[1] if base_q[1] else 0.0
    return {
        "better": better, "pairs": len(diffs), "base": base_q, "change": change_q,
        "wins": wins, "losses": losses, "ties": len(diffs) - wins - losses,
        "mean_diff": statistics.fmean(diffs) if diffs else math.nan, "sem": sem,
        "worse_by": worse_by,
        "over_bound": bound is not None and worse_by > bound,
        "outside_iqr": change_q[1] < base_q[0] if lower else change_q[1] > base_q[2],
        "gain_beats_iqr": gain > base_q[2] - base_q[0],
    }


def claim_holds(row: dict) -> bool:
    """At least 9 wins in 10 pairs, and a median gain beyond the base's IQR."""
    needed = math.ceil(CLAIM_WIN_SHARE * row["pairs"])
    return row["wins"] >= needed and row["gain_beats_iqr"]


def summarize(pairs: list[tuple[dict, dict]], metric_specs: list[dict]) -> dict[str, dict]:
    """One :func:`compare_metric` row per metric over ``(base, change)`` records."""
    rows = {}
    for spec in metric_specs:
        name = spec["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        rows[name] = compare_metric(base, change, spec["better"], spec.get("bound"))
    return rows


def format_summary(rows: dict[str, dict], claim: str | None = None) -> str:
    """The rows as a Markdown table, plus the claim verdict when asked."""
    lines = ["| Metric | Base median [Q1, Q3] | Change median [Q1, Q3] | "
             "Wins/ties/losses | Paired diff ± SEM | Worse by | Beyond bound |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for name, row in rows.items():
        b, c = row["base"], row["change"]
        lines.append(
            f"| {name} | {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] "
            f"| {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}] "
            f"| {row['wins']}/{row['ties']}/{row['losses']} "
            f"| {row['mean_diff']:+.4g} ± {row['sem']:.2g} "
            f"| {100 * row['worse_by']:+.1f}% | {'yes' if row['over_bound'] else 'no'} |")
    if claim is not None:
        row = rows[claim]
        verdict = "holds" if claim_holds(row) else "does not hold"
        lines.append("")
        lines.append(
            f"Claim {claim}: {verdict} ({row['wins']} wins in {row['pairs']} pairs; "
            f"change median {'outside' if row['outside_iqr'] else 'inside'} the base IQR; "
            f"median gain {'beyond' if row['gain_beats_iqr'] else 'within'} the base IQR width).")
    return "\n".join(lines)


def format_runs(runs: list[dict]) -> str:
    """Per-run ``attempted`` / ``failed`` / ``correct``, side by side per pair."""
    lines = ["| Pair | Seed | First | Base attempted/failed | Change attempted/failed |",
             "| --- | --- | --- | --- | --- |"]
    for run in runs:
        b, c = run["base"], run["change"]
        lines.append(
            f"| {run['pair']} | {run['seed']} | {run['first']} "
            f"| {b.get('attempted', '?')}/{b.get('failed', '?')}"
            f"{'' if b.get('correct') else ' (not correct)'} "
            f"| {c.get('attempted', '?')}/{c.get('failed', '?')}"
            f"{'' if c.get('correct') else ' (not correct)'} |")
    return "\n".join(lines)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``; its final JSON record (``correct`` False on error)."""
    command = ["python3", str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    finished = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = [line for line in finished.stdout.splitlines() if line.strip()]
    try:
        record = json.loads(lines[-1]) if lines else None
    except ValueError:
        record = None
    if not isinstance(record, dict) or "metrics" not in record:
        sys.stderr.write(finished.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return record


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def copy_working_tree(root: Path, dest: Path) -> None:
    """Copy ``root``'s tracked and untracked-but-not-ignored files into ``dest``.

    Paths deleted in the working tree are skipped.
    """
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in {os.fsdecode(raw) for raw in listed.split(b"\0") if raw}:
        source = root / name
        if not source.is_file():
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair i runs seed first-seed + i on both sides")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", metavar="METRIC")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = declared["per_layer" if args.trace else "end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in metric_specs}:
        parser.error(f"--claim {args.claim}: not a metric of this run")
    try:
        revision = git("rev-parse", "--verify", args.base + "^{commit}")
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base}: not a commit of {ROOT}")

    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as scratch:
        trees = {"base": Path(scratch) / "base", "change": Path(scratch) / "change"}
        copy_working_tree(ROOT, trees["change"])
        git("worktree", "add", "--detach", str(trees["base"]), revision)
        try:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
                records = {}
                for side in order:
                    print(f"# pair {pair + 1}/{args.pairs} seed {seed}: {side}",
                          file=sys.stderr, flush=True)
                    records[side] = run_once(trees[side], args.workload, seed,
                                             args.seconds, args.trace)
                runs.append({"pair": pair + 1, "seed": seed, "first": order[0], **records})
        finally:
            git("worktree", "remove", "--force", str(trees["base"]))
            git("worktree", "prune")

    print(f"# {args.workload}, base {args.base} ({revision[:10]}) vs this working tree, "
          f"{args.pairs} pairs, --seconds {args.seconds:g} --trace {args.trace}")
    print(format_runs(runs))
    print()
    complete = [(run["base"], run["change"]) for run in runs
                if run["base"]["metrics"] and run["change"]["metrics"]]
    if complete:
        print(format_summary(summarize(complete, metric_specs), args.claim))
    correct = all(run["base"]["correct"] and run["change"]["correct"] for run in runs)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
