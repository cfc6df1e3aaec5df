#!/usr/bin/env python
"""Render the recorded perf trajectory (``BENCH_core.json``) as markdown.

``BENCH_core.json`` is committed after perf-relevant changes (see
``scripts/bench_trajectory.py``), so its git history *is* the repository's
perf trajectory.  This script walks every committed revision of the file,
extracts the per-suite speedup summaries, and prints a markdown trend table —
one row per recorded run, one column per suite — followed by a per-dataset
breakdown of the latest record.

Usage::

    PYTHONPATH=src python scripts/bench_report.py              # full trend
    python scripts/bench_report.py --latest                    # newest record only
    python scripts/bench_report.py --output BENCH_report.md

Outside a git checkout (or when ``git`` is unavailable) the report degrades
gracefully to the working-tree file alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = "BENCH_core.json"

#: Stable column order for the trend table (suites absent from a run show "—").
SUITE_ORDER = ("core-enumeration", "quickplus-kernel", "engine-cache",
               "dynamic-updates", "large-graph", "parallel")
SUITE_HEADERS = {
    "core-enumeration": "core (ledger/ref)",
    "quickplus-kernel": "quickplus (ledger/ref)",
    "engine-cache": "cache (warm/cold)",
    "dynamic-updates": "dynamic (incr/rebuild)",
    "large-graph": "large graph (dict/CSR RSS)",
    "parallel": "parallel (seq/branch)",
}


def _git(*argv: str) -> str | None:
    """Run one git command in the repo root; None on any failure."""
    try:
        completed = subprocess.run(
            ["git", "-C", str(REPO_ROOT), *argv],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


def committed_records() -> list[dict]:
    """Every committed revision of the bench file, oldest first.

    Each entry: ``{"commit", "subject", "date", "record"}``.  Unparseable
    revisions are skipped (a historical format change must not kill the report).
    """
    log = _git("log", "--reverse", "--format=%h%x09%ad%x09%s",
               "--date=short", "--", BENCH_FILE)
    if not log:
        return []
    entries = []
    for line in log.splitlines():
        parts = line.split("\t", 2)
        if len(parts) != 3:
            continue
        sha, date, subject = parts
        blob = _git("show", f"{sha}:{BENCH_FILE}")
        if blob is None:
            continue
        try:
            record = json.loads(blob)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "suites" in record:
            entries.append({"commit": sha, "date": date,
                            "subject": subject, "record": record})
    return entries


def working_tree_record() -> dict | None:
    path = REPO_ROOT / BENCH_FILE
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) and "suites" in record else None


def _suite_speedup(record: dict, suite: str) -> str:
    data = record.get("suites", {}).get(suite)
    if not data:
        return "—"
    speedup = data.get("summary", {}).get("geomean_speedup")
    return f"{speedup}x" if speedup is not None else "—"


def _markdown_row(cells) -> str:
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def trend_table(entries: list[dict]) -> list[str]:
    """One row per recorded run: commit, date, per-suite geomean speedups."""
    headers = (["run", "date"]
               + [SUITE_HEADERS[suite] for suite in SUITE_ORDER]
               + ["peak RSS"])
    lines = [_markdown_row(headers),
             _markdown_row(["---"] * len(headers))]
    for entry in entries:
        record = entry["record"]
        rss = record.get("peak_rss_bytes")
        rss_cell = f"{rss / 1e6:.0f} MB" if rss else "—"
        lines.append(_markdown_row(
            [entry["commit"], entry["date"]]
            + [_suite_speedup(record, suite) for suite in SUITE_ORDER]
            + [rss_cell]))
    return lines


def dataset_breakdown(record: dict) -> list[str]:
    """Per-dataset speedups of one record, one table per suite."""
    lines: list[str] = []
    for suite in SUITE_ORDER:
        data = record.get("suites", {}).get(suite)
        if not data:
            continue
        lines.append("")
        lines.append(f"### {suite}")
        lines.append("")
        lines.append(f"_{data.get('workload', '')}_")
        lines.append("")
        lines.append(_markdown_row(["dataset", "gamma", "theta", "speedup"]))
        lines.append(_markdown_row(["---"] * 4))
        for name, row in sorted(data.get("datasets", {}).items()):
            lines.append(_markdown_row(
                [name, row.get("gamma", "—"), row.get("theta", "—"),
                 f"{row.get('speedup', '—')}x"]))
    return lines


def build_report(latest_only: bool = False) -> str:
    entries = [] if latest_only else committed_records()
    working = working_tree_record()
    if working is not None:
        committed = entries[-1]["record"] if entries else None
        if committed != working:
            entries.append({"commit": "(worktree)", "date": "now",
                            "subject": "uncommitted run", "record": working})
    if not entries:
        return ("# Perf trajectory\n\nNo benchmark records found — run "
                "`PYTHONPATH=src python scripts/bench_trajectory.py` first.\n")
    lines = ["# Perf trajectory", "",
             f"Speedup trend across {len(entries)} recorded "
             f"run{'s' if len(entries) != 1 else ''} of `{BENCH_FILE}` "
             "(geometric mean over each suite's datasets; higher is better).",
             ""]
    lines += trend_table(entries)
    lines += ["", "## Latest record"]
    lines += dataset_breakdown(entries[-1]["record"])
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--latest", action="store_true",
                        help="skip the git history; report the working-tree "
                        "record only")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the markdown here instead of stdout")
    args = parser.parse_args(argv)
    report = build_report(latest_only=args.latest)
    if args.output is not None:
        args.output.write_text(report, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
