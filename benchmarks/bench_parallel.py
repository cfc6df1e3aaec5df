"""Parallel-tier guard: work-stealing branch mode vs the sequential driver.

On a planted-community graph whose single dominant subproblem holds ~60% of
all branches, branch-parallel execution at 4 workers must not lose to the
sequential ledger DCFastQC on the wall clock: the row's ``speedup`` is
``sequential_s / branch_s``.  That check needs at least as many CPUs as
workers (``affinity_cpus``, the CPUs the process may run on); with fewer it
is skipped, and says so.  Two host-independent checks always run: branch
mode must steal from the dominant subtree, and its candidate sets must equal
the sequential run's.  ``balance_speedup`` (the largest subproblem's branch
count over the busiest worker's) is printed as a diagnostic.  A default
``parallel="auto"`` run of the skewed row must fan out by itself, once it
has explored ``FAN_OUT_BRANCHES`` branches.

The measurement lives in ``scripts/bench_trajectory.py`` (the ``parallel``
suite recorded into ``BENCH_core.json``); this file reuses that suite so the
benchmark run and CI smoke assert the exact numbers the trajectory records.
By default the quick 2*10^4-vertex rows run; set ``REPRO_BENCH_FULL=1`` for
the 10^5-vertex skewed row the committed ``BENCH_core.json`` records.

Run with:  pytest benchmarks/bench_parallel.py -q --benchmark-disable
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from bench_trajectory import (  # noqa: E402
    PARALLEL_FULL,
    PARALLEL_QUICK,
    run_parallel_suite,
)

#: Branch mode must not lose to sequential on the skewed row's wall clock.
MIN_WALL_SPEEDUP = 1.0

_cache: dict | None = None


def _suite_record() -> dict:
    """Run the parallel trajectory suite once per pytest session."""
    global _cache
    if _cache is None:
        rows = (PARALLEL_FULL if os.environ.get("REPRO_BENCH_FULL")
                else PARALLEL_QUICK)
        _cache = run_parallel_suite(rows, verbose=False)
    return _cache


def _rows(kind: str):
    record = _suite_record()
    return {name: row for name, row in record["datasets"].items()
            if row["kind"] == kind}


def test_branch_mode_steals_from_the_dominant_subproblem():
    """Skewed row: idle workers must take subtrees of the dominant subproblem."""
    for name, row in _rows("skewed").items():
        print(f"\n{name}: largest subproblem {row['largest_subproblem_branches']} "
              f"branches, busiest worker {row['busiest_worker_branches']} -> "
              f"balance {row['balance_speedup']}x ({row['steals']} steals)")
        assert row["steals"] > 0, f"{name}: branch mode never stole a subtree"


def test_branch_mode_does_not_lose_to_sequential():
    """Skewed row, wall clock: sequential_s / branch_s >= 1 when CPUs allow."""
    for name, row in _rows("skewed").items():
        print(f"\n{name}: sequential {row['sequential_s']}s vs branch "
              f"{row['branch_s']}s -> {row['speedup']}x")
        if row["affinity_cpus"] < row["workers"]:
            pytest.skip(f"skipped: {row['affinity_cpus']} affinity CPUs < "
                        f"{row['workers']} workers")
        assert row["speedup"] >= MIN_WALL_SPEEDUP, (
            f"{name}: branch mode ran at {row['speedup']}x sequential "
            f"(floor {MIN_WALL_SPEEDUP}x)")


def test_answers_match_the_sequential_ledger_kernel():
    """Branch mode's candidate sets are identical to the sequential run's."""
    for name, row in _suite_record()["datasets"].items():
        assert row["parity"], f"{name}: parity flag not set"


def test_auto_mode_fans_out_by_the_work_it_has_done():
    """Skewed rows explore far more than the branch budget, so a default
    ``parallel="auto"`` run fans out while it runs."""
    for row in _rows("skewed").values():
        assert row["auto_mode"] == "branch"
