"""Kernel benchmark: incremental degree-ledger kernel vs mask-based reference.

The enumeration core replaces per-branch popcount rescans with incremental
:class:`repro.core.kernel.BranchState` ledgers and remaps every
divide-and-conquer subproblem to a compact dense index space.  This benchmark
measures cold DCFastQC enumeration (no result cache, no prepared-graph reuse)
against the :mod:`repro.oracle` reference (``ReferenceDCFastQC``) on registry
dataset analogues at branch-heavy parameter points, checks output parity, and
asserts the kernelized path is at least ``REQUIRED_SPEEDUP`` x faster on at
least ``REQUIRED_DATASETS`` datasets.

``REPRO_BENCH_QUICK=1`` (CI smoke mode) keeps the rows with the largest
speedup margins so the assertion stays meaningful on noisy runners.  The
same suite is what ``scripts/bench_trajectory.py`` records into
``BENCH_core.json``.

Run with:  pytest benchmarks/bench_kernel.py --benchmark-only
"""

from __future__ import annotations

import os
import time

import pytest

from repro.baselines.quickplus import QuickPlus
from repro.core.dcfastqc import DCFastQC
from repro.datasets import load_dataset
from repro.oracle import ReferenceDCFastQC, ReferenceQuickPlus

from _bench_utils import attach_rows, run_once

#: (row id, dataset, gamma, theta) — branch-heavy points (hundreds to
#: thousands of branches) where enumeration dominates preprocessing.
FULL_CASES = (
    ("ca-grqc", "ca-grqc", 0.9, 5),
    ("enron", "enron", 0.85, 6),
    ("pokec", "pokec", 0.9, 6),
    ("uk2002", "uk2002", 0.9, 7),
    ("uk2002-heavy", "uk2002", 0.85, 8),
)
QUICK_CASES = (
    ("enron", "enron", 0.85, 6),
    ("pokec", "pokec", 0.9, 6),
    ("uk2002", "uk2002", 0.9, 7),
)
CASES = QUICK_CASES if os.environ.get("REPRO_BENCH_QUICK") else FULL_CASES

#: The asserted floor: kernelized cold enumeration must beat the reference
#: implementation by at least this factor on at least this many datasets.
REQUIRED_SPEEDUP = 3.0
REQUIRED_DATASETS = 2

#: Measurements are cached so the summary assertion reuses the per-case rows.
_ROWS: dict[str, dict] = {}


def _measure(case_id: str) -> dict:
    if case_id in _ROWS:
        return _ROWS[case_id]
    _, dataset, gamma, theta = next(c for c in CASES if c[0] == case_id)
    graph = load_dataset(dataset)
    timings = {}
    outputs = {}
    stats = {}
    for kernel, enumerator in (("ledger", DCFastQC), ("reference", ReferenceDCFastQC)):
        best = None
        for _ in range(2):  # best-of-2: first round warms the tau/threshold caches
            algo = enumerator(graph, gamma, theta)
            start = time.perf_counter()
            results = algo.enumerate()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
            outputs[kernel] = results
            stats[kernel] = algo.statistics
        timings[kernel] = best
    assert outputs["ledger"] == outputs["reference"], \
        f"{case_id}: kernel and reference outputs diverged"
    assert (stats["ledger"].branches_explored
            == stats["reference"].branches_explored), \
        f"{case_id}: kernel and reference explored different branch trees"
    row = {
        "case": case_id,
        "dataset": dataset,
        "gamma": gamma,
        "theta": theta,
        "branches": stats["ledger"].branches_explored,
        "ledger_ms": round(timings["ledger"] * 1000, 3),
        "reference_ms": round(timings["reference"] * 1000, 3),
        "speedup": (round(timings["reference"] / timings["ledger"], 2)
                    if timings["ledger"] else float("inf")),
        "ledger_moves": stats["ledger"].ledger_moves,
    }
    _ROWS[case_id] = row
    return row


@pytest.mark.parametrize("case_id", [case[0] for case in CASES])
def test_kernel_vs_reference(benchmark, case_id):
    """Per-dataset row: cold enumeration latency under both kernels, with parity."""
    row = run_once(benchmark, _measure, case_id)
    attach_rows(benchmark, [row])
    print()
    print(f"{case_id}: ledger {row['ledger_ms']} ms vs reference "
          f"{row['reference_ms']} ms -> {row['speedup']}x "
          f"({row['branches']} branches)")


def test_kernel_speedup_meets_target(benchmark):
    """The ledger kernel must be >= 3x on at least two registry datasets."""
    rows = run_once(benchmark, lambda: [_measure(case[0]) for case in CASES])
    attach_rows(benchmark, rows)
    passing = [row for row in rows if row["speedup"] >= REQUIRED_SPEEDUP]
    assert len(passing) >= min(REQUIRED_DATASETS, len(rows)), rows


# ----------------------------------------------------------------------
# Quick+ kernel rows: the same ledger-vs-reference comparison for the
# paper's co-design ablation baseline (all three algorithms share one
# branch-state kernel since PR 5).
# ----------------------------------------------------------------------
QUICKPLUS_FULL_CASES = (
    ("qp-trec", "trec", 0.96, 10),
    ("qp-kmer", "kmer", 0.51, 6),
    ("qp-enron", "enron", 0.9, 9),
    ("qp-flixster", "flixster", 0.96, 10),
)
QUICKPLUS_QUICK_CASES = (
    ("qp-trec", "trec", 0.96, 10),
    ("qp-kmer", "kmer", 0.51, 6),
)
QUICKPLUS_CASES = (QUICKPLUS_QUICK_CASES if os.environ.get("REPRO_BENCH_QUICK")
                   else QUICKPLUS_FULL_CASES)

#: Quick+ floor: the shared ledger kernel must halve the baseline's cold
#: latency on at least this many datasets.
QUICKPLUS_REQUIRED_SPEEDUP = 1.5
QUICKPLUS_REQUIRED_DATASETS = 2

_QP_ROWS: dict[str, dict] = {}


def _measure_quickplus(case_id: str) -> dict:
    if case_id in _QP_ROWS:
        return _QP_ROWS[case_id]
    _, dataset, gamma, theta = next(c for c in QUICKPLUS_CASES if c[0] == case_id)
    graph = load_dataset(dataset)
    timings = {}
    outputs = {}
    branches = {}
    for kernel, enumerator in (("ledger", QuickPlus), ("reference", ReferenceQuickPlus)):
        best = None
        for _ in range(2):
            algo = enumerator(graph, gamma, theta)
            start = time.perf_counter()
            results = algo.enumerate()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
            outputs[kernel] = results
            branches[kernel] = algo.statistics.branches_explored
        timings[kernel] = best
    assert outputs["ledger"] == outputs["reference"], \
        f"{case_id}: Quick+ kernel and reference outputs diverged"
    assert branches["ledger"] == branches["reference"], \
        f"{case_id}: Quick+ kernels explored different branch trees"
    row = {
        "case": case_id,
        "dataset": dataset,
        "gamma": gamma,
        "theta": theta,
        "branches": branches["ledger"],
        "ledger_ms": round(timings["ledger"] * 1000, 3),
        "reference_ms": round(timings["reference"] * 1000, 3),
        "speedup": (round(timings["reference"] / timings["ledger"], 2)
                    if timings["ledger"] else float("inf")),
    }
    _QP_ROWS[case_id] = row
    return row


@pytest.mark.parametrize("case_id", [case[0] for case in QUICKPLUS_CASES])
def test_quickplus_kernel_vs_reference(benchmark, case_id):
    """Per-dataset row: Quick+ cold latency under both kernels, with parity."""
    row = run_once(benchmark, _measure_quickplus, case_id)
    attach_rows(benchmark, [row])
    print()
    print(f"{case_id}: ledger {row['ledger_ms']} ms vs reference "
          f"{row['reference_ms']} ms -> {row['speedup']}x")


def test_quickplus_kernel_speedup_meets_target(benchmark):
    """Quick+'s ledger kernel must be >= 1.5x on at least two datasets."""
    rows = run_once(benchmark, lambda: [_measure_quickplus(case[0])
                                        for case in QUICKPLUS_CASES])
    attach_rows(benchmark, rows)
    passing = [row for row in rows
               if row["speedup"] >= QUICKPLUS_REQUIRED_SPEEDUP]
    assert len(passing) >= min(QUICKPLUS_REQUIRED_DATASETS, len(rows)), rows
