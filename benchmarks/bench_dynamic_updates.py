"""Dynamic-update benchmark: incremental update + requery vs full rebuild.

A serving system absorbing graph updates has two options after each mutation:
throw the prepared artifacts and result cache away and rebuild, or patch the
artifacts and invalidate selectively (:meth:`repro.engine.MQCEEngine.sync`).
This benchmark measures both on the registry dataset analogues for the
canonical serving step — one edge update followed by a repeat of the standing
query:

* **incremental** — ``graph.remove_edge`` + ``engine.sync(graph)``: patch
  artifacts, selectively invalidate (the touched edge is chosen outside every
  cached result region, the common case in a sparse graph), requery warm;
* **rebuild** — a fresh engine + fresh ``PreparedGraph`` over the mutated
  graph: full preprocessing + full enumeration.

The suite asserts the incremental path is at least ``REQUIRED_SPEEDUP`` x
faster on the largest active dataset.  ``REPRO_BENCH_QUICK=1`` (CI smoke mode)
shrinks the dataset spread to the fastest analogue while keeping the
assertion.

Run with:  pytest benchmarks/bench_dynamic_updates.py --benchmark-only
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import QuerySpec
from repro.datasets import get_spec, load_dataset
from repro.engine import MQCEEngine, PreparedGraph

from _bench_utils import attach_rows, run_once

#: Dataset spread; quick mode keeps only the fastest analogue.  The last name
#: is the largest registry dataset of the active set — uk2002, the biggest
#: graph in the paper's Table 1 by edge count (261.8M edges; its analogue also
#: has the largest edge count) — and carries the speedup assertion.
DATASETS = (("ca-grqc",) if os.environ.get("REPRO_BENCH_QUICK")
            else ("ca-grqc", "enron", "fullusa", "kmer", "uk2002"))

#: Minimum speedup of incremental-update+requery over a cold rebuild.  The
#: PR-4 ledger kernel cut cold enumeration itself by ~6x (see BENCH_core.json),
#: which shrank this ratio's denominator from ~50 ms to ~8 ms on uk2002 — the
#: warm path now competes against fixed per-query overheads, not enumeration
#: cost — so the floor moved from 10x (measured 58x pre-kernel) to 4x
#: (measured 6.5-10x post-kernel).  The functional canaries (selective
#: invalidation, cache retention, warm hit) are asserted exactly either way.
REQUIRED_SPEEDUP = 4.0


def _pick_survivable_edge(graph, result):
    """An edge whose removal provably leaves the cached entry valid.

    Removing an edge can only change the answer where a result set contains
    both endpoints, so any edge outside every maximal/candidate set keeps the
    entry warm — the overwhelmingly common case for background edges.
    """
    result_sets = (list(result.maximal_quasi_cliques)
                   + list(result.candidate_quasi_cliques))
    for u, v in graph.edges():
        if not any(u in s and v in s for s in result_sets):
            return u, v
    return None


def _incremental_vs_rebuild(name: str):
    """Time one update+requery through both strategies; returns a result row."""
    spec = get_spec(name)
    gamma, theta = spec.default_gamma, spec.default_theta
    graph = load_dataset(name)
    engine = MQCEEngine()
    engine.prepare(graph, name=spec.name).prepare()
    cold_start = time.perf_counter()
    baseline = engine.query(graph, QuerySpec(gamma, theta))
    cold_seconds = time.perf_counter() - cold_start
    edge = _pick_survivable_edge(graph, baseline)
    assert edge is not None, f"{name}: no background edge outside the result regions"
    hits_before = engine.cache.stats.hits

    start = time.perf_counter()
    graph.remove_edge(*edge)
    report = engine.sync(graph)
    incremental_result = engine.query(graph, QuerySpec(gamma, theta))
    incremental_seconds = time.perf_counter() - start
    assert report.invalidated == 0 and report.retained >= 1, report
    assert engine.cache.stats.hits == hits_before + 1, \
        "the retained entry must serve the requery warm"

    start = time.perf_counter()
    rebuilt = MQCEEngine().query(PreparedGraph(graph), QuerySpec(gamma, theta))
    rebuild_seconds = time.perf_counter() - start
    assert rebuilt.maximal_quasi_cliques == incremental_result.maximal_quasi_cliques, \
        "incremental and rebuilt answers diverged"

    return {
        "dataset": name,
        "cold_ms": round(cold_seconds * 1000, 3),
        "incremental_ms": round(incremental_seconds * 1000, 3),
        "rebuild_ms": round(rebuild_seconds * 1000, 3),
        "speedup": (round(rebuild_seconds / incremental_seconds, 1)
                    if incremental_seconds else float("inf")),
        "retained_entries": report.retained,
    }


@pytest.mark.parametrize("name", DATASETS)
def test_incremental_update_vs_rebuild(benchmark, name):
    """Per-dataset row: update+requery latency for both strategies."""
    row = run_once(benchmark, _incremental_vs_rebuild, name)
    attach_rows(benchmark, [row])
    print()
    print(f"{name}: incremental {row['incremental_ms']} ms vs rebuild "
          f"{row['rebuild_ms']} ms -> {row['speedup']}x "
          f"({row['retained_entries']} cache entries survived)")


def test_incremental_speedup_meets_target(benchmark):
    """Single-edge update + requery must beat a cold rebuild by >= 10x on the
    largest active registry dataset."""
    largest = DATASETS[-1]
    row = run_once(benchmark, _incremental_vs_rebuild, largest)
    attach_rows(benchmark, [row])
    assert row["speedup"] >= REQUIRED_SPEEDUP, row


def test_update_stream_throughput(benchmark):
    """A short update stream with a standing query: mostly-warm serving."""
    name = DATASETS[0]
    spec = get_spec(name)
    gamma, theta = spec.default_gamma, spec.default_theta
    graph = load_dataset(name)
    engine = MQCEEngine()
    engine.prepare(graph, name=spec.name).prepare()
    baseline = engine.query(graph, QuerySpec(gamma, theta))
    edges = []
    result_sets = (list(baseline.maximal_quasi_cliques)
                   + list(baseline.candidate_quasi_cliques))
    for u, v in graph.edges():
        if len(edges) >= 10:
            break
        if not any(u in s and v in s for s in result_sets):
            edges.append((u, v))

    def run_stream():
        start = time.perf_counter()
        for u, v in edges:
            graph.remove_edge(u, v)
            engine.sync(graph)
            engine.query(graph, QuerySpec(gamma, theta))
        return time.perf_counter() - start

    elapsed = run_once(benchmark, run_stream)
    stats = engine.stats()
    row = {
        "dataset": name,
        "updates": len(edges),
        "wall_seconds": round(elapsed, 4),
        "updates_per_second": round(len(edges) / elapsed, 1) if elapsed else float("inf"),
        "cache_hits": stats["cache"]["hits"],
        "entries_retained": stats["dynamic"]["updates"]["entries_retained"],
    }
    attach_rows(benchmark, [row])
    print()
    print(f"{name}: {row['updates_per_second']} update+requery/s "
          f"({row['cache_hits']} warm hits over {row['updates']} updates)")
