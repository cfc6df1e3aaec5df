"""Engine benchmark: cold vs warm query latency and batch throughput.

The query engine's value proposition is that repeated traffic over the same
graph should not pay for preprocessing or enumeration twice.  This benchmark
measures, on registry dataset analogues:

* **cold** — first `MQCEEngine.query()` on a fresh engine (prepare + plan +
  enumerate + filter + cache insert),
* **warm** — the identical query again (plan + cache hit + defensive copy),
  which must be at least an order of magnitude faster, and
* **batch throughput** — a gamma x theta grid repeated through one engine,
  reported as queries per second with the cache hit rate attached.

Run with:  pytest benchmarks/bench_engine_cache.py --benchmark-only

Setting ``REPRO_BENCH_QUICK=1`` shrinks the dataset spread to one small
analogue — the CI smoke-benchmark mode, which keeps the cold/warm speedup
assertion (so cache/planner regressions still fail the job) while staying
inside a pull-request time budget.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.datasets import get_spec, load_prepared
from repro.api import QuerySpec
from repro.engine import MQCEEngine

from _bench_utils import attach_rows, run_once

#: A spread of registry analogues: sparse/social/road-like backgrounds.
#: REPRO_BENCH_QUICK=1 (CI smoke mode) keeps only the fastest one.
DATASETS = (("ca-grqc",) if os.environ.get("REPRO_BENCH_QUICK")
            else ("ca-grqc", "enron", "douban", "kmer"))

#: The warm/cold ratio the engine must beat on at least one dataset
#: (in practice every dataset clears it by 1-2 orders of magnitude).
REQUIRED_SPEEDUP = 10.0


def _cold_and_warm_seconds(name: str) -> tuple[float, float]:
    """Time one cold query and one identical warm query on a fresh engine."""
    spec = get_spec(name)
    prepared = load_prepared(name)
    engine = MQCEEngine()
    start = time.perf_counter()
    query = QuerySpec(spec.default_gamma, spec.default_theta)
    cold_result = engine.query(prepared, query)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    warm_result = engine.query(prepared, query)
    warm = time.perf_counter() - start
    assert warm_result.maximal_quasi_cliques == cold_result.maximal_quasi_cliques
    assert engine.cache.stats.hits == 1
    return cold, warm


@pytest.mark.parametrize("name", DATASETS)
def test_cold_vs_warm_latency(benchmark, name):
    """One cold + one warm query; the row records the per-dataset speedup."""
    cold, warm = run_once(benchmark, _cold_and_warm_seconds, name)
    row = {
        "dataset": name,
        "cold_ms": round(cold * 1000, 3),
        "warm_ms": round(warm * 1000, 3),
        "speedup": round(cold / warm, 1) if warm else float("inf"),
    }
    attach_rows(benchmark, [row])
    print()
    print(f"{name}: cold {row['cold_ms']} ms, warm {row['warm_ms']} ms "
          f"-> {row['speedup']}x")


def test_warm_speedup_meets_target(benchmark):
    """At least one registry dataset must serve warm queries >= 10x faster."""

    def sweep():
        return {name: _cold_and_warm_seconds(name) for name in DATASETS}

    timings = run_once(benchmark, sweep)
    speedups = {name: (cold / warm if warm else float("inf"))
                for name, (cold, warm) in timings.items()}
    attach_rows(benchmark, [{"dataset": name, "speedup": round(value, 1)}
                            for name, value in speedups.items()])
    assert max(speedups.values()) >= REQUIRED_SPEEDUP, speedups


@pytest.mark.parametrize("name", ("ca-grqc", "douban"))
def test_batch_throughput(benchmark, name):
    """A gamma x theta grid, repeated: throughput with and without cache help."""
    spec = get_spec(name)
    prepared = load_prepared(name)
    gammas = (spec.default_gamma, min(1.0, round(spec.default_gamma + 0.02, 3)))
    thetas = (spec.default_theta, max(1, spec.default_theta - 1))
    grid = [QuerySpec(gamma, theta) for gamma in gammas for theta in thetas]
    engine = MQCEEngine()

    def run_batch():
        start = time.perf_counter()
        results = [engine.query(prepared, query) for query in grid * 5]
        elapsed = time.perf_counter() - start
        return len(results), elapsed

    count, elapsed = run_once(benchmark, run_batch)
    stats = engine.stats()
    row = {
        "dataset": name,
        "queries": count,
        "wall_seconds": round(elapsed, 4),
        "queries_per_second": round(count / elapsed, 1) if elapsed else float("inf"),
        "cache_hit_rate": round(stats["cache"]["hit_rate"], 3),
    }
    attach_rows(benchmark, [row])
    # 4 distinct configurations, repeated 5x: everything after round one hits.
    assert stats["cache"]["hits"] == count - len(grid)
    print()
    print(f"{name}: {row['queries_per_second']} q/s over {count} queries "
          f"(hit rate {row['cache_hit_rate']:.0%})")
