"""skew-parallel: one giant DC subproblem on a 10^5-vertex CSR graph.

A child process (``skew_generate.py``) writes the planted-skew graph as an
edge list; this process loads it with ``ingest_edge_list``, so it never holds
the dict graph.  Queries are cold ``MQCEEngine(workers=<affinity count>)``
calls with ``parallel="auto"`` and ``use_cache=False``.  Set-up (generate,
ingest, prepare) runs :data:`SETUP_REPEATS` times; after the last one, the
first query on the freshly prepared graph is timed on its own (it runs
sequentially, before the planner has observed the branch histogram, and takes
about three warm queries' time, so one sample per run keeps the run short).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time

from repro import MQCEEngine, QuerySpec
from repro.engine.prepared import PreparedGraph
from repro.graph.io import ingest_edge_list
from repro.obs import Tracer

from common import (BENCH_DIR, SRC, WORK_DIR, Outcome, Stopwatch, affinity_count,
                    answer_digest, load_digests, median, peak_rss_mb)
from layers import (LayerAccumulator, Timings, patched, query_layers,
                    timing_wrappers)

SETUP_REPEATS = 3
GAMMA, THETA = 0.9, 10
MIN_QUERIES = 5
GENERATOR_TIMEOUT = 120


def generate(seed: int, path) -> float:
    """Run the generator child; returns its own generation seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "skew_generate.py"),
         "--seed", str(seed), "--out", str(path)],
        env=env, capture_output=True, text=True, timeout=GENERATOR_TIMEOUT, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])["seconds"]


def check(outcome: Outcome, answer, expected: str) -> None:
    outcome.attempted += 1
    if answer_digest(answer) != expected:
        outcome.failed += 1
        outcome.fail("wrong skew-parallel answer")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    expected = load_digests()["skew-parallel"]
    spec = QuerySpec(GAMMA, THETA)
    WORK_DIR.mkdir(exist_ok=True)
    setup_s, build_s, ingest_s, prepare_s = [], [], [], []
    prepared = None
    for repeat in range(SETUP_REPEATS):
        prepared = None  # drop the previous graph (a reference cycle) first
        gc.collect()
        path = WORK_DIR / f"skew-{seed}-{repeat}.edges"
        try:
            with Stopwatch() as setup:
                build_s.append(generate(seed, path))
                with Stopwatch() as ingest:
                    graph = ingest_edge_list(path)
                path.unlink()
                with Stopwatch() as prepare:
                    prepared = PreparedGraph(graph, name="planted-skew").prepare()
                del graph
        finally:
            if path.exists():
                path.unlink()
        setup_s.append(setup.seconds)
        ingest_s.append(ingest.seconds)
        prepare_s.append(prepare.seconds)
    engine = MQCEEngine(workers=affinity_count())
    gc.collect()
    began = time.perf_counter()
    answer = engine.query(prepared, spec=spec, use_cache=False).maximal_quasi_cliques
    first_query = time.perf_counter() - began
    check(outcome, answer, expected)

    if trace:
        _traced(outcome, engine, prepared, spec, seconds, expected)
        outcome.per_layer.update({
            "graph.build_s": median(build_s),
            "graph.ingest_s": median(ingest_s),
            "engine.prepare_ms": median(prepare_s) * 1000,
        })
        return outcome

    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_QUERIES:
        began = time.perf_counter()
        answer = engine.query(prepared, spec=spec, use_cache=False).maximal_quasi_cliques
        latencies.append(time.perf_counter() - began)
        check(outcome, answer, expected)
    wall = time.perf_counter() - start
    outcome.end_to_end.update({
        "setup_s": median(setup_s),
        "query_p50_ms": median(latencies) * 1000,
        "queries_per_s": len(latencies) / wall,
        "first_query_ms": first_query * 1000,
        "peak_rss_mb": peak_rss_mb(),
    })
    outcome.notes.update(samples=len(latencies), workers=affinity_count(),
                         parallel=engine.stats().get("parallel", {}).get("mode"),
                         setup_s=[round(s, 3) for s in setup_s],
                         latencies_ms=[round(s * 1000) for s in latencies])
    return outcome


def _traced(outcome: Outcome, engine, prepared, spec, seconds: float,
            expected: str) -> None:
    accumulator = LayerAccumulator()
    timings = Timings()
    parallel = {"steals": [], "utilization": [], "busiest": [], "search_s": [],
                "branches": 0}
    start = time.perf_counter()
    pairs = 0
    while pairs < 2 or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        answer = engine.query(prepared, spec=spec, use_cache=False).maximal_quasi_cliques
        untraced = time.perf_counter() - began
        check(outcome, answer, expected)
        tracer = Tracer()
        timings.seconds.clear()
        with patched(timing_wrappers(timings)):
            began = time.perf_counter()
            result = engine.query(prepared, spec=spec, use_cache=False, trace=tracer)
            traced = time.perf_counter() - began
        check(outcome, result.maximal_quasi_cliques, expected)
        root = tracer.as_dict()["spans"][0]
        enumerate_span = next(c for c in root["children"] if c["name"] == "enumerate")
        mode = enumerate_span.get("attributes", {}).get("mode")
        run_stats = engine.stats().get("parallel", {}) if mode in ("shard", "branch") else {}
        layers = query_layers(root, dict(timings.seconds), run_stats.get("wall_seconds"))
        accumulator.add_query(layers)
        accumulator.add_pair([untraced], traced)
        if run_stats:
            parallel["steals"].append(run_stats["steals"])
            parallel["utilization"].append(run_stats["parallel_utilization"])
            parallel["busiest"].append(max(run_stats["worker_branches"].values(), default=0))
            # Search time is the workers' busy time, summed over workers.
            parallel["search_s"].append(run_stats["busy_seconds"])
        else:
            parallel["search_s"].append(layers.get("core.search", 0.0))
        parallel["branches"] = result.search_statistics.branches_explored
        pairs += 1
    metrics = accumulator.metrics()
    accumulator.check(outcome)
    outcome.per_layer.update(metrics)
    search_s = median(parallel["search_s"])
    outcome.per_layer.update({
        "core.search_ms": search_s * 1000,
        "core.branches": parallel["branches"],
        "core.branches_per_s": parallel["branches"] / search_s if search_s else 0.0,
        "parallel.steals": median(parallel["steals"]),
        "parallel.utilization": median(parallel["utilization"]),
        "parallel.busiest_worker_branches": median(parallel["busiest"]),
    })
