"""registry-cold: sequential cold ``MQCEEngine.query`` calls over the registry grid.

One thread, closed loop, ``use_cache=False`` and the default spec
(``parallel="auto"``).  The seed shuffles the grid order of every pass; every
timed pass covers the whole grid, so runs with different seeds do the same
work.  Set-up (building every analogue, preparing it, and one untimed
warm-up pass that also times each dataset's first query) is repeated
:data:`SETUP_REPEATS` times on fresh graph objects and reported as a median.
After each set-up, every dataset is prepared afresh :data:`EXTRA_FIRST`
more times, outside the set-up timing, to add first-query samples.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext

from repro import MQCEEngine, QuerySpec
from repro.datasets.registry import REGISTRY, load_dataset
from repro.engine.prepared import PreparedGraph
from repro.obs import Tracer

from common import (Outcome, Stopwatch, affinity_count, answer_digest, load_digests,
                    log, median, peak_rss_mb, tail)
from grid import point_key, registry_grid
from layers import LayerAccumulator, attribution_check, delayed, query_layers, span_counts

SETUP_REPEATS = 5
EXTRA_FIRST = 2
#: The tail percentile needs enough samples beyond it.
MIN_SAMPLES = 200
#: Busy-wait added to every ``filter_non_maximal`` call by the attribution check.
INJECTED_DELAY = 0.010


class Setup:
    """Fresh graphs, their preparations and an engine that has run the grid once."""

    def __init__(self, outcome: Outcome, grid, digests) -> None:
        start = time.perf_counter()
        with Stopwatch() as build:
            graphs = {name: load_dataset(name) for name in REGISTRY}
        with Stopwatch() as prepare:
            self.prepared = {name: PreparedGraph(graph, name=name).prepare()
                             for name, graph in graphs.items()}
        self.engine = MQCEEngine(workers=affinity_count())
        self.first_query: list[float] = []
        self.defaults = [(name, spec.default_gamma, spec.default_theta)
                         for name, spec in REGISTRY.items()]
        self.first_queries(outcome, digests, self.prepared)
        for point in grid:
            if point not in self.defaults:
                check(outcome, point,
                      self.query(point).maximal_quasi_cliques, digests)
        self.seconds = time.perf_counter() - start
        self.build_seconds = build.seconds
        self.prepare_seconds = prepare.seconds
        for _ in range(EXTRA_FIRST):
            self.first_queries(outcome, digests, {
                name: PreparedGraph(prepared.graph, name=name).prepare()
                for name, prepared in self.prepared.items()})

    def first_queries(self, outcome: Outcome, digests, prepared) -> None:
        """Time each dataset's default query on the given fresh preparations."""
        gc.collect()  # keep earlier garbage out of the timed first queries
        for point in self.defaults:
            began = time.perf_counter()
            answer = self.query(point, prepared=prepared).maximal_quasi_cliques
            self.first_query.append(time.perf_counter() - began)
            check(outcome, point, answer, digests)

    def query(self, point, trace=None, prepared=None):
        name, gamma, theta = point
        return self.engine.query((prepared or self.prepared)[name],
                                 spec=QuerySpec(gamma, theta), use_cache=False, trace=trace)


def check(outcome: Outcome, point, answer, digests) -> None:
    outcome.attempted += 1
    expected = digests.get(point_key(*point))
    if expected is None or answer_digest(answer) != expected:
        outcome.failed += 1
        outcome.fail(f"wrong answer for {point_key(*point)}")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    grid = registry_grid()
    digests = load_digests()["registry-cold"]
    setup_seconds, build_seconds, prepare_seconds, first_query = [], [], [], []
    setup = None
    for _ in range(SETUP_REPEATS):
        setup = None  # release the previous graphs before building new ones
        gc.collect()
        setup = Setup(outcome, grid, digests)
        setup_seconds.append(setup.seconds)
        build_seconds.append(setup.build_seconds)
        prepare_seconds.append(setup.prepare_seconds)
        first_query += setup.first_query
    rng = random.Random(seed)
    order = list(grid)
    if trace:
        _traced(outcome, setup, order, rng, seconds, digests)
        outcome.per_layer["graph.build_s"] = median(build_seconds)
        outcome.per_layer["engine.prepare_ms"] = median(prepare_seconds) * 1000
        return outcome

    latencies, answers = [], []
    gc.collect()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_SAMPLES:
        rng.shuffle(order)
        for point in order:
            began = time.perf_counter()
            answer = setup.query(point).maximal_quasi_cliques
            latencies.append(time.perf_counter() - began)
            answers.append((point, answer))
    wall = time.perf_counter() - start
    for point, answer in answers:
        check(outcome, point, answer, digests)
    tail_pct, tail_value = tail(latencies)
    outcome.end_to_end.update({
        "setup_s": median(setup_seconds),
        "query_p50_ms": median(latencies) * 1000,
        "queries_per_s": len(latencies) / wall,
        "first_query_ms": median(first_query) * 1000,
        "peak_rss_mb": peak_rss_mb(),
    })
    outcome.notes.update(samples=len(latencies), passes=len(latencies) // len(grid),
                         tail=f"p{tail_pct:g}={tail_value * 1000:.3f} ms",
                         grid_points=len(grid))
    return outcome


def _traced(outcome: Outcome, setup: Setup, order, rng, seconds: float,
            digests) -> None:
    """Alternate untraced and traced passes; attribute time; self-check."""
    accumulator = LayerAccumulator()
    counts = {"branches": 0, "candidates": 0, "maximal": 0,
              "shrink_initial": 0, "shrink_refined": 0, "search_s": 0.0}
    start = time.perf_counter()
    pairs = 0
    while pairs < 2 or time.perf_counter() - start < seconds:
        rng.shuffle(order)
        untraced = []
        for point in order:
            began = time.perf_counter()
            answer = setup.query(point).maximal_quasi_cliques
            untraced.append(time.perf_counter() - began)
            check(outcome, point, answer, digests)
        traced_seconds = 0.0
        for point in order:
            tracer = Tracer()
            began = time.perf_counter()
            result = setup.query(point, trace=tracer)
            traced_seconds += time.perf_counter() - began
            check(outcome, point, result.maximal_quasi_cliques, digests)
            root = tracer.as_dict()["spans"][0]
            layers = query_layers(root)
            accumulator.add_query(layers)
            if pairs == 0:
                for name, value in span_counts(root).items():
                    counts[name] += value
                if result.search_statistics is not None:
                    counts["branches"] += result.search_statistics.branches_explored
                counts["search_s"] += layers.get("core.search", 0.0)
        accumulator.add_pair(untraced, traced_seconds)
        pairs += 1
    metrics = accumulator.metrics()
    accumulator.check(outcome)
    metrics.update({
        "core.branches": counts["branches"],
        "core.branches_per_s": counts["branches"] / counts["search_s"]
        if counts["search_s"] else 0.0,
        "core.shrink_kept_ratio": counts["shrink_refined"] / counts["shrink_initial"]
        if counts["shrink_initial"] else 0.0,
        "settrie.maximal_ratio": counts["maximal"] / counts["candidates"]
        if counts["candidates"] else 0.0,
    })
    outcome.per_layer.update(metrics)

    # Attribution self-check: slow the set-trie filter by a fixed busy-wait
    # and require the traced layers to charge the added time to it alone.
    # The cheap default points keep each pass short, so machine drift
    # between a plain pass and its slowed twin stays small.
    subset = setup.defaults

    def run_pass(slow: bool):
        totals, calls = {}, 0
        context = (delayed("repro.pipeline.mqce", "filter_non_maximal", INJECTED_DELAY)
                   if slow else nullcontext())
        with context:
            for point in subset:
                tracer = Tracer()
                setup.query(point, trace=tracer)
                root = tracer.as_dict()["spans"][0]
                calls += any(child["name"] == "filter" for child in root.get("children", ()))
                for name, value in query_layers(root).items():
                    totals[name] = totals.get(name, 0.0) + value
        return totals, calls

    ok, deltas_ms = attribution_check(run_pass, INJECTED_DELAY, "settrie.filter")
    outcome.notes["attribution_deltas_ms"] = deltas_ms
    if not ok:
        outcome.fail(f"attribution self-check failed: {deltas_ms}")
    log(f"attribution self-check {'passed' if ok else 'FAILED'}: "
        f"layer deltas (ms) {deltas_ms}")
