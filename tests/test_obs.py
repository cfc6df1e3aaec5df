"""Tests for the observability layer: tracing, metrics, progress hooks."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Graph, MQCEEngine, Q, QuerySpec, prepare_graph
from repro.core.fastqc import FastQC
from repro.core.stats import SearchStatistics
from repro.datasets import load_dataset
from repro.graph.generators import planted_quasi_clique_graph
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    ProgressTicker,
    Tracer,
    counter_snapshot,
    heartbeat,
    peak_rss_bytes,
    validate_chrome_trace,
    validate_chrome_trace_file,
)
from repro.obs.metrics import REGISTRY
from repro.pipeline.mqce import run_enumeration


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def medium_graph():
    return planted_quasi_clique_graph(60, 120, [8, 7, 6], 0.9, seed=11)


# ----------------------------------------------------------------------
# Spans: nesting, counter deltas, pause/resume, null path
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("query"):
            with tracer.span("prepare"):
                pass
            with tracer.span("enumerate"):
                with tracer.span("shrink"):
                    pass
        assert [span.name for span in tracer.spans] == ["query"]
        root = tracer.spans[0]
        assert [child.name for child in root.children] == ["prepare", "enumerate"]
        assert [g.name for g in root.children[1].children] == ["shrink"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [span.name for span in tracer.spans] == ["a", "b"]

    def test_counter_delta(self):
        stats = SearchStatistics()
        tracer = Tracer()
        with tracer.span("enumerate", stats=stats) as span:
            stats.branches_explored += 7
            stats.outputs += 2
        assert span.counters == {"branches_explored": 7, "outputs": 2}

    def test_counter_delta_ignores_unchanged(self):
        stats = SearchStatistics()
        stats.branches_explored = 5
        tracer = Tracer()
        with tracer.span("enumerate", stats=stats) as span:
            pass
        assert span.counters == {}

    def test_callable_stats_resolved_at_exit(self):
        # DCFastQC swaps in a fresh statistics object when a run starts; a
        # callable stats source must observe the new object, not the old one.
        holder = {"stats": SearchStatistics()}
        tracer = Tracer()
        with tracer.span("enumerate", stats=lambda: holder["stats"]) as span:
            holder["stats"] = SearchStatistics()
            holder["stats"].branches_explored = 3
        assert span.counters == {"branches_explored": 3}

    def test_attributes_and_annotate(self):
        tracer = Tracer()
        with tracer.span("plan", algorithm="dcfastqc") as span:
            span.annotate(branching="hybrid")
        assert span.attributes == {"algorithm": "dcfastqc", "branching": "hybrid"}

    def test_pause_stops_the_clock(self):
        tracer = Tracer()
        with tracer.span("enumerate") as span:
            span.pause()
            for _ in range(1000):
                pass
            paused_at = span.seconds
            span.resume()
        assert span.seconds >= paused_at

    def test_seconds_positive_and_elapsed_monotone(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            first = span.elapsed()
            second = span.elapsed()
            assert second >= first >= 0.0
        assert span.seconds > 0.0

    def test_null_tracer_retains_nothing(self):
        stats = SearchStatistics()
        with NULL_TRACER.span("enumerate", stats=stats) as span:
            stats.branches_explored += 4
        assert NULL_TRACER.spans == []
        assert span.counters == {}
        # ...but its spans still time, so callers can reuse span.seconds.
        assert span.seconds > 0.0

    def test_counter_snapshot_skips_non_ints(self):
        stats = SearchStatistics()
        snapshot = counter_snapshot(stats)
        assert "subproblem_sizes" not in snapshot
        assert snapshot["branches_explored"] == 0
        assert counter_snapshot(None) == {}

    def test_coverage_of_full_window(self):
        tracer = Tracer()
        with tracer.span("query"):
            sum(range(200_000))  # real work: exit bookkeeping becomes noise
        assert tracer.coverage() == pytest.approx(1.0, abs=0.05)


# ----------------------------------------------------------------------
# Chrome trace export + schema validation
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_export_is_schema_valid(self):
        tracer = Tracer()
        with tracer.span("query", gamma=0.9):
            with tracer.span("enumerate"):
                pass
        payload = tracer.chrome_trace(pid=1)
        assert validate_chrome_trace(payload) == []
        names = [event["name"] for event in payload["traceEvents"]]
        assert names == ["process_name", "query", "enumerate"]

    def test_child_nested_within_parent_timestamps(self):
        tracer = Tracer()
        with tracer.span("query"):
            with tracer.span("enumerate"):
                pass
        events = {e["name"]: e for e in tracer.chrome_trace(pid=1)["traceEvents"]
                  if e["ph"] == "X"}
        assert events["enumerate"]["ts"] >= events["query"]["ts"]
        assert events["enumerate"]["dur"] <= events["query"]["dur"] * 1.01 + 1

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{}]}) != []
        bad_phase = {"traceEvents": [
            {"name": "x", "ph": "B", "pid": 1, "tid": 0}]}
        assert any(".ph" in error for error in validate_chrome_trace(bad_phase))

    def test_write_and_validate_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(str(path), format="chrome")
        payload = validate_chrome_trace_file(str(path))
        assert payload["displayTimeUnit"] == "ms"

    def test_write_json_format(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(str(path), format="json")
        data = json.loads(path.read_text())
        assert data["spans"][0]["name"] == "query"
        with pytest.raises(ValueError):
            tracer.write(str(path), format="xml")

    def test_invalid_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": "nope"}')
        with pytest.raises(ValueError):
            validate_chrome_trace_file(str(path))


# ----------------------------------------------------------------------
# End-to-end tracing through the pipeline and engine
# ----------------------------------------------------------------------
class TestPipelineTracing:
    def test_run_enumeration_spans(self, medium_graph):
        from repro.api import QuerySpec

        tracer = Tracer()
        result = run_enumeration(medium_graph, QuerySpec(gamma=0.9, theta=5),
                                 tracer=tracer)
        names = [span.name for span in tracer.spans]
        assert names == ["enumerate", "filter"]
        enumerate_span = tracer.spans[0]
        assert enumerate_span.counters.get("branches_explored", 0) > 0
        assert enumerate_span.seconds == result.enumeration_seconds
        assert tracer.spans[1].seconds == result.filtering_seconds

    def test_engine_query_trace_covers_wall_clock(self, medium_graph):
        tracer = Tracer()
        engine = MQCEEngine()
        prepared = prepare_graph(medium_graph)
        result = engine.query(prepared, QuerySpec(0.9, 5), trace=tracer)
        assert result.maximal_count > 0
        assert [span.name for span in tracer.spans] == ["query"]
        root = tracer.spans[0]
        child_names = [child.name for child in root.children]
        assert child_names[0] == "prepare"
        assert "plan" in child_names and "cache" in child_names
        assert "enumerate" in child_names and "filter" in child_names
        # The acceptance bar: root spans cover >= 95% of the traced window.
        assert tracer.coverage() >= 0.95

    def test_engine_cache_hit_trace(self, medium_graph):
        engine = MQCEEngine()
        prepared = prepare_graph(medium_graph)
        engine.query(prepared, QuerySpec(0.9, 5))
        tracer = Tracer()
        engine.query(prepared, QuerySpec(0.9, 5), trace=tracer)
        root = tracer.spans[0]
        assert root.attributes.get("served") == "cache"
        cache_span = next(c for c in root.children if c.name == "cache")
        assert cache_span.attributes == {"hit": True}

    def test_stream_trace_attached(self, medium_graph):
        engine = MQCEEngine()
        stream = engine.stream(prepare_graph(medium_graph), QuerySpec(0.9, 5),
                               trace=(tracer := Tracer()))
        assert stream.tracer is tracer
        results = list(stream)
        assert results
        enumerate_span = tracer.spans[0]
        assert enumerate_span.name == "enumerate"
        assert enumerate_span.attributes.get("streaming") is True
        assert enumerate_span.counters.get("branches_explored", 0) > 0

    def test_containment_and_topk_traced(self, medium_graph):
        tracer = Tracer()
        engine = MQCEEngine()
        prepared = prepare_graph(medium_graph)
        spec = Q(medium_graph).gamma(0.9).theta(4).containing(
            next(iter(medium_graph.vertices()))).spec()
        engine.query(prepared, spec, trace=tracer)
        root = tracer.spans[0]
        names = [child.name for child in root.children]
        assert "enumerate" in names and "filter" in names

        topk_tracer = Tracer()
        spec = Q(medium_graph).gamma(0.9).theta(4).top(2).spec()
        engine.query(prepared, spec, trace=topk_tracer)
        root = topk_tracer.spans[0]
        enumerate_span = next(c for c in root.children if c.name == "enumerate")
        assert enumerate_span.attributes.get("workload") == "topk"
        assert any(c.name == "threshold_round" for c in enumerate_span.children)

    @pytest.mark.parametrize("dataset, gamma, theta", [
        ("enron", 0.85, 6), ("uk2002", 0.9, 7), ("pokec", 0.82, 9)])
    def test_per_root_span_deltas_sum_to_the_run_totals(self, dataset, gamma,
                                                         theta):
        # Conservation: every branch, output and shrink removal of a DC run
        # is counted in exactly one per-root span.
        def spans(span, name):
            if span.name == name:
                yield span
            for child in span.children:
                yield from spans(child, name)

        def summed(name, counter):
            return sum(span.counters.get(counter, 0)
                       for root in tracer.spans for span in spans(root, name))

        tracer = Tracer()
        result = MQCEEngine().query(
            load_dataset(dataset), QuerySpec(gamma, theta, parallel="none"),
            use_cache=False, trace=tracer)
        stats = result.search_statistics
        assert summed("subproblem", "branches_explored") == stats.branches_explored > 0
        assert summed("subproblem", "outputs") == stats.outputs
        assert summed("shrink", "shrink_removed_one_hop") == stats.shrink_removed_one_hop
        assert summed("shrink", "shrink_removed_two_hop") == stats.shrink_removed_two_hop


# ----------------------------------------------------------------------
# Metrics registry + Prometheus exposition
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", "help text")
        counter.inc()
        counter.inc(2, path="live")
        assert counter.value() == 1
        assert counter.value(path="live") == 2

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4

    def test_histogram_observe(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for size in (1, 2, 3, 100):
            histogram.observe(size)
        assert histogram.value().count == 4
        assert histogram.value().max == 100

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(ValueError):
            registry.gauge("dual")

    def test_reset_keeps_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(5)
        registry.reset()
        assert counter.value() == 0
        counter.inc()
        assert registry.counter("c_total").value() == 1

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total", "A demo counter").inc(3, kind="a")
        page = registry.render_prometheus(include_process=False)
        assert "# HELP repro_demo_total A demo counter\n" in page
        assert "# TYPE repro_demo_total counter\n" in page
        assert 'repro_demo_total{kind="a"} 3\n' in page

    def test_prometheus_lists_untouched_families(self):
        # A family registered at import time but never incremented (like
        # repro_serve_coalesced_waiters_total before two clients overlap)
        # is still on the page.
        registry = MetricsRegistry()
        registry.counter("untouched_total", "Never incremented")
        page = registry.render_prometheus(include_process=False)
        assert "# HELP untouched_total Never incremented\n" in page
        assert "# TYPE untouched_total counter\n" in page

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("esc_total").inc(1, path='a"b\\c')
        page = registry.render_prometheus(include_process=False)
        assert 'path="a\\"b\\\\c"' in page

    def test_prometheus_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", "sizes")
        for size in (1, 1, 3, 9):
            histogram.observe(size)
        page = registry.render_prometheus(include_process=False)
        lines = [line for line in page.splitlines() if line.startswith("sizes")]
        # log2 buckets: key 1 covers [1,1] (le=1), key 2 covers [2,3] (le=3),
        # key 8 covers [8,15] (le=15); cumulative counts 2, 3, 4.
        assert 'sizes_bucket{le="1"} 2' in lines
        assert 'sizes_bucket{le="3"} 3' in lines
        assert 'sizes_bucket{le="15"} 4' in lines
        assert 'sizes_bucket{le="+Inf"} 4' in lines
        assert "sizes_sum 14" in lines
        assert "sizes_count 4" in lines

    def test_prometheus_process_gauges(self):
        page = MetricsRegistry().render_prometheus(include_process=True)
        if peak_rss_bytes() is not None:
            assert "repro_process_peak_rss_bytes" in page

    def test_snapshot_merge_round_trip(self):
        source = MetricsRegistry()
        source.counter("c_total").inc(3, op="add")
        source.gauge("g").set(7)
        source.histogram("h").observe(5)
        target = MetricsRegistry()
        target.counter("c_total").inc(1, op="add")
        target.merge(source.snapshot())
        target.merge(source.snapshot())
        assert target.counter("c_total").value(op="add") == 7
        assert target.gauge("g").value() == 7
        assert target.histogram("h").value().count == 2

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(4, kind="x")
        json.dumps(registry.snapshot())


class TestEngineMetrics:
    def test_query_paths_feed_the_global_registry(self, medium_graph):
        queries = REGISTRY.counter("repro_engine_queries_total")
        hits = REGISTRY.counter("repro_cache_hits_total")
        executed_before = queries.value(served="execute")
        cached_before = queries.value(served="cache")
        hits_before = hits.value()
        engine = MQCEEngine()
        prepared = prepare_graph(medium_graph)
        engine.query(prepared, QuerySpec(0.9, 5))
        engine.query(prepared, QuerySpec(0.9, 5))
        assert queries.value(served="execute") == executed_before + 1
        assert queries.value(served="cache") == cached_before + 1
        assert hits.value() == hits_before + 1

    def test_dynamic_sync_metrics(self):
        syncs = REGISTRY.counter("repro_dynamic_syncs_total")
        mutations = REGISTRY.counter("repro_dynamic_mutations_total")
        before = syncs.value()
        mutations_before = mutations.value(op="add_edge")
        graph = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        engine = MQCEEngine()
        engine.prepare(graph)
        graph.add_edge(3, 4)
        engine.sync(graph)
        assert syncs.value() == before + 1
        assert mutations.value(op="add_edge") == mutations_before + 1

    def test_parallel_workers_merge_into_registry(self):
        from repro import DCFastQC, ParallelDCFastQC

        graph = planted_quasi_clique_graph(80, 160, [9, 8, 7], 0.9, seed=29)
        subproblems = REGISTRY.counter("repro_parallel_subproblems_total")
        branches = REGISTRY.counter("repro_parallel_worker_branches_total")
        sizes = REGISTRY.histogram("repro_parallel_subproblem_sizes")
        subproblems_before = subproblems.value()
        branches_before = branches.value()
        sizes_before = sizes.value().count
        parallel = ParallelDCFastQC(graph, 0.9, 6, workers=2)
        result = parallel.enumerate()
        assert set(result) == set(DCFastQC(graph, 0.9, 6).enumerate())
        assert subproblems.value() > subproblems_before
        assert branches.value() >= branches_before
        assert sizes.value().count > sizes_before


# ----------------------------------------------------------------------
# Progress hooks
# ----------------------------------------------------------------------
class TestProgress:
    def test_invalid_period(self):
        with pytest.raises(ValueError):
            ProgressTicker(lambda event: None, every=0)

    def test_fires_every_period(self):
        events = []
        ticker = ProgressTicker(events.append, every=3)
        for depth in range(10):
            ticker.on_branch(depth)
        assert ticker.branches == 10
        assert [event.branches for event in events] == [3, 6, 9]
        assert events[-1].stack_depth == 8

    def test_attach_statistics_first_wins(self):
        aggregate, partial = SearchStatistics(), SearchStatistics()
        aggregate.outputs = 5
        ticker = ProgressTicker(lambda event: None, every=1)
        ticker.attach_statistics(aggregate)
        ticker.attach_statistics(partial)
        assert ticker._statistics is aggregate

    def test_event_counters_snapshot(self):
        stats = SearchStatistics()
        stats.branches_explored = 42
        events = []
        ticker = ProgressTicker(events.append, every=2).attach_statistics(stats)
        ticker.on_branch(1)
        ticker.on_branch(2)
        assert events[0].counters["branches_explored"] == 42

    def test_truthy_return_cancels(self):
        ticker = ProgressTicker(lambda event: True, every=2)
        assert ticker.on_branch(0) is False
        assert ticker.on_branch(1) is True
        assert ticker.cancelled
        # Once cancelled, every subsequent branch reports cancellation.
        assert ticker.on_branch(2) is True

    def test_enumeration_fires_progress(self, medium_graph):
        events = []
        ticker = ProgressTicker(events.append, every=10)
        engine = FastQC(medium_graph, 0.9, 5, progress=ticker)
        engine.enumerate()
        assert ticker.branches == engine.statistics.branches_explored
        assert events
        assert events[-1].counters.get("branches_explored", 0) > 0

    def test_progress_cancellation_truncates(self, medium_graph):
        ticker = ProgressTicker(lambda event: event.branches >= 20, every=10)
        engine = FastQC(medium_graph, 0.9, 5, progress=ticker)
        engine.enumerate()
        assert engine.stopped
        assert ticker.branches < engine.statistics.branches_explored + 20

    def test_heartbeat_output(self, medium_graph):
        out = io.StringIO()
        ticker = heartbeat(every=25, stream=out)
        FastQC(medium_graph, 0.9, 5, progress=ticker).enumerate()
        lines = out.getvalue().splitlines()
        assert lines
        assert lines[0].startswith("progress: 25 branches in ")
        assert "branches/s" in lines[0]

    def test_engine_query_forwards_progress(self, medium_graph):
        events = []
        engine = MQCEEngine()
        engine.query(prepare_graph(medium_graph), QuerySpec(0.9, 5),
                     progress=ProgressTicker(events.append, every=10))
        assert events


# ----------------------------------------------------------------------
# Process helpers + statistics integration
# ----------------------------------------------------------------------
class TestProcess:
    def test_peak_rss_positive_where_available(self):
        rss = peak_rss_bytes()
        if rss is not None:
            assert rss > 1024 * 1024  # any python process exceeds 1 MB

    def test_a_child_reports_its_own_peak_rss_not_its_parents(self):
        """A small process started by a large one reports its own peak."""
        ballast = bytearray(b"x") * (64 << 20)  # resident: every byte written
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = subprocess.run(
            [sys.executable, "-c", "from repro.obs.process import peak_rss_bytes; "
             "print(peak_rss_bytes())"],
            env=env, capture_output=True, text=True, check=True)
        assert int(child.stdout) < len(ballast) < peak_rss_bytes()
        del ballast

    def test_statistics_as_dict_reports_peak_rss(self):
        data = SearchStatistics().as_dict()
        assert "peak_rss_bytes" in data
        if peak_rss_bytes() is not None:
            assert data["peak_rss_bytes"] > 0
