"""Tests for the dynamic subsystem: incremental maintenance + selective invalidation."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro import Graph, MQCEEngine, PreparedGraph, Q
from repro.api import QuerySpec
from repro.dynamic import (
    UpdateError,
    apply_updates,
    normalise_update,
    parse_updates,
)
from repro.graph import core_numbers, degeneracy
from repro.pipeline.mqce import run_enumeration


def clique_edges(labels):
    return list(combinations(labels, 2))


def fresh_answer(graph, gamma, theta):
    """The incremental-vs-rebuild oracle: a from-scratch enumeration."""
    return run_enumeration(graph, QuerySpec(gamma=gamma, theta=theta)).maximal_quasi_cliques


@pytest.fixture
def clique_and_path() -> Graph:
    """A 5-clique (a0..a4) plus a far-away path p0-...-p7 (distance > 2 apart)."""
    graph = Graph(edges=clique_edges([f"a{i}" for i in range(5)]))
    for i in range(7):
        graph.add_edge(f"p{i}", f"p{i + 1}")
    return graph


class TestDynamicPreparedGraph:
    def test_artifacts_match_fresh_preparation(self, clique_and_path):
        prepared = PreparedGraph(clique_and_path).prepare()
        clique_and_path.remove_edge("p2", "p3")
        clique_and_path.add_edge("a0", "p0")
        clique_and_path.remove_vertex("p7")
        prepared.sync()
        assert prepared.check_unmodified()
        assert prepared.core_numbers == core_numbers(clique_and_path)

    def test_fingerprint_tracks_content_not_history(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        prepared = PreparedGraph(graph)
        original = prepared.fingerprint
        graph.add_edge(1, 3)
        assert prepared.fingerprint != original
        graph.remove_edge(1, 3)
        assert prepared.fingerprint == original  # content reverted
        graph.add_edge(3, 4)
        assert prepared.fingerprint != original

    def test_cores_stay_exact_across_edge_records(self, clique_and_path):
        graph = clique_and_path
        prepared = PreparedGraph(graph)
        prepared.core_mask(0.9, 4)  # memoize the 3-core mask before the edits
        for op, u, v in [("add_edge", "p0", "p2"), ("add_edge", "p1", "p3"),
                         ("add_edge", "p0", "p3"), ("remove_edge", "a0", "a1"),
                         ("remove_edge", "p0", "p2"), ("add_edge", "a0", "a1")]:
            getattr(graph, op)(u, v)
            assert prepared.core_numbers == core_numbers(graph)
            assert prepared.degeneracy == degeneracy(graph)
            assert prepared.core_mask(0.9, 4) == graph.mask_of(
                label for label, core in core_numbers(graph).items() if core >= 3)

    def test_memoized_artifacts_survive_pre_sync_reads(self, clique_and_path):
        # A read between a direct graph mutation and the engine's sync
        # replays the changelog into the preparation; the engine's own sync
        # must still see the mutation.
        engine = MQCEEngine()
        engine.query(clique_and_path, QuerySpec(0.9, 3))
        prepared = engine.prepare(clique_and_path)
        clique_and_path.remove_vertex("a4")
        assert "a4" not in prepared.core_numbers
        report = engine.sync(clique_and_path)
        assert report.removed_vertices == 1 and report.invalidated == 1
        result = engine.query(clique_and_path, QuerySpec(0.9, 3))
        assert result.maximal_quasi_cliques == fresh_answer(clique_and_path, 0.9, 3)


class TestSelectiveInvalidation:
    def test_far_removal_retains_entry_and_serves_warm(self, clique_and_path):
        engine = MQCEEngine()
        first = engine.query(clique_and_path, QuerySpec(0.9, 3))
        hits = engine.cache.stats.hits
        clique_and_path.remove_edge("p3", "p4")
        report = engine.sync(clique_and_path)
        assert report.invalidated == 0
        assert report.retained == 1
        assert report.rekeyed == 1
        second = engine.query(clique_and_path, QuerySpec(0.9, 3))
        # The retained entry (re-addressed to the new fingerprint) must serve
        # the repeat without re-enumerating: the hit counter proves it.
        assert engine.cache.stats.hits == hits + 1
        assert second.maximal_quasi_cliques == first.maximal_quasi_cliques
        assert second.maximal_quasi_cliques == fresh_answer(clique_and_path, 0.9, 3)

    def test_far_sparse_addition_retains_entry(self, clique_and_path):
        engine = MQCEEngine()
        engine.query(clique_and_path, QuerySpec(0.9, 3))
        hits = engine.cache.stats.hits
        clique_and_path.add_edge("p0", "p6")  # ball is a tree: no new QC possible
        report = engine.sync(clique_and_path)
        assert report.invalidated == 0 and report.retained == 1
        result = engine.query(clique_and_path, QuerySpec(0.9, 3))
        assert engine.cache.stats.hits == hits + 1
        assert result.maximal_quasi_cliques == fresh_answer(clique_and_path, 0.9, 3)

    def test_removal_inside_result_invalidates(self, clique_and_path):
        engine = MQCEEngine()
        engine.query(clique_and_path, QuerySpec(0.9, 3))
        clique_and_path.remove_edge("a0", "a1")
        report = engine.sync(clique_and_path)
        assert report.invalidated == 1
        result = engine.query(clique_and_path, QuerySpec(0.9, 3))
        assert result.maximal_quasi_cliques == fresh_answer(clique_and_path, 0.9, 3)

    def test_addition_creating_new_answer_invalidates(self, clique_and_path):
        engine = MQCEEngine()
        baseline = engine.query(clique_and_path, QuerySpec(0.9, 3))
        assert len(baseline.maximal_quasi_cliques) == 1
        # Close a triangle on the path: a brand-new maximal QC appears in a
        # region no previous result touches — the ball-core rule must catch it.
        clique_and_path.add_edge("p1", "p3")
        report = engine.sync(clique_and_path)
        assert report.invalidated == 1
        result = engine.query(clique_and_path, QuerySpec(0.9, 3))
        expected = fresh_answer(clique_and_path, 0.9, 3)
        assert result.maximal_quasi_cliques == expected
        assert frozenset({"p1", "p2", "p3"}) in result.maximal_quasi_cliques

    def test_vertex_addition_only_touches_theta_one(self, clique_and_path):
        engine = MQCEEngine()
        engine.query(clique_and_path, QuerySpec(0.9, 3))
        engine.query(clique_and_path, QuerySpec(0.9, 1))
        clique_and_path.add_vertex("lonely")
        report = engine.sync(clique_and_path)
        assert report.invalidated == 1  # the theta=1 entry only
        assert report.retained == 1
        for theta in (1, 3):
            assert (engine.query(clique_and_path, QuerySpec(0.9, theta)).maximal_quasi_cliques
                    == fresh_answer(clique_and_path, 0.9, theta))

    def test_vertex_removal_invalidates_touching_entries(self, clique_and_path):
        engine = MQCEEngine()
        engine.query(clique_and_path, QuerySpec(0.9, 3))
        clique_and_path.remove_vertex("a4")
        report = engine.sync(clique_and_path)
        assert report.invalidated == 1
        assert (engine.query(clique_and_path, QuerySpec(0.9, 3)).maximal_quasi_cliques
                == fresh_answer(clique_and_path, 0.9, 3))

    def test_containment_entry_survives_far_mutation(self, clique_and_path):
        engine = MQCEEngine()
        spec = QuerySpec(gamma=0.9, theta=3, contains=("a0",))
        first = engine.query(clique_and_path, spec)
        hits = engine.cache.stats.hits
        clique_and_path.remove_edge("p5", "p6")
        report = engine.sync(clique_and_path)
        assert report.invalidated == 0 and report.retained == 1
        assert (engine.query(clique_and_path, spec).maximal_quasi_cliques
                == first.maximal_quasi_cliques)
        assert engine.cache.stats.hits == hits + 1

    def test_multiple_entries_split_by_region(self, clique_and_path):
        # Two disjoint result regions via containment specs; mutating one
        # region must only invalidate its entry.
        for u, v in clique_edges([f"p{i}" for i in range(3)]):
            clique_and_path.add_edge(u, v)  # make p0..p2 a triangle
        engine = MQCEEngine()
        spec_a = QuerySpec(gamma=0.9, theta=3, contains=("a0",))
        spec_p = QuerySpec(gamma=0.9, theta=3, contains=("p1",))
        engine.query(clique_and_path, spec_a)
        engine.query(clique_and_path, spec_p)
        clique_and_path.remove_edge("a0", "a1")
        report = engine.sync(clique_and_path)
        assert report.invalidated == 1
        assert report.retained == 1
        for spec in (spec_a, spec_p):
            assert engine.query(clique_and_path, spec).maximal_quasi_cliques


class TestDynamicEngineLifecycle:
    def test_direct_graph_mutation_is_synced_on_query(self, clique_and_path):
        engine = MQCEEngine()
        engine.query(clique_and_path, QuerySpec(0.9, 3))
        clique_and_path.remove_edge("a0", "a1")
        result = engine.query(clique_and_path, QuerySpec(0.9, 3))
        assert engine.update_stats.syncs == 1
        assert engine.update_stats.entries_invalidated == 1
        assert result.maximal_quasi_cliques == fresh_answer(clique_and_path, 0.9, 3)

    def test_delta_gap_falls_back_to_full_rebuild(self):
        graph = Graph(edges=clique_edges(range(5)), delta_capacity=4)
        engine = MQCEEngine()
        engine.query(graph, QuerySpec(0.9, 3))
        for i in range(6):
            graph.add_edge(10 + i, 11 + i)  # overflow the tiny changelog
        report = engine.sync(graph)
        assert report.full_rebuild
        assert engine.update_stats.full_rebuilds == 1
        assert (engine.query(graph, QuerySpec(0.9, 3)).maximal_quasi_cliques
                == fresh_answer(graph, 0.9, 3))

    def test_apply_batch_and_report(self, clique_and_path):
        engine = MQCEEngine()
        engine.prepare(clique_and_path)
        apply_updates(clique_and_path, [
            ("add", "x", "y"),
            ("remove", "p0", "p1"),
            ("add-vertex", "z"),
            ("remove-vertex", "x"),
        ])
        report = engine.sync(clique_and_path)
        assert report.added_edges == 1
        assert report.removed_edges == 2  # explicit one + x-y via remove-vertex
        assert report.added_vertices == 3  # x, y, z
        assert report.removed_vertices == 1
        assert "z" in clique_and_path and "x" not in clique_and_path

    def test_noop_sync_is_cheap_and_stable(self, triangle):
        engine = MQCEEngine()
        fingerprint = engine.prepare(triangle).fingerprint
        report = engine.sync(triangle)
        assert report.mutations == 0
        assert report.new_fingerprint == fingerprint
        assert engine.update_stats.syncs == 0  # no-ops are not counted

    def test_stats_surface(self, clique_and_path):
        engine = MQCEEngine()
        engine.query(clique_and_path, QuerySpec(0.9, 3))
        clique_and_path.remove_edge("p0", "p1")
        engine.sync(clique_and_path)
        stats = engine.stats()
        assert stats["dynamic"]["updates"]["syncs"] == 1
        assert stats["dynamic"]["updates"]["operations"] == {"remove_edge": 1}
        assert stats["dynamic"]["indexed_entries"] == 1
        assert "queries" in stats  # the query counters sit beside the block

    def test_builder_integration(self, clique_and_path):
        engine = MQCEEngine()
        builder = Q(clique_and_path).gamma(0.9).theta(3)
        builder.run(engine=engine)
        clique_and_path.add_edge("p1", "p3")
        result = builder.run(engine=engine)
        assert result.maximal_quasi_cliques == fresh_answer(clique_and_path, 0.9, 3)
        streamed = list(builder.stream(engine=engine))
        assert frozenset(streamed) == frozenset(result.maximal_quasi_cliques)

    def test_stream_entries_join_index_on_next_sync(self, clique_and_path):
        engine = MQCEEngine()
        # A stream that completes populates the cache.
        list(engine.stream(clique_and_path, QuerySpec(0.9, 3)))
        clique_and_path.remove_edge("p6", "p7")
        report = engine.sync(clique_and_path)  # reconcile happens here
        assert report.entries_before == 1
        assert report.retained == 1

    def test_repeated_spec_is_served_from_cache(self, clique_and_path):
        engine = MQCEEngine()
        results = [engine.query(clique_and_path, QuerySpec(0.9, theta))
                   for theta in (3, 4, 3)]
        assert results[0].maximal_quasi_cliques == results[2].maximal_quasi_cliques
        assert engine.cache.stats.hits == 1


class TestSharedPreparation:
    """Engines that share one graph's preparation never serve a stale answer."""

    def test_other_engine_sync_never_serves_stale(self, clique_and_path):
        graph = clique_and_path
        touched, far = QuerySpec(gamma=0.9, theta=3), QuerySpec(gamma=0.9, theta=5)
        engine_a, engine_b = MQCEEngine(), MQCEEngine()
        for engine in (engine_a, engine_b):
            for spec in (touched, far):
                engine.query(graph, spec)
        assert engine_a.prepare(graph) is engine_b.prepare(graph)

        graph.add_edge("p1", "p3")  # a new answer: the triangle p1-p2-p3
        assert engine_a.sync(graph).invalidated == 1
        fresh = fresh_answer(graph, 0.9, 3)
        assert frozenset({"p1", "p2", "p3"}) in fresh
        assert engine_b.query(graph, touched).maximal_quasi_cliques == fresh
        assert set(engine_b.stream(graph, touched)) == set(fresh)

        graph.remove_edge("p1", "p3")  # revert: the old fingerprint is back
        engine_a.sync(graph)
        hits = engine_b.cache.stats.hits
        for spec in (touched, far):
            assert (engine_b.query(graph, spec).maximal_quasi_cliques
                    == fresh_answer(graph, spec.gamma, spec.theta))
        # The far entry was computed before the mutation and survived both syncs.
        assert engine_b.cache.stats.hits == hits + 1


class TestUpdateParsing:
    def test_parse_script_with_comments(self):
        updates = parse_updates([
            "# header", "", "add 1 2", "- 3 4", "add-vertex x", "remove-vertex 5  # eol",
        ])
        assert [u.op for u in updates] == ["add_edge", "remove_edge",
                                           "add_vertex", "remove_vertex"]
        assert updates[0] == ("add_edge", 1, 2)
        assert updates[2].u == "x"

    def test_labels_coerced_like_edge_lists(self):
        update = normalise_update(("add", "7", "seven"))
        assert update.u == 7 and update.v == "seven"

    def test_unknown_operation_rejected(self):
        with pytest.raises(UpdateError):
            normalise_update(("frobnicate", 1, 2))

    def test_wrong_arity_rejected(self):
        with pytest.raises(UpdateError):
            normalise_update(("add", 1))
        with pytest.raises(UpdateError):
            parse_updates(["remove-vertex 1 2"])

    def test_parse_error_reports_line_number(self):
        with pytest.raises(UpdateError, match="line 2"):
            parse_updates(["add 1 2", "bogus 3 4"])


class TestStaleCacheRegression:
    """Mutating a graph after preparation must never serve stale cached results."""

    def test_count_restoring_mutation_is_detected(self):
        # add+remove restores (|V|, |E|) — the historical snapshot missed this.
        graph = Graph(edges=clique_edges(range(5)) + [(10, 11), (11, 12)])
        engine = MQCEEngine()
        first = engine.query(graph, QuerySpec(0.9, 3))
        assert frozenset(range(5)) in first.maximal_quasi_cliques
        graph.remove_edge(0, 1)
        graph.add_edge(10, 12)  # counts are back to the snapshot values
        second = engine.query(graph, QuerySpec(0.9, 3))
        assert second.maximal_quasi_cliques == fresh_answer(graph, 0.9, 3)
        assert frozenset(range(5)) not in second.maximal_quasi_cliques
        assert frozenset({10, 11, 12}) in second.maximal_quasi_cliques

    def test_explicit_prepared_graph_synced_after_count_restoring_mutation(self):
        graph = Graph(edges=clique_edges(range(4)) + [(8, 9), (9, 10)])
        prepared = PreparedGraph(graph)
        engine = MQCEEngine()
        engine.query(prepared, QuerySpec(0.9, 3))
        graph.remove_edge(0, 1)
        graph.add_edge(8, 10)  # counts restored, content changed
        assert not prepared.check_unmodified()
        answer = engine.query(prepared, QuerySpec(0.9, 3)).maximal_quasi_cliques
        assert answer == fresh_answer(graph, 0.9, 3)
        assert frozenset({8, 9, 10}) in answer

    def test_completed_stream_does_not_cache_across_mutation(self):
        graph = Graph(edges=clique_edges(range(5)))
        engine = MQCEEngine()
        stream = engine.stream(graph, QuerySpec(0.9, 3))
        next(stream)
        graph.add_edge(0, 99)  # mutate mid-stream
        list(stream)  # drain; must refuse to cache under the old fingerprint
        assert len(engine.cache) == 0

    def test_stream_across_engine_mediated_mutation_does_not_poison_cache(self):
        # A mid-stream sync advances the preparation, so the stream cannot
        # rely on the preparation's version: it must gate caching on the graph
        # version it derived its key from.
        graph = Graph(edges=clique_edges(range(6)) + clique_edges(range(10, 17)))
        engine = MQCEEngine()
        stream = engine.stream(graph, QuerySpec(0.9, 4, algorithm="dcfastqc"))
        next(stream)
        graph.remove_edge(10, 11)
        engine.sync(graph)  # re-snapshots mid-stream
        list(stream)
        assert len(engine.cache) == 0
        graph.add_edge(10, 11)  # revert: the old fingerprint matches again
        answer = engine.query(graph, QuerySpec(0.9, 4)).maximal_quasi_cliques
        assert frozenset(range(10, 17)) in answer
        assert answer == fresh_answer(graph, 0.9, 4)
