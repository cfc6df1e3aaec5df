"""Tests for the repro.engine query-engine subsystem."""

from __future__ import annotations

import pytest

from repro import Graph, Q, QuerySpec, community_of, run_enumeration
from repro.datasets import dataset_names, get_spec, load_dataset, load_prepared
from repro.engine import (
    EngineError,
    MQCEEngine,
    PlannerConfig,
    PreparedGraph,
    QueryPlanner,
    QueryRequest,
    ResultCache,
    as_plain_graph,
    graph_fingerprint,
    prepare_graph,
)
from repro.extensions.topk import largest_quasi_clique_size
from repro.quasiclique.definitions import ParameterError


@pytest.fixture
def small_graph() -> Graph:
    """A 4-clique plus a pendant vertex."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(3, 4)]
    return Graph(edges=edges)


class TestFingerprint:
    def test_deterministic(self, small_graph):
        assert graph_fingerprint(small_graph) == graph_fingerprint(small_graph)

    def test_invariant_to_edge_insertion_order(self):
        a = Graph(vertices=[0, 1, 2], edges=[(0, 1), (1, 2)])
        b = Graph(vertices=[0, 1, 2], edges=[(1, 2), (0, 1)])
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_sensitive_to_edges_and_labels(self, small_graph):
        other = small_graph.copy()
        other.add_edge(0, 4)
        assert graph_fingerprint(other) != graph_fingerprint(small_graph)
        relabeled = Graph(edges=[("a", "b")])
        plain = Graph(edges=[(0, 1)])
        assert graph_fingerprint(relabeled) != graph_fingerprint(plain)


class TestPreparedGraph:
    def test_artifacts_are_lazy_then_memoized(self, small_graph):
        prepared = PreparedGraph(small_graph)
        assert prepared.materialized_artifacts() == ()
        omega = prepared.degeneracy
        assert omega == 3
        assert "degeneracy" in prepared.materialized_artifacts()
        assert prepared.degeneracy is omega or prepared.degeneracy == omega

    def test_prepare_forces_everything(self, small_graph):
        prepared = PreparedGraph(small_graph).prepare()
        assert set(prepared.materialized_artifacts()) == set(
            prepared.preparation_seconds)
        summary = prepared.summary()
        assert summary["vertices"] == 5
        assert summary["components"] == 1

    def test_core_mask_memoized_per_threshold(self, small_graph):
        prepared = PreparedGraph(small_graph)
        # gamma=0.9/theta=4 and gamma=0.95/theta=4 share ceil(gamma*3)=3.
        assert prepared.core_mask(0.9, 4) == prepared.core_mask(0.95, 4)
        assert prepared.core_size(0.9, 4) == 4  # the pendant vertex is pruned

    def test_size_upper_bound(self, small_graph):
        prepared = PreparedGraph(small_graph)
        # omega=3, gamma=0.5 -> floor(3/0.5)+1 = 7, capped at |V|=5.
        assert prepared.size_upper_bound(0.5) == 5
        assert prepared.size_upper_bound(1.0) == 4

    def test_check_unmodified_detects_mutation(self, small_graph):
        prepared = PreparedGraph(small_graph)
        assert prepared.check_unmodified()
        small_graph.add_edge(0, 4)
        assert not prepared.check_unmodified()

    def test_prepare_graph_idempotent(self, small_graph):
        prepared = prepare_graph(small_graph, name="x")
        assert prepare_graph(prepared) is prepared
        assert as_plain_graph(prepared) is small_graph
        assert as_plain_graph(small_graph) is small_graph


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=4)
        key = ResultCache.make_key("fp", 0.9, 5, "dcfastqc", "hybrid", "dc")
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_gamma_normalisation_in_keys(self):
        from fractions import Fraction

        a = ResultCache.make_key("fp", 0.9, 5, "dcfastqc", "hybrid", "dc")
        b = ResultCache.make_key("fp", Fraction(9, 10), 5, "dcfastqc", "hybrid", "dc")
        assert a == b

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1        # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_clear(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1      # counters survive a plain clear
        cache.clear(reset_stats=True)
        assert cache.stats.hits == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestQueryPlanner:
    def test_plan_reads_only_prepared_artifacts(self, small_graph):
        planner = QueryPlanner()
        prepared = PreparedGraph(small_graph)
        plan = planner.plan(prepared, 0.9, 3)
        assert plan.algorithm in ("fastqc", "dcfastqc")
        assert plan.core_vertices_kept + plan.core_vertices_removed == 5
        assert plan.reasons
        assert "algorithm" in plan.describe()

    def test_small_graph_prefers_plain_fastqc(self, small_graph):
        plan = QueryPlanner().plan(PreparedGraph(small_graph), 0.9, 3)
        assert plan.algorithm == "fastqc"
        assert plan.framework == "none"

    def test_large_graph_prefers_divide_and_conquer(self):
        prepared = load_prepared("ca-grqc")
        plan = QueryPlanner().plan(prepared, 0.9, 7)
        assert plan.algorithm == "dcfastqc"
        assert plan.framework == "dc"
        assert not plan.parallel  # core far below the parallel threshold

    def test_forced_algorithm_and_branching(self, small_graph):
        plan = QueryPlanner().plan(PreparedGraph(small_graph), 0.9, 3,
                                   algorithm="quickplus", branching="se")
        assert plan.algorithm == "quickplus"
        assert plan.branching == "se"
        assert any("forced" in reason for reason in plan.reasons)

    def test_parallel_plan_when_threshold_lowered(self):
        prepared = load_prepared("ca-grqc")
        planner = QueryPlanner(PlannerConfig(parallel_min_vertices=1,
                                             small_graph_vertices=1))
        plan = planner.plan(prepared, 0.9, 7, workers=2)
        assert plan.parallel
        assert plan.workers == 2

    def test_trivial_plan_when_core_too_small(self, small_graph):
        plan = QueryPlanner().plan(PreparedGraph(small_graph), 1.0, 6)
        assert plan.trivial
        assert plan.estimated_cost == 0.0
        assert "TRIVIAL" in plan.describe()

    def test_invalid_parameters_rejected(self, small_graph):
        prepared = PreparedGraph(small_graph)
        with pytest.raises(ParameterError):
            QueryPlanner().plan(prepared, 0.3, 3)
        with pytest.raises(ValueError):
            QueryPlanner().plan(prepared, 0.9, 3, algorithm="bogus")


class TestMQCEEngineQueries:
    @pytest.mark.parametrize("name", dataset_names())
    def test_matches_one_shot_pipeline_on_every_registry_dataset(self, name):
        spec = get_spec(name)
        graph = load_dataset(name)
        reference = run_enumeration(graph, QuerySpec(gamma=spec.default_gamma,
                                                     theta=spec.default_theta))
        engine = MQCEEngine()
        result = engine.query(graph, spec.default_gamma, spec.default_theta)
        assert result.maximal_quasi_cliques == reference.maximal_quasi_cliques

    def test_repeated_query_served_from_cache(self):
        spec = get_spec("douban")
        engine = MQCEEngine()
        prepared = load_prepared("douban")
        first = engine.query(prepared, spec.default_gamma, spec.default_theta)
        second = engine.query(prepared, spec.default_gamma, spec.default_theta)
        assert second.maximal_quasi_cliques == first.maximal_quasi_cliques
        assert engine.cache.stats.hits == 1
        assert engine.cache.stats.misses == 1
        stats = engine.stats()
        assert stats["queries"] == 2
        assert stats["queries_cached"] == 1

    def test_cached_result_copies_are_defensive(self):
        spec = get_spec("twitter")
        engine = MQCEEngine()
        prepared = load_prepared("twitter")
        first = engine.query(prepared, spec.default_gamma, spec.default_theta)
        first.maximal_quasi_cliques.clear()  # vandalise the returned copy
        second = engine.query(prepared, spec.default_gamma, spec.default_theta)
        assert second.maximal_count > 0

    def test_use_cache_false_bypasses_cache(self):
        spec = get_spec("twitter")
        engine = MQCEEngine()
        prepared = load_prepared("twitter")
        engine.query(prepared, spec.default_gamma, spec.default_theta, use_cache=False)
        engine.query(prepared, spec.default_gamma, spec.default_theta, use_cache=False)
        assert len(engine.cache) == 0
        assert engine.cache.stats.lookups == 0

    def test_trivial_query_returns_empty_without_enumeration(self, triangle):
        engine = MQCEEngine()
        result = engine.query(triangle, 1.0, 10)
        assert result.maximal_quasi_cliques == []
        reference = run_enumeration(triangle, QuerySpec(gamma=1.0, theta=10))
        assert result.maximal_quasi_cliques == reference.maximal_quasi_cliques

    def test_parallel_plan_produces_identical_results(self):
        spec = get_spec("douban")
        graph = load_dataset("douban")
        reference = run_enumeration(graph, QuerySpec(gamma=spec.default_gamma,
                                                     theta=spec.default_theta))
        engine = MQCEEngine(planner=QueryPlanner(PlannerConfig(
            parallel_min_vertices=1, small_graph_vertices=1)), workers=2)
        result = engine.query(graph, spec.default_gamma, spec.default_theta)
        assert set(result.maximal_quasi_cliques) == set(reference.maximal_quasi_cliques)

    def test_query_batch_prepares_once_and_caches_duplicates(self):
        spec = get_spec("kmer")
        engine = MQCEEngine()
        requests = [
            QueryRequest(spec.default_gamma, spec.default_theta),
            (spec.default_gamma, spec.default_theta),                 # tuple form
            {"gamma": spec.default_gamma, "theta": spec.default_theta},  # mapping form
            (spec.default_gamma, max(1, spec.default_theta - 1)),
        ]
        results = engine.query_batch(load_dataset("kmer"), requests)
        assert len(results) == 4
        assert results[0].maximal_quasi_cliques == results[1].maximal_quasi_cliques
        assert results[1].maximal_quasi_cliques == results[2].maximal_quasi_cliques
        assert engine.cache.stats.hits == 2
        assert engine.stats()["prepared_graphs"] == 1

    def test_explain_does_not_enumerate_or_cache(self):
        engine = MQCEEngine()
        plan = engine.explain(load_dataset("ca-grqc"), 0.9, 7)
        assert plan.algorithm == "dcfastqc"
        assert len(engine.cache) == 0
        assert engine.stats()["queries"] == 0

    def test_mutated_plain_graph_is_reprepared(self, small_graph):
        engine = MQCEEngine()
        first = engine.prepare(small_graph)
        small_graph.add_edge(0, 4)
        second = engine.prepare(small_graph)
        assert second is not first
        assert second.check_unmodified()

    def test_mutated_prepared_graph_is_rejected(self, small_graph):
        prepared = PreparedGraph(small_graph)
        prepared.fingerprint  # force
        small_graph.add_edge(0, 4)
        with pytest.raises(EngineError):
            MQCEEngine().query(prepared, 0.9, 3)

    def test_transient_graphs_are_not_retained_by_the_engine(self):
        import gc

        engine = MQCEEngine()
        for _ in range(3):
            engine.query(load_dataset("twitter"), 0.9, 5)  # graph dropped each turn
        gc.collect()  # the graph <-> preparation cycle is ordinary garbage
        assert engine.stats()["prepared_graphs"] == 0
        assert engine.cache.stats.hits == 2  # equal content still hits the cache

    def test_plans_are_memoized_per_prepared_graph(self):
        prepared = load_prepared("twitter")
        planner = QueryPlanner()
        first = planner.plan(prepared, 0.9, 5)
        assert planner.plan(prepared, 0.9, 5) is first
        assert planner.plan(prepared, 0.9, 4) is not first

    def test_cache_shared_across_equal_content_graphs(self):
        spec = get_spec("twitter")
        engine = MQCEEngine()
        first = engine.query(load_dataset("twitter"), spec.default_gamma,
                             spec.default_theta)
        # A separately built but identical graph hits the same cache entry.
        second = engine.query(load_dataset("twitter"), spec.default_gamma,
                              spec.default_theta)
        assert engine.cache.stats.hits == 1
        assert second.maximal_quasi_cliques == first.maximal_quasi_cliques


class TestPreparedCoreReuse:
    """Engine queries on an exact preparation reuse its memoized core mask
    instead of re-peeling the graph; dynamic preparations (upper-bound cores)
    still peel.  Either way the run equals the one-shot pipeline's."""

    @staticmethod
    def observed(result, tracer) -> tuple:
        spans = list(tracer.spans)
        while spans[-1].name != "decompose":
            spans.extend(spans.pop().children)
        decompose = spans[-1].attributes
        return (set(result.candidate_quasi_cliques),
                result.search_statistics.branches_explored,
                decompose["core_kept"], decompose["core_removed"])

    @pytest.mark.parametrize("name", ["enron", "pokec"])
    def test_exact_preparation_skips_the_core_peel(self, name, monkeypatch):
        import repro.core.dcfastqc as dcfastqc_module
        from repro.api import QuerySpec
        from repro.dynamic import DynamicEngine
        from repro.obs import Tracer
        from repro.pipeline.mqce import run_enumeration

        graph = load_dataset(name)
        spec = get_spec(name)
        query = QuerySpec(spec.default_gamma, spec.default_theta)
        tracer = Tracer()
        expected = self.observed(run_enumeration(graph, query, tracer=tracer), tracer)
        assert expected[3] > 0  # the core reduction removes vertices here

        peels = []
        peel = dcfastqc_module.k_core_vertices

        def counting_peel(target, k):
            peels.append(k)
            return peel(target, k)

        monkeypatch.setattr(dcfastqc_module, "k_core_vertices", counting_peel)
        tracer = Tracer()
        static = MQCEEngine().query(PreparedGraph(graph), spec=query,
                                    use_cache=False, trace=tracer)
        assert peels == []
        assert self.observed(static, tracer) == expected

        tracer = Tracer()
        dynamic = DynamicEngine(graph.copy()).query(spec=query, use_cache=False,
                                                    trace=tracer)
        assert peels
        assert self.observed(dynamic, tracer) == expected


class TestEngineAwareExtensions:
    def test_topk_accepts_prepared_graph_and_matches_plain(self):
        graph = load_dataset("douban")
        prepared = PreparedGraph(graph)
        plain = Q(graph).gamma(0.9).theta(2).top(2).run()
        # The engine starts the search from the prepared size upper bound.
        via_prepared = Q(prepared).gamma(0.9).theta(2).top(2).run(MQCEEngine())
        assert via_prepared == plain
        assert largest_quasi_clique_size(prepared, 0.9) == len(plain[0])

    def test_containment_accepts_prepared_graph(self):
        graph = load_dataset("twitter")
        prepared = PreparedGraph(graph)
        anchor = next(iter(graph.vertices()))
        plain = Q(graph).gamma(0.9).theta(2).containing(anchor).run()
        via_prepared = Q(prepared).gamma(0.9).theta(2).containing(anchor).run()
        assert via_prepared == plain
        assert community_of(prepared, anchor, 0.9, theta=2) == \
            (plain[0] if plain else frozenset())

    def test_load_prepared_carries_dataset_name(self):
        prepared = load_prepared("kmer")
        assert isinstance(prepared, PreparedGraph)
        assert prepared.name == "kmer"
