"""Property-based update-sequence tests: the incremental-vs-rebuild oracle.

Random insert/delete sequences are applied to a graph an
:class:`~repro.engine.MQCEEngine` serves; after **every** mutation the
engine's answer must be byte-identical to a fresh-from-scratch enumeration of
the current graph, and the incrementally patched artifacts must match their
recomputed counterparts.  This is the
strongest guarantee the dynamic subsystem makes: selective invalidation may
retain as many cache entries as it likes, but it must never change an answer.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import Graph, MQCEEngine
from repro.api import QuerySpec
from repro.datasets import load_dataset
from repro.dynamic import DynamicEngine
from repro.graph import core_numbers, degeneracy, k_core_vertices
from repro.pipeline.mqce import run_enumeration
from repro.quasiclique.definitions import degree_threshold

gammas = st.sampled_from([0.5, 0.6, 0.8, 0.9, 1.0])
thetas = st.integers(min_value=1, max_value=4)


def random_mutation(rng: random.Random, graph: Graph, next_label: list[int]):
    """Pick one applicable random mutation and apply it; returns its kind."""
    choices = ["add_edge", "add_vertex"]
    if graph.edge_count > 0:
        choices.append("remove_edge")
    if graph.vertex_count > 1:
        choices.append("remove_vertex")
    kind = rng.choice(choices)
    if kind == "add_edge":
        vertices = graph.vertices()
        absent = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
                  if not graph.has_edge(u, v)]
        if absent:
            graph.add_edge(*rng.choice(absent))
        else:  # complete graph: grow it instead
            graph.add_edge(rng.choice(vertices), next_label[0])
            next_label[0] += 1
    elif kind == "add_vertex":
        graph.add_vertex(next_label[0])
        next_label[0] += 1
    elif kind == "remove_edge":
        graph.remove_edge(*rng.choice(graph.edges()))
    else:
        graph.remove_vertex(rng.choice(graph.vertices()))
    return kind


def fresh_answer(graph: Graph, gamma, theta):
    return run_enumeration(graph, QuerySpec(gamma=gamma, theta=theta)).maximal_quasi_cliques


def canon(collection_of_sets):
    """Order-insensitive canonical form of a collection of vertex sets."""
    return sorted(sorted(map(str, vertex_set)) for vertex_set in collection_of_sets)


class TestUpdateSequenceOracle:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=3, max_value=8),
           edge_seed=st.integers(min_value=0, max_value=2 ** 20),
           mutation_seed=st.integers(min_value=0, max_value=2 ** 20),
           steps=st.integers(min_value=1, max_value=8),
           gamma=gammas, theta=thetas)
    def test_answers_match_fresh_enumeration_after_every_mutation(
            self, n, edge_seed, mutation_seed, steps, gamma, theta):
        rng = random.Random(edge_seed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [pair for pair in pairs if rng.random() < 0.5]
        graph = Graph(edges=edges, vertices=range(n))
        engine = MQCEEngine()
        assert (engine.query(graph, QuerySpec(gamma, theta)).maximal_quasi_cliques
                == fresh_answer(graph, gamma, theta))
        rng = random.Random(mutation_seed)
        next_label = [n + 100]
        for _ in range(steps):
            random_mutation(rng, graph, next_label)
            produced = engine.query(graph, QuerySpec(gamma, theta)).maximal_quasi_cliques
            assert produced == fresh_answer(graph, gamma, theta)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=3, max_value=9),
           seed=st.integers(min_value=0, max_value=2 ** 20),
           steps=st.lists(st.sampled_from(["toggle", "vertex", "batch"]),
                          min_size=1, max_size=12),
           gamma=gammas, theta=thetas)
    def test_patched_artifacts_match_recomputation(self, n, seed, steps, gamma, theta):
        """Single-edge toggles take the core traversal; vertex records and
        multi-record batches drop the cores for an exact recompute."""
        rng = random.Random(seed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graph = Graph(edges=[p for p in pairs if rng.random() < 0.5],
                      vertices=range(n))
        engine = MQCEEngine()
        prepared = engine.prepare(graph).prepare()
        next_label = [n + 100]
        for step in steps:
            prepared.core_mask(gamma, theta)  # memoized, so the sync patches it
            if step == "toggle" and graph.vertex_count > 1:
                u, v = rng.sample(graph.vertices(), 2)
                (graph.remove_edge if graph.has_edge(u, v) else graph.add_edge)(u, v)
            elif step == "vertex":
                if graph.vertex_count > 1 and rng.random() < 0.5:
                    graph.remove_vertex(rng.choice(graph.vertices()))
                else:
                    graph.add_vertex(next_label[0])
                    next_label[0] += 1
            else:
                for _ in range(rng.randint(2, 3)):
                    random_mutation(rng, graph, next_label)
            engine.sync(graph)
            assert prepared.check_unmodified()
            assert prepared.core_numbers == core_numbers(graph)
            assert prepared.degeneracy == degeneracy(graph)
            exact_core = k_core_vertices(graph, degree_threshold(gamma, theta))
            assert prepared.core_mask(gamma, theta) == graph.mask_of(exact_core)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 20),
           gamma=gammas, theta=st.integers(min_value=2, max_value=3))
    def test_mixed_workloads_stay_correct_across_updates(self, seed, gamma, theta):
        """Top-k and containment entries must also survive or die correctly."""
        rng = random.Random(seed)
        n = 8
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graph = Graph(edges=[p for p in pairs if rng.random() < 0.45],
                      vertices=range(n))
        engine = MQCEEngine()
        topk = QuerySpec(gamma=gamma, theta=theta, k=2)
        next_label = [n + 100]
        for _ in range(5):
            random_mutation(rng, graph, next_label)
            produced = engine.query(graph, topk).maximal_quasi_cliques
            fresh = run_enumeration(graph, QuerySpec(gamma=gamma, theta=theta))
            from repro.pipeline.mqce import canonical_order

            expected = canonical_order(fresh.maximal_quasi_cliques)[:2]
            assert produced == expected
            if graph.vertex_count:
                seedling = graph.vertices()[0]
                contains = QuerySpec(gamma=gamma, theta=theta, contains=(seedling,))
                produced_containment = engine.query(graph, contains).maximal_quasi_cliques
                expected_containment = [
                    clique for clique in fresh.maximal_quasi_cliques
                    if seedling in clique]
                assert canon(produced_containment) == canon(expected_containment)


class TestExactCoresRegression:
    def test_pokec_core_is_exact_after_random_insertions(self):
        """Three seeded random insertions leave the planner's core exact.

        Upper-bound cores reported 174 of pokec's 360 vertices here, against
        an exact 25."""
        graph = load_dataset("pokec")
        engine = DynamicEngine(graph)
        rng = random.Random(7)
        vertices = graph.vertices()
        inserted = 0
        while inserted < 3:
            u, v = rng.sample(vertices, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                inserted += 1
        exact = len(k_core_vertices(graph, degree_threshold(0.9, 10)))
        assert engine.explain(graph, QuerySpec(0.9, 10)).core_vertices_kept == exact
