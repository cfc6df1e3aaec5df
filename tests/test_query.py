"""Tests for query-driven quasi-clique search (the containment workload)."""

from __future__ import annotations

import random

import pytest

from repro import Graph, Q, QuerySpec, community_of
from repro.api import containment_search
from repro.extensions import QueryError
from repro.graph.generators import erdos_renyi_gnp, planted_quasi_clique_graph
from repro.quasiclique import enumerate_maximal_quasi_cliques_bruteforce, is_quasi_clique


class TestFindContaining:
    def test_empty_query_rejected(self, triangle):
        with pytest.raises(QueryError):
            containment_search(triangle, QuerySpec(gamma=0.9))

    def test_unknown_vertex_rejected(self, triangle):
        from repro import GraphError

        with pytest.raises(GraphError):
            Q(triangle).gamma(0.9).containing(42).run()

    def test_single_query_in_clique(self, clique5):
        found = Q(clique5).gamma(1.0).theta(3).containing(2).run()
        assert found == [frozenset(range(5))]

    def test_query_pair_in_different_triangles(self, two_triangles):
        assert Q(two_triangles).gamma(0.9).theta(2).containing(0, 3).run() == []

    def test_all_results_contain_query_and_are_qcs(self, paper_figure1):
        for query in ([1], [2, 3], [5]):
            for gamma in (0.6, 0.9):
                found = Q(paper_figure1).gamma(gamma).theta(2).containing(*query).run()
                for clique in found:
                    assert set(query) <= clique
                    assert is_quasi_clique(paper_figure1, clique, gamma)

    def test_contains_every_maximal_qc_with_query(self):
        rng = random.Random(501)
        for trial in range(12):
            graph = erdos_renyi_gnp(9, rng.uniform(0.3, 0.8), seed=2300 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            theta = rng.randint(1, 3)
            query_vertex = rng.choice(graph.vertices())
            expected = [m for m in enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta)
                        if query_vertex in m]
            found = Q(graph).gamma(gamma).theta(theta).containing(query_vertex).run()
            for mqc in expected:
                assert mqc in found, (
                    f"trial {trial}: missing {sorted(mqc)} for query {query_vertex}")

    def test_non_maximal_mode_returns_more(self, clique5):
        query = Q(clique5).gamma(1.0).theta(2).containing(0)
        maximal = query.run()
        everything = query.any_quasi_clique().run()
        assert len(everything) >= len(maximal)

    def test_results_sorted_by_size(self):
        graph = planted_quasi_clique_graph(30, 40, [8], 0.9, seed=7)
        found = Q(graph).gamma(0.85).theta(3).containing(0).run()
        sizes = [len(h) for h in found]
        assert sizes == sorted(sizes, reverse=True)


class TestCommunityOf:
    def test_member_of_planted_community(self):
        graph = planted_quasi_clique_graph(40, 50, [9], 0.9, seed=19)
        community = community_of(graph, 0, gamma=0.85, theta=5)
        assert 0 in community
        assert len(community) >= 7

    def test_isolated_vertex_has_no_community(self):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2)], vertices=[0, 1, 2, 9])
        assert community_of(graph, 9, gamma=0.9, theta=2) == frozenset()

    def test_community_is_quasi_clique(self, paper_figure1):
        community = community_of(paper_figure1, 5, gamma=0.6, theta=3)
        if community:
            assert is_quasi_clique(paper_figure1, community, 0.6)
