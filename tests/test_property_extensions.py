"""Property-based tests for the extension modules and the extra I/O formats."""

from __future__ import annotations

import io

from hypothesis import given, settings, strategies as st

from repro import Graph, Q
from repro.graph.formats import (
    graph_from_json_dict,
    graph_to_json_dict,
    read_adjacency_list,
    read_dimacs,
    write_adjacency_list,
    write_dimacs,
)
from repro.quasiclique import (
    enumerate_maximal_quasi_cliques_bruteforce,
    is_quasi_clique,
)


@st.composite
def small_graphs(draw, max_vertices: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible_edges), unique=True,
                           max_size=len(possible_edges))) if possible_edges else []
    return Graph(edges=chosen, vertices=range(n))


gammas = st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0])


class TestFormatRoundtrips:
    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(max_vertices=10))
    def test_json_roundtrip(self, graph):
        back = graph_from_json_dict(graph_to_json_dict(graph))
        assert set(back.vertices()) == set(graph.vertices())
        assert set(map(frozenset, back.edges())) == set(map(frozenset, graph.edges()))

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(max_vertices=10))
    def test_adjacency_list_roundtrip(self, graph):
        buffer = io.StringIO()
        write_adjacency_list(graph, buffer)
        back = read_adjacency_list(io.StringIO(buffer.getvalue()))
        assert set(back.vertices()) == set(graph.vertices())
        assert set(map(frozenset, back.edges())) == set(map(frozenset, graph.edges()))

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(max_vertices=10))
    def test_dimacs_roundtrip_preserves_structure(self, graph):
        buffer = io.StringIO()
        write_dimacs(graph, buffer)
        back = read_dimacs(io.StringIO(buffer.getvalue()))
        assert back.vertex_count == graph.vertex_count
        assert back.edge_count == graph.edge_count
        # DIMACS renumbers vertices, so compare degree multisets instead of labels.
        assert sorted(back.degree(v) for v in back.vertices()) == sorted(
            graph.degree(v) for v in graph.vertices())


class TestTopKProperties:
    @settings(max_examples=20, deadline=None)
    @given(graph=small_graphs(), gamma=gammas, k=st.integers(min_value=1, max_value=4))
    def test_exact_topk_matches_bruteforce_sizes(self, graph, gamma, k):
        expected = sorted((len(m) for m in
                           enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, 2)),
                          reverse=True)[:k]
        top = Q(graph).gamma(gamma).theta(2).top(k).run()
        assert [len(clique) for clique in top] == expected
        for clique in top:
            assert is_quasi_clique(graph, clique, gamma)


class TestQueryProperties:
    @settings(max_examples=20, deadline=None)
    @given(graph=small_graphs(), gamma=gammas, data=st.data())
    def test_query_results_complete_and_sound(self, graph, gamma, data):
        query_vertex = data.draw(st.sampled_from(graph.vertices()))
        found = Q(graph).gamma(gamma).theta(1).containing(query_vertex).run()
        expected = [m for m in enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, 1)
                    if query_vertex in m]
        for mqc in expected:
            assert mqc in found
        for clique in found:
            assert query_vertex in clique
            assert is_quasi_clique(graph, clique, gamma)
