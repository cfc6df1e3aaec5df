"""Tests for the extra graph interchange formats (adjacency list, JSON, DIMACS)."""

from __future__ import annotations

import io
import json

import pytest

from repro import Graph, GraphError, read_edge_list
from repro.graph.formats import (
    graph_from_json_dict,
    graph_to_json_dict,
    read_adjacency_list,
    read_dimacs,
    read_json_graph,
    write_adjacency_list,
    write_dimacs,
    write_json_graph,
)


class TestAdjacencyList:
    def test_read_with_colons(self):
        graph = read_adjacency_list(io.StringIO("1: 2 3\n2: 1\n3: 1\n4:\n"))
        assert graph.vertex_count == 4
        assert graph.edge_count == 2
        assert graph.degree(4) == 0

    def test_read_without_colons(self):
        graph = read_adjacency_list(io.StringIO("a b c\nb a\n"))
        assert graph.has_edge("a", "b")
        assert graph.has_edge("a", "c")

    def test_comments_and_blanks_skipped(self):
        graph = read_adjacency_list(io.StringIO("# comment\n\n1: 2\n"))
        assert graph.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            read_adjacency_list(io.StringIO("1: 1\n"))

    def test_zero_padded_labels_stay_distinct_like_edge_lists(self):
        # "01" and "1" are two vertices in both readers: an adjacency list
        # used to parse "01" to 1 and reject "01: 1 2" as a self-loop.
        adjacency = read_adjacency_list(io.StringIO("01: 1 2\n+1: 2\n"))
        edges = read_edge_list(io.StringIO("01 1\n01 2\n+1 2\n"))
        for graph in (adjacency, edges):
            assert set(graph.vertices()) == {"01", 1, 2, "+1"}
            assert graph.has_edge("01", 1) and not graph.has_edge(1, 2)
        assert set(adjacency.edges()) == set(edges.edges())

    def test_roundtrip(self, paper_figure1):
        buffer = io.StringIO()
        write_adjacency_list(paper_figure1, buffer)
        back = read_adjacency_list(io.StringIO(buffer.getvalue()))
        assert back.vertex_count == paper_figure1.vertex_count
        assert back.edge_count == paper_figure1.edge_count
        for u, v in paper_figure1.edges():
            assert back.has_edge(u, v)

    def test_roundtrip_via_path(self, tmp_path, triangle):
        path = tmp_path / "adj.txt"
        write_adjacency_list(triangle, path)
        assert read_adjacency_list(path).edge_count == 3


class TestJson:
    def test_dict_roundtrip(self, paper_figure1):
        back = graph_from_json_dict(graph_to_json_dict(paper_figure1))
        assert back.vertex_count == paper_figure1.vertex_count
        assert back.edge_count == paper_figure1.edge_count

    def test_missing_edges_key(self):
        with pytest.raises(GraphError):
            graph_from_json_dict({"vertices": [1, 2]})

    def test_isolated_vertices_preserved(self):
        graph = Graph(edges=[(1, 2)], vertices=[1, 2, 3])
        back = graph_from_json_dict(graph_to_json_dict(graph))
        assert back.vertex_count == 3

    def test_file_roundtrip(self, tmp_path, clique5):
        path = tmp_path / "graph.json"
        write_json_graph(clique5, path, indent=2)
        data = json.loads(path.read_text())
        assert len(data["edges"]) == 10
        assert read_json_graph(path).edge_count == 10

    def test_stream_roundtrip(self, triangle):
        buffer = io.StringIO()
        write_json_graph(triangle, buffer)
        back = read_json_graph(io.StringIO(buffer.getvalue()))
        assert back.edge_count == 3


class TestDimacs:
    DIMACS = "c example\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"

    def test_read(self):
        graph = read_dimacs(io.StringIO(self.DIMACS))
        assert graph.vertex_count == 4
        assert graph.edge_count == 3
        assert graph.has_edge(1, 2)

    def test_missing_problem_line(self):
        with pytest.raises(GraphError):
            read_dimacs(io.StringIO("e 1 2\n"))

    def test_malformed_lines(self):
        with pytest.raises(GraphError):
            read_dimacs(io.StringIO("p edge 2\n"))
        with pytest.raises(GraphError):
            read_dimacs(io.StringIO("p edge 2 1\nx 1 2\n"))

    def test_self_loops_skipped(self):
        graph = read_dimacs(io.StringIO("p edge 2 2\ne 1 1\ne 1 2\n"))
        assert graph.edge_count == 1

    def test_roundtrip_with_relabeling(self, tmp_path):
        graph = Graph(edges=[("x", "y"), ("y", "z")])
        path = tmp_path / "graph.dimacs"
        write_dimacs(graph, path, comment="from tests")
        back = read_dimacs(path)
        assert back.vertex_count == 3
        assert back.edge_count == 2
        assert path.read_text().startswith("c from tests\n")

    def test_enumeration_on_dimacs_graph(self):
        graph = read_dimacs(io.StringIO("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"))
        from repro import QuerySpec, run_enumeration

        result = run_enumeration(graph, QuerySpec(gamma=1.0, theta=3))
        assert result.maximal_quasi_cliques == [frozenset({1, 2, 3, 4})]
