"""Tests for graph mutation support: removal, versioning and the delta log."""

from __future__ import annotations

import pytest

from repro import Graph
from repro.engine.fingerprint import IncrementalFingerprint
from repro.graph import GraphDelta, GraphError, connected_components
from repro.graph.delta import GraphMutation


class TestRemoveEdge:
    def test_removes_both_directions(self, triangle):
        triangle.remove_edge(1, 2)
        assert not triangle.has_edge(1, 2)
        assert not triangle.has_edge(2, 1)
        assert triangle.edge_count == 2
        assert triangle.vertex_count == 3

    def test_masks_and_sets_stay_synchronized(self, clique5):
        clique5.remove_edge(0, 3)
        for i in range(clique5.vertex_count):
            mask = clique5.adjacency_mask(i)
            assert {j for j in range(clique5.vertex_count) if (mask >> j) & 1} \
                == clique5.adjacency_set(i)

    def test_missing_edge_raises(self, path4):
        with pytest.raises(GraphError):
            path4.remove_edge(1, 4)

    def test_unknown_vertex_raises(self, path4):
        with pytest.raises(GraphError):
            path4.remove_edge(1, 99)

    def test_remove_then_add_restores_structure(self, clique5):
        clique5.remove_edge(0, 1)
        clique5.add_edge(0, 1)
        assert clique5.edge_count == 10
        assert clique5.has_edge(0, 1)


class TestRemoveVertex:
    def test_removes_vertex_and_incident_edges(self, clique5):
        clique5.remove_vertex(2)
        assert 2 not in clique5
        assert clique5.vertex_count == 4
        assert clique5.edge_count == 6  # K4 remains
        assert set(clique5.vertices()) == {0, 1, 3, 4}

    def test_indices_stay_dense_after_swap(self, clique5):
        clique5.remove_vertex(0)  # forces the last vertex into slot 0
        for label in clique5.vertices():
            index = clique5.index_of(label)
            assert 0 <= index < clique5.vertex_count
            assert clique5.label_of(index) == label
        # Bitmask layout must match the set layout after the swap.
        for i in range(clique5.vertex_count):
            mask = clique5.adjacency_mask(i)
            assert {j for j in range(clique5.vertex_count) if (mask >> j) & 1} \
                == clique5.adjacency_set(i)
        assert clique5.full_mask() == (1 << clique5.vertex_count) - 1

    def test_remove_last_indexed_vertex(self, path4):
        path4.remove_vertex(4)
        assert set(path4.vertices()) == {1, 2, 3}
        assert path4.edge_count == 2

    def test_neighbors_updated(self, paper_figure1):
        old_neighbors = paper_figure1.neighbors(2)
        paper_figure1.remove_vertex(2)
        for label in old_neighbors:
            assert 2 not in paper_figure1.neighbors(label)

    def test_unknown_vertex_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_vertex(42)

    def test_components_consistent_after_removals(self, paper_figure1):
        paper_figure1.remove_vertex(5)
        paper_figure1.remove_vertex(2)
        reference = Graph()
        for label in paper_figure1.vertices():
            reference.add_vertex(label)
        for u, v in paper_figure1.edges():
            reference.add_edge(u, v)
        assert (sorted(map(sorted, connected_components(paper_figure1)))
                == sorted(map(sorted, connected_components(reference))))


class TestVersionAndDelta:
    def test_version_starts_at_zero(self):
        assert Graph().version == 0

    def test_every_mutation_bumps_version(self):
        graph = Graph()
        graph.add_vertex("a")
        assert graph.version == 1
        graph.add_edge("a", "b")  # implicit add_vertex(b) + add_edge
        assert graph.version == 3
        graph.remove_edge("a", "b")
        assert graph.version == 4
        graph.remove_vertex("b")
        assert graph.version == 5

    def test_noop_mutations_do_not_bump(self, triangle):
        version = triangle.version
        triangle.add_vertex(1)       # already present
        triangle.add_edge(1, 2)      # already present
        assert triangle.version == version

    def test_count_restoring_sequence_still_changes_version(self, clique5):
        version = clique5.version
        clique5.remove_edge(0, 1)
        clique5.add_edge(0, 2)  # was present -> no-op; use a genuinely new edge
        clique5.add_edge(0, 99)
        clique5.remove_vertex(99)
        assert clique5.version != version

    def test_delta_records_operations_in_order(self):
        graph = Graph()
        graph.delta  # attach the changelog before mutating
        graph.add_edge(1, 2)
        graph.remove_edge(1, 2)
        ops = [(m.op, m.u, m.v) for m in graph.delta]
        assert ops == [("add_vertex", 1, None), ("add_vertex", 2, None),
                       ("add_edge", 1, 2), ("remove_edge", 1, 2)]

    def test_remove_vertex_expands_to_edge_removals(self, triangle):
        triangle.delta  # attach
        before = triangle.version
        triangle.remove_vertex(1)
        ops = [m.op for m in triangle.delta if m.version > before]
        assert ops == ["remove_edge", "remove_edge", "remove_vertex"]

    def test_since_returns_new_mutations(self):
        graph = Graph(edges=[(1, 2)])
        version = graph.delta.version  # attaches at the current version
        graph.add_edge(2, 3)
        pending = graph.delta.since(version)
        assert [m.op for m in pending] == ["add_vertex", "add_edge"]
        assert graph.delta.since(graph.version) == []

    def test_since_reports_history_gap(self):
        graph = Graph(delta_capacity=4)
        graph.delta  # attach before mutating, then overflow the tiny log
        for i in range(10):
            graph.add_vertex(i)
        assert graph.delta.since(0) is None
        assert graph.delta.since(graph.version - 2) is not None

    def test_changelog_attaches_lazily(self):
        graph = Graph(edges=[(1, 2), (2, 3)])  # mutations before attachment
        delta = graph.delta
        assert len(delta) == 0
        assert delta.version == graph.version
        # Pre-attachment history is a gap, not silently-empty pending work.
        assert delta.since(0) is None
        graph.add_edge(1, 3)
        assert [m.op for m in delta] == ["add_edge"]
        assert graph.version == delta.version

    def test_delta_validates_operations(self):
        with pytest.raises(ValueError):
            GraphDelta().record("paint_vertex", 1)

    def test_mutation_endpoints(self):
        assert GraphMutation(1, "add_edge", 1, 2).endpoints == (1, 2)
        assert GraphMutation(1, "add_vertex", 1).endpoints == (1,)


def content_digest(graph) -> str:
    """The edit digest of building ``graph`` from nothing."""
    fp = IncrementalFingerprint()
    for label in graph.vertices():
        fp.toggle_vertex(label)
    for u, v in graph.edges():
        fp.toggle_edge(u, v)
    return fp.hexdigest()


class TestIncrementalFingerprint:
    def test_matches_rebuilt_digest_after_mutations(self, paper_figure1):
        fp = IncrementalFingerprint()
        for label in paper_figure1.vertices():
            fp.toggle_vertex(label)
        for u, v in paper_figure1.edges():
            fp.toggle_edge(u, v)
        paper_figure1.remove_edge(1, 2)
        fp.toggle_edge(1, 2)
        paper_figure1.add_edge(1, 42)
        fp.toggle_vertex(42)
        fp.toggle_edge(1, 42)
        assert fp.hexdigest() == content_digest(paper_figure1)

    def test_insensitive_to_construction_order(self):
        one = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        other = Graph(edges=[(2, 3), (1, 3), (1, 2)])
        assert content_digest(one) == content_digest(other)

    def test_sensitive_to_content(self, triangle, path4):
        assert content_digest(triangle) != content_digest(path4)

    def test_revert_restores_digest(self, clique5):
        fp = IncrementalFingerprint()
        for u, v in clique5.edges():
            fp.toggle_edge(u, v)
        digest = fp.hexdigest("base")
        fp.toggle_edge(0, 1)
        assert fp.hexdigest("base") != digest
        fp.toggle_edge(1, 0)  # endpoint order must not matter
        assert fp.hexdigest("base") == digest

    def test_edge_endpoint_order_canonicalised(self):
        one, other = IncrementalFingerprint(), IncrementalFingerprint()
        one.toggle_edge("a", "b")
        other.toggle_edge("b", "a")
        assert one == other
