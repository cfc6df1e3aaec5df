"""Unit tests for maximality checks (necessary condition and exact check)."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import Graph
from repro.core.branch import Branch
from repro.core.dcfastqc import DCFastQC
from repro.core.fastqc import FastQC
from repro.graph.generators import erdos_renyi_gnp
from repro.graph.graph import iter_bits
from repro.quasiclique import (
    degree_threshold,
    enumerate_maximal_quasi_cliques_bruteforce,
    extending_vertices,
    filter_by_necessary_condition,
    is_maximal_quasi_clique,
    is_quasi_clique,
    satisfies_maximality_necessary_condition,
)
from repro.quasiclique.maximality import ledger_satisfies_maximality_necessary_condition


class TestExtendingVertices:
    def test_triangle_inside_clique_extends(self, clique5):
        extensions = extending_vertices(clique5, {0, 1, 2}, 1.0)
        assert extensions == frozenset({3, 4})

    def test_maximal_clique_has_no_extension(self, clique5):
        assert extending_vertices(clique5, range(5), 1.0) == frozenset()

    def test_empty_subset(self, clique5):
        assert extending_vertices(clique5, set(), 1.0) == frozenset()

    def test_only_neighbors_considered(self, two_triangles):
        # The other triangle is not adjacent, so it can never extend.
        assert extending_vertices(two_triangles, {0, 1, 2}, 0.5) == frozenset()


class TestNecessaryCondition:
    def test_every_maximal_qc_passes(self, paper_figure1):
        for gamma in (0.5, 0.7, 0.9):
            for mqc in enumerate_maximal_quasi_cliques_bruteforce(paper_figure1, gamma):
                assert satisfies_maximality_necessary_condition(paper_figure1, mqc, gamma)

    def test_extendable_qc_fails(self, clique5):
        assert not satisfies_maximality_necessary_condition(clique5, {0, 1, 2}, 1.0)

    def test_filter_keeps_all_maximal(self, paper_figure1):
        gamma = 0.7
        maximal = enumerate_maximal_quasi_cliques_bruteforce(paper_figure1, gamma)
        candidates = list(maximal) + [frozenset({1, 2}), frozenset({2, 3})]
        kept = filter_by_necessary_condition(paper_figure1, candidates, gamma)
        assert set(maximal) <= set(kept)


class TestExactMaximality:
    def test_non_qc_is_not_maximal(self, path4):
        assert not is_maximal_quasi_clique(path4, {1, 4}, 0.9)

    def test_full_clique_is_maximal(self, clique5):
        assert is_maximal_quasi_clique(clique5, range(5), 1.0)

    def test_sub_clique_is_not_maximal(self, clique5):
        assert not is_maximal_quasi_clique(clique5, {0, 1, 2, 3}, 1.0)

    def test_size_limit_respected(self, clique5):
        # With a size limit equal to the subset size, no extension is searched,
        # so the subset is reported maximal.
        assert is_maximal_quasi_clique(clique5, {0, 1, 2, 3}, 1.0, size_limit=4)

    def test_agreement_with_bruteforce(self, paper_figure1):
        gamma = 0.6
        maximal = set(enumerate_maximal_quasi_cliques_bruteforce(paper_figure1, gamma))
        # Check a few QCs of both kinds.
        checked = 0
        from repro.quasiclique import enumerate_all_quasi_cliques

        for clique in enumerate_all_quasi_cliques(paper_figure1, gamma):
            if len(clique) < 3 or checked > 20:
                continue
            checked += 1
            assert is_maximal_quasi_clique(paper_figure1, clique, gamma) == (clique in maximal)

    def test_isolated_pair(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        assert is_maximal_quasi_clique(graph, {0, 1}, 0.9)
        assert is_quasi_clique(graph, {2, 3}, 0.9)


# ----------------------------------------------------------------------
# FastQC's ledger-driven check decides like the label-space check
# ----------------------------------------------------------------------
LEDGER_GAMMAS = [0.5, 0.51, 0.75, 0.9, 1.0]


class T1RecordingFastQC(FastQC):
    """FastQC that keeps every T1 output's mask and ``deg_in_union`` ledger."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.t1_outputs: list[tuple[int, list[int]]] = []

    def _emit(self, subset_mask: int, degrees=None) -> bool:
        if degrees is not None:
            self.t1_outputs.append((subset_mask, list(degrees)))
        return super()._emit(subset_mask, degrees)


@st.composite
def dense_graphs(draw) -> Graph:
    n = draw(st.integers(min_value=5, max_value=16))
    p = draw(st.sampled_from([0.4, 0.55, 0.7, 0.85]))
    return erdos_renyi_gnp(n, p, seed=draw(st.integers(min_value=0, max_value=10_000)))


def _assert_t1_decisions_match(engine: T1RecordingFastQC, graph: Graph,
                               gamma: float) -> None:
    """Every recorded T1 decision equals the label-space check on ``graph``."""
    for mask, degrees in engine.t1_outputs:
        labels = engine.graph.labels_of_mask(mask)
        assert engine._passes_maximality(mask, degrees) == \
            satisfies_maximality_necessary_condition(graph, labels, gamma), sorted(labels)


class TestLedgerMaximalityCheck:
    @settings(max_examples=40, deadline=None)
    @given(graph=dense_graphs(), gamma=st.sampled_from(LEDGER_GAMMAS),
           theta=st.integers(min_value=2, max_value=3))
    def test_halo_graph_with_identity_table(self, graph, gamma, theta):
        """Compact subproblems checked against their ball plus halo."""
        for payload in DCFastQC(graph, gamma, theta).iter_compact_subproblems():
            engine = T1RecordingFastQC(
                payload, gamma, theta, maximality_rows=payload.maximality_rows())
            assert engine._maximality_index is None
            engine.enumerate_branch(payload.initial_branch())
            _assert_t1_decisions_match(engine, graph, gamma)

    @settings(max_examples=40, deadline=None)
    @given(graph=dense_graphs(), gamma=st.sampled_from(LEDGER_GAMMAS),
           theta=st.integers(min_value=2, max_value=3))
    def test_full_graph_with_translated_table(self, graph, gamma, theta):
        """Subproblem balls, laid out in reverse index order so the local to
        full-graph table is never the identity, checked against the full
        graph."""
        for root, ball, _prior in DCFastQC(graph, gamma, theta)._iter_subproblems():
            members = list(iter_bits(ball))[::-1]
            local = Graph(vertices=[graph.label_of(v) for v in members])
            for u, v in graph.edges():
                if u in local and v in local:
                    local.add_edge(u, v)
            engine = T1RecordingFastQC(local, gamma, theta,
                                       maximality_rows=graph.adjacency_masks(),
                                       maximality_index=members)
            root_bit = 1 << members.index(root)
            engine.enumerate_branch(Branch(root_bit, local.full_mask() & ~root_bit, 0))
            _assert_t1_decisions_match(engine, graph, gamma)

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.sampled_from(LEDGER_GAMMAS[:-1]),
           extra_size=st.integers(min_value=0, max_value=4),
           outside=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_clique_without_critical_member(self, gamma, extra_size, outside, seed):
        """A clique ``H`` large enough that every member has at least
        ``ceil(gamma * |H|)`` neighbours in it: nothing is critical, so the
        ledger check falls back to the bit-sliced one.  (At gamma = 1 every
        member of a quasi-clique is critical.)"""
        size = 2
        while degree_threshold(gamma, size + 1) > size - 1:
            size += 1
        size += extra_size
        rng = random.Random(seed)
        graph = Graph(vertices=range(size + outside))
        for u in range(size):
            for v in range(u + 1, size):
                graph.add_edge(u, v)
        for v in range(size, size + outside):
            for u in range(v):
                if rng.random() < 0.7:
                    graph.add_edge(u, v)
        mask = graph.mask_of(range(size))
        degrees = [size - 1] * size + [0] * outside
        assert min(degrees[:size]) >= degree_threshold(gamma, size + 1)
        assert ledger_satisfies_maximality_necessary_condition(
            graph.adjacency_masks(), mask, degrees, gamma) == \
            satisfies_maximality_necessary_condition(graph, range(size), gamma)
