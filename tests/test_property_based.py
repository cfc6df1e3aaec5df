"""Property-based tests (hypothesis) for the core invariants of the library."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import Graph, QuerySpec, SetTrie, filter_non_maximal, run_enumeration
from repro.core import Branch
from repro.oracle import generate_branches, progressively_refine, select_pivot, sigma, tau_sigma
from repro.graph import core_numbers, degeneracy, degeneracy_ordering, is_degeneracy_ordering
from repro.quasiclique import (
    degree_threshold,
    enumerate_all_quasi_cliques,
    enumerate_maximal_quasi_cliques_bruteforce,
    is_quasi_clique,
    is_quasi_clique_by_lemma1,
    tau,
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw, max_vertices: int = 9):
    """A random simple graph with up to ``max_vertices`` vertices."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible_edges), unique=True, max_size=len(possible_edges))
                  ) if possible_edges else []
    return Graph(edges=chosen, vertices=range(n))


gammas = st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 0.96, 1.0])
thetas = st.integers(min_value=1, max_value=4)


# ----------------------------------------------------------------------
# Definition-level properties
# ----------------------------------------------------------------------
class TestDefinitionProperties:
    @settings(max_examples=60, deadline=None)
    @given(gamma=gammas, size=st.integers(min_value=1, max_value=60))
    def test_tau_complements_degree_threshold(self, gamma, size):
        assert tau(size, gamma) == size - degree_threshold(gamma, size)

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(), gamma=gammas, data=st.data())
    def test_lemma1_matches_definition(self, graph, gamma, data):
        vertices = graph.vertices()
        subset = data.draw(st.sets(st.sampled_from(vertices), min_size=1))
        assert is_quasi_clique(graph, subset, gamma) == is_quasi_clique_by_lemma1(
            graph, subset, gamma)

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(), gamma=gammas)
    def test_single_vertices_and_edges_are_qcs(self, graph, gamma):
        for v in graph.vertices():
            assert is_quasi_clique(graph, {v}, gamma)
        for u, v in graph.edges():
            assert is_quasi_clique(graph, {u, v}, gamma)


# ----------------------------------------------------------------------
# Core decomposition properties
# ----------------------------------------------------------------------
class TestDecompositionProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(max_vertices=12))
    def test_degeneracy_ordering_is_valid(self, graph):
        ordering = degeneracy_ordering(graph)
        assert sorted(ordering) == sorted(graph.vertices())
        assert is_degeneracy_ordering(graph, ordering)

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(max_vertices=12))
    def test_core_numbers_bounded_by_degeneracy(self, graph):
        cores = core_numbers(graph)
        omega = degeneracy(graph)
        assert all(0 <= value <= omega for value in cores.values())
        if cores:
            assert max(cores.values()) == omega


# ----------------------------------------------------------------------
# Set-trie properties
# ----------------------------------------------------------------------
class TestSetTrieProperties:
    @settings(max_examples=50, deadline=None)
    @given(family=st.lists(st.frozensets(st.integers(min_value=0, max_value=10), max_size=5),
                           max_size=20),
           query=st.frozensets(st.integers(min_value=0, max_value=10), max_size=8))
    def test_subset_and_superset_queries_match_naive(self, family, query):
        trie = SetTrie(family)
        assert sorted(map(sorted, trie.get_all_subsets(query))) == sorted(
            map(sorted, (s for s in family if s <= query)))
        assert sorted(map(sorted, trie.get_all_supersets(query))) == sorted(
            map(sorted, (s for s in family if s >= query)))

    @settings(max_examples=50, deadline=None)
    @given(family=st.lists(st.frozensets(st.integers(min_value=0, max_value=10), max_size=5),
                           max_size=20))
    def test_filter_non_maximal_matches_pairwise(self, family):
        assert set(filter_non_maximal(family, method="subsets")) == set(
            filter_non_maximal(family, method="pairwise"))


# ----------------------------------------------------------------------
# Branch-and-bound soundness properties
# ----------------------------------------------------------------------
class TestSearchProperties:
    @settings(max_examples=25, deadline=None)
    @given(graph=small_graphs(max_vertices=8), gamma=gammas, theta=thetas,
           algorithm=st.sampled_from(["dcfastqc", "fastqc", "quickplus"]))
    def test_pipeline_matches_bruteforce(self, graph, gamma, theta, algorithm):
        expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
        result = run_enumeration(graph, QuerySpec(gamma, theta, algorithm=algorithm))
        assert set(result.maximal_quasi_cliques) == expected

    @settings(max_examples=25, deadline=None)
    @given(graph=small_graphs(max_vertices=8), gamma=gammas, theta=thetas, data=st.data())
    def test_refinement_preserves_large_qcs(self, graph, gamma, theta, data):
        vertices = graph.vertices()
        partial = data.draw(st.sets(st.sampled_from(vertices), max_size=3))
        candidates = set(vertices) - partial
        branch = Branch(graph.mask_of(partial), graph.mask_of(candidates), 0)
        outcome = progressively_refine(graph, branch, gamma, theta)
        large = [clique for clique in enumerate_all_quasi_cliques(graph, gamma, theta)
                 if partial <= clique]
        if outcome.pruned:
            assert not large
        else:
            kept = graph.labels_of_mask(outcome.branch.union_mask)
            assert all(clique <= kept for clique in large)

    @settings(max_examples=25, deadline=None)
    @given(graph=small_graphs(max_vertices=8), gamma=gammas)
    def test_sigma_bounds_every_qc(self, graph, gamma):
        branch = Branch.initial(graph)
        bound = sigma(graph, branch, gamma)
        for clique in enumerate_all_quasi_cliques(graph, gamma):
            assert len(clique) <= bound

    @settings(max_examples=25, deadline=None)
    @given(graph=small_graphs(max_vertices=8), gamma=gammas,
           method=st.sampled_from(["hybrid", "sym-se"]))
    def test_branching_covers_every_maximal_qc(self, graph, gamma, method):
        branch = Branch.initial(graph)
        budget = tau_sigma(graph, branch, gamma)
        pivot = select_pivot(graph, branch, budget)
        if pivot is None:
            return
        children = generate_branches(graph, branch, pivot, method)
        for mqc in enumerate_maximal_quasi_cliques_bruteforce(graph, gamma):
            mask = graph.mask_of(mqc)
            assert any(child.covers(mask) for child in children)
