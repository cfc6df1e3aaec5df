"""Unit tests for the SE / Sym-SE / Hybrid-SE branching methods (Sections 3, 4.3, 4.4)."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core import Branch, hybrid_se_applicable
from repro.oracle import (
    generate_branches,
    hybrid_se_branch_pair,
    pivot_ordering,
    se_branches,
    select_pivot,
    sym_se_branches,
    tau_sigma,
)
from repro.graph.generators import erdos_renyi_gnp
from repro.quasiclique import enumerate_maximal_quasi_cliques_bruteforce


def make_branch(graph, partial, candidates):
    return Branch(graph.mask_of(partial), graph.mask_of(candidates), 0)


def all_subsets_under(branch):
    """Every vertex-index set covered by a branch (for small branches only)."""
    partial = frozenset(branch.partial_vertices())
    candidates = branch.candidate_vertices()
    subsets = []
    for size in range(len(candidates) + 1):
        for extra in combinations(candidates, size):
            subsets.append(partial | frozenset(extra))
    return subsets


class TestPivotSelection:
    def test_none_when_budget_not_exceeded(self, clique5):
        branch = make_branch(clique5, [0, 1], [2, 3, 4])
        assert select_pivot(clique5, branch, tau_value=1) is None

    def test_pivot_has_maximum_disconnections(self, paper_figure1):
        branch = make_branch(paper_figure1, [1, 2], [3, 4, 5, 6, 7, 8, 9])
        pivot = select_pivot(paper_figure1, branch, tau_value=1)
        assert pivot is not None
        union = branch.union_mask
        best = max((union & ~paper_figure1.adjacency_mask(v)).bit_count()
                   for v in branch.partial_vertices() + branch.candidate_vertices())
        assert pivot.disconnections_in_union == best
        assert pivot.disconnections_in_union > 1

    def test_pivot_fields_consistent(self, paper_figure1):
        branch = make_branch(paper_figure1, [1, 2], [3, 4, 5, 6, 7, 8, 9])
        pivot = select_pivot(paper_figure1, branch, tau_value=2)
        assert pivot is not None
        assert pivot.disconnections_in_union == (
            pivot.disconnections_in_partial + pivot.disconnections_in_candidates)
        assert pivot.b - pivot.a == pivot.disconnections_in_union - pivot.budget
        assert pivot.a < pivot.b

    def test_pivot_in_partial_flag(self):
        graph = erdos_renyi_gnp(6, 0.0, seed=1)
        graph.add_edge(0, 1)
        branch = make_branch(graph, [0, 2], [1, 3])
        pivot = select_pivot(graph, branch, tau_value=1)
        assert pivot is not None
        assert pivot.in_partial == (pivot.vertex in {graph.index_of(0), graph.index_of(2)})


class TestOrdering:
    def test_case1_non_neighbours_first(self, paper_figure1):
        branch = make_branch(paper_figure1, [1, 2], [3, 4, 5, 6, 7, 8, 9])
        tau_value = tau_sigma(paper_figure1, branch, 0.6)
        pivot = select_pivot(paper_figure1, branch, tau_value)
        assert pivot is not None
        ordering = pivot_ordering(paper_figure1, branch, pivot)
        assert sorted(ordering) == sorted(branch.candidate_vertices())
        adjacency = paper_figure1.adjacency_mask(pivot.vertex)
        non_neighbour_count = (branch.c_mask & ~adjacency).bit_count()
        front = ordering[:non_neighbour_count]
        assert all(not (adjacency >> v) & 1 for v in front)

    def test_case2_pivot_first(self):
        graph = erdos_renyi_gnp(7, 0.3, seed=0)
        branch = Branch(0, graph.full_mask(), 0)
        pivot = select_pivot(graph, branch, tau_value=1)
        assert pivot is not None and not pivot.in_partial
        ordering = pivot_ordering(graph, branch, pivot)
        assert ordering[0] == pivot.vertex

    def test_ordering_is_permutation_of_candidates(self, paper_figure1):
        branch = make_branch(paper_figure1, [1], [2, 3, 4, 5, 6])
        pivot = select_pivot(paper_figure1, branch, tau_value=1)
        assert pivot is not None
        ordering = pivot_ordering(paper_figure1, branch, pivot)
        assert sorted(ordering) == sorted(branch.candidate_vertices())


class TestSEBranches:
    def test_counts_and_structure(self, paper_figure1):
        branch = make_branch(paper_figure1, [1], [2, 3, 4])
        ordering = branch.candidate_vertices()
        children = se_branches(branch, ordering)
        assert len(children) == 3
        # Child i includes ordering[i-1] and excludes the earlier ones.
        for position, child in enumerate(children):
            included = 1 << ordering[position]
            assert child.s_mask == branch.s_mask | included
            assert child.d_mask == branch.d_mask | sum(1 << v for v in ordering[:position])

    def test_partition_of_supersets(self, paper_figure1):
        # Every vertex set that strictly contains S is covered by exactly one SE child.
        branch = make_branch(paper_figure1, [1], [2, 3, 4, 5])
        children = se_branches(branch, branch.candidate_vertices())
        for subset in all_subsets_under(branch):
            mask = sum(1 << v for v in subset)
            covering = [child for child in children if child.covers(mask)]
            if subset == frozenset(branch.partial_vertices()):
                assert covering == []
            else:
                assert len(covering) == 1

    def test_keep_limits_output(self, paper_figure1):
        branch = make_branch(paper_figure1, [1], [2, 3, 4, 5])
        assert len(se_branches(branch, branch.candidate_vertices(), keep=2)) == 2


class TestSymSEBranches:
    def test_counts_and_last_branch(self, paper_figure1):
        branch = make_branch(paper_figure1, [1], [2, 3, 4])
        children = sym_se_branches(branch, branch.candidate_vertices())
        assert len(children) == 4
        last = children[-1]
        assert last.s_mask == branch.union_mask
        assert last.c_mask == 0

    def test_partition_of_all_subsets(self, paper_figure1):
        # Every vertex set under the branch (including S itself) is covered by
        # exactly one Sym-SE child.
        branch = make_branch(paper_figure1, [1], [2, 3, 4, 5])
        children = sym_se_branches(branch, branch.candidate_vertices())
        for subset in all_subsets_under(branch):
            mask = sum(1 << v for v in subset)
            covering = [child for child in children if child.covers(mask)]
            assert len(covering) == 1

    def test_prefix_partial_sets_grow(self, paper_figure1):
        branch = make_branch(paper_figure1, [1], [2, 3, 4, 5])
        children = sym_se_branches(branch, branch.candidate_vertices())
        sizes = [child.partial_size for child in children]
        assert sizes == sorted(sizes)
        for earlier, later in zip(children, children[1:]):
            assert earlier.s_mask & later.s_mask == earlier.s_mask

    def test_keep_limits_output(self, paper_figure1):
        branch = make_branch(paper_figure1, [1], [2, 3, 4, 5])
        children = sym_se_branches(branch, branch.candidate_vertices(), keep=3)
        assert len(children) == 3


class TestHybridSE:
    def _hybrid_setup(self, seed=13):
        rng = random.Random(seed)
        while True:
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.7), seed=rng.randrange(10_000))
            branch = Branch(0, graph.full_mask(), 0)
            tau_value = tau_sigma(graph, branch, 0.6)
            pivot = select_pivot(graph, branch, tau_value)
            if pivot is not None and not pivot.in_partial and pivot.disconnections_in_partial == 0:
                return graph, branch, pivot

    def test_applicability_conditions(self, paper_figure1):
        branch = make_branch(paper_figure1, [1, 2], [3, 4, 5, 6, 7, 8, 9])
        tau_value = tau_sigma(paper_figure1, branch, 0.6)
        pivot = select_pivot(paper_figure1, branch, tau_value)
        assert pivot is not None
        expected = (not pivot.in_partial and pivot.disconnections_in_partial == 0
                    and (pivot.b == pivot.a + 1 or pivot.budget == 1))
        assert hybrid_se_applicable(pivot) == expected

    def test_branch_pair_structure(self):
        graph, branch, pivot = self._hybrid_setup()
        ordering = pivot_ordering(graph, branch, pivot)
        excluding, including = hybrid_se_branch_pair(branch, ordering, pivot)
        pivot_bit = 1 << pivot.vertex
        assert all(child.d_mask & pivot_bit for child in excluding)
        assert all(child.s_mask & pivot_bit for child in including)
        assert len(excluding) == pivot.b - 1
        assert len(including) == pivot.a

    def test_hybrid_covers_every_maximal_qc(self):
        # The branches dropped by Hybrid-SE may only hold non-maximal QCs, so
        # every maximal QC under the parent must be covered by a kept child.
        rng = random.Random(61)
        checked = 0
        for trial in range(120):
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.7), seed=700 + trial)
            gamma = 0.6
            branch = Branch(0, graph.full_mask(), 0)
            tau_value = tau_sigma(graph, branch, gamma)
            pivot = select_pivot(graph, branch, tau_value)
            if pivot is None or not hybrid_se_applicable(pivot):
                continue
            checked += 1
            children = generate_branches(graph, branch, pivot, "hybrid")
            for mqc in enumerate_maximal_quasi_cliques_bruteforce(graph, gamma):
                mask = graph.mask_of(mqc)
                assert any(child.covers(mask) for child in children), (
                    f"trial {trial}: maximal QC {sorted(mqc)} not covered")
        assert checked >= 2


class TestGenerateBranches:
    def test_unknown_method_rejected(self, paper_figure1):
        branch = Branch.initial(paper_figure1)
        pivot = select_pivot(paper_figure1, branch, tau_value=1)
        assert pivot is not None
        with pytest.raises(ValueError):
            generate_branches(paper_figure1, branch, pivot, "bogus")

    def test_sym_se_children_shrink_candidates(self, paper_figure1):
        branch = Branch.initial(paper_figure1)
        tau_value = tau_sigma(paper_figure1, branch, 0.9)
        pivot = select_pivot(paper_figure1, branch, tau_value)
        assert pivot is not None
        for method in ("hybrid", "sym-se", "se"):
            for child in generate_branches(paper_figure1, branch, pivot, method):
                assert child.candidate_size < branch.candidate_size

    def test_sym_se_keeps_every_qc_bearing_branch(self):
        # Branches dropped by the Sym-SE keep-limit hold no QCs at all, so every
        # QC under the parent is covered by a kept child.
        from repro.quasiclique import enumerate_all_quasi_cliques

        rng = random.Random(71)
        for trial in range(25):
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.8), seed=800 + trial)
            gamma = rng.choice([0.5, 0.6, 0.9])
            branch = Branch(0, graph.full_mask(), 0)
            tau_value = tau_sigma(graph, branch, gamma)
            pivot = select_pivot(graph, branch, tau_value)
            if pivot is None:
                continue
            children = generate_branches(graph, branch, pivot, "sym-se")
            for clique in enumerate_all_quasi_cliques(graph, gamma):
                mask = graph.mask_of(clique)
                assert any(child.covers(mask) for child in children), (
                    f"trial {trial}: QC {sorted(clique)} lost by Sym-SE keep-limit")
