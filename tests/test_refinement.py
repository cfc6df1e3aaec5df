"""Unit tests for progressive branch refinement (Section 4.2)."""

from __future__ import annotations

import random

from repro.core import Branch
from repro.oracle import (
    apply_rule1,
    apply_rule2,
    delta_of_partial_plus,
    progressively_refine,
    tau_sigma,
)
from repro.graph.generators import erdos_renyi_gnp
from repro.quasiclique import enumerate_all_quasi_cliques, max_disconnections


def make_branch(graph, partial, candidates):
    return Branch(graph.mask_of(partial), graph.mask_of(candidates), 0)


class TestDeltaOfPartialPlus:
    def test_matches_direct_computation(self, paper_figure1):
        branch = make_branch(paper_figure1, [1, 2, 3], [4, 5, 6, 7])
        for candidate in [4, 5, 6, 7]:
            index = paper_figure1.index_of(candidate)
            expected = max_disconnections(paper_figure1, {1, 2, 3, candidate})
            assert delta_of_partial_plus(paper_figure1, branch, index) == expected


class TestRule1:
    def test_removes_exactly_overbudget_candidates(self, paper_figure1):
        branch = make_branch(paper_figure1, [1, 2, 3], [4, 5, 6, 7, 8, 9])
        budget = tau_sigma(paper_figure1, branch, 0.7)
        refined_mask = apply_rule1(paper_figure1, branch, budget)
        for candidate in [4, 5, 6, 7, 8, 9]:
            index = paper_figure1.index_of(candidate)
            kept = bool((refined_mask >> index) & 1)
            expected_kept = delta_of_partial_plus(paper_figure1, branch, index) <= budget
            assert kept == expected_kept

    def test_agrees_with_reference_on_random_branches(self):
        rng = random.Random(31)
        for trial in range(20):
            graph = erdos_renyi_gnp(9, rng.uniform(0.3, 0.8), seed=300 + trial)
            vertices = graph.vertices()
            partial = set(rng.sample(vertices, rng.randint(1, 4)))
            candidates = set(v for v in vertices if v not in partial)
            branch = make_branch(graph, partial, candidates)
            budget = rng.randint(1, 4)
            refined_mask = apply_rule1(graph, branch, budget)
            for candidate in candidates:
                index = graph.index_of(candidate)
                kept = bool((refined_mask >> index) & 1)
                assert kept == (delta_of_partial_plus(graph, branch, index) <= budget)

    def test_never_removes_members_of_a_qc_under_the_branch(self):
        rng = random.Random(37)
        for trial in range(15):
            graph = erdos_renyi_gnp(8, rng.uniform(0.4, 0.9), seed=400 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            vertices = graph.vertices()
            partial = set(rng.sample(vertices, rng.randint(1, 3)))
            candidates = set(v for v in vertices if v not in partial)
            branch = make_branch(graph, partial, candidates)
            budget = tau_sigma(graph, branch, gamma)
            refined_mask = apply_rule1(graph, branch, budget)
            kept = graph.labels_of_mask(refined_mask) | partial
            for clique in enumerate_all_quasi_cliques(graph, gamma):
                if partial <= clique:
                    assert clique <= kept


class TestRule2:
    def test_low_degree_candidates_removed(self, star5):
        branch = make_branch(star5, [0], [1, 2, 3, 4])
        # theta=4, budget 1: members need degree >= 3, leaves have degree 1.
        refined = apply_rule2(star5, branch, tau_value=1, theta=4)
        assert refined == 0

    def test_noop_when_requirement_non_positive(self, star5):
        branch = make_branch(star5, [0], [1, 2, 3, 4])
        assert apply_rule2(star5, branch, tau_value=5, theta=3) == branch.c_mask

    def test_keeps_members_of_large_qcs(self, clique5):
        branch = make_branch(clique5, [0], [1, 2, 3, 4])
        refined = apply_rule2(clique5, branch, tau_value=1, theta=5)
        assert refined == branch.c_mask


class TestProgressiveRefinement:
    def test_fixpoint_reached(self, paper_figure1):
        branch = make_branch(paper_figure1, [1], [2, 3, 4, 5, 6, 7, 8, 9])
        outcome = progressively_refine(paper_figure1, branch, gamma=0.9, theta=3)
        if not outcome.pruned:
            # Re-running on the result must not change anything.
            again = progressively_refine(paper_figure1, outcome.branch, gamma=0.9, theta=3)
            assert again.branch.c_mask == outcome.branch.c_mask
            assert not again.pruned

    def test_prunes_branch_with_bad_partial_set(self):
        graph = erdos_renyi_gnp(8, 0.0, seed=1)
        graph.add_edge(0, 1)
        branch = make_branch(graph, [2, 3, 4], [0, 1])
        outcome = progressively_refine(graph, branch, gamma=0.9, theta=2)
        assert outcome.pruned

    def test_counts_removed_candidates(self, star5):
        branch = make_branch(star5, [0], [1, 2, 3, 4])
        outcome = progressively_refine(star5, branch, gamma=0.9, theta=4)
        assert outcome.removed_by_rule1 + outcome.removed_by_rule2 > 0 or outcome.pruned

    def test_max_rounds_cap(self, paper_figure1):
        branch = Branch.initial(paper_figure1)
        outcome = progressively_refine(paper_figure1, branch, gamma=0.9, theta=4,
                                       max_rounds=1)
        assert outcome.rounds <= 1

    def test_refinement_preserves_large_qcs(self):
        # The crucial soundness property: a refined (non-pruned) branch still
        # covers every QC of size >= theta the original branch covered, and a
        # pruned branch covered none.
        rng = random.Random(41)
        for trial in range(20):
            graph = erdos_renyi_gnp(9, rng.uniform(0.3, 0.9), seed=500 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            theta = rng.randint(2, 4)
            vertices = graph.vertices()
            partial = set(rng.sample(vertices, rng.randint(0, 3)))
            candidates = set(v for v in vertices if v not in partial)
            branch = make_branch(graph, partial, candidates)
            outcome = progressively_refine(graph, branch, gamma, theta)
            large_qcs = [clique for clique in enumerate_all_quasi_cliques(graph, gamma, theta)
                         if partial <= clique]
            if outcome.pruned:
                assert not large_qcs, f"trial {trial}: pruned a branch holding a large QC"
            else:
                kept = graph.labels_of_mask(outcome.branch.union_mask)
                for clique in large_qcs:
                    assert clique <= kept, f"trial {trial}: refinement dropped a QC member"
