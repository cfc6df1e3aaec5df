"""Unit tests for the SD-space necessary condition (Section 4.1)."""

from __future__ import annotations

import math
import random

import pytest

from repro.core import Branch
from repro.oracle import (
    SDRegions,
    satisfies_condition_c1c2,
    sd_regions,
    sigma,
    tau_sigma,
)
from repro.graph.generators import erdos_renyi_gnp
from repro.quasiclique import enumerate_all_quasi_cliques, tau


def make_branch(graph, partial, candidates):
    return Branch(graph.mask_of(partial), graph.mask_of(candidates), 0)


class TestSigma:
    def test_empty_partial_uses_union_size(self, paper_figure1):
        branch = make_branch(paper_figure1, [], [1, 2, 3, 4])
        assert sigma(paper_figure1, branch, 0.9) == 4.0

    def test_nonempty_partial_uses_min_degree(self, paper_figure1):
        branch = make_branch(paper_figure1, [1], [2, 3, 5])
        # delta(1, {1,2,3,5}) = 3, so the degree bound is 3 / gamma + 1.
        assert sigma(paper_figure1, branch, 0.9) == pytest.approx(min(4.0, 3 / 0.9 + 1))

    def test_union_size_caps_the_bound(self, clique5):
        branch = make_branch(clique5, [0], [1, 2])
        # Degree of 0 inside the union is 2 -> bound 2/0.5 + 1 = 5, capped at 3.
        assert sigma(clique5, branch, 0.5) == 3.0

    def test_sigma_formula_from_paper_example(self, paper_figure1):
        # sigma = min{|S ∪ C|, d_min / gamma + 1}; with d_min = 4 and gamma = 0.7
        # the paper's Section 4.2 example evaluates to 6.71 (its Figure 1 graph);
        # here we verify the same formula on our fixture's numbers.
        branch = make_branch(paper_figure1, [2, 3, 4], [1, 5, 6, 7, 8, 9])
        d_min = min(len(paper_figure1.neighbors(v) & set(paper_figure1.vertices()))
                    for v in [2, 3, 4])
        expected = min(9.0, d_min / 0.7 + 1)
        assert sigma(paper_figure1, branch, 0.7) == pytest.approx(expected)

    def test_sigma_upper_bounds_every_qc_size(self):
        # Lemma 2: any QC under the branch has size at most sigma(B).
        rng = random.Random(5)
        for trial in range(15):
            graph = erdos_renyi_gnp(8, rng.uniform(0.4, 0.8), seed=trial)
            gamma = rng.choice([0.5, 0.6, 0.7, 0.9])
            vertices = graph.vertices()
            partial = set(rng.sample(vertices, rng.randint(1, 3)))
            candidates = set(rng.sample([v for v in vertices if v not in partial],
                                        rng.randint(0, 4)))
            branch = make_branch(graph, partial, candidates)
            bound = sigma(graph, branch, gamma)
            for clique in enumerate_all_quasi_cliques(graph, gamma):
                if partial <= clique <= (partial | candidates):
                    assert len(clique) <= bound + 1e-9

    def test_tau_sigma_consistency(self, paper_figure1):
        branch = make_branch(paper_figure1, [1, 2], [3, 4, 5])
        assert tau_sigma(paper_figure1, branch, 0.8) == tau(
            sigma(paper_figure1, branch, 0.8), 0.8)


class TestSDRegions:
    def test_region_bounds(self, paper_figure1):
        branch = make_branch(paper_figure1, [1, 2], [3, 4, 5])
        regions = sd_regions(paper_figure1, branch, 0.8)
        assert isinstance(regions, SDRegions)
        assert regions.size_lower == 2
        assert regions.size_upper_r1 == 5
        assert regions.disconnection_lower <= regions.disconnection_upper
        assert regions.size_upper_r2 <= regions.size_upper_r1

    def test_intersection_emptiness_matches_condition(self):
        rng = random.Random(17)
        for trial in range(25):
            graph = erdos_renyi_gnp(9, rng.uniform(0.2, 0.8), seed=100 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            vertices = graph.vertices()
            partial = set(rng.sample(vertices, rng.randint(0, 4)))
            candidates = set(rng.sample([v for v in vertices if v not in partial],
                                        rng.randint(0, 5)))
            branch = make_branch(graph, partial, candidates)
            regions = sd_regions(graph, branch, gamma)
            assert regions.intersection_is_empty == (
                not satisfies_condition_c1c2(graph, branch, gamma))

    def test_r1_empty_when_nothing_selected(self, paper_figure1):
        branch = Branch(0, 0, 0)
        regions = sd_regions(paper_figure1, branch, 0.9)
        assert not regions.r1_is_empty  # the (0, 0) point is a degenerate rectangle
        assert regions.size_lower == 0


class TestConditionC1C2:
    def test_clique_branch_satisfies(self, clique5):
        branch = make_branch(clique5, [0, 1], [2, 3, 4])
        assert satisfies_condition_c1c2(clique5, branch, 0.9)

    def test_independent_partial_set_violates(self):
        # Partial vertices with many mutual disconnections exceed the budget.
        graph = erdos_renyi_gnp(8, 0.0, seed=1)
        graph.add_edge(0, 7)
        branch = make_branch(graph, [0, 1, 2, 3], [7])
        assert not satisfies_condition_c1c2(graph, branch, 0.9)

    def test_never_prunes_a_branch_that_holds_a_qc(self):
        # The defining soundness property of the necessary condition.
        rng = random.Random(23)
        for trial in range(25):
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.9), seed=200 + trial)
            gamma = rng.choice([0.5, 0.6, 0.8, 0.9])
            vertices = graph.vertices()
            partial = set(rng.sample(vertices, rng.randint(0, 3)))
            candidates = set(rng.sample([v for v in vertices if v not in partial],
                                        rng.randint(0, 5)))
            branch = make_branch(graph, partial, candidates)
            holds_qc = any(partial <= clique <= (partial | candidates)
                           for clique in enumerate_all_quasi_cliques(graph, gamma))
            if holds_qc:
                assert satisfies_condition_c1c2(graph, branch, gamma), (
                    f"trial {trial}: condition pruned a branch holding a QC")

    def test_equivalent_formulation(self, paper_figure1):
        # Delta(S) <= tau(sigma(B)) is the equivalent form used by FastQC.
        from repro.oracle import max_disconnections_in_partial

        rng = random.Random(3)
        vertices = paper_figure1.vertices()
        for _ in range(20):
            partial = set(rng.sample(vertices, rng.randint(1, 4)))
            candidates = set(rng.sample([v for v in vertices if v not in partial],
                                        rng.randint(0, 4)))
            branch = make_branch(paper_figure1, partial, candidates)
            gamma = rng.choice([0.5, 0.7, 0.9])
            sigma_value = sigma(paper_figure1, branch, gamma)
            expected = (sigma_value >= branch.partial_size
                        and max_disconnections_in_partial(paper_figure1, branch)
                        <= tau(sigma_value, gamma))
            assert satisfies_condition_c1c2(paper_figure1, branch, gamma) == expected


class TestPaperNumericExamples:
    def test_tau_values_used_in_section_4_2(self):
        assert tau(min(9, 4 / 0.7 + 1), 0.7) == 2
        assert tau(min(5, 2 / 0.7 + 1), 0.7) == 1

    def test_tau_budget_of_figure6(self):
        # Figure 6 uses gamma = 0.6 and tau(sigma(B)) = 3; with |S ∪ C| = 9 and a
        # partial-vertex degree of 4 the formula gives exactly that budget.
        assert tau(min(9, 4 / 0.6 + 1), 0.6) == 3

    def test_sigma_never_negative(self, paper_figure1):
        branch = Branch(0, 0, 0)
        assert sigma(paper_figure1, branch, 0.9) == 0.0
