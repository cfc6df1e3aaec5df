"""Unit and randomized tests for the Quick+ baseline (Algorithm 1)."""

from __future__ import annotations

import random

import pytest

from repro import FastQC, Graph, QuickPlus, filter_non_maximal
from repro.core import Branch
from repro.graph.generators import erdos_renyi_gnp
from repro.oracle import ReferenceQuickPlus, apply_type1_rules, triggers_type2_rules
from repro.quasiclique import (
    enumerate_all_quasi_cliques,
    enumerate_maximal_quasi_cliques_bruteforce,
    is_quasi_clique,
)


class TestPruningRules:
    def _random_branch(self, graph, rng):
        vertices = graph.vertices()
        partial = set(rng.sample(vertices, rng.randint(0, 3)))
        candidates = set(v for v in vertices if v not in partial)
        return partial, Branch(graph.mask_of(partial), graph.mask_of(candidates), 0)

    def test_type1_never_removes_large_qc_members(self):
        rng = random.Random(201)
        for trial in range(20):
            graph = erdos_renyi_gnp(9, rng.uniform(0.3, 0.9), seed=1300 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            theta = rng.randint(2, 4)
            partial, branch = self._random_branch(graph, rng)
            pruned_mask = apply_type1_rules(graph, branch, gamma, theta)
            kept = graph.labels_of_mask(pruned_mask) | partial
            for clique in enumerate_all_quasi_cliques(graph, gamma, theta):
                if partial <= clique:
                    assert clique <= kept

    def test_type2_never_prunes_branch_with_large_qc(self):
        rng = random.Random(211)
        for trial in range(20):
            graph = erdos_renyi_gnp(9, rng.uniform(0.3, 0.9), seed=1400 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            theta = rng.randint(2, 4)
            partial, branch = self._random_branch(graph, rng)
            if triggers_type2_rules(graph, branch, gamma, theta):
                held = [clique for clique in enumerate_all_quasi_cliques(graph, gamma, theta)
                        if partial <= clique]
                assert not held, f"trial {trial}: pruned a branch holding {held[:3]}"

    def test_small_union_triggers_size_rule(self, triangle):
        branch = Branch(0, triangle.mask_of([1, 2]), 0)
        assert triggers_type2_rules(triangle, branch, gamma=0.9, theta=5)


class TestQuickPlus:
    def test_invalid_branching_rejected(self, triangle):
        with pytest.raises(ValueError):
            QuickPlus(triangle, gamma=0.9, theta=2, branching="bogus")

    def test_ledger_kernel_is_default_and_counts_moves(self):
        graph = erdos_renyi_gnp(14, 0.5, seed=404)
        ledger = QuickPlus(graph, 0.85, 3)
        reference = ReferenceQuickPlus(graph, 0.85, 3)
        assert ledger.enumerate() == reference.enumerate()
        assert ledger.statistics.ledger_moves > 0
        assert reference.statistics.ledger_moves == 0

    @pytest.mark.parametrize("branching", ["se", "sym-se", "hybrid"])
    def test_ledger_matches_reference_counter_for_counter(self, branching):
        rng = random.Random(77)
        for trial in range(6):
            graph = erdos_renyi_gnp(11, rng.uniform(0.3, 0.7), seed=4500 + trial)
            ledger = QuickPlus(graph, 0.8, 3, branching=branching)
            reference = ReferenceQuickPlus(graph, 0.8, 3, branching=branching)
            assert ledger.enumerate() == reference.enumerate()
            for counter in ("branches_explored",
                            "candidates_removed_by_type1",
                            "branches_pruned_by_type2", "outputs"):
                assert (getattr(ledger.statistics, counter)
                        == getattr(reference.statistics, counter)), counter

    def test_clique(self, clique5):
        assert frozenset(range(5)) in QuickPlus(clique5, 1.0, 3).enumerate()

    def test_empty_graph(self):
        assert QuickPlus(Graph(), 0.9, 1).enumerate() == []

    def test_outputs_are_quasi_cliques(self, paper_figure1):
        for gamma in (0.5, 0.75, 0.9):
            for clique in QuickPlus(paper_figure1, gamma, 2).enumerate():
                assert is_quasi_clique(paper_figure1, clique, gamma)

    def test_statistics(self, paper_figure1):
        algo = QuickPlus(paper_figure1, gamma=0.9, theta=2)
        algo.enumerate()
        assert algo.statistics.branches_explored > 0
        assert algo.statistics.outputs == len(algo.results)

    def test_superset_guarantee_on_random_graphs(self):
        rng = random.Random(221)
        for trial in range(25):
            graph = erdos_renyi_gnp(9, rng.uniform(0.25, 0.85), seed=1500 + trial)
            gamma = rng.choice([0.5, 0.6, 0.8, 0.9, 1.0])
            theta = rng.randint(1, 4)
            expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
            output = set(QuickPlus(graph, gamma, theta).enumerate())
            assert expected <= output

    def test_filtered_output_equals_mqcs(self):
        rng = random.Random(231)
        for trial in range(12):
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.8), seed=1600 + trial)
            gamma, theta = rng.choice([(0.5, 2), (0.7, 3), (0.9, 2)])
            expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
            output = QuickPlus(graph, gamma, theta).enumerate()
            assert set(filter_non_maximal(output, theta=theta)) == expected

    @pytest.mark.parametrize("branching", ["sym-se", "hybrid"])
    def test_codesign_ablation_branchings_remain_correct(self, branching):
        # Quick+ pruning with the new branching methods (the paper's ablation 1)
        # must still return a superset of all MQCs.
        rng = random.Random(241)
        for trial in range(12):
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.8), seed=1700 + trial)
            gamma, theta = rng.choice([(0.6, 2), (0.9, 2)])
            expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
            output = set(QuickPlus(graph, gamma, theta, branching=branching).enumerate())
            assert expected <= output

    def test_returns_more_candidates_than_fastqc(self):
        # Quick+ lacks the maximality necessary-condition filter, so its output
        # is (weakly) larger -- the effect Table 1 reports.
        from repro.graph.generators import planted_quasi_clique_graph

        graph = planted_quasi_clique_graph(45, 60, [8, 7], 0.9, seed=3)
        quick = QuickPlus(graph, 0.9, 5).enumerate()
        fast = FastQC(graph, 0.9, 5).enumerate()
        assert len(quick) >= len(fast)
