"""Unit and randomized tests for DCFastQC (Algorithm 3) and its DC framework."""

from __future__ import annotations

import random

import pytest

from repro import DCFastQC, Graph, QuickPlus, filter_non_maximal
from repro.core import FastQC, two_hop_pruning_threshold
from repro.graph.generators import erdos_renyi_gnp, planted_quasi_clique_graph
from repro.quasiclique import (
    enumerate_maximal_quasi_cliques_bruteforce,
    is_quasi_clique,
    tau,
)


class TestConstruction:
    def test_invalid_framework_rejected(self, triangle):
        with pytest.raises(ValueError):
            DCFastQC(triangle, 0.9, 2, framework="bogus")

    def test_invalid_branching_rejected(self, triangle):
        with pytest.raises(ValueError):
            DCFastQC(triangle, 0.9, 2, branching="bogus")

    def test_negative_rounds_rejected(self, triangle):
        with pytest.raises(ValueError):
            DCFastQC(triangle, 0.9, 2, max_rounds=-1)


class TestTwoHopThreshold:
    def test_matches_paper_closed_form_at_common_settings(self):
        # f(theta) = theta - tau(theta) - tau(theta + 1) coincides with the
        # minimum-based threshold for the paper's default parameters.
        for gamma, theta in [(0.9, 10), (0.9, 23), (0.96, 35), (0.96, 50)]:
            closed_form = theta - tau(theta, gamma) - tau(theta + 1, gamma)
            assert two_hop_pruning_threshold(gamma, theta, theta + 40) <= closed_form
            assert two_hop_pruning_threshold(gamma, theta, theta + 40) >= closed_form - 1

    def test_lower_bound_property(self):
        # The threshold never exceeds h - 2*tau(h) for any feasible QC size h.
        for gamma in (0.5, 0.7, 0.9, 0.96):
            for theta in (3, 6, 10):
                max_size = theta + 25
                threshold = two_hop_pruning_threshold(gamma, theta, max_size)
                for h in range(theta, max_size + 1):
                    assert threshold <= h - 2 * tau(h, gamma)

    def test_zero_when_no_feasible_size(self):
        assert two_hop_pruning_threshold(0.9, 10, 5) == 0


class TestSmallGraphs:
    def test_clique(self, clique5):
        assert frozenset(range(5)) in DCFastQC(clique5, 1.0, 3).enumerate()

    def test_two_triangles(self, two_triangles):
        result = set(DCFastQC(two_triangles, 1.0, 3).enumerate())
        assert frozenset({0, 1, 2}) in result
        assert frozenset({3, 4, 5}) in result

    def test_empty_graph(self):
        assert DCFastQC(Graph(), 0.9, 1).enumerate() == []

    def test_outputs_are_quasi_cliques(self, paper_figure1):
        for gamma in (0.5, 0.75, 0.9):
            for clique in DCFastQC(paper_figure1, gamma, 2).enumerate():
                assert is_quasi_clique(paper_figure1, clique, gamma)

    def test_dc_statistics_recorded(self, paper_figure1):
        algo = DCFastQC(paper_figure1, 0.9, 2)
        algo.enumerate()
        assert algo.dc_statistics.subproblem_records
        assert algo.dc_statistics.core_reduction_kept <= paper_figure1.vertex_count
        assert 0.0 <= algo.dc_statistics.reduction_ratio() <= 1.0

    def test_subproblem_sizes_bounded_by_two_hops(self, paper_figure1):
        algo = DCFastQC(paper_figure1, 0.9, 2)
        algo.enumerate()
        for record in algo.dc_statistics.subproblem_records:
            assert record.refined_size <= record.initial_size
            assert record.initial_size <= paper_figure1.vertex_count


class TestFrameworks:
    @pytest.mark.parametrize("framework", ["dc", "basic-dc", "none"])
    def test_superset_guarantee(self, framework):
        rng = random.Random(301)
        for trial in range(20):
            graph = erdos_renyi_gnp(10, rng.uniform(0.25, 0.8), seed=1800 + trial)
            gamma = rng.choice([0.5, 0.6, 0.8, 0.9])
            theta = rng.randint(1, 4)
            expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
            output = set(DCFastQC(graph, gamma, theta, framework=framework).enumerate())
            missing = expected - output
            assert not missing, (
                f"trial {trial} framework {framework} gamma {gamma} theta {theta}: "
                f"missing {[sorted(m) for m in missing]}")

    def test_frameworks_agree_after_filtering(self):
        rng = random.Random(311)
        for trial in range(10):
            graph = erdos_renyi_gnp(10, rng.uniform(0.3, 0.7), seed=1900 + trial)
            gamma, theta = rng.choice([(0.6, 3), (0.9, 2)])
            results = {}
            for framework in ("dc", "basic-dc", "none"):
                output = DCFastQC(graph, gamma, theta, framework=framework).enumerate()
                results[framework] = set(filter_non_maximal(output, theta=theta))
            assert results["dc"] == results["basic-dc"] == results["none"]

    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 4])
    def test_max_rounds_does_not_change_the_answer(self, max_rounds):
        graph = planted_quasi_clique_graph(40, 50, [8, 6], 0.9, seed=31)
        expected = set(filter_non_maximal(
            DCFastQC(graph, 0.9, 5, max_rounds=2).enumerate(), theta=5))
        output = set(filter_non_maximal(
            DCFastQC(graph, 0.9, 5, max_rounds=max_rounds).enumerate(), theta=5))
        assert output == expected

    def test_dc_produces_smaller_subproblems_than_basic(self):
        graph = planted_quasi_clique_graph(60, 120, [9, 8], 0.9, seed=17)
        dc = DCFastQC(graph, 0.9, 6, framework="dc")
        dc.enumerate()
        basic = DCFastQC(graph, 0.9, 6, framework="basic-dc")
        basic.enumerate()
        dc_avg = (sum(r.refined_size for r in dc.dc_statistics.subproblem_records)
                  / max(1, len(dc.dc_statistics.subproblem_records)))
        basic_avg = (sum(r.refined_size for r in basic.dc_statistics.subproblem_records)
                     / max(1, len(basic.dc_statistics.subproblem_records)))
        assert dc_avg <= basic_avg

    def test_theta_one_runs_without_core_reduction(self, path4):
        # ceil(gamma * 0) = 0: no core reduction, every vertex is a subproblem root.
        result = DCFastQC(path4, 0.9, 1).enumerate()
        assert frozenset({1, 2}) in set(result) or frozenset({2, 3}) in set(result)


class TestAgreementWithOtherAlgorithms:
    def test_matches_fastqc_and_quickplus_on_planted_graph(self):
        graph = planted_quasi_clique_graph(50, 80, [9, 7], 0.9, seed=41)
        gamma, theta = 0.9, 6
        dc = set(filter_non_maximal(DCFastQC(graph, gamma, theta).enumerate(), theta=theta))
        fast = set(filter_non_maximal(FastQC(graph, gamma, theta).enumerate(), theta=theta))
        quick = set(filter_non_maximal(QuickPlus(graph, gamma, theta).enumerate(), theta=theta))
        assert dc == fast == quick
