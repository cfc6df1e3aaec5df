"""Unit and randomized tests for the FastQC algorithm (Algorithm 2)."""

from __future__ import annotations

import random

import pytest

from repro import FastQC, Graph, filter_non_maximal
from repro.graph.generators import erdos_renyi_gnp, planted_quasi_clique_graph
from repro.quasiclique import (
    enumerate_maximal_quasi_cliques_bruteforce,
    is_quasi_clique,
)


class TestConstruction:
    def test_invalid_gamma_rejected(self, triangle):
        from repro.quasiclique import ParameterError

        with pytest.raises(ParameterError):
            FastQC(triangle, gamma=0.3, theta=2)

    def test_invalid_theta_rejected(self, triangle):
        from repro.quasiclique import ParameterError

        with pytest.raises(ParameterError):
            FastQC(triangle, gamma=0.9, theta=0)

    def test_invalid_branching_rejected(self, triangle):
        with pytest.raises(ValueError):
            FastQC(triangle, gamma=0.9, theta=2, branching="other")


class TestSmallGraphs:
    def test_clique(self, clique5):
        result = FastQC(clique5, gamma=1.0, theta=3).enumerate()
        assert frozenset(range(5)) in result

    def test_two_triangles(self, two_triangles):
        result = FastQC(two_triangles, gamma=1.0, theta=3).enumerate()
        assert frozenset({0, 1, 2}) in result
        assert frozenset({3, 4, 5}) in result

    def test_empty_graph(self):
        assert FastQC(Graph(), gamma=0.9, theta=1).enumerate() == []

    def test_single_vertex(self):
        graph = Graph(vertices=[7])
        result = FastQC(graph, gamma=0.9, theta=1).enumerate()
        assert result == [frozenset({7})]

    def test_theta_filters_outputs(self, two_triangles):
        result = FastQC(two_triangles, gamma=1.0, theta=4).enumerate()
        assert result == []

    def test_outputs_are_quasi_cliques(self, paper_figure1):
        for gamma in (0.5, 0.6, 0.9):
            for clique in FastQC(paper_figure1, gamma, theta=2).enumerate():
                assert is_quasi_clique(paper_figure1, clique, gamma)

    def test_on_output_callback(self, clique5):
        seen = []
        algo = FastQC(clique5, gamma=1.0, theta=3, on_output=seen.append)
        algo.enumerate()
        assert seen == algo.results

    def test_statistics_populated(self, paper_figure1):
        algo = FastQC(paper_figure1, gamma=0.9, theta=2)
        algo.enumerate()
        assert algo.statistics.branches_explored >= 1
        assert algo.statistics.subproblems == 1
        assert algo.statistics.outputs == len(algo.results)

    def test_enumerate_from_restricts_search(self, two_triangles):
        algo = FastQC(two_triangles, gamma=1.0, theta=3)
        result = algo.enumerate_from(partial=[0], candidates=[1, 2], excluded=[3, 4, 5])
        assert result == [frozenset({0, 1, 2})]


class TestSupersetGuarantee:
    """The MQCE-S1 contract: the output contains every large maximal QC."""

    @pytest.mark.parametrize("branching", ["hybrid", "sym-se", "se"])
    def test_random_graphs_all_branchings(self, branching):
        rng = random.Random(97)
        for trial in range(25):
            graph = erdos_renyi_gnp(9, rng.uniform(0.25, 0.85), seed=900 + trial)
            gamma = rng.choice([0.5, 0.6, 0.7, 0.9, 1.0])
            theta = rng.randint(1, 4)
            expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
            output = set(FastQC(graph, gamma, theta, branching=branching).enumerate())
            missing = expected - output
            assert not missing, (
                f"trial {trial} branching {branching} gamma {gamma} theta {theta}: "
                f"missing {[sorted(m) for m in missing]}")

    def test_filtered_output_equals_mqcs(self):
        rng = random.Random(111)
        for trial in range(15):
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.8), seed=1000 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            theta = rng.randint(1, 3)
            expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
            output = FastQC(graph, gamma, theta).enumerate()
            assert set(filter_non_maximal(output, theta=theta)) == expected

    def test_maximality_filter_only_drops_non_maximal(self):
        rng = random.Random(131)
        for trial in range(10):
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.8), seed=1100 + trial)
            gamma, theta = 0.7, 2
            with_filter = set(FastQC(graph, gamma, theta, maximality_filter=True).enumerate())
            without_filter = set(FastQC(graph, gamma, theta, maximality_filter=False).enumerate())
            assert with_filter <= without_filter
            expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
            assert expected <= with_filter


class TestBranchingComparison:
    def test_all_branchings_agree_after_filtering(self):
        rng = random.Random(151)
        for trial in range(10):
            graph = erdos_renyi_gnp(9, rng.uniform(0.3, 0.8), seed=1200 + trial)
            gamma, theta = rng.choice([(0.6, 2), (0.9, 3), (0.5, 2)])
            results = {}
            for branching in ("hybrid", "sym-se", "se"):
                output = FastQC(graph, gamma, theta, branching=branching).enumerate()
                results[branching] = set(filter_non_maximal(output, theta=theta))
            assert results["hybrid"] == results["sym-se"] == results["se"]

    def test_branch_counts_recorded_for_every_method(self):
        # The branching methods differ in how many branches they explore on a
        # given instance (the Figure 11 experiment measures this at scale); the
        # per-instance counts are not ordered in general, but they must be
        # recorded and every method must reach the same filtered answer.
        graph = planted_quasi_clique_graph(40, 60, [8, 7], 0.9, seed=5)
        counts = {}
        answers = {}
        for branching in ("hybrid", "sym-se", "se"):
            algo = FastQC(graph, gamma=0.9, theta=5, branching=branching)
            output = algo.enumerate()
            counts[branching] = algo.statistics.branches_explored
            answers[branching] = set(filter_non_maximal(output, theta=5))
        assert all(count > 0 for count in counts.values())
        assert answers["hybrid"] == answers["sym-se"] == answers["se"]


class TestPlantedStructure:
    def test_planted_quasi_cliques_are_found(self):
        graph = planted_quasi_clique_graph(50, 70, [9, 7], 0.9, seed=21)
        output = FastQC(graph, gamma=0.9, theta=6).enumerate()
        maximal = filter_non_maximal(output, theta=6)
        planted_a = frozenset(range(9))
        planted_b = frozenset(range(9, 16))
        covered_a = any(planted_a <= found for found in maximal)
        covered_b = any(planted_b <= found for found in maximal)
        assert covered_a and covered_b
