"""Tests for the end-to-end MQCE pipeline and its result objects."""

from __future__ import annotations

import random

import pytest

from repro import (
    ALGORITHMS,
    EnumerationResult,
    Graph,
    QuerySpec,
    run_enumeration,
)
from repro.graph.generators import erdos_renyi_gnp, planted_quasi_clique_graph
from repro.pipeline.mqce import build_enumerator
from repro.quasiclique import enumerate_maximal_quasi_cliques_bruteforce


class TestBuildEnumerator:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_known_algorithms(self, triangle, algorithm):
        enumerator = build_enumerator(triangle, 0.9, 2, algorithm=algorithm)
        assert hasattr(enumerator, "enumerate")

    def test_unknown_algorithm(self, triangle):
        with pytest.raises(ValueError):
            build_enumerator(triangle, 0.9, 2, algorithm="nope")

    def test_invalid_parameters(self, triangle):
        from repro.quasiclique import ParameterError

        with pytest.raises(ParameterError):
            build_enumerator(triangle, 0.2, 2)


class TestFindMaximalQuasiCliques:
    """:func:`repro.run_enumeration`, the full MQCE pipeline."""

    @pytest.mark.parametrize("algorithm", ["dcfastqc", "fastqc", "quickplus", "naive"])
    def test_matches_bruteforce(self, algorithm):
        rng = random.Random(401)
        for trial in range(8):
            graph = erdos_renyi_gnp(8, rng.uniform(0.3, 0.8), seed=2000 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            theta = rng.randint(1, 3)
            expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
            result = run_enumeration(graph, QuerySpec(gamma, theta, algorithm=algorithm))
            assert set(result.maximal_quasi_cliques) == expected

    def test_result_fields(self, clique5):
        result = run_enumeration(clique5, QuerySpec(1.0, 3))
        assert isinstance(result, EnumerationResult)
        assert result.algorithm == "dcfastqc"
        assert result.gamma == 1.0
        assert result.theta == 3
        assert result.maximal_count == 1
        assert result.candidate_count >= result.maximal_count
        assert result.enumeration_seconds >= 0.0
        assert result.filtering_seconds >= 0.0
        assert result.total_seconds == pytest.approx(
            result.enumeration_seconds + result.filtering_seconds)

    def test_results_sorted_largest_first(self):
        graph = planted_quasi_clique_graph(30, 40, [7, 5], 0.9, seed=3)
        result = run_enumeration(graph, QuerySpec(0.9, 4))
        sizes = [len(h) for h in result.maximal_quasi_cliques]
        assert sizes == sorted(sizes, reverse=True)

    def test_size_statistics(self, two_triangles):
        result = run_enumeration(two_triangles, QuerySpec(1.0, 3))
        sizes = result.size_statistics()
        assert sizes.count == 2
        assert sizes.min_size == sizes.max_size == 3
        assert sizes.avg_size == pytest.approx(3.0)

    def test_summary_keys(self, triangle):
        summary = run_enumeration(triangle, QuerySpec(1.0, 2)).summary()
        for key in ("algorithm", "gamma", "theta", "maximal_count", "candidate_count",
                    "enumeration_seconds", "branches_explored"):
            assert key in summary

    def test_empty_graph(self):
        result = run_enumeration(Graph(), QuerySpec(0.9, 2))
        assert result.maximal_quasi_cliques == []
        assert result.size_statistics().count == 0

    def test_algorithm_options_forwarded(self, clique5):
        spec = QuerySpec(1.0, 3, algorithm="dcfastqc", branching="sym-se",
                         framework="basic-dc", max_rounds=1)
        result = run_enumeration(clique5, spec)
        assert result.maximal_count == 1


class TestEnumerateCandidates:
    def test_returns_candidates_and_statistics(self, clique5):
        enumerator = build_enumerator(clique5, 1.0, 3)
        candidates = enumerator.enumerate()
        assert frozenset(range(5)) in set(candidates)
        assert enumerator.statistics.branches_explored >= 0

    def test_candidates_are_superset_of_mqcs(self):
        graph = erdos_renyi_gnp(9, 0.5, seed=77)
        expected = set(enumerate_maximal_quasi_cliques_bruteforce(graph, 0.7, 2))
        for algorithm in ("dcfastqc", "fastqc", "quickplus"):
            candidates = build_enumerator(graph, 0.7, 2,
                                          algorithm=algorithm).enumerate()
            assert expected <= set(candidates)
