"""Tests for top-k largest quasi-clique mining (exact and kernel expansion)."""

from __future__ import annotations

import random

import pytest

import repro.core.dcfastqc as dcfastqc_module
from repro import Graph, MQCEEngine, PreparedGraph, Q, QuerySpec, kernel_expansion_top_k
from repro.datasets import load_dataset
from repro.extensions import expand_kernel, largest_quasi_clique_size, top_k_summary
from repro.graph.generators import erdos_renyi_gnp, planted_quasi_clique_graph
from repro.quasiclique import (
    enumerate_maximal_quasi_cliques_bruteforce,
    is_quasi_clique,
)


class TestExactTopK:
    def test_clique_graph(self, clique5):
        top = Q(clique5).gamma(1.0).theta(2).top(1).run()
        assert top == [frozenset(range(5))]

    def test_two_triangles_top2(self, two_triangles):
        top = Q(two_triangles).gamma(1.0).theta(2).top(2).run()
        assert set(top) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_k_larger_than_available(self, two_triangles):
        top = Q(two_triangles).gamma(1.0).theta(3).top(10).run()
        assert len(top) == 2

    def test_empty_graph(self):
        assert Q(Graph()).gamma(0.9).theta(2).top(1).run() == []

    def test_invalid_k(self, triangle):
        with pytest.raises(ValueError):
            Q(triangle).gamma(0.9).theta(2).top(0).run()

    def test_sizes_are_non_increasing(self):
        graph = planted_quasi_clique_graph(40, 55, [9, 7, 6], 0.9, seed=9)
        top = Q(graph).gamma(0.9).theta(4).top(3).run()
        sizes = [len(clique) for clique in top]
        assert sizes == sorted(sizes, reverse=True)

    def test_matches_bruteforce_largest_size(self):
        rng = random.Random(71)
        for trial in range(8):
            graph = erdos_renyi_gnp(8, rng.uniform(0.4, 0.8), seed=2100 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            maximal = enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, 2)
            expected = max((len(m) for m in maximal), default=0)
            assert largest_quasi_clique_size(graph, gamma) == expected

    def test_top_k_summary(self, clique5):
        top = Q(clique5).gamma(1.0).theta(2).top(1).run()
        summary = top_k_summary(top)
        assert summary[0]["rank"] == 1
        assert summary[0]["size"] == 5

    def test_rounds_read_the_preparations_cores(self, monkeypatch):
        """Every halving round's DCFastQC reads the core mask the
        preparation memoizes per degree threshold: no round peels the whole
        graph again (neither through the engine nor through
        ``largest_quasi_clique_size`` on a prepared graph)."""
        peels = []
        peel = dcfastqc_module.k_core_vertices

        def counting_peel(*args, **kwargs):
            peels.append(args[1:])
            return peel(*args, **kwargs)

        graph = load_dataset("enron")
        expected = MQCEEngine().query(graph, QuerySpec(0.9, 5, k=3)).maximal_quasi_cliques
        monkeypatch.setattr(dcfastqc_module, "k_core_vertices", counting_peel)
        prepared = PreparedGraph(graph)
        top = MQCEEngine().query(prepared, QuerySpec(0.9, 5, k=3))
        assert top.maximal_quasi_cliques == expected
        assert largest_quasi_clique_size(prepared, 0.9) >= len(expected[0])
        assert peels == []


class TestKernelExpansion:
    def test_expand_kernel_grows_inside_clique(self, clique5):
        grown = expand_kernel(clique5, frozenset({0, 1}), 1.0)
        assert grown == frozenset(range(5))

    def test_expand_kernel_of_non_qc_is_identity(self, path4):
        assert expand_kernel(path4, frozenset({1, 4}), 0.9) == frozenset({1, 4})

    def test_results_are_quasi_cliques(self):
        graph = planted_quasi_clique_graph(40, 55, [9, 7], 0.9, seed=13)
        for clique in kernel_expansion_top_k(graph, 0.85, k=3):
            assert is_quasi_clique(graph, clique, 0.85)

    def test_finds_planted_structure(self):
        graph = planted_quasi_clique_graph(50, 60, [10], 0.95, seed=23)
        top = kernel_expansion_top_k(graph, 0.9, k=1)
        assert top and len(top[0]) >= 9

    def test_invalid_parameters(self, triangle):
        with pytest.raises(ValueError):
            kernel_expansion_top_k(triangle, 0.9, k=0)
        with pytest.raises(ValueError):
            kernel_expansion_top_k(triangle, 0.9, kernel_gamma=0.8)

    def test_heuristic_never_beats_exact(self):
        rng = random.Random(91)
        for trial in range(6):
            graph = erdos_renyi_gnp(9, rng.uniform(0.4, 0.8), seed=2200 + trial)
            gamma = 0.7
            exact = largest_quasi_clique_size(graph, gamma)
            heuristic = kernel_expansion_top_k(graph, gamma, k=1, kernel_theta=2)
            heuristic_size = len(heuristic[0]) if heuristic else 0
            assert heuristic_size <= exact
