"""Tests for the parallel DCFastQC driver."""

from __future__ import annotations

import pytest

from repro import Graph, ParallelDCFastQC, filter_non_maximal
from repro.core import dcfastqc_enumerate
from repro.extensions import parallel_enumerate
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture(scope="module")
def medium_graph():
    return planted_quasi_clique_graph(80, 160, [9, 8, 7], 0.9, seed=29)


class TestConstruction:
    def test_invalid_workers(self, triangle):
        with pytest.raises(ValueError):
            ParallelDCFastQC(triangle, 0.9, 2, workers=0)

    def test_invalid_parameters(self, triangle):
        from repro.quasiclique import ParameterError

        with pytest.raises(ParameterError):
            ParallelDCFastQC(triangle, 0.3, 2)


class TestSingleWorkerFallback:
    def test_matches_sequential(self, medium_graph):
        sequential = set(dcfastqc_enumerate(medium_graph, 0.9, 6))
        single = set(parallel_enumerate(medium_graph, 0.9, 6, workers=1))
        assert single == sequential

    def test_empty_graph(self):
        assert parallel_enumerate(Graph(), 0.9, 2, workers=1) == []

    def test_small_graph_runs_inline(self, two_triangles):
        runner = ParallelDCFastQC(two_triangles, 1.0, 3, workers=1)
        assert frozenset({0, 1, 2}) in set(runner.enumerate())
        assert runner.mode_selected == "sequential"


class TestMultiProcess:
    def test_two_workers_match_sequential(self, medium_graph):
        sequential = set(filter_non_maximal(dcfastqc_enumerate(medium_graph, 0.9, 6), theta=6))
        parallel = ParallelDCFastQC(medium_graph, 0.9, 6, workers=2)
        result = set(parallel.find_maximal())
        assert result == sequential

    def test_enumerate_output_is_sorted_and_unique(self, medium_graph):
        parallel = ParallelDCFastQC(medium_graph, 0.9, 6, workers=2)
        result = parallel.enumerate()
        assert len(result) == len(set(result))
        sizes = [len(h) for h in result]
        assert sizes == sorted(sizes, reverse=True)

    def test_workers_reproduce_sequential_candidates_exactly(self, medium_graph):
        """Maximality-halo parity (ROADMAP item): with the one-hop halo
        shipped in every CompactSubproblem, workers apply exactly the
        sequential driver's maximality filtering, so the *pre-MQCE-S2*
        candidate sets already agree — not only the final maximal answers."""
        from repro.core import DCFastQC

        sequential = set(DCFastQC(medium_graph, 0.9, 6).enumerate())
        parallel = ParallelDCFastQC(medium_graph, 0.9, 6, workers=2)
        assert set(parallel.enumerate()) == sequential
