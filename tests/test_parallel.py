"""Tests for DCFastQC's fan-out to work-stealing workers."""

from __future__ import annotations

import pytest

from repro import DCFastQC, Graph, filter_non_maximal
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture(scope="module")
def medium_graph():
    return planted_quasi_clique_graph(80, 160, [9, 8, 7], 0.9, seed=29)


class TestConstruction:
    def test_invalid_workers(self, triangle):
        with pytest.raises(ValueError):
            DCFastQC(triangle, 0.9, 2, workers=0)
        with pytest.raises(ValueError):
            DCFastQC(triangle, 0.9, 2, parallel="shard")

    def test_invalid_parameters(self, triangle):
        from repro.quasiclique import ParameterError

        with pytest.raises(ParameterError):
            DCFastQC(triangle, 0.3, 2, workers=2)


class TestSingleWorkerFallback:
    def test_matches_sequential(self, medium_graph):
        sequential = set(DCFastQC(medium_graph, 0.9, 6).enumerate())
        single = set(DCFastQC(medium_graph, 0.9, 6, workers=1,
                              parallel="branch").enumerate())
        assert single == sequential

    def test_empty_graph(self):
        runner = DCFastQC(Graph(), 0.9, 2, workers=2, parallel="branch")
        assert runner.enumerate() == []
        assert runner.mode_selected == "sequential"  # nothing to publish

    def test_small_graph_runs_inline(self, two_triangles):
        runner = DCFastQC(two_triangles, 1.0, 3, workers=2)
        assert frozenset({0, 1, 2}) in set(runner.enumerate())
        assert runner.mode_selected == "sequential"


class TestMultiProcess:
    def test_two_workers_match_sequential(self, medium_graph):
        sequential = set(filter_non_maximal(DCFastQC(medium_graph, 0.9, 6).enumerate(), theta=6))
        parallel = DCFastQC(medium_graph, 0.9, 6, workers=2, parallel="branch")
        result = set(filter_non_maximal(parallel.enumerate(), theta=6))
        assert parallel.mode_selected == "branch"
        assert result == sequential

    def test_enumerate_output_is_sorted_and_unique(self, medium_graph):
        # Fanned out before the first subproblem, every candidate is a
        # worker emission, listed largest first.
        parallel = DCFastQC(medium_graph, 0.9, 6, workers=2, parallel="branch")
        result = parallel.enumerate()
        assert len(result) == len(set(result))
        sizes = [len(h) for h in result]
        assert sizes == sorted(sizes, reverse=True)

    def test_workers_reproduce_sequential_candidates_exactly(self, medium_graph):
        """Maximality parity: workers filter with the in-process search's
        maximality route (the full graph's rows, inherited by fork), so the
        *pre-MQCE-S2* candidate sets already agree — not only the final
        maximal answers."""
        sequential = set(DCFastQC(medium_graph, 0.9, 6).enumerate())
        parallel = DCFastQC(medium_graph, 0.9, 6, workers=2, parallel="branch")
        assert set(parallel.enumerate()) == sequential
