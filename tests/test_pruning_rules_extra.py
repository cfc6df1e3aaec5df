"""Additional unit tests for the Quick+ pruning helpers (bounds, critical vertex)."""

from __future__ import annotations

import random

from repro.baselines import max_tolerable_non_neighbors
from repro.core import Branch
from repro.oracle import branch_size_upper_bound, critical_vertex_forced_mask
from repro.graph.generators import erdos_renyi_gnp
from repro.quasiclique import enumerate_all_quasi_cliques


def make_branch(graph, partial, candidates):
    return Branch(graph.mask_of(partial), graph.mask_of(candidates), 0)


class TestSizeUpperBound:
    def test_empty_partial_returns_union_size(self, paper_figure1):
        branch = make_branch(paper_figure1, [], [1, 2, 3, 4])
        assert branch_size_upper_bound(paper_figure1, branch, 0.9) == 4

    def test_bound_holds_for_every_qc(self):
        rng = random.Random(701)
        for trial in range(10):
            graph = erdos_renyi_gnp(8, rng.uniform(0.4, 0.9), seed=2500 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            partial = set(rng.sample(graph.vertices(), 2))
            candidates = set(graph.vertices()) - partial
            branch = make_branch(graph, partial, candidates)
            bound = branch_size_upper_bound(graph, branch, gamma)
            for clique in enumerate_all_quasi_cliques(graph, gamma):
                if partial <= clique:
                    assert len(clique) <= bound


class TestNonNeighborBudget:
    def test_values(self):
        assert max_tolerable_non_neighbors(1.0, 10) == 0
        assert max_tolerable_non_neighbors(0.5, 11) == 5
        assert max_tolerable_non_neighbors(0.9, 11) == 1
        assert max_tolerable_non_neighbors(0.9, 0) == 0


class TestCriticalVertex:
    def test_empty_partial_forces_nothing(self, clique5):
        branch = Branch(0, clique5.full_mask(), 0)
        assert critical_vertex_forced_mask(clique5, branch, 1.0, 3) == 0

    def test_tight_vertex_forces_its_candidate_neighbours(self, clique5):
        # In a 5-clique with theta = 5, every partial vertex has degree exactly
        # ceil(1.0 * 4) = 4 within S ∪ C, so all candidates are forced.
        branch = make_branch(clique5, [0], [1, 2, 3, 4])
        forced = critical_vertex_forced_mask(clique5, branch, 1.0, 5)
        assert forced == branch.c_mask

    def test_slack_vertex_forces_nothing(self, clique5):
        # With theta = 3 the partial vertex has two degrees of slack.
        branch = make_branch(clique5, [0], [1, 2, 3, 4])
        assert critical_vertex_forced_mask(clique5, branch, 1.0, 3) == 0

    def test_forced_vertices_belong_to_every_large_qc(self):
        rng = random.Random(711)
        for trial in range(15):
            graph = erdos_renyi_gnp(8, rng.uniform(0.4, 0.9), seed=2600 + trial)
            gamma = rng.choice([0.5, 0.7, 0.9])
            theta = rng.randint(2, 4)
            partial = set(rng.sample(graph.vertices(), rng.randint(1, 3)))
            candidates = set(graph.vertices()) - partial
            branch = make_branch(graph, partial, candidates)
            forced = graph.labels_of_mask(
                critical_vertex_forced_mask(graph, branch, gamma, theta))
            if not forced:
                continue
            for clique in enumerate_all_quasi_cliques(graph, gamma, theta):
                if partial <= clique:
                    assert forced <= clique, (
                        f"trial {trial}: forced {sorted(forced)} not inside {sorted(clique)}")
