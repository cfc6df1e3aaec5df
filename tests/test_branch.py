"""Unit tests for the Branch representation and its degree bookkeeping."""

from __future__ import annotations

import pytest

from repro.core import Branch
from repro.oracle import (
    degree_in_partial,
    degree_in_union,
    disconnections_in_partial,
    disconnections_in_union,
    max_disconnections_in_partial,
    max_disconnections_in_union,
    min_partial_degree_in_union,
)
from repro.quasiclique import degree_within, disconnections_within, max_disconnections


class TestBranchConstruction:
    def test_initial_branch(self, paper_figure1):
        branch = Branch.initial(paper_figure1)
        assert branch.partial_size == 0
        assert branch.candidate_size == paper_figure1.vertex_count
        assert branch.d_mask == 0

    def test_from_labels_defaults(self, paper_figure1):
        branch = Branch.from_labels(paper_figure1, partial=[1], excluded=[9])
        assert branch.partial_size == 1
        assert branch.candidate_size == paper_figure1.vertex_count - 2

    def test_from_labels_explicit_candidates(self, paper_figure1):
        branch = Branch.from_labels(paper_figure1, partial=[1], candidates=[2, 3])
        assert branch.candidate_size == 2

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            Branch(0b011, 0b010, 0)
        with pytest.raises(ValueError):
            Branch(0b001, 0b010, 0b010)

    def test_sizes(self):
        branch = Branch(0b0011, 0b1100, 0)
        assert branch.partial_size == 2
        assert branch.candidate_size == 2
        assert branch.union_size == 4
        assert branch.union_mask == 0b1111

    def test_vertex_lists(self):
        branch = Branch(0b0101, 0b1010, 0b10000)
        assert branch.partial_vertices() == [0, 2]
        assert branch.candidate_vertices() == [1, 3]
        assert branch.excluded_vertices() == [4]


class TestBranchDerivation:
    def test_with_candidates(self):
        branch = Branch(0b01, 0b110, 0)
        refined = branch.with_candidates(0b100)
        assert refined.s_mask == branch.s_mask
        assert refined.candidate_size == 1

    def test_include(self):
        branch = Branch(0b01, 0b110, 0)
        child = branch.include(0b010)
        assert child.partial_vertices() == [0, 1]
        assert child.candidate_vertices() == [2]

    def test_include_non_candidate_rejected(self):
        branch = Branch(0b01, 0b110, 0)
        with pytest.raises(ValueError):
            branch.include(0b1000)

    def test_exclude(self):
        branch = Branch(0b01, 0b110, 0)
        child = branch.exclude(0b100)
        assert child.excluded_vertices() == [2]
        assert child.candidate_vertices() == [1]

    def test_exclude_non_candidate_rejected(self):
        branch = Branch(0b01, 0b110, 0)
        with pytest.raises(ValueError):
            branch.exclude(0b01)

    def test_covers(self):
        branch = Branch(0b0001, 0b0110, 0b1000)
        assert branch.covers(0b0001)
        assert branch.covers(0b0111)
        assert not branch.covers(0b0110)   # missing S
        assert not branch.covers(0b1001)   # touches D
        assert not branch.covers(0b10001)  # outside S ∪ C


class TestDegreeBookkeeping:
    def test_matches_label_space_helpers(self, paper_figure1):
        partial = {1, 2, 3}
        candidates = {4, 5, 6}
        branch = Branch(paper_figure1.mask_of(partial), paper_figure1.mask_of(candidates), 0)
        union = partial | candidates
        for label in union:
            index = paper_figure1.index_of(label)
            assert degree_in_union(paper_figure1, index, branch) == degree_within(
                paper_figure1, label, union)
            assert degree_in_partial(paper_figure1, index, branch) == degree_within(
                paper_figure1, label, partial)
            assert disconnections_in_partial(paper_figure1, index, branch) == (
                disconnections_within(paper_figure1, label, partial))
            assert disconnections_in_union(paper_figure1, index, branch) == (
                disconnections_within(paper_figure1, label, union))

    def test_max_disconnections(self, paper_figure1):
        partial = {1, 2, 3}
        candidates = {4, 5}
        branch = Branch(paper_figure1.mask_of(partial), paper_figure1.mask_of(candidates), 0)
        assert max_disconnections_in_partial(paper_figure1, branch) == max_disconnections(
            paper_figure1, partial)
        assert max_disconnections_in_union(paper_figure1, branch) == max_disconnections(
            paper_figure1, partial | candidates)

    def test_max_disconnections_empty(self, paper_figure1):
        branch = Branch(0, paper_figure1.mask_of({1}), 0)
        assert max_disconnections_in_partial(paper_figure1, branch) == 0
        empty = Branch(0, 0, 0)
        assert max_disconnections_in_union(paper_figure1, empty) == 0

    def test_min_partial_degree(self, paper_figure1):
        partial = {1, 2}
        candidates = {3, 4, 5}
        branch = Branch(paper_figure1.mask_of(partial), paper_figure1.mask_of(candidates), 0)
        expected = min(degree_within(paper_figure1, v, partial | candidates) for v in partial)
        assert min_partial_degree_in_union(paper_figure1, branch) == expected
        assert min_partial_degree_in_union(paper_figure1, Branch(0, 0b1, 0)) == 0
