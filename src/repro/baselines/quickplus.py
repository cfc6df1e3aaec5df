"""Quick+ (Algorithm 1): the state-of-the-art baseline reproduced from Section 3.

Quick+ explores the search space with the classic set-enumeration (SE)
branching and applies Type I (candidate) and Type II (branch) pruning rules
before each recursion.  A branch outputs its partial set ``G[S]`` only when no
sub-branch found a quasi-clique (the non-hereditary bookkeeping of
Algorithm 1).  The worst case explores ``O(2^n)`` branches.

For the paper's "co-design" ablation the branching method is configurable: the
same pruning rules can be combined with the Sym-SE or Hybrid-SE branch
generators (driven by the FastQC pivot machinery), which isolates the
contribution of the branching part.

Like the FastQC family, Quick+ runs on :class:`repro.core.kernel.BranchState`
branches, whose per-vertex degree ledgers make every Type I/II rule, the
critical-vertex rule and the terminal quasi-clique check O(|S|) / O(|C|)
flat-array scans with integer threshold arithmetic
(:mod:`repro.baselines.pruning_rules` ``*_state`` forms).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..graph.graph import Graph, VertexLabel, iter_bits
from ..quasiclique.definitions import mask_is_quasi_clique, validate_parameters
from ..core.branch import Branch
from ..core.branching import BRANCHING_METHODS
from ..core.kernel import (
    BranchState,
    depth_first_enumerate,
    generate_child_states,
    partial_is_quasi_clique_state,
    pivot_from_state,
    se_children,
    tau_sigma_state,
    union_min_degree,
)
from ..core.stats import SearchStatistics
from .pruning_rules import (
    critical_vertex_forced_mask_state,
    triggers_type2_rules_state,
    type1_removals_mask_state,
)


class QuickPlus:
    """Branch-and-bound enumerator for MQCE-S1 with SE branching and Type I/II pruning.

    Parameters mirror :class:`repro.core.fastqc.FastQC`; ``branching="se"`` is
    the faithful Quick+ configuration, while ``"sym-se"`` / ``"hybrid"``
    reproduce the paper's ablation that pairs the old pruning rules with the
    new branching methods.
    """

    def __init__(self, graph: Graph, gamma: float, theta: int,
                 branching: str = "se",
                 on_output: Callable[[frozenset], None] | None = None,
                 should_stop: Callable[[], bool] | None = None,
                 progress=None) -> None:
        validate_parameters(gamma, theta)
        if branching not in BRANCHING_METHODS:
            raise ValueError(f"branching must be one of {BRANCHING_METHODS}, got {branching!r}")
        self.graph = graph
        self.gamma = gamma
        self.theta = theta
        self.branching = branching
        self.on_output = on_output
        self.should_stop = should_stop
        self.progress = progress
        self.stopped = False
        self.statistics = SearchStatistics()
        if progress is not None:
            progress.attach_statistics(self.statistics)
        self._results: list[frozenset] = []
        self._seen_masks: set[int] = set()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def enumerate(self) -> list[frozenset]:
        """Run Quick+ on the whole graph: ``Quick-Rec(∅, V, ∅)``."""
        return self.enumerate_branch(Branch.initial(self.graph))

    def enumerate_from(self, partial: Iterable[VertexLabel],
                       candidates: Iterable[VertexLabel],
                       excluded: Iterable[VertexLabel] = ()) -> list[frozenset]:
        """Run Quick+ from an explicit starting branch given by vertex labels."""
        branch = Branch(
            self.graph.mask_of(partial),
            self.graph.mask_of(candidates),
            self.graph.mask_of(excluded),
        )
        return self.enumerate_branch(branch)

    def enumerate_branch(self, branch: Branch) -> list[frozenset]:
        """Run Quick+ starting from a prepared bitmask branch."""
        self.statistics.subproblems += 1
        self.statistics.subproblem_sizes.record(branch.union_size)
        start = len(self._results)
        depth_first_enumerate(self._root(branch), self._expand, self._close,
                              should_stop=self._poll_stop, ticker=self.progress)
        if self.progress is not None and self.progress.cancelled:
            self.stopped = True
        return self._results[start:]

    @property
    def results(self) -> list[frozenset]:
        return list(self._results)

    # ------------------------------------------------------------------
    # Search core (Algorithm 1 on an explicit work stack)
    # ------------------------------------------------------------------
    def _poll_stop(self) -> bool:
        """Cooperative cancellation: claims a QC was found so no ancestor
        emits its partial set G[S] while the work stack unwinds."""
        if self.stopped or (self.should_stop is not None and self.should_stop()):
            self.stopped = True
            return True
        return False

    def _root(self, branch: Branch) -> BranchState:
        """The work-stack root for ``branch``."""
        return BranchState.from_branch(self.graph, branch, self.statistics)

    def _expand(self, state: BranchState):
        """One branch visit: terminate, force critical vertices, branch, prune."""
        self.statistics.branches_explored += 1

        # Termination: no candidates left (lines 3-6).
        if state.c_mask == 0:
            if state.s_mask and partial_is_quasi_clique_state(state, self.gamma):
                self._emit(state.s_mask)
                return True
            return False

        # Critical-vertex rule: candidates that every large QC under the branch
        # must contain are moved into S before branching.
        forced = critical_vertex_forced_mask_state(state, self.gamma, self.theta)
        while forced:
            low = forced & -forced
            forced ^= low
            state.include(low.bit_length() - 1)

        children = self._create_child_states(state)
        kept = []
        for child in children:
            # Pruning before the next recursion (lines 9-10).
            removal_mask = type1_removals_mask_state(child, self.gamma, self.theta)
            if removal_mask:
                self.statistics.candidates_removed_by_type1 += removal_mask.bit_count()
                child.remove_mask(removal_mask)
            if triggers_type2_rules_state(child, self.gamma, self.theta):
                self.statistics.branches_pruned_by_type2 += 1
                continue
            kept.append(child)
        return kept, state.s_mask

    def _close(self, s_mask: int, found_any: bool) -> bool:
        """Additional step (lines 12-14): output G[S] if no sub-branch found a QC."""
        if found_any:
            return True
        if s_mask and mask_is_quasi_clique(self.graph, s_mask, self.gamma):
            self._emit(s_mask)
            return True
        return False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _create_child_states(self, state: BranchState) -> list[BranchState]:
        """SE branching over the natural candidate order, or the ablation branchings."""
        if self.branching == "se":
            return se_children(state, list(iter_bits(state.c_mask)))
        tau_value = tau_sigma_state(state, self.gamma)
        min_deg, pivot_vertex = union_min_degree(state)
        if state.s_size + state.c_size - min_deg <= tau_value:
            # No vertex qualifies as a pivot: the whole branch is a QC; emit
            # it and stop descending.
            self._emit(state.s_mask | state.c_mask)
            return []
        pivot = pivot_from_state(state, pivot_vertex, tau_value)
        return generate_child_states(state, pivot, self.branching)

    def _emit(self, subset_mask: int) -> None:
        if subset_mask.bit_count() < self.theta:
            return
        if subset_mask in self._seen_masks:
            return
        self._seen_masks.add(subset_mask)
        labels = self.graph.labels_of_mask(subset_mask)
        self._results.append(labels)
        self.statistics.outputs += 1
        if self.on_output is not None:
            self.on_output(labels)
