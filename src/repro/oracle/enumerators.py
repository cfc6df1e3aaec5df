"""Reference FastQC, DCFastQC and Quick+: the production drivers with their
per-branch hooks swapped for the mask/popcount forms.

Each class overrides only root construction, expansion, shrinking and the
maximality check; the work-stack driver, ``_close``, ``_emit``, dedup and the
statistics are the production code.  Branches are immutable
:class:`~repro.core.branch.Branch` masks, so no ledger ever moves.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..baselines.quickplus import QuickPlus
from ..core.branch import Branch
from ..core.dcfastqc import DCFastQC, two_hop_pruning_threshold
from ..core.fastqc import FastQC
from ..errors import SpecError
from ..graph.graph import Graph, iter_bits
from ..pipeline.mqce import enumerate_and_filter, resolve_algorithm
from ..pipeline.results import EnumerationResult
from ..quasiclique.definitions import degree_threshold, mask_is_quasi_clique
from ..quasiclique.maximality import satisfies_maximality_necessary_condition
from .branch import max_disconnections_in_union
from .branching import generate_branches, select_pivot
from .conditions import tau_sigma
from .pruning_rules import apply_type1_rules, critical_vertex_forced_mask, triggers_type2_rules
from .refinement import progressively_refine


class ReferenceFastQC(FastQC):
    """FastQC on :class:`Branch` masks, with per-vertex popcounts."""

    def _root(self, branch: Branch) -> Branch:
        return branch

    def _expand(self, branch: Branch):
        """One branch visit under the original mask/popcount implementation."""
        self.statistics.branches_explored += 1

        outcome = progressively_refine(self.graph, branch, self.gamma, self.theta)
        self.statistics.candidates_removed_by_refinement += (
            outcome.removed_by_rule1 + outcome.removed_by_rule2)
        if outcome.pruned:
            self.statistics.branches_pruned_by_condition += 1
            return False
        branch = outcome.branch
        tau_value = outcome.tau_value

        if max_disconnections_in_union(self.graph, branch) <= tau_value:
            self.statistics.branches_terminated_t1 += 1
            if branch.union_mask:
                return self._emit(branch.union_mask)
            return False

        if self._terminates_by_theta(branch, tau_value):
            self.statistics.branches_terminated_t2 += 1
            return False

        pivot = select_pivot(self.graph, branch, tau_value)
        if pivot is None:  # pragma: no cover - excluded by the T1 check above
            return self._emit(branch.union_mask)
        children = generate_branches(self.graph, branch, pivot, self.branching)
        return children, branch.s_mask

    def _terminates_by_theta(self, branch: Branch, tau_value: int) -> bool:
        """Termination condition T2 (Section 4.5), mask/popcount form."""
        if branch.union_size < self.theta:
            return True
        required = self.theta - tau_value
        if required <= 0:
            return False
        union = branch.union_mask
        for vertex in iter_bits(branch.s_mask):
            if (self.graph.adjacency_mask(vertex) & union).bit_count() < required:
                return True
        return False

    def _passes_maximality(self, subset_mask: int, degrees=None) -> bool:
        """The original label-space check on the whole graph, which a
        reference engine always searches (decides like the index-space ones)."""
        return satisfies_maximality_necessary_condition(
            self.graph, self.graph.labels_of_mask(subset_mask), self.gamma)


class ReferenceDCFastQC(DCFastQC):
    """DCFastQC with mask-based shrinking and one shared full-width engine."""

    _engine_class = ReferenceFastQC

    def _iter_batches(self, budget: int | None = None) -> Iterator[list[frozenset]]:
        """One shared engine branching over global-width masks, in this
        process: the reference never fans out, whatever the ``budget``."""
        engine = self._engine_class(
            self.graph, self.gamma, self.theta, branching=self.branching,
            maximality_filter=self.maximality_filter,
            on_output=self.on_output, should_stop=self.should_stop,
            progress=self.progress)
        self.statistics = engine.statistics
        for root_index, refined_mask in self._iter_subproblems():
            if self.stopped:
                return
            # D would hold the earlier roots, which the refined mask already
            # excludes; the search never reads D, so it starts empty here too.
            branch = Branch(1 << root_index, refined_mask & ~(1 << root_index), 0)
            batch = engine.enumerate_branch(branch)
            self.stopped = engine.stopped
            yield batch
            if self.stopped:
                return

    def _shrink_subproblem(self, root_index: int, subproblem_mask: int) -> int:
        """The mask-based rounds, which re-popcount every member every round."""
        use_two_hop = self.framework == "dc"
        required_degree = degree_threshold(self.gamma, self.theta)
        current = subproblem_mask
        for _ in range(self.max_rounds):
            before = current
            current = self._one_hop_prune(root_index, current, required_degree)
            if use_two_hop:
                current = self._two_hop_prune(root_index, current)
            if current == before:
                break
        return current

    def _one_hop_prune(self, root_index: int, mask: int, required_degree: int) -> int:
        """Remove ``u != root`` with fewer than ``ceil(gamma*(theta-1))`` neighbours in V_i."""
        new_mask = mask
        for u in iter_bits(mask):
            if u == root_index:
                continue
            if (self.graph.adjacency_mask(u) & mask).bit_count() < required_degree:
                new_mask &= ~(1 << u)
        return new_mask

    def _two_hop_prune(self, root_index: int, mask: int) -> int:
        """Remove ``u != root`` with too few common neighbours with the root in V_i."""
        threshold = two_hop_pruning_threshold(self.gamma, self.theta, mask.bit_count())
        root_adjacency = self.graph.adjacency_mask(root_index) & mask
        new_mask = mask
        for u in iter_bits(mask):
            if u == root_index:
                continue
            common = (root_adjacency & self.graph.adjacency_mask(u) & mask).bit_count()
            if (root_adjacency >> u) & 1:
                if common < threshold:
                    new_mask &= ~(1 << u)
            else:
                if common < threshold + 2:
                    new_mask &= ~(1 << u)
        return new_mask


class ReferenceQuickPlus(QuickPlus):
    """Quick+ on :class:`Branch` masks, with the mask-based pruning rules."""

    def _root(self, branch: Branch) -> Branch:
        return branch

    def _expand(self, branch: Branch):
        """One branch visit under the original mask/popcount implementation."""
        self.statistics.branches_explored += 1

        # Termination: no candidates left (lines 3-6).
        if branch.c_mask == 0:
            if branch.s_mask and mask_is_quasi_clique(self.graph, branch.s_mask, self.gamma):
                self._emit(branch.s_mask)
                return True
            return False

        # Critical-vertex rule: candidates that every large QC under the branch
        # must contain are moved into S before branching.
        forced = critical_vertex_forced_mask(self.graph, branch, self.gamma, self.theta)
        if forced:
            branch = branch.include(forced)

        children = []
        for child in self._create_children(branch):
            # Pruning before the next recursion (lines 9-10).
            pruned_c = apply_type1_rules(self.graph, child, self.gamma, self.theta)
            self.statistics.candidates_removed_by_type1 += (child.c_mask ^ pruned_c).bit_count()
            child = child.with_candidates(pruned_c)
            if triggers_type2_rules(self.graph, child, self.gamma, self.theta):
                self.statistics.branches_pruned_by_type2 += 1
                continue
            children.append(child)
        return children, branch.s_mask

    def _create_children(self, branch: Branch) -> list[Branch]:
        """SE branching over the natural candidate order, or the ablation branchings."""
        if self.branching == "se":
            ordering = list(iter_bits(branch.c_mask))
            children = []
            preceding = 0
            for vertex in ordering:
                bit = 1 << vertex
                children.append(Branch(branch.s_mask | bit,
                                       branch.c_mask & ~(preceding | bit),
                                       branch.d_mask | preceding))
                preceding |= bit
            return children
        # Ablation configurations: pair the Quick+ pruning rules with the new
        # pivot-driven branch generators.  The pivot needs the disconnection
        # budget tau(sigma(B)) from the FastQC framework.
        tau_value = tau_sigma(self.graph, branch, self.gamma)
        pivot = select_pivot(self.graph, branch, tau_value)
        if pivot is None:
            # The whole branch is a QC; emit it and stop descending.
            self._emit(branch.union_mask)
            return []
        return generate_branches(self.graph, branch, pivot, self.branching)


def reference_enumeration(graph: Graph, spec) -> EnumerationResult:
    """Answer one enumerate :class:`~repro.api.QuerySpec` on the reference
    enumerators, sequentially, through the production set-trie filter.

    ``spec.algorithm="auto"`` means DCFastQC, and an unset ``branching`` /
    ``framework`` takes the algorithm's default, as in
    :func:`~repro.pipeline.mqce.run_enumeration`.
    """
    if spec.k is not None or spec.contains:
        raise SpecError("the reference oracle answers enumerate specs only")
    algorithm = resolve_algorithm(spec.algorithm)
    if algorithm == "dcfastqc":
        enumerator = ReferenceDCFastQC(
            graph, spec.gamma, spec.theta, branching=spec.branching or "hybrid",
            framework=spec.framework or "dc", max_rounds=spec.max_rounds,
            maximality_filter=spec.maximality_filter)
    elif algorithm == "fastqc":
        enumerator = ReferenceFastQC(
            graph, spec.gamma, spec.theta, branching=spec.branching or "hybrid",
            maximality_filter=spec.maximality_filter)
    elif algorithm == "quickplus":
        enumerator = ReferenceQuickPlus(graph, spec.gamma, spec.theta,
                                        branching=spec.branching or "se")
    else:
        raise SpecError(f"algorithm {algorithm!r} has no reference form")
    return enumerate_and_filter(enumerator, spec)
