"""FastQC (Algorithm 2): the paper's new branch-and-bound algorithm for MQCE-S1.

FastQC finds a set of gamma-quasi-cliques that contains every maximal
gamma-quasi-clique of size at least theta.  Compared with Quick+ it

1. progressively refines each branch with Refinement Rules 1 and 2 and
   re-checks the SD-space necessary condition C1&2 (Section 4.2),
2. terminates a branch early when the whole branch is a QC (condition T1) or
   when the size threshold cannot be met (condition T2), and
3. branches with the Hybrid-SE / Sym-SE methods driven by a pivot vertex
   (Sections 4.3–4.4), which yields the ``O(n * d * alpha_k^n)`` bound of
   Theorem 1.

Two interchangeable execution kernels drive the search (``kernel=``):

* ``"ledger"`` (default) — the incremental :mod:`repro.core.kernel`
  branch-state kernel: per-vertex degree ledgers updated in O(deg) per vertex
  move turn every per-branch quantity into an O(|S|) / O(|C|) array scan.
* ``"reference"`` — the original mask-based functions
  (:mod:`repro.core.refinement`, :mod:`repro.core.branching`), which recompute
  each quantity with per-vertex popcounts.  Kept as the differential-testing
  oracle; both kernels visit the same branch tree and emit the same outputs
  in the same order.

Either way the search runs on an explicit work stack
(:func:`repro.core.kernel.depth_first_enumerate`), so deep branch trees no
longer consume Python stack frames and no recursion-limit manipulation is
needed.  The engine works on branches over the input graph and never
materialises subgraphs itself, so it serves both the standalone FastQC entry
point and the DCFastQC divide-and-conquer driver (which seeds it with one
compact subproblem graph per subproblem).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..graph.graph import Graph, VertexLabel, iter_bits
from ..quasiclique.definitions import validate_parameters
from ..quasiclique.maximality import (
    mask_satisfies_maximality_necessary_condition,
    satisfies_maximality_necessary_condition,
)
from .branch import Branch, max_disconnections_in_union
from .branching import BRANCHING_METHODS, generate_branches, select_pivot
from .kernel import (
    KERNELS,
    BranchState,
    depth_first_enumerate,
    generate_child_states,
    pivot_from_state,
    refine_state,
    terminates_by_theta_state,
    union_min_degree,
)
from .refinement import progressively_refine
from .stats import SearchStatistics


class FastQC:
    """Branch-and-bound enumerator for the MQCE-S1 problem.

    Parameters
    ----------
    graph:
        The input graph.
    gamma:
        Degree fraction threshold, in ``[0.5, 1]``.
    theta:
        Minimum size of the quasi-cliques of interest (positive integer).
    branching:
        ``"hybrid"`` (paper default: Hybrid-SE when applicable, Sym-SE
        otherwise), ``"sym-se"`` or ``"se"``.
    kernel:
        ``"ledger"`` (default: incremental degree-ledger kernel) or
        ``"reference"`` (original mask/popcount implementation).  Both visit
        the same branch tree and produce identical outputs.
    maximality_filter:
        When True (default), outputs must pass the polynomial necessary
        condition of maximality, which discards many non-maximal QCs without
        ever discarding a maximal one.
    maximality_graph:
        The graph the maximality filter checks extensions against; defaults
        to ``graph``.  While ``graph`` is a compact DC subproblem, this must
        hold every edge between the subproblem and its outside neighbours:
        either the full input graph (DCFastQC on dict graphs) or the
        subproblem's ball plus one-hop halo
        (:meth:`~repro.core.dcfastqc.CompactSubproblem.build_maximality_graph`,
        used on CSR graphs and by work-stealing workers).  Both make
        suppression decisions identical to a whole-graph run.
    on_output:
        Optional callback invoked with each output vertex set (as a frozenset
        of labels) as it is found.
    should_stop:
        Optional zero-argument predicate polled at every branch.  When it
        returns True the search unwinds cooperatively: :attr:`stopped` is set
        and the results collected so far are kept.  This is how streaming
        callers enforce time budgets and cancellation.
    progress:
        Optional :class:`repro.obs.progress.ProgressTicker`.  The work-stack
        driver notifies it once per branch expansion; every N branches it
        fires its callback with elapsed time, branches/sec, stack depth and a
        live counter snapshot.  A cancelling callback stops the search
        exactly like ``should_stop`` (``stopped`` is set).
    """

    def __init__(self, graph: Graph, gamma: float, theta: int,
                 branching: str = "hybrid", kernel: str = "ledger",
                 maximality_filter: bool = True,
                 maximality_graph: Graph | None = None,
                 on_output: Callable[[frozenset], None] | None = None,
                 should_stop: Callable[[], bool] | None = None,
                 progress=None) -> None:
        validate_parameters(gamma, theta)
        if branching not in BRANCHING_METHODS:
            raise ValueError(f"branching must be one of {BRANCHING_METHODS}, got {branching!r}")
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        self.graph = graph
        self.gamma = gamma
        self.theta = theta
        self.branching = branching
        self.kernel = kernel
        self.maximality_filter = maximality_filter
        self.maximality_graph = maximality_graph if maximality_graph is not None else graph
        self.on_output = on_output
        self.should_stop = should_stop
        self.progress = progress
        self.stopped = False
        self.statistics = SearchStatistics()
        if progress is not None:
            progress.attach_statistics(self.statistics)
        self._results: list[frozenset] = []
        self._seen_masks: set[int] = set()
        #: Verdict of the most recent enumerate_branch (see its docstring).
        self.last_branch_found: bool | None = None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def enumerate(self) -> list[frozenset]:
        """Run FastQC on the whole graph: ``FastQC-Rec(∅, V, ∅)``.

        Returns the found QCs as frozensets of vertex labels.  The result is a
        superset of all maximal gamma-QCs of size >= theta (MQCE-S1); pass it
        to :func:`repro.settrie.filter_non_maximal` to obtain the MQCs.
        """
        return self.enumerate_branch(Branch.initial(self.graph))

    def enumerate_from(self, partial: Iterable[VertexLabel],
                       candidates: Iterable[VertexLabel],
                       excluded: Iterable[VertexLabel] = ()) -> list[frozenset]:
        """Run FastQC on an explicit starting branch given by vertex labels."""
        branch = Branch(
            self.graph.mask_of(partial),
            self.graph.mask_of(candidates),
            self.graph.mask_of(excluded),
        )
        return self.enumerate_branch(branch)

    def enumerate_branch(self, branch: Branch,
                         scheduler=None) -> list[frozenset]:
        """Run FastQC starting from a prepared bitmask branch.

        ``scheduler`` (optional) enables the work-stealing driver variant
        (see :mod:`repro.extensions.stealing`): pending subtrees may be
        shipped to other workers, and the returned list then covers only the
        locally-emitted sets — remote emissions arrive via ``on_output`` on
        the thief's side.  :attr:`last_branch_found` records the driver's
        exact subtree verdict (True iff a quasi-clique was output anywhere in
        this branch's tree), or None when the root is still parked on stolen
        subtrees; it is the value the stealing protocol ships between workers
        so ancestors' ``G[S]`` fallback emissions stay branch-for-branch
        identical to the sequential driver.
        """
        self.statistics.subproblems += 1
        self.statistics.subproblem_sizes.record(branch.union_size)
        start = len(self._results)
        if self.kernel == "ledger":
            root = BranchState.from_branch(self.graph, branch, self.statistics)
            self.last_branch_found = depth_first_enumerate(
                root, self._expand_ledger, self._close,
                should_stop=self._poll_stop,
                ticker=self.progress, scheduler=scheduler)
        else:
            self.last_branch_found = depth_first_enumerate(
                branch, self._expand_reference, self._close,
                should_stop=self._poll_stop,
                ticker=self.progress, scheduler=scheduler)
        if self.progress is not None and self.progress.cancelled:
            self.stopped = True
        return self._results[start:]

    @property
    def results(self) -> list[frozenset]:
        """All outputs produced so far (across every call on this instance)."""
        return list(self._results)

    # ------------------------------------------------------------------
    # Search core (Algorithm 2 on an explicit work stack)
    # ------------------------------------------------------------------
    def _poll_stop(self) -> bool:
        """Cooperative cancellation: once stopped, every visit short-circuits."""
        if self.stopped or (self.should_stop is not None and self.should_stop()):
            self.stopped = True
            return True
        return False

    def _expand_ledger(self, state: BranchState):
        """One branch visit under the incremental degree-ledger kernel."""
        self.statistics.branches_explored += 1

        # Lines 3-7: progressive refinement and necessary-condition checking.
        pruned, tau_value, _rounds, removed1, removed2 = refine_state(
            state, self.gamma, self.theta)
        self.statistics.candidates_removed_by_refinement += removed1 + removed2
        if pruned:
            self.statistics.branches_pruned_by_condition += 1
            return False

        # Lines 8-10: termination T1 -- the whole branch is a quasi-clique.
        union_size = state.s_size + state.c_size
        min_deg_union, pivot_vertex = union_min_degree(state)
        if union_size - min_deg_union <= tau_value:
            self.statistics.branches_terminated_t1 += 1
            if union_size:
                return self._emit(state.union_mask)
            return False

        # Line 11: termination T2 -- the size threshold cannot be met.
        if terminates_by_theta_state(state, self.theta, tau_value):
            self.statistics.branches_terminated_t2 += 1
            return False

        # Lines 12-18: pivot selection and branching.  The union scan above
        # already found the pivot (the first vertex with the most
        # disconnections, which exceeds the budget because T1 failed).
        pivot = pivot_from_state(state, pivot_vertex, tau_value)
        children = generate_child_states(state, pivot, self.branching)

        # Lines 19-25 run in _close once every child subtree has completed.
        return children, state.s_mask

    def _expand_reference(self, branch: Branch):
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

    def _close(self, s_mask: int, found_any: bool) -> bool:
        """Lines 19-25: output G[S] when no sub-branch found a QC."""
        if found_any:
            return True
        if s_mask and self._is_quasi_clique_mask(s_mask):
            return self._emit(s_mask)
        return False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
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

    def _is_quasi_clique_mask(self, subset_mask: int) -> bool:
        """Lemma 1 check on a bitmask (valid because gamma >= 0.5)."""
        from ..quasiclique.definitions import mask_is_quasi_clique

        return mask_is_quasi_clique(self.graph, subset_mask, self.gamma)

    def _emit(self, subset_mask: int) -> bool:
        """Record an output set; returns True iff the branch holds a QC.

        Following Algorithm 2 the return value of the *branch* is True whenever
        the branch holds a QC, even when the output itself is suppressed by the
        size threshold or the maximality necessary condition (the suppressed
        set still proves that every subset-branch output would be non-maximal).
        The size and dedup checks run first so that repeat emissions of the
        same mask never pay for label materialisation or a maximality check;
        suppressed masks are remembered the same way.
        """
        if subset_mask.bit_count() < self.theta:
            return True
        if subset_mask in self._seen_masks:
            return True
        self._seen_masks.add(subset_mask)
        labels = self.graph.labels_of_mask(subset_mask)
        if self.maximality_filter and not self._passes_maximality(subset_mask, labels):
            self.statistics.outputs_suppressed_by_maximality += 1
            return True
        self._results.append(labels)
        self.statistics.outputs += 1
        if self.on_output is not None:
            self.on_output(labels)
        return True

    def _passes_maximality(self, subset_mask: int, labels: frozenset) -> bool:
        """The single-vertex-extension necessary condition of maximality.

        The ledger kernel uses the bitmask check (translating local masks to
        the maximality graph's index space when the two differ); the reference
        kernel keeps the original label-space check.  Both decide identically.
        """
        target = self.maximality_graph
        if self.kernel == "ledger":
            mask = subset_mask if target is self.graph else target.mask_of(labels)
            return mask_satisfies_maximality_necessary_condition(target, mask, self.gamma)
        return satisfies_maximality_necessary_condition(target, labels, self.gamma)


def fastqc_enumerate(graph: Graph, gamma: float, theta: int,
                     branching: str = "hybrid", kernel: str = "ledger",
                     maximality_filter: bool = True) -> list[frozenset]:
    """Functional convenience wrapper around :class:`FastQC`."""
    return FastQC(graph, gamma, theta, branching=branching, kernel=kernel,
                  maximality_filter=maximality_filter).enumerate()
