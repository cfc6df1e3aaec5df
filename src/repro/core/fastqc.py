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

Every branch is a :class:`repro.core.kernel.BranchState`: per-vertex degree
ledgers updated in O(deg) per vertex move turn every per-branch quantity into
an O(|S|) / O(|C|) array scan.  (:mod:`repro.oracle` keeps the mask/popcount
form of the same search as the differential-testing oracle.)  The search
runs on an explicit work stack
(:func:`repro.core.kernel.depth_first_enumerate`), so deep branch trees no
longer consume Python stack frames and no recursion-limit manipulation is
needed.  A branch reads only ``vertex_count``, ``adjacency_masks()``,
``adjacency_mask(i)`` and ``labels_of_mask(mask)`` from the search input: a
:class:`~repro.graph.graph.Graph`, or the
:class:`~repro.core.dcfastqc.CompactSubproblem` that DCFastQC and the
work-stealing workers search per subproblem without building a graph of it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from ..graph.graph import Graph, VertexLabel, iter_bits
from ..quasiclique.definitions import validate_parameters
from ..quasiclique.maximality import (
    ledger_satisfies_maximality_necessary_condition,
    mask_satisfies_maximality_necessary_condition,
)
from .branch import Branch
from .branching import BRANCHING_METHODS
from .kernel import (
    BranchState,
    depth_first_enumerate,
    generate_child_states,
    pivot_from_state,
    refine_state,
    terminates_by_theta_state,
)
from .stats import SearchStatistics


class FastQC:
    """Branch-and-bound enumerator for the MQCE-S1 problem.

    Parameters
    ----------
    graph:
        The search input: a graph, or a
        :class:`~repro.core.dcfastqc.CompactSubproblem` (searched from an
        explicit branch with :meth:`enumerate_branch`).
    gamma:
        Degree fraction threshold, in ``[0.5, 1]``.
    theta:
        Minimum size of the quasi-cliques of interest (positive integer).
    branching:
        ``"hybrid"`` (paper default: Hybrid-SE when applicable, Sym-SE
        otherwise), ``"sym-se"`` or ``"se"``.
    maximality_filter:
        When True (default), outputs must pass the polynomial necessary
        condition of maximality, which discards many non-maximal QCs without
        ever discarding a maximal one.
    maximality_rows, maximality_index:
        The adjacency rows the maximality filter checks extensions against
        (default ``graph.adjacency_masks()``), and the row index of each
        vertex of ``graph`` in them (None: the index spaces agree).  For a
        compact DC subproblem the rows must hold every edge between it and
        its outside neighbours: the full input graph's rows through the
        member list (DCFastQC on dict graphs), or the ball plus one-hop halo
        (:meth:`~repro.core.dcfastqc.CompactSubproblem.maximality_rows`, on
        CSR graphs and in work-stealing workers).  Both make suppression
        decisions identical to a whole-graph run.
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
                 branching: str = "hybrid", maximality_filter: bool = True,
                 maximality_rows: Sequence[int] | None = None,
                 maximality_index: Sequence[int] | None = None,
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
        self.maximality_filter = maximality_filter
        self._maximality_rows = (graph.adjacency_masks() if maximality_rows is None
                                 else maximality_rows)
        self._maximality_index = maximality_index
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
        self.last_branch_found = depth_first_enumerate(
            self._root(branch), self._expand, self._close,
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

    def _root(self, branch: Branch) -> BranchState:
        """The work-stack root for ``branch``."""
        return BranchState.from_branch(self.graph, branch, self.statistics)

    def _expand(self, state: BranchState):
        """One branch visit: refine, terminate (T1/T2) or branch."""
        self.statistics.branches_explored += 1

        # Lines 3-7: progressive refinement and necessary-condition checking.
        # Refinement's last pass also finds the union's minimum degree.
        (pruned, tau_value, _rounds, removed1, removed2,
         min_deg_union, pivot_vertex) = refine_state(state, self.gamma, self.theta)
        self.statistics.candidates_removed_by_refinement += removed1 + removed2
        if pruned:
            self.statistics.branches_pruned_by_condition += 1
            return False

        # Lines 8-10: termination T1 -- the whole branch is a quasi-clique.
        union_size = state.s_size + state.c_size
        if union_size - min_deg_union <= tau_value:
            self.statistics.branches_terminated_t1 += 1
            if union_size:
                return self._emit(state.union_mask, state.deg_in_union)
            return False

        # Line 11: termination T2 -- the size threshold cannot be met.
        if terminates_by_theta_state(state, self.theta, tau_value):
            self.statistics.branches_terminated_t2 += 1
            return False

        # Lines 12-18: pivot selection and branching.  Refinement already
        # found the pivot (the first vertex with the most disconnections,
        # which exceeds the budget because T1 failed).
        pivot = pivot_from_state(state, pivot_vertex, tau_value)
        children = generate_child_states(state, pivot, self.branching)

        # Lines 19-25 run in _close once every child subtree has completed.
        return children, state.s_mask

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
    def _is_quasi_clique_mask(self, subset_mask: int) -> bool:
        """Lemma 1 check on a bitmask (valid because gamma >= 0.5)."""
        from ..quasiclique.definitions import mask_is_quasi_clique

        return mask_is_quasi_clique(self.graph, subset_mask, self.gamma)

    def _emit(self, subset_mask: int, degrees=None) -> bool:
        """Record an output set; returns True iff the branch holds a QC.

        Following Algorithm 2 the return value of the *branch* is True whenever
        the branch holds a QC, even when the output itself is suppressed by the
        size threshold or the maximality necessary condition (the suppressed
        set still proves that every subset-branch output would be non-maximal).
        Size, dedup and maximality all run on the local mask (suppressed
        masks are remembered too, so a repeat emission costs one set lookup);
        labels are built only for kept outputs.  ``degrees`` is the T1
        state's ``deg_in_union`` ledger, exact for every member of the mask.
        """
        if subset_mask.bit_count() < self.theta:
            return True
        if subset_mask in self._seen_masks:
            return True
        self._seen_masks.add(subset_mask)
        if self.maximality_filter and not self._passes_maximality(subset_mask, degrees):
            self.statistics.outputs_suppressed_by_maximality += 1
            return True
        labels = self.graph.labels_of_mask(subset_mask)
        self._results.append(labels)
        self.statistics.outputs += 1
        if self.on_output is not None:
            self.on_output(labels)
        return True

    def _passes_maximality(self, subset_mask: int, degrees=None) -> bool:
        """The single-vertex-extension necessary condition of maximality.

        With ``degrees`` (a T1 output) the check reads the ledger; without
        (a ``G[S]`` output) it is the bit-sliced mask check.  Both read the
        maximality rows, through the maximality index when there is one.
        """
        rows, index = self._maximality_rows, self._maximality_index
        if degrees is not None:
            return ledger_satisfies_maximality_necessary_condition(
                rows, subset_mask, degrees, self.gamma, index)
        if index is not None:
            subset_mask = sum(1 << index[v] for v in iter_bits(subset_mask))
        return mask_satisfies_maximality_necessary_condition(
            rows, subset_mask, self.gamma)
