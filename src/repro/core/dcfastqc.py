"""DCFastQC (Algorithm 3): the divide-and-conquer driver around FastQC.

For gamma >= 0.5 every quasi-clique has diameter at most 2 (Property 2), so an
MQC containing vertex ``v_i`` lives entirely inside the 2-hop neighbourhood of
``v_i``.  DCFastQC exploits that:

1. reduce the graph to its ``ceil(gamma * (theta - 1))``-core (every large QC
   survives the reduction),
2. compute a degeneracy ordering ``<v_1, ..., v_n>``,
3. for each ``v_i`` build ``V_i = Γ2(v_i, V) - {v_1, ..., v_{i-1}}``
   (Equation 19), shrink it with one-hop and two-hop pruning for
   ``MAX_ROUND`` rounds, and
4. run FastQC from the branch ``(S = {v_i}, C = V_i - {v_i}, D = {v_1..v_{i-1}})``.

Every MQC is found in exactly one subproblem (the one rooted at its
lowest-ordered vertex).  The ``framework`` parameter also provides the paper's
BDCFastQC ablation (the basic divide-and-conquer of [19, 24]: degree ordering
and one-hop shrinking only) and plain FastQC (no decomposition) for Figure 12.

Subproblems are independent, and so is every pending branch inside one, which
makes the paper's future-work item, a parallel implementation, a matter of
handing them out.  With ``workers > 1`` a run fans out by the work it has
done, after the time-delayed divide and conquer of G-thinker (Guo et al.,
PVLDB 14(4), 2020): it searches in-process until it has explored
:data:`FAN_OUT_BRANCHES` branches, then publishes every pending branch of its
current subproblem and every remaining subproblem to the work-stealing
workers of :mod:`repro.extensions.stealing`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache

from ..graph.graph import Graph, VertexLabel, iter_bits
from ..graph.core_decomposition import degeneracy_ordering_within, k_core_vertices
from ..graph.subgraph import ball_and_halo, two_hop_mask
from ..obs.trace import NULL_TRACER
from ..quasiclique.definitions import degree_threshold, gamma_pq, validate_parameters
from .branch import Branch
from .branching import BRANCHING_METHODS
from .fastqc import FastQC
from .kernel import contribute_steal_result, one_hop_pass, two_hop_pass
from .stats import SearchStatistics

#: Supported divide-and-conquer frameworks (Figure 12 ablation).
DC_FRAMEWORKS = ("dc", "basic-dc", "none")

#: Default number of shrinking rounds (the paper finds MAX_ROUND = 2 sufficient).
DEFAULT_MAX_ROUNDS = 2

#: ``parallel`` modes: "auto" fans a run out once it has explored
#: :data:`FAN_OUT_BRANCHES` branches, "branch" before its first subproblem,
#: "none" never.
PARALLEL_MODES = ("auto", "none", "branch")

#: Branches a ``parallel="auto"`` run explores in-process before it fans out.
#: One fan-out (fork, seed, join) costs ~20 ms at 2 workers and ~28 ms at 4;
#: the in-process search runs ~55k branches/s on skew-parallel's giant
#: subproblem, so the budget buys ~75 ms of search, 3-4x the fan-out's cost.
#: No query of the registry grid explores that many branches (3,930 at most).
FAN_OUT_BRANCHES = 4096


@dataclass
class SubproblemRecord:
    """Size bookkeeping for one divide-and-conquer subproblem (ablation data)."""

    root: VertexLabel
    initial_size: int
    refined_size: int


@dataclass(frozen=True)
class CompactSubproblem:
    """One divide-and-conquer subproblem in a dense local index space, which
    :class:`~repro.core.fastqc.FastQC` searches directly.

    ``labels[i]`` is the original label of local index ``i`` and ``rows[i]``
    its neighbour bitmask *within the subproblem*; local indices ascend by
    global index.  The payload provides the part of the :class:`Graph`
    interface a branch reads, so bitmask and ledger widths track
    ``len(labels)`` and no graph is built per subproblem.  It is a plain
    tuple-of-ints structure on purpose: :mod:`repro.extensions.stealing`
    workers inherit it by fork, and it pickles where fork is unavailable.

    ``halo_labels`` / ``halo_adjacency`` carry the subproblem's **one-hop
    maximality halo**: every full-graph neighbour of a subproblem member that
    is not itself a member (ascending by global index), with its adjacency
    *into* the subproblem (a bitmask over the local ball indices).  Any
    single-vertex extension of a candidate ``H ⊆`` ball is adjacent to ``H``,
    so it lives in the ball or the halo, and deciding whether it extends
    ``H`` only consults edges into the ball — :meth:`maximality_rows`
    therefore lets a search that never sees the full graph reproduce the
    full-graph maximality filtering exactly.
    """

    root_local: int                 # local index of the subproblem root v_i
    labels: tuple                   # local index -> original label
    rows: tuple[int, ...]           # local index -> neighbours in the ball
    halo_labels: tuple = ()         # one-hop neighbours outside the ball
    halo_adjacency: tuple[int, ...] = ()  # their adjacency into the ball

    @classmethod
    def from_ball(cls, graph: Graph, root_index: int,
                  ball_mask: int) -> "CompactSubproblem":
        """The subproblem on ``ball_mask`` (rooted at ``root_index``), with its halo.

        Ball rows and halo come from one walk over the members' neighbours
        (:func:`~repro.graph.subgraph.ball_and_halo`):
        ``O(Σ deg(ball))``, with no ``|V|``-wide mask on a CSR-backed graph.
        """
        members, rows, halo = ball_and_halo(graph, ball_mask)
        halo_order = sorted(halo)
        label_of = graph.label_of
        return cls(root_local=members.index(root_index),
                   labels=tuple(label_of(index) for index in members),
                   rows=tuple(rows),
                   halo_labels=tuple(label_of(index) for index in halo_order),
                   halo_adjacency=tuple(halo[index] for index in halo_order))

    @classmethod
    def from_members(cls, graph: Graph, root_index: int, members: list[int],
                     mask: int) -> "CompactSubproblem":
        """The subproblem on ``mask`` (``members``: its bits ascending), no halo.

        For a graph whose rows exist as bitmasks: each edge is read once, from
        its lower endpoint's ``adjacency_mask(g) & mask``.
        """
        local_of = {index: local for local, index in enumerate(members)}
        masks = graph.adjacency_masks()
        bit_length = int.bit_length
        rows = [0] * len(members)
        later = mask
        for local, index in enumerate(members):
            later ^= 1 << index
            walk = masks[index] & later
            row = rows[local]
            bit = 1 << local
            while walk:
                low = walk & -walk
                walk ^= low
                neighbour = local_of[bit_length(low) - 1]
                rows[neighbour] |= bit
                row |= 1 << neighbour
            rows[local] = row
        return cls(root_local=local_of[root_index],
                   labels=tuple(map(graph.label_of, members)),
                   rows=tuple(rows))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def adjacency_masks(self) -> tuple[int, ...]:
        return self.rows

    def adjacency_mask(self, index: int) -> int:
        return self.rows[index]

    def labels_of_mask(self, mask: int) -> frozenset:
        """The original labels of the local indices set in ``mask``."""
        labels = self.labels
        return frozenset(labels[i] for i in iter_bits(mask))

    def maximality_rows(self) -> tuple[int, ...] | list[int]:
        """The ball's rows with halo vertex ``j`` spliced in as index
        ``len(labels) + j``, then the halo's rows: what the maximality filter
        reads.  Halo–halo edges are absent (the check adds one vertex at a
        time to a set inside the ball, so it never reads them).
        """
        if not self.halo_adjacency:
            return self.rows
        ball_size = len(self.labels)
        combined = list(self.rows)
        for offset, into_ball in enumerate(self.halo_adjacency):
            halo_bit = 1 << (ball_size + offset)
            for member in iter_bits(into_ball):
                combined[member] |= halo_bit
        combined.extend(self.halo_adjacency)
        return combined

    def initial_branch(self) -> Branch:
        """The branch ``(S = {root}, C = rest, D = ∅)`` in local index space.

        The globally-excluded prior vertices of Equation 19 simply do not
        exist in the compact index space, so D starts empty.
        """
        root_bit = 1 << self.root_local
        full = (1 << len(self.labels)) - 1
        return Branch(root_bit, full & ~root_bit, 0)


@dataclass
class DCStatistics:
    """Statistics specific to the divide-and-conquer layer."""

    core_reduction_kept: int = 0
    core_reduction_removed: int = 0
    subproblem_records: list[SubproblemRecord] = field(default_factory=list)

    def reduction_ratio(self) -> float:
        """Average refined-subproblem size divided by the original graph size."""
        total = self.core_reduction_kept + self.core_reduction_removed
        if total == 0 or not self.subproblem_records:
            return 0.0
        average = sum(r.refined_size for r in self.subproblem_records) / len(self.subproblem_records)
        return average / total


@lru_cache(maxsize=4096)
def two_hop_pruning_threshold(gamma: float, theta: int, max_size: int) -> int:
    """Return the common-neighbour threshold ``f`` used by the two-hop pruning rule.

    For adjacent ``u`` and ``v_i`` inside a QC ``H`` with ``|H| = h`` the number
    of common neighbours within ``H`` is at least ``h - 2 * tau(h)``; for
    non-adjacent pairs it is at least ``h - 2 * tau(h) + 2``.  Since only
    ``theta <= h <= max_size`` matters, the provably safe threshold is the
    minimum of ``h - 2 * tau(h)`` over that range (which coincides with the
    paper's closed form ``theta - tau(theta) - tau(theta + 1)`` in practice).
    Evaluated in integer arithmetic over ``gamma = p/q``
    (``tau(h) = ((q-p)*h + p) // q``) and memoized: the shrinking loop
    re-evaluates it for every subproblem and round, over a small set of
    distinct ``max_size`` values.
    """
    if max_size < theta:
        return 0
    p, q = gamma_pq(gamma)
    d = q - p
    return min(h - 2 * ((d * h + p) // q) for h in range(theta, max_size + 1))


class DCFastQC:
    """Divide-and-conquer MQCE-S1 enumerator built on top of :class:`FastQC`.

    Each subproblem is searched as a :class:`CompactSubproblem` in a dense
    local index space, so bitmask and ledger widths track the subproblem
    size, not the graph, and no :class:`Graph` is built per subproblem.

    Parameters
    ----------
    graph:
        The input graph, or an engine
        :class:`~repro.engine.prepared.PreparedGraph` of it: the
        preparation's memoized core mask (exact at every graph version) then
        replaces the core peel of line 1.
    gamma, theta:
        The MQCE parameters (gamma in [0.5, 1], theta >= 1).
    branching:
        Branching method passed to the underlying FastQC engine
        (``"hybrid"``, ``"sym-se"`` or ``"se"``).
    framework:
        ``"dc"`` (paper's framework: degeneracy ordering, one-hop + two-hop
        shrinking), ``"basic-dc"`` (BDCFastQC: degree ordering, one-hop
        shrinking only) or ``"none"`` (run FastQC on the whole graph).
    max_rounds:
        Number of shrinking rounds applied to each subproblem (MAX_ROUND).
    maximality_filter:
        Forwarded to FastQC; filters outputs by the necessary condition of
        maximality.  Checking against the full graph or against a
        subproblem's ball plus halo decides identically, so every graph
        backend emits the same candidate sets.
    should_stop:
        Optional zero-argument predicate polled before every subproblem and at
        every FastQC branch; returning True stops the enumeration
        cooperatively (:attr:`stopped` is set, partial results are kept).
    progress:
        Optional :class:`repro.obs.progress.ProgressTicker`, shared across
        every per-subproblem engine so its branch count and counter snapshot
        cover the whole run; a cancelling callback stops like ``should_stop``.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When given, the driver records
        one ``decompose`` span (core reduction + ordering), a ``shrink`` span
        per subproblem, a ``subproblem`` span per enumeration with that
        subproblem's counter deltas, and a ``fan_out`` span when the run
        fans out.
    workers, parallel:
        With ``workers > 1`` :meth:`enumerate` may fan the run out to that
        many work-stealing worker processes (:mod:`repro.extensions.stealing`):
        ``parallel="auto"`` once it has explored :data:`FAN_OUT_BRANCHES`
        branches, ``"branch"`` before the first subproblem, ``"none"`` never.
        A run with ``should_stop``, ``on_output`` or ``progress``, and
        :meth:`iter_candidate_batches`, never fans out.
    steal_schedule:
        A deterministic steal trigger for the workers (tests); default: the
        idle-worker signal.
    """

    #: The FastQC class each batch runs on (:mod:`repro.oracle` swaps in its
    #: mask/popcount form).
    _engine_class = FastQC

    def __init__(self, graph: Graph, gamma: float, theta: int,
                 branching: str = "hybrid", framework: str = "dc",
                 max_rounds: int = DEFAULT_MAX_ROUNDS,
                 maximality_filter: bool = True,
                 on_output: Callable[[frozenset], None] | None = None,
                 should_stop: Callable[[], bool] | None = None,
                 progress=None, tracer=None, workers: int = 1,
                 parallel: str = "auto", steal_schedule=None) -> None:
        # Lazy import: the engine package imports this module.
        from ..engine.prepared import PreparedGraph, as_plain_graph

        validate_parameters(gamma, theta)
        if branching not in BRANCHING_METHODS:
            raise ValueError(f"branching must be one of {BRANCHING_METHODS}, got {branching!r}")
        if framework not in DC_FRAMEWORKS:
            raise ValueError(f"framework must be one of {DC_FRAMEWORKS}, got {framework!r}")
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        if parallel not in PARALLEL_MODES:
            raise ValueError(f"parallel must be one of {PARALLEL_MODES}, got {parallel!r}")
        self.prepared = graph if isinstance(graph, PreparedGraph) else None
        self.graph = as_plain_graph(graph)
        self.gamma = gamma
        self.theta = theta
        self.branching = branching
        self.framework = framework
        self.max_rounds = max_rounds
        self.maximality_filter = maximality_filter
        self.on_output = on_output
        self.should_stop = should_stop
        self.progress = progress
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.workers = workers
        self.parallel = parallel
        self.steal_schedule = steal_schedule
        self.stopped = False
        self.statistics = SearchStatistics()
        self.dc_statistics = DCStatistics()
        #: After :meth:`enumerate` of a run that may fan out, ``"branch"`` if
        #: it did and ``"sequential"`` if it did not; None otherwise.
        self.mode_selected: str | None = None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def enumerate(self) -> list[frozenset]:
        """Enumerate a set of QCs containing every MQC of size >= theta (MQCE-S1)."""
        # Only DC subproblems fan out, and only in runs nothing watches branch
        # by branch (a stop predicate, an output callback or a ticker).
        if (self.workers > 1 and self.parallel != "none" and self.framework != "none"
                and self.should_stop is None and self.on_output is None
                and self.progress is None):
            from ..extensions.stealing import WorkerCrash

            self.mode_selected = "sequential"
            budget = 0 if self.parallel == "branch" else FAN_OUT_BRANCHES
            try:
                return [clique for batch in self._iter_batches(budget)
                        for clique in batch]
            except (WorkerCrash, OSError, ValueError):
                # A dead worker (or a failed fork) must not cost the answer:
                # rerun in-process.  The coordinator has already joined its
                # workers and closed its queues.
                pass
        return [clique for batch in self.iter_candidate_batches()
                for clique in batch]

    def iter_candidate_batches(self) -> Iterator[list[frozenset]]:
        """Yield the MQCE-S1 candidates one divide-and-conquer subproblem at a time.

        Each yielded list holds the candidates found in one subproblem (the one
        rooted at the next vertex of the ordering); concatenating every batch
        gives exactly :meth:`enumerate`'s result.  The batch boundary carries a
        guarantee streaming consumers rely on: every output of subproblem ``i``
        contains its root ``v_i`` and no earlier-ordered vertex, so any proper
        superset of it in the full candidate set appears in a subproblem
        ``j <= i``.  Once a batch has been yielded, the maximality of its
        members is therefore decidable against the candidates seen so far.
        Batches are always searched in this process.

        With ``framework="none"`` there is a single batch (the whole FastQC
        run), and no incremental guarantee beyond completeness.
        """
        if self.framework == "none":
            engine = self._engine_class(
                self.graph, self.gamma, self.theta, branching=self.branching,
                maximality_filter=self.maximality_filter,
                on_output=self.on_output, should_stop=self.should_stop,
                progress=self.progress)
            self.statistics = engine.statistics
            batch = engine.enumerate()
            self.stopped = engine.stopped
            yield batch
            return
        yield from self._iter_batches()

    # ------------------------------------------------------------------
    # The subproblem loop: in-process search, then (maybe) the fan-out
    # ------------------------------------------------------------------
    def _iter_batches(self, budget: int | None = None) -> Iterator[list[frozenset]]:
        """One batch per subproblem, each searched in-process on its payload.

        With a ``budget`` the run fans out once it has explored that many
        branches, counted run-wide.  The check runs between subproblems and
        before every visit inside one, where a spent budget stops the search
        and parks its pending visits (the ``park`` hook of
        :func:`~repro.core.kernel.depth_first_enumerate`).
        The fan-out's candidates (:meth:`_fan_out`) are the last batch.
        """
        self.statistics = SearchStatistics()
        self.dc_statistics = DCStatistics()
        if self.progress is not None:
            # The run-wide aggregate drives the heartbeat counter snapshot;
            # per-subproblem engine statistics must not displace it.
            self.progress.attach_statistics(self.statistics)
        should_stop, taken, park = self.should_stop, [], None
        if budget is not None:
            park = taken.extend

            def should_stop() -> bool:
                return engine.statistics.branches_explored >= remaining
        payloads = self._iter_payloads()
        for payload, route in payloads:
            if self.stopped:
                return
            if budget is not None:
                remaining = budget - self.statistics.branches_explored
                if remaining <= 0:
                    yield self._fan_out([(payload, route), *payloads])
                    return
            maximality_rows, maximality_index = route
            engine = self._engine_class(
                payload, self.gamma, self.theta, branching=self.branching,
                maximality_filter=self.maximality_filter,
                maximality_rows=maximality_rows, maximality_index=maximality_index,
                on_output=self.on_output, should_stop=should_stop,
                progress=self.progress)
            with self.tracer.span("subproblem", stats=engine.statistics,
                                  root=str(payload.labels[payload.root_local]),
                                  size=payload.vertex_count):
                batch = engine.enumerate_branch(payload.initial_branch(), park=park)
            if taken:
                yield self._fan_out([(payload, route), *payloads], engine, taken)
                return
            self.statistics.merge(engine.statistics)
            self.statistics.subproblem_branches.record(engine.statistics.branches_explored)
            self.stopped = engine.stopped
            yield batch
            if self.stopped:
                return

    def _fan_out(self, payloads: list, engine: FastQC | None = None,
                 taken: list | tuple = ()) -> list[frozenset]:
        """Publish the rest of the run to :attr:`workers` work-stealing workers.

        ``payloads`` are the current subproblem and every later one, as
        ``(payload, route)`` pairs.  With ``engine`` the budget ran out
        inside the current subproblem, and ``taken`` holds the pending
        ``(branch, parked frame)`` pairs its search stopped with: the
        workers search those branches and every later root, and each taken
        branch's verdict closes its parked frames here, as a donor's would.
        Otherwise the workers search every root.  Returns the parent's own
        outputs in the current subproblem, then every other worker emission.
        The ``fan_out`` span records the run-wide branch count explored in this
        process (``branches``), the branches taken off the stack
        (``taken``), the tasks published and the workers' steals.
        """
        from ..extensions.parallel import record_parallel_run
        from ..extensions.stealing import branch_parallel_enumerate

        seeds = [(0, state) for state, _frame in taken]
        seeds += [(index, payload.initial_branch())
                  for index, (payload, _route) in enumerate(payloads)
                  if index or engine is None]
        explored = self.statistics.branches_explored
        if engine is not None:
            explored += engine.statistics.branches_explored
        with self.tracer.span("fan_out", workers=self.workers, branches=explored,
                              taken=len(taken)) as span:
            found, worker_statistics, telemetry, verdicts = branch_parallel_enumerate(
                payloads, self.gamma, self.theta, seeds=seeds,
                branching=self.branching,
                maximality_filter=self.maximality_filter, workers=self.workers,
                steal_schedule=self.steal_schedule)
            span.annotate(tasks=len(seeds), steals=worker_statistics.steals)
        local: list[frozenset] = []
        if engine is not None:
            for (_state, frame), verdict in zip(taken, verdicts):
                contribute_steal_result(frame, verdict, engine._close)
            self.statistics.merge(engine.statistics)
            local = engine.results
        self.statistics.merge(worker_statistics)
        self.mode_selected = "branch"
        record_parallel_run(payloads, self.statistics, telemetry)
        # Largest first, as the set-trie filter reads them.
        return local + sorted(found.difference(local), key=len, reverse=True)

    def _iter_payloads(self) -> Iterator[tuple[CompactSubproblem, tuple]]:
        """Every non-trivial subproblem as a payload with its maximality route.

        The route is the ``(maximality_rows, maximality_index)`` pair the
        payload's FastQC filters with (see :class:`FastQC`); it depends only
        on the backend.  On a dict graph it is the full graph's rows through
        the member list: they already exist, workers inherit them by fork,
        and a halo measured slower.  A CSR-backed graph has no bitmask rows,
        so its payloads carry a halo and the route is their
        :meth:`~CompactSubproblem.maximality_rows`.  Both decide like a
        whole-graph check.
        """
        graph = self.graph
        full_rows = (None if getattr(graph, "indptr", None) is not None
                     else graph.adjacency_masks())
        for root_index, refined_mask in self._iter_subproblems():
            if full_rows is None:
                payload = CompactSubproblem.from_ball(graph, root_index, refined_mask)
                yield payload, (payload.maximality_rows(), None)
            else:
                members = list(iter_bits(refined_mask))
                yield (CompactSubproblem.from_members(graph, root_index, members,
                                                      refined_mask),
                       (full_rows, members))

    def _iter_subproblems(self) -> Iterator[tuple[int, int]]:
        """Lines 2-6 of Algorithm 3: yield ``(root_index, refined_mask)``.

        Every root's sizes go to the DC statistics' subproblem records; the
        trivial ones (refined size below theta, or the root pruned by its own
        shrinking) are not yielded.
        Sets :attr:`stopped` when ``should_stop`` fires between subproblems.
        """
        with self.tracer.span("decompose") as decompose_span:
            core_mask = self._core_reduction_mask()
            ordering = self._vertex_ordering(core_mask)
            decompose_span.annotate(
                core_kept=self.dc_statistics.core_reduction_kept,
                core_removed=self.dc_statistics.core_reduction_removed,
                ordering=len(ordering))
        graph = self.graph
        remaining = core_mask
        for root in ordering:
            if self.should_stop is not None and self.should_stop():
                self.stopped = True
                return
            root_index = graph.index_of(root)
            subproblem_mask = two_hop_mask(graph, root_index, remaining)
            remaining ^= 1 << root_index  # later subproblems exclude v_i
            initial_size = subproblem_mask.bit_count()
            with self.tracer.span("shrink", stats=self.statistics,
                                  root=str(root)) as shrink_span:
                refined_mask = self._shrink_subproblem(root_index, subproblem_mask)
                shrink_span.annotate(initial=initial_size,
                                     refined=refined_mask.bit_count())
            self.dc_statistics.subproblem_records.append(SubproblemRecord(
                root=root, initial_size=initial_size,
                refined_size=refined_mask.bit_count()))
            if refined_mask.bit_count() < self.theta or not (refined_mask >> root_index) & 1:
                continue
            yield root_index, refined_mask

    # ------------------------------------------------------------------
    # Divide-and-conquer internals
    # ------------------------------------------------------------------
    def _core_reduction_mask(self) -> int:
        """Line 1 of Algorithm 3: keep only the ``ceil(gamma*(theta-1))``-core.

        A preparation already holds this mask (the planner memoizes it for
        every plan), so it is reused instead of re-peeling.
        """
        prepared = self.prepared
        if prepared is not None:
            mask = prepared.core_mask(self.gamma, self.theta)
            kept = mask.bit_count()
        else:
            kept_labels = k_core_vertices(self.graph, degree_threshold(self.gamma, self.theta))
            mask = self.graph.mask_of(kept_labels)
            kept = len(kept_labels)
        self.dc_statistics.core_reduction_kept = kept
        self.dc_statistics.core_reduction_removed = self.graph.vertex_count - kept
        return mask

    def _vertex_ordering(self, core_mask: int) -> list[VertexLabel]:
        """Line 2 of Algorithm 3: degeneracy ordering ("dc") or degree ordering ("basic-dc")."""
        if not core_mask:
            return []
        graph = self.graph
        if self.framework == "basic-dc":
            return sorted(graph.labels_of_mask(core_mask),
                          key=lambda v: (graph.degree(v), graph.index_of(v)))
        # Restricted ordering in the graph's own index space: no graph of the
        # core is built.  The tie-breaks are content-deterministic, so this
        # equals ordering a rebuilt copy of G[core_mask].
        return degeneracy_ordering_within(graph, core_mask)

    def _shrink_subproblem(self, root_index: int, subproblem_mask: int) -> int:
        """Lines 5-6 of Algorithm 3: one-hop and two-hop pruning for MAX_ROUND rounds.

        Each round runs the store-free :func:`~repro.core.kernel.one_hop_pass`
        and, for ``framework="dc"``, :func:`~repro.core.kernel.two_hop_pass`
        at the threshold of the current alive count.  A pass recounts
        against its pass-start alive set and removes simultaneously, as the
        mask-based reference does; only the alive mask carries over.
        """
        graph = self.graph
        use_two_hop = self.framework == "dc"
        required_degree = degree_threshold(self.gamma, self.theta)
        stats = self.statistics
        alive = subproblem_mask
        for _ in range(self.max_rounds):
            stats.shrink_rounds += 1
            removal = one_hop_pass(graph, root_index, alive, required_degree)
            alive ^= removal
            removed = removal.bit_count()
            stats.shrink_removed_one_hop += removed
            if use_two_hop:
                threshold = two_hop_pruning_threshold(
                    self.gamma, self.theta, alive.bit_count())
                removal = two_hop_pass(graph, root_index, alive, threshold)
                alive ^= removal
                dropped = removal.bit_count()
                stats.shrink_removed_two_hop += dropped
                removed += dropped
            if removed == 0:
                break
        return alive
