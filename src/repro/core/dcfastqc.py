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
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache

from ..graph.graph import Graph, VertexLabel, iter_bits
from ..graph.core_decomposition import degeneracy_ordering_within, k_core_vertices
from ..graph.subgraph import compact_subgraph, two_hop_mask
from ..obs.trace import NULL_TRACER
from ..quasiclique.definitions import degree_threshold, gamma_pq, validate_parameters
from .branch import Branch
from .branching import BRANCHING_METHODS
from .fastqc import FastQC
from .kernel import KERNELS, ShrinkLedgers
from .stats import SearchStatistics

#: Supported divide-and-conquer frameworks (Figure 12 ablation).
DC_FRAMEWORKS = ("dc", "basic-dc", "none")

#: Default number of shrinking rounds (the paper finds MAX_ROUND = 2 sufficient).
DEFAULT_MAX_ROUNDS = 2


@dataclass
class SubproblemRecord:
    """Size bookkeeping for one divide-and-conquer subproblem (ablation data)."""

    root: VertexLabel
    initial_size: int
    refined_size: int


@dataclass(frozen=True)
class CompactSubproblem:
    """One divide-and-conquer subproblem remapped to a dense local index space.

    ``labels[i]`` is the original label of local index ``i`` and
    ``adjacency_masks[i]`` its neighbour bitmask *within the subproblem*, so
    bitmask and ledger widths track ``len(labels)`` instead of the input
    graph's vertex count.  The payload is a plain tuple-of-ints structure on
    purpose: :mod:`repro.extensions.stealing` copies it into one shared-memory
    segment per subproblem for its worker processes.

    ``halo_labels`` / ``halo_adjacency`` carry the subproblem's **one-hop
    maximality halo**: every full-graph neighbour of a subproblem member that
    is not itself a member, with its adjacency *into* the subproblem (a
    bitmask over the local ball indices).  Any single-vertex extension of a
    candidate ``H ⊆`` ball is adjacent to ``H``, so it lives in the ball or
    the halo, and deciding whether it extends ``H`` only consults edges into
    the ball — the halo therefore lets a worker that never sees the full
    graph reproduce the sequential driver's maximality filtering exactly.
    """

    root_local: int                 # local index of the subproblem root v_i
    labels: tuple                   # local index -> original label
    adjacency_masks: tuple[int, ...]
    halo_labels: tuple = ()         # one-hop neighbours outside the ball
    halo_adjacency: tuple[int, ...] = ()  # their adjacency into the ball

    def build_graph(self) -> Graph:
        """Materialise the subproblem graph (labels preserved)."""
        return Graph.from_dense_adjacency(self.labels, self.adjacency_masks)

    def build_maximality_graph(self) -> Graph:
        """Materialise the ball plus its one-hop halo (maximality surrogate).

        Halo vertices occupy the local indices after the ball; halo–halo
        edges are intentionally absent (the necessary-condition check adds
        one vertex at a time to a set inside the ball, so it never reads
        them).  Without a recorded halo this is just the ball graph.
        """
        if not self.halo_labels:
            return self.build_graph()
        ball_size = len(self.labels)
        combined = list(self.adjacency_masks)
        for offset, ball_adjacency in enumerate(self.halo_adjacency):
            halo_bit = 1 << (ball_size + offset)
            combined.append(ball_adjacency)
            for member in iter_bits(ball_adjacency):
                combined[member] |= halo_bit
        return Graph.from_dense_adjacency(self.labels + self.halo_labels, combined)

    def initial_branch(self) -> Branch:
        """The branch ``(S = {root}, C = rest, D = ∅)`` in local index space.

        The globally-excluded prior vertices of Equation 19 simply do not
        exist in the compact graph, so D starts empty.
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

    Parameters
    ----------
    graph:
        The input graph.
    gamma, theta:
        The MQCE parameters (gamma in [0.5, 1], theta >= 1).
    branching:
        Branching method passed to the underlying FastQC engine
        (``"hybrid"``, ``"sym-se"`` or ``"se"``).
    framework:
        ``"dc"`` (paper's framework: degeneracy ordering, one-hop + two-hop
        shrinking), ``"basic-dc"`` (BDCFastQC: degree ordering, one-hop
        shrinking only) or ``"none"`` (run FastQC on the whole graph).
    kernel:
        ``"ledger"`` (default) — each subproblem is remapped to a compact
        dense index space and enumerated with the incremental degree-ledger
        kernel, so bitmask and ledger widths track the subproblem size, not
        the graph.  ``"reference"`` — the original path: one shared FastQC
        engine branching over full-graph-width masks.
    max_rounds:
        Number of shrinking rounds applied to each subproblem (MAX_ROUND).
    maximality_filter:
        Forwarded to FastQC; filters outputs by the necessary condition of
        maximality (always checked against the *full* input graph, also when
        subproblems run on compact graphs).
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
        per subproblem, and — on the compact ledger path — a ``subproblem``
        span per enumeration with that subproblem's counter deltas.
    """

    def __init__(self, graph: Graph, gamma: float, theta: int,
                 branching: str = "hybrid", framework: str = "dc",
                 kernel: str = "ledger",
                 max_rounds: int = DEFAULT_MAX_ROUNDS,
                 maximality_filter: bool = True,
                 on_output: Callable[[frozenset], None] | None = None,
                 should_stop: Callable[[], bool] | None = None,
                 progress=None, tracer=None) -> None:
        validate_parameters(gamma, theta)
        if branching not in BRANCHING_METHODS:
            raise ValueError(f"branching must be one of {BRANCHING_METHODS}, got {branching!r}")
        if framework not in DC_FRAMEWORKS:
            raise ValueError(f"framework must be one of {DC_FRAMEWORKS}, got {framework!r}")
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        self.graph = graph
        self.gamma = gamma
        self.theta = theta
        self.branching = branching
        self.framework = framework
        self.kernel = kernel
        self.max_rounds = max_rounds
        self.maximality_filter = maximality_filter
        self.on_output = on_output
        self.should_stop = should_stop
        self.progress = progress
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stopped = False
        self.statistics = SearchStatistics()
        self.dc_statistics = DCStatistics()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def enumerate(self) -> list[frozenset]:
        """Enumerate a set of QCs containing every MQC of size >= theta (MQCE-S1)."""
        results: list[frozenset] = []
        for batch in self.iter_candidate_batches():
            results.extend(batch)
        return results

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

        With ``framework="none"`` there is a single batch (the whole FastQC
        run), and no incremental guarantee beyond completeness.
        """
        if self.framework == "none":
            engine = FastQC(self.graph, self.gamma, self.theta,
                            branching=self.branching, kernel=self.kernel,
                            maximality_filter=self.maximality_filter,
                            on_output=self.on_output, should_stop=self.should_stop,
                            progress=self.progress)
            self.statistics = engine.statistics
            batch = engine.enumerate()
            self.stopped = engine.stopped
            yield batch
            return

        if self.kernel == "ledger":
            yield from self._iter_batches_compact()
            return

        # Reference path: one shared engine branching over global-width masks.
        engine = FastQC(self.graph, self.gamma, self.theta, branching=self.branching,
                        kernel=self.kernel, maximality_filter=self.maximality_filter,
                        on_output=self.on_output, should_stop=self.should_stop,
                        progress=self.progress)
        self.statistics = engine.statistics
        for root_index, refined_mask, prior_mask in self._iter_subproblems():
            if self.stopped:
                return
            branch = Branch(
                1 << root_index,
                refined_mask & ~(1 << root_index),
                prior_mask & ~(1 << root_index),
            )
            batch = engine.enumerate_branch(branch)
            self.stopped = engine.stopped
            yield batch
            if self.stopped:
                return

    def _iter_batches_compact(self) -> Iterator[list[frozenset]]:
        """Kernelized batches: each subproblem runs on its own compact graph.

        The per-subproblem FastQC engines carry ledgers and bitmasks whose
        width is the subproblem size; the maximality filter still checks
        extensions against the full input graph, so the emitted candidate
        sets are identical to the reference path's.  Statistics from every
        subproblem engine are merged into :attr:`statistics`.
        """
        self.statistics = SearchStatistics()
        if self.progress is not None:
            # The run-wide aggregate drives the heartbeat counter snapshot;
            # per-subproblem engine statistics must not displace it.
            self.progress.attach_statistics(self.statistics)
        for root_index, refined_mask, _prior_mask in self._iter_subproblems():
            if self.stopped:
                return
            subgraph = compact_subgraph(self.graph, refined_mask)
            root_local = (refined_mask & ((1 << root_index) - 1)).bit_count()
            engine = FastQC(subgraph, self.gamma, self.theta,
                            branching=self.branching, kernel="ledger",
                            maximality_filter=self.maximality_filter,
                            maximality_graph=self.graph,
                            on_output=self.on_output, should_stop=self.should_stop,
                            progress=self.progress)
            root_bit = 1 << root_local
            branch = Branch(root_bit, subgraph.full_mask() & ~root_bit, 0)
            with self.tracer.span("subproblem", stats=engine.statistics,
                                  root=str(self.graph.label_of(root_index)),
                                  size=subgraph.vertex_count):
                batch = engine.enumerate_branch(branch)
            self.statistics.merge(engine.statistics)
            self.statistics.subproblem_branches.record(
                engine.statistics.branches_explored)
            self.stopped = engine.stopped
            yield batch
            if self.stopped:
                return

    def iter_compact_subproblems(self) -> Iterator[CompactSubproblem]:
        """Yield every non-trivial subproblem as a picklable compact payload.

        This is the fan-out surface of
        :class:`repro.extensions.parallel.ParallelDCFastQC`: the parent
        process runs the cheap global preprocessing (core reduction, ordering,
        two-hop shrinking) and ships each subproblem as dense local-index
        adjacency — worker enumeration cost then scales with the subproblem,
        not the graph.
        """
        graph = self.graph
        for root_index, refined_mask, _prior_mask in self._iter_subproblems():
            if self.stopped:
                return
            subgraph = compact_subgraph(graph, refined_mask)
            root_local = (refined_mask & ((1 << root_index) - 1)).bit_count()
            # One-hop maximality halo: every outside neighbour of a member,
            # with its adjacency remapped into the ball's local index space.
            local_of = {global_index: local
                        for local, global_index in enumerate(iter_bits(refined_mask))}
            halo_mask = 0
            for member in local_of:
                halo_mask |= graph.adjacency_mask(member)
            halo_mask &= ~refined_mask
            halo_labels = []
            halo_adjacency = []
            for outside in iter_bits(halo_mask):
                into_ball = 0
                for member in iter_bits(graph.adjacency_mask(outside) & refined_mask):
                    into_ball |= 1 << local_of[member]
                halo_labels.append(graph.label_of(outside))
                halo_adjacency.append(into_ball)
            yield CompactSubproblem(
                root_local=root_local,
                labels=tuple(subgraph.vertices()),
                adjacency_masks=tuple(subgraph.adjacency_masks()),
                halo_labels=tuple(halo_labels),
                halo_adjacency=tuple(halo_adjacency),
            )

    def _iter_subproblems(self) -> Iterator[tuple[int, int, int]]:
        """Lines 2-6 of Algorithm 3: yield ``(root_index, refined_mask, prior_mask)``.

        Trivial subproblems (refined size below theta, or the root pruned by
        its own shrinking) are recorded in the DC statistics but not yielded.
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
        prior_mask = 0
        for root in ordering:
            if self.should_stop is not None and self.should_stop():
                self.stopped = True
                return
            root_index = graph.index_of(root)
            remaining = core_mask & ~prior_mask
            subproblem_mask = two_hop_mask(graph, root_index, remaining)
            initial_size = subproblem_mask.bit_count()
            with self.tracer.span("shrink", stats=self.statistics,
                                  root=str(root)) as shrink_span:
                refined_mask = self._shrink_subproblem(root_index, subproblem_mask)
                shrink_span.annotate(initial=initial_size,
                                     refined=refined_mask.bit_count())
            self.dc_statistics.subproblem_records.append(SubproblemRecord(
                root=root, initial_size=initial_size,
                refined_size=refined_mask.bit_count()))
            self.statistics.subproblem_sizes.record(refined_mask.bit_count())
            prior_mask |= 1 << root_index
            if refined_mask.bit_count() < self.theta or not (refined_mask >> root_index) & 1:
                continue
            yield root_index, refined_mask, prior_mask

    # ------------------------------------------------------------------
    # Divide-and-conquer internals
    # ------------------------------------------------------------------
    def _core_reduction_mask(self) -> int:
        """Line 1 of Algorithm 3: keep only the ``ceil(gamma*(theta-1))``-core."""
        core_order = degree_threshold(self.gamma, self.theta)
        kept = k_core_vertices(self.graph, core_order)
        self.dc_statistics.core_reduction_kept = len(kept)
        self.dc_statistics.core_reduction_removed = self.graph.vertex_count - len(kept)
        return self.graph.mask_of(kept)

    def _vertex_ordering(self, core_mask: int) -> list[VertexLabel]:
        """Line 2 of Algorithm 3: degeneracy ordering ("dc") or degree ordering ("basic-dc")."""
        kept_labels = self.graph.labels_of_mask(core_mask)
        if not kept_labels:
            return []
        if self.framework == "basic-dc":
            return sorted(kept_labels, key=lambda v: (self.graph.degree(v), self.graph.index_of(v)))
        # Restricted ordering without extracting the whole core as a compact
        # graph (O(core^2) bits — prohibitive on CSR-backed large graphs).
        # The tie-breaks are content-deterministic, so this equals ordering a
        # rebuilt copy of G[core_mask].
        return degeneracy_ordering_within(self.graph, core_mask)

    def _shrink_subproblem(self, root_index: int, subproblem_mask: int) -> int:
        """Lines 5-6 of Algorithm 3: one-hop and two-hop pruning for MAX_ROUND rounds.

        The ledger kernel runs the :class:`ShrinkLedgers` rules (store-free
        fused first passes, a bit-sliced bulk two-hop pass, ledger reads from
        the second pass of a rule on); the reference kernel keeps the
        original mask-based rounds, which re-popcount every member every
        round and serve as the differential oracle.  Both produce bit-for-bit
        identical refined sets.
        """
        if self.kernel == "ledger":
            return self._shrink_subproblem_ledger(root_index, subproblem_mask)
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

    def _shrink_subproblem_ledger(self, root_index: int, subproblem_mask: int) -> int:
        """Ledger-kernel form of :meth:`_shrink_subproblem`.

        The surviving vertex set is identical to the mask-based reference's;
        see :class:`ShrinkLedgers` for how the passes avoid re-popcounting.
        """
        if self.max_rounds == 0:
            return subproblem_mask
        use_two_hop = self.framework == "dc"
        required_degree = degree_threshold(self.gamma, self.theta)
        stats = self.statistics
        ledgers = ShrinkLedgers(self.graph, root_index, subproblem_mask,
                                stats=stats, track_common=use_two_hop)
        for _ in range(self.max_rounds):
            stats.shrink_rounds += 1
            removed = ledgers.one_hop_round(required_degree)
            stats.shrink_removed_one_hop += removed
            if use_two_hop:
                threshold = two_hop_pruning_threshold(
                    self.gamma, self.theta, ledgers.alive_count)
                dropped = ledgers.two_hop_round(threshold)
                stats.shrink_removed_two_hop += dropped
                removed += dropped
            if removed == 0:
                break
        return ledgers.alive_mask

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


def dcfastqc_enumerate(graph: Graph, gamma: float, theta: int,
                       branching: str = "hybrid", framework: str = "dc",
                       kernel: str = "ledger",
                       max_rounds: int = DEFAULT_MAX_ROUNDS) -> list[frozenset]:
    """Functional convenience wrapper around :class:`DCFastQC`."""
    return DCFastQC(graph, gamma, theta, branching=branching, framework=framework,
                    kernel=kernel, max_rounds=max_rounds).enumerate()
