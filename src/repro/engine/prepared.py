"""Prepared graphs: compute the expensive per-graph artifacts once, reuse them.

The one-shot pipeline (:func:`repro.pipeline.mqce.run_enumeration`)
recomputes the same per-graph preprocessing on every call.  For a query
engine serving many ``(gamma, theta)`` queries over the same graph that work
should be paid once.  :class:`PreparedGraph` wraps a
:class:`~repro.graph.graph.Graph` and memoizes what a query reads:

* the content fingerprint (cache key), and
* the core decomposition: core numbers, the degeneracy, and the
  per-threshold core masks of DCFastQC's line 1.

Everything is computed lazily on first access; :meth:`PreparedGraph.prepare`
forces all artifacts eagerly (and records how long each took) for callers that
want the cost up front, e.g. at service start-up.

The graph may change after preparation.  Every artifact read first replays
the graph's :class:`~repro.graph.delta.GraphDelta` records since the synced
version (:meth:`PreparedGraph.sync`), so the artifacts always describe the
current content.  A replay patches these artifacts:

* **fingerprint** — the SHA digest of the content it was first computed on
  (:func:`~repro.engine.fingerprint.graph_fingerprint`), combined with an
  :class:`~repro.engine.fingerprint.IncrementalFingerprint` of the edits since;
  the SHA alone while no edit is pending, so a revert restores the old key;
* **core numbers** — one index-space array (``cores[i]`` is vertex ``i``'s),
  exact at every version: after a single edge record the traversal of
  Sarıyüce et al. ("Streaming Algorithms for k-core Decomposition", VLDB
  2013) re-derives the few vertices whose core moves, patching them by index,
  and the memoized per-threshold core masks follow them.
  :attr:`PreparedGraph.core_numbers` is a read-only label-keyed view of it.

The degeneracy is re-derived from the cores on its next read.  The cores
themselves are dropped, and recomputed exactly on their next read, when the
batch holds records they cannot replay (vertex records, several records).
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Iterator, Mapping

from ..graph.core_decomposition import core_numbers_by_index
from ..graph.graph import Graph, GraphError, VertexLabel, iter_bits
from ..quasiclique.definitions import degree_threshold, gamma_fraction
from .fingerprint import IncrementalFingerprint, graph_fingerprint

#: Names of the lazily computed artifacts, in the order ``prepare`` forces them.
ARTIFACTS = ("fingerprint", "core_numbers", "degeneracy")

_EDGE_OPS = ("add_edge", "remove_edge")

#: Maps flag bytes 0 / 1 to the binary digits "0" / "1".
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class PreparedGraph:
    """A graph plus memoized preprocessing artifacts, ready for repeated queries.

    Parameters
    ----------
    graph:
        The graph to prepare.  Later mutations are replayed into the
        artifacts on the next read (see :meth:`sync`).
    name:
        Optional human-readable name (e.g. the registry dataset name), used in
        ``repr`` and the engine's explain output.
    """

    def __init__(self, graph: Graph, name: str | None = None) -> None:
        self.graph = graph
        self.name = name
        # Attach the graph's changelog now: only mutations recorded from this
        # point on can be replayed into the artifacts.
        graph.delta
        self._version = graph.version
        self._artifacts: dict[str, object] = {}
        self._core_masks: dict[int, int] = {}
        self._base_fingerprint = ""
        self._edits = IncrementalFingerprint()
        self.preparation_seconds: dict[str, float] = {}
        #: Memoized QueryPlans, populated by QueryPlanner.plan (plans are
        #: deterministic in the prepared graph and the query configuration).
        self.plan_cache: dict = {}

    # ------------------------------------------------------------------
    # Lazily computed artifacts
    # ------------------------------------------------------------------
    def _artifact(self, name: str):
        self.sync()
        try:
            return self._artifacts[name]
        except KeyError:
            value = self._artifacts[name] = getattr(self, "_compute_" + name)()
            return value

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the graph (the cache-key component)."""
        return self._artifact("fingerprint")

    @property
    def core_numbers(self) -> "CoreNumbers":
        """Core number of every vertex (Batagelj–Zaversnik, then maintained).

        A read-only label-keyed view of the index-space array: it follows the
        graph's mutations and compares equal to
        :func:`~repro.graph.core_decomposition.core_numbers` of the graph.
        """
        self._artifact("core_numbers")
        return CoreNumbers(self)

    @property
    def degeneracy(self) -> int:
        """The degeneracy ``omega`` of the graph."""
        return self._artifact("degeneracy")

    def _compute_fingerprint(self) -> str:
        self._base_fingerprint = graph_fingerprint(self.graph)
        self._edits = IncrementalFingerprint()
        return self._base_fingerprint

    def _compute_core_numbers(self) -> array:
        return core_numbers_by_index(self.graph)

    def _compute_degeneracy(self) -> int:
        return max(self._artifact("core_numbers"), default=0)

    # ------------------------------------------------------------------
    # Parameter-dependent artifacts (memoized per threshold)
    # ------------------------------------------------------------------
    def core_mask(self, gamma: float, theta: int) -> int:
        """Bitmask of the ``ceil(gamma * (theta - 1))``-core (DCFastQC line 1).

        Distinct ``(gamma, theta)`` pairs often share the same degree
        threshold, so the mask is memoized per threshold, not per pair, and is
        derived from the memoized core numbers without re-running the bucket
        algorithm.
        """
        self.sync()
        return self._threshold_mask(degree_threshold(gamma, theta))

    def _threshold_mask(self, threshold: int) -> int:
        """Bitmask of the vertices of core >= ``threshold``, memoized."""
        mask = self._core_masks.get(threshold)
        if mask is None:
            # One flag byte per vertex, highest index first, read as binary.
            flags = bytes(map(threshold.__le__, reversed(self._artifact("core_numbers"))))
            mask = int(flags.translate(_BINARY_DIGITS) or b"0", 2)
            self._core_masks[threshold] = mask
        return mask

    def core_size(self, gamma: float, theta: int) -> int:
        """Number of vertices surviving the core reduction for ``(gamma, theta)``."""
        return self.core_mask(gamma, theta).bit_count()

    def size_upper_bound(self, gamma: float) -> int:
        """Largest possible gamma-quasi-clique size, from the degeneracy.

        A gamma-QC of size ``h`` has minimum internal degree
        ``ceil(gamma * (h - 1))``, which cannot exceed the degeneracy
        ``omega``; hence ``h <= floor(omega / gamma) + 1``.  Tighter than the
        generic ``2 * omega + 1`` bound for every gamma > 0.5.
        """
        if self.graph.vertex_count == 0:
            return 0
        bound = int(math.floor(self.degeneracy / gamma_fraction(gamma))) + 1
        return min(bound, self.graph.vertex_count)

    # ------------------------------------------------------------------
    # Following the graph's mutations
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The graph version the artifacts describe (synced first)."""
        self.sync()
        return self._version

    def check_unmodified(self) -> bool:
        """Return True iff no graph mutation is waiting to be synced."""
        return self.graph.version == self._version

    def sync(self) -> None:
        """Replay the graph's mutations since the synced version into the artifacts.

        When the graph's bounded changelog no longer reaches back that far,
        every artifact is dropped and recomputed on its next read.
        """
        version = self.graph.version
        if version == self._version:
            return
        pending = self.graph.delta.since(self._version)
        self._version = version
        self.plan_cache.clear()
        if pending is None:
            self._artifacts.clear()
            self._core_masks.clear()
            return
        artifacts = self._artifacts
        kept = {}
        if "fingerprint" in artifacts:
            for mutation in pending:
                if mutation.op in _EDGE_OPS:
                    self._edits.toggle_edge(mutation.u, mutation.v)
                else:
                    self._edits.toggle_vertex(mutation.u)
            kept["fingerprint"] = (self._edits.hexdigest(self._base_fingerprint)
                                   if self._edits else self._base_fingerprint)
        if (len(pending) == 1 and pending[0].op in _EDGE_OPS
                and "core_numbers" in artifacts):
            kept["core_numbers"] = self._patched_cores(pending[0])
        if "core_numbers" not in kept:
            self._core_masks.clear()
        self._artifacts = kept

    def _patched_cores(self, mutation) -> array:
        """Move the core numbers (and the threshold masks) across one edge record.

        Only vertices of core ``k = min(core(u), core(v))`` can move, by one.
        A removal can only lower a core-k vertex that keeps fewer than k
        neighbours of core >= k; the walk starts at the endpoints and goes on
        only from the vertices that fall.  An insertion can only raise a
        core-k vertex with more than k such neighbours that reaches an
        endpoint through vertices that rise too; the walk collects them and
        peeling at ``k`` leaves the ones that rise.
        """
        graph = self.graph
        cores = self._artifacts["core_numbers"]
        ends = (graph.index_of(mutation.u), graph.index_of(mutation.v))
        k = min(cores[ends[0]], cores[ends[1]])
        at_least = self._threshold_mask(k)
        above = self._threshold_mask(k + 1)
        shell = at_least & ~above
        adjacency = graph.adjacency_mask
        stack = [i for i in ends if shell >> i & 1]
        if mutation.op == "remove_edge":
            fallen = 0
            while stack:
                i = stack.pop()
                if not shell >> i & 1 or (adjacency(i) & at_least).bit_count() >= k:
                    continue
                at_least ^= 1 << i
                shell ^= 1 << i
                fallen |= 1 << i
                stack.extend(iter_bits(adjacency(i) & shell))
            self._core_masks[k] = at_least
            moved, core = fallen, k - 1
        else:
            risen = 0
            seen = sum(1 << i for i in stack)
            while stack:
                i = stack.pop()
                if (adjacency(i) & at_least).bit_count() > k:
                    risen |= 1 << i
                    fresh = adjacency(i) & shell & ~seen
                    seen |= fresh
                    stack.extend(iter_bits(fresh))
            peel = list(iter_bits(risen))
            while peel:
                i = peel.pop()
                if risen >> i & 1 and (adjacency(i) & (above | risen)).bit_count() <= k:
                    risen ^= 1 << i
                    peel.extend(iter_bits(adjacency(i) & risen))
            self._core_masks[k + 1] = above | risen
            moved, core = risen, k + 1
        for i in iter_bits(moved):
            cores[i] = core
        return cores

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> "PreparedGraph":
        """Force every artifact eagerly, recording per-artifact wall time."""
        for artifact in ARTIFACTS:
            start = time.perf_counter()
            getattr(self, artifact)
            self.preparation_seconds[artifact] = time.perf_counter() - start
        return self

    def materialized_artifacts(self) -> tuple[str, ...]:
        """Names of the artifacts computed at the synced version."""
        return tuple(a for a in ARTIFACTS if a in self._artifacts)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """A flat dictionary for CLI output and engine statistics."""
        graph = self.graph
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "version": self._version,
            "vertices": graph.vertex_count,
            "edges": graph.edge_count,
            "edge_density": graph.density(),
            "max_degree": graph.max_degree(),
            "degeneracy": self.degeneracy,
            "artifacts": list(self.materialized_artifacts()),
        }

    def __repr__(self) -> str:
        label = f"{self.name!r}, " if self.name else ""
        return (f"PreparedGraph({label}|V|={self.graph.vertex_count}, "
                f"|E|={self.graph.edge_count}, "
                f"artifacts={len(self.materialized_artifacts())}/{len(ARTIFACTS)})")


class CoreNumbers(Mapping):
    """Read-only ``{label: core number}`` view of a preparation's cores.

    It holds no per-vertex object: a lookup syncs the preparation, then
    reads the array at the label's index in the graph, so the view always
    describes the graph's current content.
    """

    __slots__ = ("_prepared",)

    def __init__(self, prepared: PreparedGraph) -> None:
        self._prepared = prepared

    def __getitem__(self, label: VertexLabel) -> int:
        cores = self._prepared._artifact("core_numbers")
        try:
            return cores[self._prepared.graph.index_of(label)]
        except GraphError:
            raise KeyError(label) from None

    def __iter__(self) -> Iterator[VertexLabel]:
        return iter(self._prepared.graph)

    def __len__(self) -> int:
        return self._prepared.graph.vertex_count

    def __repr__(self) -> str:
        return f"CoreNumbers({dict(self)!r})"


def prepare_graph(graph: Graph | PreparedGraph, name: str | None = None) -> PreparedGraph:
    """Return ``graph`` as a :class:`PreparedGraph` (idempotent)."""
    if isinstance(graph, PreparedGraph):
        return graph
    return PreparedGraph(graph, name=name)


def as_plain_graph(graph: Graph | PreparedGraph) -> Graph:
    """Unwrap a :class:`PreparedGraph` to its underlying :class:`Graph`."""
    if isinstance(graph, PreparedGraph):
        return graph.graph
    return graph
