"""A :class:`~repro.engine.prepared.PreparedGraph` that survives mutations.

The static prepared graph assumes a frozen graph and recomputes everything
from scratch when the engine notices a mutation.  For a servable system that
absorbs a stream of edge/vertex updates that is the wrong trade-off:
re-preparing a graph is O(|V| + |E|) while a single mutation touches a
constant-size neighbourhood.  :class:`DynamicPreparedGraph` therefore patches
its memoized artifacts from the graph's :class:`~repro.graph.delta.GraphDelta`
records:

* **fingerprint** — an :class:`~repro.dynamic.fingerprint.IncrementalFingerprint`
  (XOR-homomorphic content hash), O(1) per mutation;
* **degrees** — a per-label counter, O(1) per mutation;
* **components** — merged on edge insertion (union of the two cells) and
  re-split locally on deletion (a BFS confined to the members of the single
  touched cell), so cost tracks the locality of the update;
* **core bounds** — exact core numbers from the last rebuild plus a drift
  term: one edge insertion raises any core number by at most 1 and a deletion
  never raises one, so ``core(v) <= min(base(v) + inserts_since, deg(v))``
  always holds.  The bounds are *upper* bounds, which keeps every consumer
  sound: the planner's core mask stays a superset of the true core (trivial
  detection never wrongly proves emptiness) and the degeneracy size bound
  stays an upper bound.  When the drift exceeds a threshold the exact
  decomposition is rebuilt once and the drift resets.

Order-dependent artifacts with no cheap patch (``degeneracy_order``,
``statistics``, exact ``core_numbers``) are recomputed lazily, memoized per
graph version.  :meth:`DynamicPreparedGraph.apply` also keeps the engine's
modification snapshot in step, so :class:`repro.engine.MQCEEngine` accepts the
prepared graph after every applied batch without re-preparing.
"""

from __future__ import annotations

from collections import Counter

from ..engine.prepared import ARTIFACTS, PreparedGraph
from ..graph.core_decomposition import _degeneracy_order_and_cores
from ..graph.delta import GraphMutation
from ..graph.graph import Graph, VertexLabel
from ..graph.statistics import GraphStatistics
from ..graph.subgraph import connected_components
from ..quasiclique.definitions import degree_threshold
from .fingerprint import IncrementalFingerprint

#: Edge insertions tolerated before the exact core decomposition is rebuilt.
DEFAULT_CORE_REBUILD_INSERTS = 16

#: Edge/vertex removals tolerated before a rebuild (removals only loosen the
#: bounds, they never make them wrong, so the leash can be longer).
DEFAULT_CORE_REBUILD_REMOVALS = 64


class DynamicPreparedGraph(PreparedGraph):
    """Prepared-graph artifacts maintained incrementally under mutations.

    Unlike the base class, ``core_numbers`` and ``degeneracy`` return
    conservative *upper bounds* between rebuilds (exact immediately after
    construction, :meth:`refresh`, or an automatic rebuild); everything the
    engine derives from them — core masks, the degeneracy size bound, trivial
    detection — only requires upper bounds to stay correct.
    """

    #: Core masks are supersets of the true cores, so DCFastQC peels the
    #: graph itself rather than reuse them.
    exact_cores = False

    def __init__(self, graph: Graph, name: str | None = None,
                 core_rebuild_inserts: int = DEFAULT_CORE_REBUILD_INSERTS,
                 core_rebuild_removals: int = DEFAULT_CORE_REBUILD_REMOVALS) -> None:
        super().__init__(graph, name=name)
        # Attach the graph's (lazily created) changelog now: only mutations
        # recorded from this point on can be replayed into the artifacts.
        graph.delta
        self.core_rebuild_inserts = core_rebuild_inserts
        self.core_rebuild_removals = core_rebuild_removals
        #: Per-operation patch counters plus ``core_rebuilds`` / ``refreshes``
        #: (how often the incremental path fell back to exact recomputation).
        self.patch_counts: Counter = Counter()
        self._build_state()

    # ------------------------------------------------------------------
    # State construction / full refresh
    # ------------------------------------------------------------------
    def _build_state(self) -> None:
        graph = self.graph
        self._snapshot = graph.version
        self._fp = IncrementalFingerprint.from_graph(graph)
        self._degree_of: dict[VertexLabel, int] = {
            graph.label_of(i): len(graph.adjacency_set(i))
            for i in range(graph.vertex_count)}
        self._rebuild_cores()
        self._rebuild_components()
        self._core_masks = {}
        self._memo_version: dict[str, int] = {}
        self._memo_value: dict[str, object] = {}
        self.plan_cache.clear()

    def refresh(self) -> "DynamicPreparedGraph":
        """Discard every incremental artifact and rebuild exactly from the graph."""
        self.patch_counts["refreshes"] += 1
        self._build_state()
        return self

    def _rebuild_cores(self) -> None:
        order, cores = _degeneracy_order_and_cores(self.graph)
        del order
        self._core_base: dict[VertexLabel, int] = cores
        self._degeneracy_base = max(cores.values()) if cores else 0
        self._core_insert_drift = 0
        self._core_removal_drift = 0

    def _rebuild_components(self) -> None:
        self._comp_of: dict[VertexLabel, int] = {}
        self._comp_members: dict[int, set[VertexLabel]] = {}
        self._next_comp = 0
        for label in self.graph.vertices():
            self._comp_of[label] = self._new_component({label})
        for u, v in self.graph.edges():
            self._merge_components(u, v)

    # ------------------------------------------------------------------
    # Incremental application of a mutation batch
    # ------------------------------------------------------------------
    def apply(self, mutations: list[GraphMutation]) -> None:
        """Patch every artifact for a batch of already-applied graph mutations.

        ``mutations`` must be the graph's delta records between this prepared
        graph's last synced version and the graph's current version, in order.
        Component splits BFS the current (post-batch) adjacency, which yields
        the correct end-state partition for any mutation order because merges
        are processed for every insertion and every deletion re-derives its
        cell from final adjacency.
        """
        for mutation in mutations:
            handler = getattr(self, "_patch_" + mutation.op)
            handler(mutation)
            self.patch_counts[mutation.op] += 1
        self._snapshot = self.graph.version
        self.plan_cache.clear()
        # Version-memoized artifacts may have been read (and memoized under
        # the final graph version) between a direct graph mutation and this
        # sync; the memos must not outlive the patch.
        self._memo_version.clear()
        self._memo_value.clear()
        rebuilt = False
        if (self._core_insert_drift > self.core_rebuild_inserts
                or self._core_removal_drift > self.core_rebuild_removals):
            self.patch_counts["core_rebuilds"] += 1
            self._rebuild_cores()
            rebuilt = True
        self._patch_core_masks(mutations, rebuilt)

    def _patch_core_masks(self, mutations: list[GraphMutation], rebuilt: bool) -> None:
        """Keep the memoized per-threshold core masks usable across a batch.

        A pure edge-*removal* batch can only lower the core bounds of the
        touched endpoints (degrees drop; drift and index layout are
        untouched), so the memoized masks are patched bit-by-bit instead of
        rescanned — the hot path of a removal-heavy update stream.  Any other
        batch (insert drift moves every bound, vertex removal remaps indices)
        drops the memo and the next query rescans once.
        """
        removals_only = all(m.op == "remove_edge" for m in mutations)
        if rebuilt or not removals_only or not self._core_masks:
            self._core_masks.clear()
            return
        touched = {m.u for m in mutations} | {m.v for m in mutations}
        for threshold, mask in list(self._core_masks.items()):
            if threshold <= 0:
                continue  # the full mask: unchanged without vertex ops
            for label in touched:
                bit = 1 << self.graph.index_of(label)
                if self.core_bound(label) >= threshold:
                    mask |= bit
                else:
                    mask &= ~bit
            self._core_masks[threshold] = mask

    # -- per-operation patches ------------------------------------------
    def _patch_add_vertex(self, mutation: GraphMutation) -> None:
        label = mutation.u
        self._fp.toggle_vertex(label)
        self._degree_of[label] = 0
        self._comp_of[label] = self._new_component({label})

    def _patch_remove_vertex(self, mutation: GraphMutation) -> None:
        # Incident edges were removed (and patched) by the preceding
        # remove_edge records, so the vertex is isolated by now.
        label = mutation.u
        self._fp.toggle_vertex(label)
        self._degree_of.pop(label, None)
        self._core_base.pop(label, None)
        comp = self._comp_of.pop(label)
        members = self._comp_members[comp]
        members.discard(label)
        if not members:
            del self._comp_members[comp]

    def _patch_add_edge(self, mutation: GraphMutation) -> None:
        u, v = mutation.u, mutation.v
        self._fp.toggle_edge(u, v)
        self._degree_of[u] += 1
        self._degree_of[v] += 1
        self._core_insert_drift += 1
        self._merge_components(u, v)

    def _patch_remove_edge(self, mutation: GraphMutation) -> None:
        u, v = mutation.u, mutation.v
        self._fp.toggle_edge(u, v)
        self._degree_of[u] -= 1
        self._degree_of[v] -= 1
        self._core_removal_drift += 1
        if self._comp_of[u] == self._comp_of[v]:
            self._resplit_component(self._comp_of[u])

    # -- component partition helpers ------------------------------------
    def _new_component(self, members: set[VertexLabel]) -> int:
        comp = self._next_comp
        self._next_comp += 1
        self._comp_members[comp] = members
        for label in members:
            self._comp_of[label] = comp
        return comp

    def _merge_components(self, u: VertexLabel, v: VertexLabel) -> None:
        a, b = self._comp_of[u], self._comp_of[v]
        if a == b:
            return
        if len(self._comp_members[a]) < len(self._comp_members[b]):
            a, b = b, a
        absorbed = self._comp_members.pop(b)
        self._comp_members[a].update(absorbed)
        for label in absorbed:
            self._comp_of[label] = a

    def _resplit_component(self, comp: int) -> None:
        """Re-derive the connected components of one cell from current adjacency.

        Runs a bitmask BFS restricted to the cell's members (the same loop as
        :func:`~repro.graph.subgraph.connected_components`, confined to one
        cell), so the cost tracks the touched component, not the graph.
        """
        members = self._comp_members.pop(comp)
        graph = self.graph
        present = [label for label in members if label in graph]
        for label in set(members).difference(present):
            # Removed later in the batch than this record; isolated until its
            # own remove_vertex record drops it from the partition.
            self._new_component({label})
        for cell in connected_components(graph, within_mask=graph.mask_of(present)):
            self._new_component(set(cell))

    # ------------------------------------------------------------------
    # Artifact overrides (patched or version-memoized)
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:  # type: ignore[override]
        """Content fingerprint, maintained in O(1) per mutation."""
        return self._fp.hexdigest()

    @property
    def degrees(self) -> tuple[int, ...]:  # type: ignore[override]
        """Vertex degrees in current index order (patched per mutation)."""
        graph = self.graph
        return tuple(self._degree_of[graph.label_of(i)]
                     for i in range(graph.vertex_count))

    @property
    def components(self) -> tuple[frozenset[VertexLabel], ...]:  # type: ignore[override]
        """Connected components as label sets, largest first (patched)."""
        def compute():
            cells = [frozenset(members) for members in self._comp_members.values()]
            return tuple(sorted(cells,
                                key=lambda cell: (-len(cell), sorted(map(str, cell)))))
        return self._memoized("components", compute)

    def core_bound(self, label: VertexLabel) -> int:
        """A sound upper bound on the core number of one vertex."""
        degree = self._degree_of[label]
        base = self._core_base.get(label)
        if base is None:
            return degree  # added after the last rebuild: core <= degree
        return min(base + self._core_insert_drift, degree)

    @property
    def core_numbers(self) -> dict[VertexLabel, int]:  # type: ignore[override]
        """Upper bounds on every core number (exact right after a rebuild)."""
        return {label: self.core_bound(label) for label in self._degree_of}

    @property
    def degeneracy(self) -> int:  # type: ignore[override]
        """A sound upper bound on the degeneracy (exact right after a rebuild)."""
        max_degree = max(self._degree_of.values(), default=0)
        return min(self._degeneracy_base + self._core_insert_drift, max_degree)

    def core_mask(self, gamma: float, theta: int) -> int:  # type: ignore[override]
        """Superset mask of the ``ceil(gamma * (theta - 1))``-core (sound for pruning)."""
        threshold = degree_threshold(gamma, theta)
        mask = self._core_masks.get(threshold)
        if mask is None:
            if threshold <= 0:
                mask = self.graph.full_mask()
            else:
                kept = [label for label in self._degree_of
                        if self.core_bound(label) >= threshold]
                mask = self.graph.mask_of(kept)
            self._core_masks[threshold] = mask
        return mask

    def _memoized(self, artifact: str, compute):
        version = self.graph.version
        if self._memo_version.get(artifact) != version:
            self._memo_value[artifact] = compute()
            self._memo_version[artifact] = version
        return self._memo_value[artifact]

    @property
    def degeneracy_order(self) -> tuple[VertexLabel, ...]:  # type: ignore[override]
        """An exact degeneracy ordering, recomputed lazily per graph version."""
        def compute():
            order, cores = _degeneracy_order_and_cores(self.graph)
            del cores
            return tuple(order)
        return self._memoized("degeneracy_order", compute)

    @property
    def statistics(self) -> GraphStatistics:  # type: ignore[override]
        """Table-1 statistics with the *bounded* degeneracy (cheap under churn)."""
        def compute():
            graph = self.graph
            return GraphStatistics(
                vertex_count=graph.vertex_count,
                edge_count=graph.edge_count,
                edge_density=graph.density(),
                max_degree=max(self._degree_of.values(), default=0),
                degeneracy=self.degeneracy,
            )
        return self._memoized("statistics", compute)

    # ------------------------------------------------------------------
    def materialized_artifacts(self) -> tuple[str, ...]:
        """Every artifact is live under incremental maintenance."""
        return tuple(ARTIFACTS)

    @property
    def core_drift(self) -> tuple[int, int]:
        """(insertions, removals) absorbed since the last exact core rebuild."""
        return (self._core_insert_drift, self._core_removal_drift)

    def summary(self) -> dict:
        data = super().summary()
        inserts, removals = self.core_drift
        data["core_drift"] = {"inserts": inserts, "removals": removals}
        data["patch_counts"] = dict(self.patch_counts)
        data["version"] = self.graph.version
        return data

    def __repr__(self) -> str:
        return (f"DynamicPreparedGraph({self.name!r}, |V|={self.graph.vertex_count}, "
                f"|E|={self.graph.edge_count}, version={self.graph.version}, "
                f"patches={sum(self.patch_counts.values())})")
