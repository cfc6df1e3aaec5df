"""Undirected simple graph used by every algorithm in the library.

The graph stores vertices under arbitrary hashable *labels* but internally
assigns each vertex a dense integer index in ``0..n-1``.  Adjacency is kept in
two synchronized forms:

* ``adjacency_sets[i]`` -- a ``set`` of neighbour indices, convenient for
  Python-level iteration, and
* ``adjacency_masks[i]`` -- a Python ``int`` bitmask with bit ``j`` set when
  ``(i, j)`` is an edge.  Bitmasks make the branch-and-bound inner loops cheap:
  ``(adjacency_masks[v] & candidate_mask).bit_count()`` counts neighbours of
  ``v`` inside an arbitrary vertex set in ``O(n / 64)``.

The graph is fully dynamic: vertices and edges can be added *and removed* at
any time.  ``remove_vertex`` keeps the index space dense by swapping the
last-indexed vertex into the freed slot (labels are stable, indices are not),
so the bitmask invariants the enumeration algorithms rely on always hold.
Every successful mutation bumps the monotonically increasing
:attr:`Graph.version` counter; once a consumer has attached the
:class:`~repro.graph.delta.GraphDelta` changelog (first access to
:attr:`Graph.delta`), mutations are additionally recorded there — which is how
:class:`repro.engine.PreparedGraph` and :class:`repro.engine.MQCEEngine`
maintain their memoized artifacts and result cache incrementally.  Unwatched graphs (including the many internal
subgraphs the enumeration algorithms build and discard) pay only the integer
increment.  Enumeration algorithms treat the graph as read-only while they
run.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Optional

from ..errors import ReproError
from .delta import DEFAULT_LOG_CAPACITY, GraphDelta

VertexLabel = Hashable


class GraphError(ReproError, ValueError):
    """Raised for invalid graph operations (unknown vertices, self-loops, ...)."""


class Graph:
    """An undirected, unweighted, simple graph with label <-> index mapping."""

    def __init__(self, edges: Optional[Iterable[tuple[VertexLabel, VertexLabel]]] = None,
                 vertices: Optional[Iterable[VertexLabel]] = None,
                 delta_capacity: int | None = DEFAULT_LOG_CAPACITY) -> None:
        self._labels: list[VertexLabel] = []
        self._index_of: dict[VertexLabel, int] = {}
        self._adjacency_sets: list[set[int]] = []
        self._adjacency_masks: list[int] = []
        self._edge_count = 0
        self._version = 0
        self._delta: Optional[GraphDelta] = None  # attached on first .delta access
        self._delta_capacity = delta_capacity
        if vertices is not None:
            for label in vertices:
                self.add_vertex(label)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: VertexLabel) -> int:
        """Add a vertex and return its index; a no-op if the label exists."""
        existing = self._index_of.get(label)
        if existing is not None:
            return existing
        index = len(self._labels)
        self._labels.append(label)
        self._index_of[label] = index
        self._adjacency_sets.append(set())
        self._adjacency_masks.append(0)
        self._record("add_vertex", label)
        return index

    def add_edge(self, u: VertexLabel, v: VertexLabel) -> None:
        """Add an undirected edge, creating the endpoints if needed."""
        if u == v:
            raise GraphError(f"self-loops are not allowed (vertex {u!r})")
        i = self.add_vertex(u)
        j = self.add_vertex(v)
        if j in self._adjacency_sets[i]:
            return
        self._adjacency_sets[i].add(j)
        self._adjacency_sets[j].add(i)
        self._adjacency_masks[i] |= 1 << j
        self._adjacency_masks[j] |= 1 << i
        self._edge_count += 1
        self._record("add_edge", u, v)

    def remove_edge(self, u: VertexLabel, v: VertexLabel) -> None:
        """Remove the undirected edge ``(u, v)``; raises if it does not exist."""
        i = self.index_of(u)
        j = self.index_of(v)
        if j not in self._adjacency_sets[i]:
            raise GraphError(f"no edge between {u!r} and {v!r}")
        self._adjacency_sets[i].discard(j)
        self._adjacency_sets[j].discard(i)
        self._adjacency_masks[i] &= ~(1 << j)
        self._adjacency_masks[j] &= ~(1 << i)
        self._edge_count -= 1
        self._record("remove_edge", u, v)

    def remove_vertex(self, label: VertexLabel) -> None:
        """Remove a vertex and all its incident edges.

        Indices stay dense: the vertex currently holding the highest index is
        swapped into the freed slot, so *labels* are stable across removals
        but *indices* (and therefore adjacency bitmask layouts) are not.  The
        changelog records the incident ``remove_edge`` mutations followed by
        one ``remove_vertex`` mutation.
        """
        index = self.index_of(label)
        for neighbour in list(self._adjacency_sets[index]):
            self.remove_edge(label, self._labels[neighbour])
        # The vertex is isolated now; compact the index space by moving the
        # last vertex into its slot (a no-op when it already is the last).
        last = len(self._labels) - 1
        if index != last:
            moved = self._labels[last]
            self._labels[index] = moved
            self._index_of[moved] = index
            self._adjacency_sets[index] = self._adjacency_sets[last]
            self._adjacency_masks[index] = self._adjacency_masks[last]
            for neighbour in self._adjacency_sets[index]:
                self._adjacency_sets[neighbour].discard(last)
                self._adjacency_sets[neighbour].add(index)
                self._adjacency_masks[neighbour] = (
                    (self._adjacency_masks[neighbour] & ~(1 << last)) | (1 << index))
        self._labels.pop()
        self._adjacency_sets.pop()
        self._adjacency_masks.pop()
        del self._index_of[label]
        self._record("remove_vertex", label)

    # ------------------------------------------------------------------
    # Change tracking
    # ------------------------------------------------------------------
    def _record(self, op: str, u: VertexLabel, v: VertexLabel | None = None) -> None:
        """Bump the version and, when a changelog is attached, record the mutation."""
        self._version += 1
        if self._delta is not None:
            self._delta.record(op, u, v)

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter (0 for a pristine graph).

        Unlike the ``(vertex_count, edge_count)`` pair, the version changes on
        *every* content mutation — an add/remove pair that restores the counts
        still advances it — so snapshots keyed on the version can never serve
        stale derived state.
        """
        return self._version

    @property
    def delta(self) -> GraphDelta:
        """The bounded changelog of applied mutations (see :class:`GraphDelta`).

        Attached lazily: the first access starts recording at the current
        version, so consumers should snapshot :attr:`version` no earlier than
        when they first touch this property.  ``since()`` reports versions
        from before the attachment as a history gap (``None``).
        """
        if self._delta is None:
            self._delta = GraphDelta(capacity=self._delta_capacity,
                                     start_version=self._version)
        return self._delta

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[VertexLabel, VertexLabel]],
                   vertices: Optional[Iterable[VertexLabel]] = None) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs."""
        return cls(edges=edges, vertices=vertices)

    @classmethod
    def from_adjacency(cls, adjacency: dict[VertexLabel, Iterable[VertexLabel]]) -> "Graph":
        """Build a graph from a mapping ``vertex -> iterable of neighbours``."""
        graph = cls(vertices=adjacency.keys())
        for u, neighbours in adjacency.items():
            for v in neighbours:
                graph.add_edge(u, v)
        return graph

    @classmethod
    def from_csr(cls, labels: Iterable[VertexLabel], indptr, indices, *,
                 edge_count: int | None = None) -> "Graph":
        """Build a frozen CSR-backed graph from flat adjacency arrays.

        ``indptr`` holds ``n + 1`` row offsets and ``indices`` the
        concatenated, ascending-sorted neighbour lists — O(V + E) memory
        instead of the O(n^2)-bit dual representation this class keeps.  The
        result is a :class:`repro.core.csr.CSRGraph`: a read-only facade
        whose accessors (and therefore every enumeration answer) match a
        dict-backed graph of the same content exactly; mutations raise
        :class:`GraphError` and ``thaw()`` converts back to a mutable graph.
        """
        from ..core.csr import CSRGraph

        return CSRGraph(labels, indptr, indices, edge_count=edge_count)

    @classmethod
    def from_dense_adjacency(cls, labels: Iterable[VertexLabel],
                             adjacency_masks: Iterable[int]) -> "Graph":
        """Build a graph directly from index-aligned adjacency bitmasks.

        ``adjacency_masks[i]`` is the neighbour bitmask of ``labels[i]`` in the
        new graph's own index space.  The masks must describe a simple
        undirected graph (symmetric, no self-loop bits); the caller is
        trusted, and the adjacency is installed wholesale instead of
        re-inserting every edge through :meth:`add_edge`.
        """
        graph = cls()
        labels = list(labels)
        graph._labels = labels
        graph._index_of = {label: index for index, label in enumerate(labels)}
        masks = list(adjacency_masks)
        graph._adjacency_masks = masks
        graph._adjacency_sets = [set(iter_bits(mask)) for mask in masks]
        graph._edge_count = sum(mask.bit_count() for mask in masks) // 2
        graph._version = 1
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: VertexLabel) -> bool:
        return label in self._index_of

    def __iter__(self) -> Iterator[VertexLabel]:
        return iter(self._labels)

    def vertices(self) -> list[VertexLabel]:
        """Return all vertex labels in index order."""
        return list(self._labels)

    def edges(self) -> list[tuple[VertexLabel, VertexLabel]]:
        """Return all edges once, as (label, label) pairs with i < j by index."""
        result = []
        for i, neighbours in enumerate(self._adjacency_sets):
            for j in neighbours:
                if i < j:
                    result.append((self._labels[i], self._labels[j]))
        return result

    def has_edge(self, u: VertexLabel, v: VertexLabel) -> bool:
        i = self._index_of.get(u)
        j = self._index_of.get(v)
        if i is None or j is None:
            return False
        return j in self._adjacency_sets[i]

    def index_of(self, label: VertexLabel) -> int:
        """Return the internal index of a vertex label."""
        try:
            return self._index_of[label]
        except KeyError:
            raise GraphError(f"unknown vertex {label!r}") from None

    def label_of(self, index: int) -> VertexLabel:
        """Return the label of an internal index."""
        if not 0 <= index < len(self._labels):
            raise GraphError(f"vertex index {index} out of range")
        return self._labels[index]

    def labels_of(self, indices: Iterable[int]) -> frozenset[VertexLabel]:
        """Map a collection of indices back to a frozenset of labels."""
        return frozenset(self.label_of(i) for i in indices)

    def indices_of(self, labels: Iterable[VertexLabel]) -> frozenset[int]:
        """Map a collection of labels to a frozenset of indices."""
        return frozenset(self.index_of(label) for label in labels)

    # ------------------------------------------------------------------
    # Neighbourhoods and degrees (label space)
    # ------------------------------------------------------------------
    def neighbors(self, label: VertexLabel) -> frozenset[VertexLabel]:
        """Return the neighbours of a vertex, as labels."""
        index = self.index_of(label)
        return frozenset(self._labels[j] for j in self._adjacency_sets[index])

    def degree(self, label: VertexLabel) -> int:
        return len(self._adjacency_sets[self.index_of(label)])

    def degree_sequence(self) -> list[int]:
        """Return every vertex degree in index order (O(V + E), no masks)."""
        return [len(neighbours) for neighbours in self._adjacency_sets]

    def max_degree(self) -> int:
        """Return the maximum vertex degree (0 for an empty graph)."""
        if not self._adjacency_sets:
            return 0
        return max(len(neighbours) for neighbours in self._adjacency_sets)

    def density(self) -> float:
        """Return the edge density |E| / |V| used in the paper's Table 1."""
        if not self._labels:
            return 0.0
        return self._edge_count / len(self._labels)

    # ------------------------------------------------------------------
    # Index-space accessors used by the branch-and-bound engine
    # ------------------------------------------------------------------
    def adjacency_set(self, index: int) -> set[int]:
        """Return the neighbour-index set of a vertex index (do not mutate)."""
        return self._adjacency_sets[index]

    def adjacency_mask(self, index: int) -> int:
        """Return the neighbour bitmask of a vertex index."""
        return self._adjacency_masks[index]

    def adjacency_masks(self) -> list[int]:
        """Return the full list of adjacency bitmasks (do not mutate)."""
        return self._adjacency_masks

    def full_mask(self) -> int:
        """Return the bitmask with one bit per vertex of the graph."""
        return (1 << len(self._labels)) - 1

    def mask_of(self, labels: Iterable[VertexLabel]) -> int:
        """Return the bitmask of a collection of vertex labels."""
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of(label)
        return mask

    def labels_of_mask(self, mask: int) -> frozenset[VertexLabel]:
        """Return the labels whose bits are set in ``mask``."""
        return frozenset(self._labels[i] for i in iter_bits(mask))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, labels: Iterable[VertexLabel]) -> "Graph":
        """Return the subgraph induced by ``labels`` (as a new Graph)."""
        kept = set(labels)
        for label in kept:
            self.index_of(label)  # validate
        subgraph = Graph(vertices=sorted(kept, key=self.index_of))
        for u, v in self.edges():
            if u in kept and v in kept:
                subgraph.add_edge(u, v)
        return subgraph

    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        clone = Graph(vertices=self._labels)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def relabeled(self) -> "Graph":
        """Return a copy whose labels are the integer indices 0..n-1."""
        clone = Graph(vertices=range(len(self._labels)))
        for i, neighbours in enumerate(self._adjacency_sets):
            for j in neighbours:
                if i < j:
                    clone.add_edge(i, j)
        return clone

    def to_networkx(self):  # pragma: no cover - convenience bridge
        """Return a ``networkx.Graph`` copy (requires networkx)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self._labels)
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build a graph from a ``networkx.Graph``."""
        return cls(edges=nx_graph.edges(), vertices=nx_graph.nodes())

    def __repr__(self) -> str:
        return f"Graph(|V|={self.vertex_count}, |E|={self.edge_count})"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_set(mask: int) -> set[int]:
    """Return the set of indices of the set bits of ``mask``."""
    return set(iter_bits(mask))


def set_to_mask(indices: Iterable[int]) -> int:
    """Return the bitmask with the bits in ``indices`` set."""
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask
