"""CSR (compressed sparse row) adjacency backend for the large-graph tier.

:class:`repro.graph.graph.Graph` keeps *dual* adjacency — a per-vertex
``set`` of neighbour indices plus a full-width Python-int bitmask — which is
O(n^2) bits and unusable at the paper's real dataset sizes (10^5-10^7
vertices).  :class:`CSRGraph` stores the same simple undirected graph in two
flat arrays instead:

* ``indptr`` — ``n + 1`` offsets, one per vertex, and
* ``indices`` — the concatenated neighbour lists, **sorted ascending** within
  each row,

for O(V + E) memory total.  It subclasses :class:`Graph` as a read-only
facade: every accessor the enumeration stack uses (``adjacency_mask``,
``adjacency_masks``, ``mask_of``, ``degree`` ...) is overridden to derive its
answer from the CSR rows on demand, and the adjacency bitmasks are
materialised lazily behind a bounded LRU so wide masks are only paid for the
vertices a query actually touches.  Mutations raise :class:`GraphError` —
the CSR layout cannot absorb edits in place; :meth:`CSRGraph.thaw` is the
documented escape hatch back to a mutable dict/bitmask graph.

The facade is exact: adjacency masks, neighbour orderings and therefore
every content-deterministic tie-break (degeneracy ordering, subproblem
local index assignment, pivot selection) are identical to what a
dict-backed :class:`Graph` of the same content produces, so CSR-backed
queries return answers identical to dict-backed ones.  The CSR-native
algorithm variants in this module (degeneracy/cores, restricted ordering,
2-hop balls) mirror the reference implementations' scan orders step for step
to preserve that guarantee while running in O(V + E) instead of
O(n^2 / 64); subproblem extraction and connectivity walk the same rows
through code both backends share (:func:`repro.graph.subgraph.ball_and_halo`,
:func:`repro.graph.subgraph.connected_components`).

Per-vertex state lives in flat buffers too, so a graph holds no Python
object per vertex:

* **labels** — one ``array('q')`` when every label is an ``int`` that fits in
  64 bits (8 bytes a label, read back as equal ints), else a list;
* **the label index** — two ``array('q')`` buffers: every label's ``hash``
  sorted ascending, and the vertex index of each (16 bytes a vertex, against
  ~80 for a ``{label: index}`` dict).  A lookup bisects the hash, then
  compares labels within the run of equal hashes, so it has a dict's
  semantics for any hashable label (``1.0`` and ``True`` find ``1``; int and
  str labels mix) at O(log n).  The hash order is process-local — str hashes
  are salted per process — which is safe because a graph reaches another
  process only by fork (the work-stealing workers), never by pickling.

Loading stays O(V + E): :func:`build_csr_arrays` is one counting sort into
``array('q')`` buffers (no per-entry Python object survives it), the intern
table is dropped before the label index is built, and the core peel runs
over flat buffers.  The module uses the standard library only.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from itertools import accumulate, compress, islice
from operator import eq, sub

from ..graph.graph import Graph, GraphError, VertexLabel

#: Bounds of the LRU of lazily materialised adjacency bitmasks: at most
#: ``MASK_CACHE`` masks — enough to keep a whole shrink phase's ball resident
#: — and at most ``MASK_CACHE_BYTES``, each mask counted at its full width of
#: |V|/8 bytes.  The byte budget binds above 10^5 vertices, so the cache
#: never holds more than 12.8 MB, whatever |V|.
MASK_CACHE = 1024
MASK_CACHE_BYTES = MASK_CACHE * 100_000 // 8


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_csr_arrays(vertex_count: int, endpoints_u,
                     endpoints_v) -> tuple[array, array, int]:
    """Build ``(indptr, indices, edge_count)`` from parallel endpoint sequences.

    The endpoints describe undirected edges by vertex *index* (the caller
    interns labels); duplicates and symmetric repeats are deduplicated, rows
    come out sorted ascending.  Self-loops raise :class:`GraphError`.  One
    counting sort: count each row's entries, take the prefix sums, scatter
    both directions of every edge, then sort and deduplicate each row while
    compacting the buffer in place.
    """
    n = vertex_count
    degree = array("q", [0]) * n
    for a, b in zip(endpoints_u, endpoints_v):
        if a == b:
            raise GraphError(f"self-loops are not allowed in CSR construction "
                             f"(vertex index {a})")
        degree[a] += 1
        degree[b] += 1
    indptr = array("q", accumulate(degree, initial=0))
    del degree
    cursor = indptr[:-1]
    indices = array("q", [0]) * indptr[n]
    for a, b in zip(endpoints_u, endpoints_v):
        k = cursor[a]
        indices[k] = b
        cursor[a] = k + 1
        k = cursor[b]
        indices[k] = a
        cursor[b] = k + 1
    del cursor
    write = start = 0
    for i in range(1, n + 1):
        end = indptr[i]
        if end - start > 1:
            row = sorted(set(indices[start:end]))
            indices[write:write + len(row)] = array("q", row)
            write += len(row)
        elif end > start:
            indices[write] = indices[start]
            write += 1
        start = end
        indptr[i] = write
    del indices[write:]
    return indptr, indices, write // 2


def intern_endpoints(pairs: Iterable[tuple[VertexLabel, VertexLabel]],
                     index_of: dict[VertexLabel, int]) -> tuple[array, array]:
    """Endpoint index buffers of a stream of ``(u, v)`` label pairs.

    A label new to ``index_of`` gets the next dense index (first-seen
    order), so the dict's insertion order is the index order.  Self-loops
    raise :class:`GraphError`.
    """
    endpoints_u = array("q")
    endpoints_v = array("q")
    for a, b in pairs:
        if a == b:
            raise GraphError(f"self-loops are not allowed (vertex {a!r})")
        endpoints_u.append(index_of.setdefault(a, len(index_of)))
        endpoints_v.append(index_of.setdefault(b, len(index_of)))
    return endpoints_u, endpoints_v


def label_storage(labels: Iterable[VertexLabel]) -> array | list[VertexLabel]:
    """``labels`` as one ``array('q')`` when every label is an ``int`` that
    fits in 64 bits, else as a list (an ``array('q')`` is kept as given).

    ``bool`` and other ``int`` subclasses keep the list, so every label reads
    back equal to, and of the type of, the label given.
    """
    if isinstance(labels, array) and labels.typecode == "q":
        return labels
    storage = array("q")
    labels = iter(labels)
    for label in labels:
        if type(label) is int:
            try:
                storage.append(label)
                continue
            except OverflowError:
                pass
        return [*storage, label, *labels]
    return storage


def hash_index(labels) -> tuple[array, array]:
    """The label index of ``labels``: ``(hashes, positions)``, every label's
    ``hash`` sorted ascending and the vertex index of each.

    Equal labels hash equally, so a duplicate sits in the run of equal
    hashes before it; one raises :class:`GraphError`.
    """
    codes = list(map(hash, labels))
    positions = array("q", sorted(range(len(codes)), key=codes.__getitem__))
    hashes = array("q", map(codes.__getitem__, positions))
    for k in compress(range(1, len(hashes)), map(eq, islice(hashes, 1, None), hashes)):
        label = labels[positions[k]]
        j = k - 1
        while j >= 0 and hashes[j] == hashes[k]:
            other = labels[positions[j]]
            if other is label or other == label:
                raise GraphError(f"duplicate label {label!r} in CSR construction")
            j -= 1
    return hashes, positions


def _int64(buffer) -> array:
    """``buffer`` as an ``array('q')``, copied only when it is not one."""
    if isinstance(buffer, array) and buffer.typecode == "q":
        return buffer
    return array("q", buffer)


# ----------------------------------------------------------------------
# Wide-mask helpers (byte-scans instead of O(n/64) low-bit extraction)
# ----------------------------------------------------------------------
def iter_mask_indices(mask: int) -> Iterator[int]:
    """Yield the set-bit indices of ``mask`` ascending, scanning byte-wise.

    Equivalent to :func:`repro.graph.graph.iter_bits`, but ``mask & -mask``
    on a w-bit int costs O(w/64) per extracted bit — O(k * w/64) total — while
    one ``to_bytes`` conversion plus a byte scan is O(w/8 + k).  On the wide
    masks of the large-graph tier that difference dominates.
    """
    if not mask:
        return
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    base = 0
    for byte in data:
        while byte:
            low = byte & -byte
            yield base + low.bit_length() - 1
            byte ^= low
        base += 8


class _LazyMaskTable:
    """Sequence facade over :meth:`CSRGraph.adjacency_mask`.

    Stands in for the dict graph's ``_adjacency_masks`` list so kernel code
    written against ``graph.adjacency_masks()[v]`` works unchanged; entries
    are built on demand and cached behind the graph's bounded LRU.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "CSRGraph") -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph.vertex_count

    def __getitem__(self, index: int) -> int:
        return self._graph.adjacency_mask(index)

    def __iter__(self) -> Iterator[int]:
        for index in range(self._graph.vertex_count):
            yield self._graph.adjacency_mask(index)


class _LazySetTable:
    """Sequence facade over :meth:`CSRGraph.adjacency_set` (fresh sets)."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "CSRGraph") -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph.vertex_count

    def __getitem__(self, index: int) -> set[int]:
        return self._graph.adjacency_set(index)

    def __iter__(self) -> Iterator[set[int]]:
        for index in range(self._graph.vertex_count):
            yield self._graph.adjacency_set(index)


# ----------------------------------------------------------------------
# The graph facade
# ----------------------------------------------------------------------
class CSRGraph(Graph):
    """A frozen :class:`Graph` whose adjacency lives in flat CSR arrays.

    Construct via :meth:`from_edge_stream` (interns labels first-seen, never
    materialises per-vertex containers), :meth:`Graph.from_csr`, or directly
    from prebuilt ``indptr`` / ``indices`` buffers (rows must be sorted
    ascending and symmetric — trusted, like
    :meth:`Graph.from_dense_adjacency`; ``array('q')`` buffers, and an
    ``array('q')`` of labels, are kept as given, anything else is copied into
    one).

    The graph is immutable: all mutators raise :class:`GraphError`.  Use
    :meth:`thaw` to obtain a mutable dict/bitmask copy (O(n^2)-bit memory —
    intended for small extracted subgraphs, not 10^5-vertex inputs).
    """

    def __init__(self, labels: Iterable[VertexLabel], indptr, indices, *,
                 edge_count: int | None = None) -> None:
        labels = label_storage(labels)
        self._install(labels, *hash_index(labels), _int64(indptr),
                      _int64(indices), edge_count)

    @classmethod
    def _adopt(cls, labels, hashes: array, positions: array, indptr, indices,
               edge_count: int | None) -> "CSRGraph":
        """A graph that shares ``labels``, their index and the rows as given
        (how :meth:`copy` shares them)."""
        graph = cls.__new__(cls)
        graph._install(labels, hashes, positions, indptr, indices, edge_count)
        return graph

    def _install(self, labels, hashes: array, positions: array, indptr, indices,
                 edge_count: int | None) -> None:
        super().__init__()
        n = len(labels)
        if len(indptr) != n + 1:
            raise GraphError(f"indptr length {len(indptr)} does not match "
                             f"{n} labels (need n + 1 offsets)")
        if n and indptr[n] != len(indices):
            raise GraphError(f"indptr[-1] = {indptr[n]} does not match "
                             f"{len(indices)} neighbour entries")
        self._labels = labels
        self._index_of = None  # the hash index replaces the dict graph's dict
        self._hashes = hashes
        self._positions = positions
        self.indptr = indptr
        self.indices = indices
        self._edge_count = len(indices) // 2 if edge_count is None else edge_count
        self._version = 1
        self._mask_nbytes = (n + 7) // 8
        self._mask_cache: OrderedDict[int, int] = OrderedDict()
        self._adjacency_sets = _LazySetTable(self)
        self._adjacency_masks = _LazyMaskTable(self)

    @classmethod
    def from_edge_stream(cls, pairs: Iterable[tuple[VertexLabel, VertexLabel]],
                         vertices: Iterable[VertexLabel] | None = None) -> "CSRGraph":
        """Build a CSR graph from a stream of ``(u, v)`` label pairs.

        Labels are interned to dense indices in first-seen order (explicit
        ``vertices`` first, matching ``Graph(edges, vertices=...)``), and the
        endpoints accumulate in flat ``array('q')`` buffers — at no point does
        a per-vertex set, list or bitmask exist, so peak memory is O(V + E).
        The intern table goes before the graph indexes its labels.  Duplicate
        pairs are deduplicated; self-loops raise.
        """
        index_of: dict[VertexLabel, int] = {}
        if vertices is not None:
            for label in vertices:
                index_of.setdefault(label, len(index_of))
        endpoints = intern_endpoints(pairs, index_of)
        labels = label_storage(index_of)
        del index_of
        indptr, indices, edge_count = build_csr_arrays(len(labels), *endpoints)
        del endpoints
        return cls(labels, indptr, indices, edge_count=edge_count)

    # ------------------------------------------------------------------
    # Frozen mutation surface
    # ------------------------------------------------------------------
    def _frozen(self, operation: str):
        raise GraphError(
            f"{operation}: CSR-backed graphs are immutable; call thaw() for a "
            f"mutable dict/bitmask copy")

    def add_vertex(self, label: VertexLabel) -> int:
        self._frozen("add_vertex")

    def add_edge(self, u: VertexLabel, v: VertexLabel) -> None:
        self._frozen("add_edge")

    def remove_edge(self, u: VertexLabel, v: VertexLabel) -> None:
        self._frozen("remove_edge")

    def remove_vertex(self, label: VertexLabel) -> None:
        self._frozen("remove_vertex")

    def thaw(self) -> Graph:
        """Return a mutable dict/bitmask :class:`Graph` with the same content.

        This re-enters the O(n^2)-bit representation — the documented path
        for callers that must mutate (e.g. serving a small ingested graph
        under updates), not for large-graph hot paths.
        """
        graph = Graph(vertices=self._labels)
        indptr, indices, labels = self.indptr, self.indices, self._labels
        for i in range(len(labels)):
            label = labels[i]
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                if i < j:
                    graph.add_edge(label, labels[j])
        return graph

    # ------------------------------------------------------------------
    # Accessors (CSR-derived)
    # ------------------------------------------------------------------
    def adjacency_set(self, index: int) -> set[int]:
        """Fresh neighbour-index set built from the CSR row (do not mutate)."""
        if index < 0:
            index += len(self._labels)
        return set(self.indices[self.indptr[index]:self.indptr[index + 1]])

    def adjacency_mask(self, index: int) -> int:
        """Neighbour bitmask of a vertex, built lazily and LRU-cached within
        :data:`MASK_CACHE` masks and :data:`MASK_CACHE_BYTES`."""
        if index < 0:
            index += len(self._labels)
        cache = self._mask_cache
        mask = cache.get(index)
        if mask is not None:
            cache.move_to_end(index)
            return mask
        buffer = bytearray(self._mask_nbytes)
        indices = self.indices
        for k in range(self.indptr[index], self.indptr[index + 1]):
            j = indices[k]
            buffer[j >> 3] |= 1 << (j & 7)
        mask = int.from_bytes(buffer, "little")
        cache[index] = mask
        while cache and (len(cache) > MASK_CACHE
                         or len(cache) * self._mask_nbytes > MASK_CACHE_BYTES):
            cache.popitem(last=False)
        return mask

    def adjacency_masks(self):
        """The lazy mask table (indexable like the dict graph's list)."""
        return self._adjacency_masks

    def neighbors(self, label: VertexLabel) -> frozenset[VertexLabel]:
        index = self.index_of(label)
        labels = self._labels
        return frozenset(labels[j] for j in
                         self.indices[self.indptr[index]:self.indptr[index + 1]])

    def degree(self, label: VertexLabel) -> int:
        index = self.index_of(label)
        return self.indptr[index + 1] - self.indptr[index]

    def degree_sequence(self) -> list[int]:
        indptr = self.indptr
        return [indptr[i + 1] - indptr[i] for i in range(len(self._labels))]

    def max_degree(self) -> int:
        if not self._labels:
            return 0
        indptr = self.indptr
        return max(indptr[i + 1] - indptr[i] for i in range(len(self._labels)))

    def edges(self) -> list[tuple[VertexLabel, VertexLabel]]:
        result = []
        indptr, indices, labels = self.indptr, self.indices, self._labels
        for i in range(len(labels)):
            label = labels[i]
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                if j > i:
                    result.append((label, labels[j]))
        return result

    def has_edge(self, u: VertexLabel, v: VertexLabel) -> bool:
        i = self._find(u)
        j = self._find(v)
        if i < 0 or j < 0:
            return False
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = bisect_left(self.indices, j, lo, hi)
        return k < hi and self.indices[k] == j

    def _find(self, label: VertexLabel) -> int:
        """Index of ``label``, or -1: bisect its hash, then compare labels
        within the run of equal hashes (a dict's key test)."""
        hashes = self._hashes
        code = hash(label)
        k = bisect_left(hashes, code)
        while k < len(hashes) and hashes[k] == code:
            index = self._positions[k]
            other = self._labels[index]
            if other is label or other == label:
                return index
            k += 1
        return -1

    def index_of(self, label: VertexLabel) -> int:
        index = self._find(label)
        if index < 0:
            raise GraphError(f"unknown vertex {label!r}")
        return index

    def __contains__(self, label: VertexLabel) -> bool:
        return self._find(label) >= 0

    def mask_of(self, labels: Iterable[VertexLabel]) -> int:
        """Bitmask of a label collection via one byte buffer (O(n/8 + k log n))."""
        buffer = bytearray(self._mask_nbytes)
        index_of = self.index_of
        for label in labels:
            i = index_of(label)
            buffer[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buffer, "little")

    def labels_of_mask(self, mask: int) -> frozenset[VertexLabel]:
        labels = self._labels
        return frozenset(labels[i] for i in iter_mask_indices(mask))

    def copy(self) -> "CSRGraph":
        """Cheap copy sharing the immutable CSR buffers, labels and label index."""
        return CSRGraph._adopt(self._labels, self._hashes, self._positions,
                               self.indptr, self.indices, self._edge_count)

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.vertex_count}, |E|={self.edge_count})"

    # ------------------------------------------------------------------
    # Batched restricted counting (the kernel's one-hop shrink hook)
    # ------------------------------------------------------------------
    def restricted_counts(self, members_mask: int,
                          target_mask: int) -> dict[int, int]:
        """Return ``{v: |Γ(v) ∩ target|}`` for every member of ``members_mask``.

        One byte-buffer membership test per neighbour entry — O(n/8 + Σ
        deg(member)) small-int operations, with no full-width mask involved.
        :func:`repro.core.kernel.one_hop_pass` uses this to batch the
        degree count, replacing one O(n/64) popcount (plus an O(deg + n/8)
        lazy mask build) per scanned member.
        """
        tbytes = target_mask.to_bytes(self._mask_nbytes, "little")
        indptr, indices = self.indptr, self.indices
        counts: dict[int, int] = {}
        for v in iter_mask_indices(members_mask):
            total = 0
            for k in range(indptr[v], indptr[v + 1]):
                j = indices[k]
                total += (tbytes[j >> 3] >> (j & 7)) & 1
            counts[v] = total
        return counts


# ----------------------------------------------------------------------
# CSR-native algorithm variants (dispatched from repro.graph)
# ----------------------------------------------------------------------
# Each of these mirrors its mask-based reference implementation's scan order
# exactly — bucket initialisation ascending by index, LIFO pops with the
# stale-entry skip, neighbour walks ascending — so tie-breaks, and therefore
# the emitted candidate sets of the whole enumeration stack, are identical.

def csr_degeneracy_order_and_cores(graph: CSRGraph) -> tuple[array, array]:
    """Index-space ``(order, core_numbers)`` over flat buffers.

    The Batagelj–Zaversnik peel of
    ``repro.graph.core_decomposition._bucket_peel`` with its bucket lists
    threaded through ``array`` buffers: bucket d is a stack of entries from
    ``top[d]`` down through ``below``, and entry e holds ``vertex_of[e]``.
    Pushes, pops and the stale-entry skip are the list buckets' own, so
    orderings and core numbers are identical.  There is one entry per vertex
    plus one per degree decrement, at most one per edge.
    """
    n = graph.vertex_count
    order = array("q", [0]) * n
    cores = array("q", [0]) * n
    if n == 0:
        return order, cores
    indptr, indices = graph.indptr, graph.indices
    degree = array("q", map(sub, islice(indptr, 1, None), indptr))
    top = array("q", [-1]) * (max(degree) + 1)
    capacity = n + len(indices) // 2
    below = array("q", [0]) * capacity
    vertex_of = array("q", [0]) * capacity
    for vertex in range(n):  # ascending, like the list buckets' fill
        below[vertex] = top[degree[vertex]]
        top[degree[vertex]] = vertex
        vertex_of[vertex] = vertex
    pushed = n
    core = pointer = position = 0
    while position < n:
        entry = top[pointer]
        if entry < 0:
            pointer += 1
            continue
        top[pointer] = below[entry]
        vertex = vertex_of[entry]
        if degree[vertex] != pointer:
            continue  # stale entry, or already peeled (degree -1)
        degree[vertex] = -1
        if pointer > core:
            core = pointer
        cores[vertex] = core
        order[position] = vertex
        position += 1
        for neighbour in indices[indptr[vertex]:indptr[vertex + 1]]:
            d = degree[neighbour] - 1
            if d < 0:
                continue  # already peeled
            degree[neighbour] = d
            vertex_of[pushed] = neighbour
            below[pushed] = top[d]
            top[d] = pushed
            pushed += 1
            if d < pointer:
                pointer = d
    return order, cores


def csr_restricted_degeneracy_order(graph: CSRGraph, mask: int) -> list[int]:
    """Degeneracy ordering of ``G[mask]`` as global indices, CSR-native.

    Produces exactly the sequence :func:`~repro.graph.degeneracy_ordering`
    returns on a rebuilt copy of ``G[mask]`` whose local indices ascend by
    global index (mapped back to global indices): ascending-global scans
    here equal ascending-local scans there.  The dict route of
    :func:`~repro.graph.degeneracy_ordering_within` peels the same way over
    bitmask rows.
    """
    members = list(iter_mask_indices(mask))
    if not members:
        return []
    n = graph.vertex_count
    indptr, indices = graph.indptr, graph.indices
    mbytes = mask.to_bytes((n + 7) // 8, "little")
    degrees = [0] * n
    for v in members:
        total = 0
        for k in range(indptr[v], indptr[v + 1]):
            j = indices[k]
            total += (mbytes[j >> 3] >> (j & 7)) & 1
        degrees[v] = total
    max_degree = max(degrees[v] for v in members)
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    for v in members:
        buckets[degrees[v]].append(v)
    position_removed = [False] * n
    order: list[int] = []
    pointer = 0
    remaining = len(members)
    while remaining:
        while pointer <= max_degree and not buckets[pointer]:
            pointer += 1
        vertex = buckets[pointer].pop()
        if position_removed[vertex] or degrees[vertex] != pointer:
            continue
        position_removed[vertex] = True
        remaining -= 1
        order.append(vertex)
        for k in range(indptr[vertex], indptr[vertex + 1]):
            neighbour = indices[k]
            if not (mbytes[neighbour >> 3] >> (neighbour & 7)) & 1:
                continue
            if position_removed[neighbour]:
                continue
            degrees[neighbour] -= 1
            new_degree = degrees[neighbour]
            buckets[new_degree].append(neighbour)
            if new_degree < pointer:
                pointer = new_degree
    return order


def csr_two_hop_mask(graph: CSRGraph, center_index: int, allowed_mask: int) -> int:
    """``two_hop_mask`` over CSR rows: O(Σ deg(allowed 1-hop) + n/8)."""
    nbytes = graph._mask_nbytes
    allowed = allowed_mask.to_bytes(nbytes, "little")
    reach = bytearray(nbytes)
    indptr, indices = graph.indptr, graph.indices
    one_hop = []
    for k in range(indptr[center_index], indptr[center_index + 1]):
        j = indices[k]
        if (allowed[j >> 3] >> (j & 7)) & 1:
            one_hop.append(j)
            reach[j >> 3] |= 1 << (j & 7)
    for w in one_hop:
        for k in range(indptr[w], indptr[w + 1]):
            x = indices[k]
            if (allowed[x >> 3] >> (x & 7)) & 1:
                reach[x >> 3] |= 1 << (x & 7)
    if (allowed[center_index >> 3] >> (center_index & 7)) & 1:
        reach[center_index >> 3] |= 1 << (center_index & 7)
    return int.from_bytes(reach, "little")
