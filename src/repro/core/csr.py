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
every content-deterministic tie-break (degeneracy ordering, compact
subgraph local index assignment, pivot selection) are identical to what a
dict-backed :class:`Graph` of the same content produces, so CSR-backed
queries return answers identical to dict-backed ones.  The CSR-native
algorithm variants in this module (degeneracy/cores, restricted ordering,
connected components, 2-hop balls) mirror the reference implementations'
scan orders step for step to preserve that guarantee while running in
O(V + E) instead of O(n^2 / 64); subproblem extraction walks the same rows
(:func:`repro.graph.subgraph.ball_and_halo`).

numpy, when importable, accelerates only the *construction* (sort + dedupe
of the symmetrised endpoint arrays); the stored arrays are always stdlib
``array('q')`` buffers so indexing yields plain Python ints everywhere and
the module works without numpy.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Iterable, Iterator

from ..graph.graph import Graph, GraphError, VertexLabel

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via use_numpy=False tests
    _np = None

#: Bounded LRU capacity of the lazily materialised adjacency bitmasks.  At
#: 10^5 vertices one mask is ~12.5 KB, so the cache tops out around 13 MB —
#: enough to keep a whole shrink phase's ball resident without ever scaling
#: with |V| * |V|.
DEFAULT_MASK_CACHE = 1024


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_csr_arrays(vertex_count: int, endpoints_u, endpoints_v,
                     use_numpy: bool | None = None) -> tuple[array, array, int]:
    """Build ``(indptr, indices, edge_count)`` from parallel endpoint arrays.

    The endpoints describe undirected edges by vertex *index* (the caller
    interns labels); duplicates and symmetric repeats are deduplicated, rows
    come out sorted ascending.  Self-loops raise :class:`GraphError`.  With
    numpy available the symmetrise/sort/dedupe runs vectorised over int64
    keys ``u * n + v``; the stdlib fallback sorts a Python list of the same
    keys.  Either way the returned buffers are ``array('q')``.
    """
    n = vertex_count
    if use_numpy is None:
        use_numpy = _np is not None
    if use_numpy and _np is not None:
        u = _coerce_int64(endpoints_u)
        v = _coerce_int64(endpoints_v)
        if u.size and bool((u == v).any()):
            raise GraphError("self-loops are not allowed in CSR construction")
        keys = _np.unique(_np.concatenate((u * n + v, v * n + u)))
        rows = keys // n
        cols = keys - rows * n
        counts = _np.bincount(rows, minlength=n)
        indptr_np = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=indptr_np[1:])
        indptr = array("q")
        indptr.frombytes(indptr_np.tobytes())
        indices = array("q")
        indices.frombytes(cols.astype(_np.int64, copy=False).tobytes())
        return indptr, indices, len(indices) // 2
    keys: list[int] = []
    append = keys.append
    for a, b in zip(endpoints_u, endpoints_v):
        if a == b:
            raise GraphError(f"self-loops are not allowed in CSR construction "
                             f"(vertex index {a})")
        append(a * n + b)
        append(b * n + a)
    keys.sort()
    indptr = array("q", bytes(8 * (n + 1)))
    indices = array("q")
    previous = -1
    for key in keys:
        if key == previous:
            continue
        previous = key
        row = key // n
        indices.append(key - row * n)
        indptr[row + 1] += 1
    for i in range(n):
        indptr[i + 1] += indptr[i]
    return indptr, indices, len(indices) // 2


def _coerce_int64(buffer):
    """View an ``array('q')`` buffer (or any iterable) as a numpy int64 array."""
    if isinstance(buffer, array) and buffer.typecode == "q":
        if not len(buffer):
            return _np.empty(0, dtype=_np.int64)
        return _np.frombuffer(buffer, dtype=_np.int64)
    return _np.asarray(list(buffer), dtype=_np.int64)


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
    :meth:`Graph.from_dense_adjacency`).

    The graph is immutable: all mutators raise :class:`GraphError`.  Use
    :meth:`thaw` to obtain a mutable dict/bitmask copy (O(n^2)-bit memory —
    intended for small extracted subgraphs, not 10^5-vertex inputs).
    """

    def __init__(self, labels: Iterable[VertexLabel], indptr, indices, *,
                 edge_count: int | None = None,
                 mask_cache: int = DEFAULT_MASK_CACHE) -> None:
        super().__init__()
        labels = list(labels)
        n = len(labels)
        if len(indptr) != n + 1:
            raise GraphError(f"indptr length {len(indptr)} does not match "
                             f"{n} labels (need n + 1 offsets)")
        if n and indptr[n] != len(indices):
            raise GraphError(f"indptr[-1] = {indptr[n]} does not match "
                             f"{len(indices)} neighbour entries")
        self._labels = labels
        self._index_of = {label: index for index, label in enumerate(labels)}
        if len(self._index_of) != n:
            raise GraphError("duplicate labels in CSR construction")
        self.indptr = indptr
        self.indices = indices
        self._edge_count = len(indices) // 2 if edge_count is None else edge_count
        self._version = 1
        self._mask_nbytes = (n + 7) // 8
        self._mask_cache: OrderedDict[int, int] = OrderedDict()
        self._mask_cache_capacity = mask_cache
        self._adjacency_sets = _LazySetTable(self)
        self._adjacency_masks = _LazyMaskTable(self)

    @classmethod
    def from_edge_stream(cls, pairs: Iterable[tuple[VertexLabel, VertexLabel]],
                         vertices: Iterable[VertexLabel] | None = None,
                         use_numpy: bool | None = None) -> "CSRGraph":
        """Build a CSR graph from a stream of ``(u, v)`` label pairs.

        Labels are interned to dense indices in first-seen order (explicit
        ``vertices`` first, matching ``Graph(edges, vertices=...)``), and the
        endpoints accumulate in flat ``array('q')`` buffers — at no point does
        a per-vertex set, list or bitmask exist, so peak memory is O(V + E).
        Duplicate pairs are deduplicated; self-loops raise.
        """
        labels: list[VertexLabel] = []
        index_of: dict[VertexLabel, int] = {}

        def intern(label: VertexLabel) -> int:
            index = index_of.get(label)
            if index is None:
                index = len(labels)
                index_of[label] = index
                labels.append(label)
            return index

        if vertices is not None:
            for label in vertices:
                intern(label)
        endpoints_u = array("q")
        endpoints_v = array("q")
        for a, b in pairs:
            if a == b:
                raise GraphError(f"self-loops are not allowed (vertex {a!r})")
            endpoints_u.append(intern(a))
            endpoints_v.append(intern(b))
        indptr, indices, edge_count = build_csr_arrays(
            len(labels), endpoints_u, endpoints_v, use_numpy=use_numpy)
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
        for callers that must mutate (e.g. handing a small ingested graph to
        :class:`repro.dynamic.DynamicEngine`), not for large-graph hot paths.
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
        """Neighbour bitmask of a vertex, built lazily and LRU-cached."""
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
        if len(cache) > self._mask_cache_capacity:
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
        i = self._index_of.get(u)
        j = self._index_of.get(v)
        if i is None or j is None:
            return False
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = bisect_left(self.indices, j, lo, hi)
        return k < hi and self.indices[k] == j

    def mask_of(self, labels: Iterable[VertexLabel]) -> int:
        """Bitmask of a label collection via one byte buffer (O(n/8 + k))."""
        buffer = bytearray(self._mask_nbytes)
        index_of = self._index_of
        for label in labels:
            try:
                i = index_of[label]
            except KeyError:
                raise GraphError(f"unknown vertex {label!r}") from None
            buffer[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buffer, "little")

    def labels_of_mask(self, mask: int) -> frozenset[VertexLabel]:
        labels = self._labels
        return frozenset(labels[i] for i in iter_mask_indices(mask))

    def copy(self) -> "CSRGraph":
        """Cheap copy sharing the immutable CSR buffers."""
        return CSRGraph(self._labels, self.indptr, self.indices,
                        edge_count=self._edge_count,
                        mask_cache=self._mask_cache_capacity)

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.vertex_count}, |E|={self.edge_count})"

    # ------------------------------------------------------------------
    # Batched restricted counting (the kernel's one-hop shrink hook)
    # ------------------------------------------------------------------
    def restricted_counts(self, members_mask: int,
                          target_mask: int | None = None) -> dict[int, int]:
        """Return ``{v: |Γ(v) ∩ target|}`` for every member of ``members_mask``.

        One byte-buffer membership test per neighbour entry — O(n/8 + Σ
        deg(member)) small-int operations, with no full-width mask involved.
        :class:`repro.core.kernel.ShrinkLedgers` uses this to batch the
        one-hop degree pass, replacing one O(n/64) popcount (plus an O(deg +
        n/8) lazy mask build) per scanned member.  ``target_mask`` defaults
        to ``members_mask`` itself.
        """
        target = members_mask if target_mask is None else target_mask
        tbytes = target.to_bytes(self._mask_nbytes, "little")
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

def csr_degeneracy_order_and_cores(graph: CSRGraph) -> tuple[list[int], list[int]]:
    """Index-space ``(order, core_numbers)``; the Batagelj–Zaversnik buckets
    of ``_degeneracy_order_and_cores`` run over CSR rows instead of bitmasks."""
    n = graph.vertex_count
    if n == 0:
        return [], []
    indptr, indices = graph.indptr, graph.indices
    degrees = [indptr[i + 1] - indptr[i] for i in range(n)]
    max_degree = max(degrees)
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    for index, degree in enumerate(degrees):
        buckets[degree].append(index)
    position_removed = [False] * n
    current_degree = degrees[:]
    order_indices: list[int] = []
    core_of_index = [0] * n
    current_core = 0
    pointer = 0
    removed = 0
    while removed < n:
        while pointer <= max_degree and not buckets[pointer]:
            pointer += 1
        vertex = buckets[pointer].pop()
        if position_removed[vertex] or current_degree[vertex] != pointer:
            continue
        position_removed[vertex] = True
        removed += 1
        current_core = max(current_core, pointer)
        core_of_index[vertex] = current_core
        order_indices.append(vertex)
        for k in range(indptr[vertex], indptr[vertex + 1]):
            neighbour = indices[k]
            if position_removed[neighbour]:
                continue
            current_degree[neighbour] -= 1
            new_degree = current_degree[neighbour]
            buckets[new_degree].append(neighbour)
            if new_degree < pointer:
                pointer = new_degree
    return order_indices, core_of_index


def csr_restricted_degeneracy_order(graph: CSRGraph, mask: int) -> list[int]:
    """Degeneracy ordering of ``G[mask]`` as global indices, CSR-native.

    Produces exactly the sequence ``degeneracy_ordering(compact_subgraph(
    graph, mask))`` would (mapped back to global indices): compact local
    indices are monotone in global indices, so ascending-global scans here
    equal ascending-local scans there.
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


def csr_connected_components(graph: CSRGraph,
                             within_mask: int | None = None
                             ) -> list[frozenset[VertexLabel]]:
    """Connected components via CSR BFS, ordered by smallest member index
    (the same order the mask-based BFS produces)."""
    n = graph.vertex_count
    indptr, indices, labels = graph.indptr, graph.indices, graph._labels
    allowed = (within_mask.to_bytes((n + 7) // 8, "little")
               if within_mask is not None else None)
    seen = bytearray(n)
    components: list[frozenset[VertexLabel]] = []
    for start in range(n):
        if seen[start]:
            continue
        if allowed is not None and not (allowed[start >> 3] >> (start & 7)) & 1:
            continue
        seen[start] = 1
        stack = [start]
        component = [start]
        while stack:
            vertex = stack.pop()
            for k in range(indptr[vertex], indptr[vertex + 1]):
                j = indices[k]
                if seen[j]:
                    continue
                if allowed is not None and not (allowed[j >> 3] >> (j & 7)) & 1:
                    continue
                seen[j] = 1
                component.append(j)
                stack.append(j)
        components.append(frozenset(labels[i] for i in component))
    return components


def csr_is_connected(graph: CSRGraph, allowed_mask: int | None = None) -> bool:
    """Connectivity of ``G`` (or ``G[allowed_mask]``) via one CSR BFS."""
    n = graph.vertex_count
    if n == 0:
        return True
    indptr, indices = graph.indptr, graph.indices
    if allowed_mask is None:
        start = 0
        allowed = None
        total = n
    else:
        if allowed_mask == 0:
            return True
        allowed = allowed_mask.to_bytes((n + 7) // 8, "little")
        start = next(iter_mask_indices(allowed_mask))
        total = allowed_mask.bit_count()
    seen = bytearray(n)
    seen[start] = 1
    reached = 1
    stack = [start]
    while stack:
        vertex = stack.pop()
        for k in range(indptr[vertex], indptr[vertex + 1]):
            j = indices[k]
            if seen[j]:
                continue
            if allowed is not None and not (allowed[j >> 3] >> (j & 7)) & 1:
                continue
            seen[j] = 1
            reached += 1
            stack.append(j)
    return reached == total


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
