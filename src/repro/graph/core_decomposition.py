"""k-core decomposition and degeneracy ordering (Batagelj–Zaversnik, 2003).

DCFastQC (Algorithm 3) needs two pieces of core machinery:

* line 1 reduces the graph to its ``ceil(gamma * (theta - 1))``-core, because
  every quasi-clique of size >= theta lives inside that core, and
* line 2 computes a degeneracy ordering, which bounds each divide-and-conquer
  subgraph by ``O(omega * d)`` vertices.

Both are implemented with the linear-time bucket algorithm.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from itertools import compress

from .graph import Graph, VertexLabel


def core_numbers(graph: Graph) -> dict[VertexLabel, int]:
    """Return the core number of every vertex.

    The core number of ``v`` is the largest ``k`` such that ``v`` belongs to
    the ``k``-core (the maximal subgraph with minimum degree >= k).
    """
    return dict(zip(graph, core_numbers_by_index(graph)))


def core_numbers_by_index(graph: Graph) -> array:
    """The core numbers in index space: ``cores[i]`` is vertex ``i``'s."""
    return _peel(graph)[1]


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy ``omega`` of the graph (0 for an empty graph)."""
    return max(core_numbers_by_index(graph), default=0)


def degeneracy_ordering(graph: Graph) -> list[VertexLabel]:
    """Return a degeneracy ordering of the vertices.

    The ordering repeatedly removes a vertex of minimum remaining degree.  It
    has the property that every vertex has at most ``omega`` neighbours among
    the vertices that come *after* it in the ordering.
    """
    order, _cores = _peel(graph)
    label_of = graph.label_of
    return [label_of(index) for index in order]


def _peel(graph: Graph) -> tuple[list[int] | array, array]:
    """The whole graph's peel in index space: ``(order, cores)``, where
    ``cores[i]`` is vertex ``i``'s core number."""
    if getattr(graph, "indptr", None) is not None:
        # CSR-backed graph: run the bucket algorithm over the flat rows.
        # Bitmask rows would transiently materialise O(n^2) bits — exactly
        # what the CSR tier exists to avoid.  The native variant mirrors
        # _bucket_peel's scan order bit for bit, so orderings and core
        # numbers are identical for identical content.
        from ..core.csr import csr_degeneracy_order_and_cores

        return csr_degeneracy_order_and_cores(graph)
    order, core_of = _bucket_peel(graph.adjacency_masks(), graph.full_mask())
    return order, array("q", map(core_of.__getitem__, range(graph.vertex_count)))


def degeneracy_ordering_within(graph: Graph, mask: int) -> list[VertexLabel]:
    """Degeneracy ordering of the induced subgraph ``G[mask]``, as labels.

    For the full mask this is just :func:`degeneracy_ordering`.  Otherwise
    the bucket algorithm peels ``G[mask]`` in the graph's own index space,
    with no graph of ``G[mask]`` built: natively over the flat rows on a
    CSR-backed graph, over the bitmask rows restricted to ``mask``
    otherwise.  Both keep :func:`degeneracy_ordering`'s scan order, so the
    result is exactly its ordering of a rebuilt ``G[mask]`` whose indices
    ascend by global index.
    """
    if mask == graph.full_mask():
        return degeneracy_ordering(graph)
    if getattr(graph, "indptr", None) is not None:
        from ..core.csr import csr_restricted_degeneracy_order

        order = csr_restricted_degeneracy_order(graph, mask)
    else:
        order, _cores = _bucket_peel(graph.adjacency_masks(), mask)
    label_of = graph.label_of
    return [label_of(index) for index in order]


def _bucket_peel(masks, mask: int) -> tuple[list[int], dict[int, int]]:
    """Bucket peel of ``G[mask]`` over bitmask rows: the order and every
    member's core number, by global index.

    Ascending bucket initialisation, LIFO pops with the stale-entry skip and
    ascending neighbour walks make the order a pure function of the graph's
    *content* (a rebuilt ``G[mask]`` with ascending indices orders
    identically); set iteration would leak insertion history into the
    tie-breaks.  A peeled vertex leaves ``alive`` and gets degree -1.
    """
    degrees: dict[int, int] = {}
    remaining = mask
    bit_length = int.bit_length
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        vertex = bit_length(low) - 1
        degrees[vertex] = (masks[vertex] & mask).bit_count()
    if not degrees:
        return [], {}
    max_degree = max(degrees.values())
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    for vertex, degree in degrees.items():  # ascending index
        buckets[degree].append(vertex)
    alive = mask
    order: list[int] = []
    core_of: dict[int, int] = {}
    core = 0
    pointer = 0
    left = len(degrees)
    while left:
        while not buckets[pointer]:
            pointer += 1
        vertex = buckets[pointer].pop()
        if degrees[vertex] != pointer:
            continue  # stale entry, or already peeled
        degrees[vertex] = -1
        alive ^= 1 << vertex
        left -= 1
        order.append(vertex)
        if pointer > core:
            core = pointer
        core_of[vertex] = core
        walk = masks[vertex] & alive
        while walk:
            low = walk & -walk
            walk ^= low
            neighbour = bit_length(low) - 1
            degree = degrees[neighbour] - 1
            degrees[neighbour] = degree
            buckets[degree].append(neighbour)
            if degree < pointer:
                pointer = degree
    return order, core_of


def k_core(graph: Graph, k: int) -> Graph:
    """Return the ``k``-core of the graph as a new (possibly empty) graph.

    The ``k``-core is the maximal induced subgraph in which every vertex has
    degree at least ``k``.  For ``k <= 0`` the graph itself is returned
    (as a copy).
    """
    if k <= 0:
        return graph.copy()
    return graph.induced_subgraph(k_core_vertices(graph, k))


def k_core_vertices(graph: Graph, k: int) -> frozenset[VertexLabel]:
    """Return the vertex set of the ``k``-core without materialising the subgraph."""
    if k <= 0:
        return frozenset(graph.vertices())
    return frozenset(compress(graph, map(k.__le__, core_numbers_by_index(graph))))


def is_degeneracy_ordering(graph: Graph, ordering: Iterable[VertexLabel]) -> bool:
    """Check the defining property of a degeneracy ordering.

    Every vertex must have at most ``degeneracy(graph)`` neighbours among the
    vertices that appear after it in the ordering.
    """
    ordering = list(ordering)
    if set(ordering) != set(graph.vertices()) or len(ordering) != graph.vertex_count:
        return False
    omega = degeneracy(graph)
    position = {v: i for i, v in enumerate(ordering)}
    for v in ordering:
        later = sum(1 for u in graph.neighbors(v) if position[u] > position[v])
        if later > omega:
            return False
    return True
