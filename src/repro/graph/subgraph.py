"""Neighbourhood and subgraph helpers used by the divide-and-conquer framework.

DCFastQC (Algorithm 3) builds, for each vertex ``v_i`` in the degeneracy
ordering, the subgraph induced by the 2-hop neighbourhood of ``v_i`` minus the
vertices that precede ``v_i`` in the ordering (Equation 19).  These helpers
compute 1-hop and 2-hop neighbourhoods both in label space and as bitmasks.
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import Graph, VertexLabel, iter_bits


def closed_neighborhood(graph: Graph, vertex: VertexLabel) -> frozenset[VertexLabel]:
    """Return ``{vertex} ∪ N(vertex)`` as labels."""
    return graph.neighbors(vertex) | {vertex}


def two_hop_neighborhood(graph: Graph, vertex: VertexLabel,
                         include_center: bool = True) -> frozenset[VertexLabel]:
    """Return all vertices within distance 2 of ``vertex`` (closed by default).

    This is the paper's ``Γ2(v, V)``: for γ >= 0.5 every quasi-clique has
    diameter at most 2 (Property 2), so any MQC containing ``vertex`` lives
    inside this set.
    """
    center = graph.index_of(vertex)
    masks = graph.adjacency_masks()
    one_hop = masks[center]
    reach = one_hop
    for neighbour in iter_bits(one_hop):
        reach |= masks[neighbour]
    if include_center:
        reach |= 1 << center
    else:
        reach &= ~(1 << center)
    return graph.labels_of_mask(reach)


def two_hop_mask(graph: Graph, center_index: int, allowed_mask: int) -> int:
    """Return the bitmask of vertices within distance 2 of ``center_index``.

    Distances are measured inside ``G[allowed_mask]``: only neighbours that are
    themselves allowed can act as the middle vertex of a 2-hop path.  The
    center is always included in the result when it is allowed.
    """
    if getattr(graph, "indptr", None) is not None:
        from ..core.csr import csr_two_hop_mask

        return csr_two_hop_mask(graph, center_index, allowed_mask)
    masks = graph.adjacency_masks()
    one_hop = masks[center_index] & allowed_mask
    reach = one_hop
    for neighbour in iter_bits(one_hop):
        reach |= masks[neighbour]
    reach &= allowed_mask
    reach |= (1 << center_index) & allowed_mask
    return reach


def induced_subgraph_mask(graph: Graph, mask: int) -> Graph:
    """Return the induced subgraph over the vertices whose bits are set."""
    return graph.induced_subgraph(graph.labels_of_mask(mask))


def compact_subgraph(graph: Graph, mask: int) -> Graph:
    """Return ``G[mask]`` remapped onto a dense local index space.

    Local indices are assigned by increasing global index, so any algorithm
    whose tie-breaks follow index order (pivot selection, candidate orderings)
    behaves identically on the compact graph and on the original.  Labels are
    preserved, which is what lets DCFastQC enumerate a subproblem on its own
    small graph — bitmask and ledger widths track ``|mask|`` instead of
    ``|V(G)|`` — while still emitting answers in the original label space.

    Cost: one pass over the members' restricted adjacency, ``O(sum of
    deg(v in G[mask]))``, instead of :meth:`Graph.induced_subgraph`'s full
    edge scan.

    On a CSR-backed graph the extraction scans the flat rows directly
    (:func:`ball_and_halo`) and still returns a small dict/bitmask graph —
    subproblems are exactly where the bitmask kernel's branch inner loops
    should keep running.
    """
    if getattr(graph, "indptr", None) is not None:
        members, local_masks, _halo = ball_and_halo(graph, mask)
        return Graph.from_dense_adjacency(
            [graph.label_of(global_index) for global_index in members], local_masks)
    members = list(iter_bits(mask))
    local_of = {global_index: local for local, global_index in enumerate(members)}
    local_masks = []
    for global_index in members:
        local_mask = 0
        for neighbour in iter_bits(graph.adjacency_mask(global_index) & mask):
            local_mask |= 1 << local_of[neighbour]
        local_masks.append(local_mask)
    return Graph.from_dense_adjacency(
        [graph.label_of(global_index) for global_index in members], local_masks)


def ball_and_halo(graph: Graph, mask: int) -> tuple[list[int], list[int], dict[int, int]]:
    """Split every neighbour of ``mask``'s members into ball or halo, in one pass.

    Returns ``(members, local_masks, halo)``: the members' global indices in
    ascending order, each member's neighbour bitmask over the members' local
    indices (position in ``members``), and ``{outside neighbour: bitmask of
    its neighbours among the members}`` — the one-hop halo.  One walk over
    the members' neighbour lists (CSR rows on a CSR-backed graph, adjacency
    sets otherwise) costs ``O(sum of deg(member))`` and never builds a
    ``|V|``-wide mask.
    """
    indptr = getattr(graph, "indptr", None)
    if indptr is not None:
        from ..core.csr import iter_mask_indices

        members = list(iter_mask_indices(mask))
        indices = graph.indices
        rows = (indices[indptr[v]:indptr[v + 1]] for v in members)
    else:
        members = list(iter_bits(mask))
        rows = map(graph.adjacency_set, members)
    local_of = {global_index: local for local, global_index in enumerate(members)}
    local_masks = []
    halo: dict[int, int] = {}
    for local, row in enumerate(rows):
        member_bit = 1 << local
        local_mask = 0
        for neighbour in row:
            neighbour_local = local_of.get(neighbour)
            if neighbour_local is None:
                halo[neighbour] = halo.get(neighbour, 0) | member_bit
            else:
                local_mask |= 1 << neighbour_local
        local_masks.append(local_mask)
    return members, local_masks, halo


def neighborhood_intersection(graph: Graph, u: VertexLabel, v: VertexLabel,
                              restriction: Iterable[VertexLabel] | None = None
                              ) -> frozenset[VertexLabel]:
    """Return the common neighbours of ``u`` and ``v`` (optionally restricted)."""
    common = graph.neighbors(u) & graph.neighbors(v)
    if restriction is not None:
        common &= frozenset(restriction)
    return common


def is_connected(graph: Graph, labels: Iterable[VertexLabel] | None = None) -> bool:
    """Return True if ``G`` (or ``G[labels]``) is connected; empty graphs count as connected."""
    if getattr(graph, "indptr", None) is not None:
        from ..core.csr import csr_is_connected

        return csr_is_connected(
            graph, None if labels is None else graph.mask_of(labels))
    if labels is None:
        allowed = graph.full_mask()
    else:
        allowed = graph.mask_of(labels)
    if allowed == 0:
        return True
    masks = graph.adjacency_masks()
    start = (allowed & -allowed).bit_length() - 1
    seen = 1 << start
    frontier = seen
    while frontier:
        reach = 0
        for vertex in iter_bits(frontier):
            reach |= masks[vertex]
        reach &= allowed
        frontier = reach & ~seen
        seen |= frontier
    return seen == allowed


def connected_components(graph: Graph,
                         within_mask: int | None = None) -> list[frozenset[VertexLabel]]:
    """Return the connected components of the graph as label sets.

    With ``within_mask``, connectivity is computed inside the induced
    subgraph ``G[within_mask]`` only — used by the dynamic prepared graph to
    re-split a single touched component without scanning the whole graph.
    """
    if getattr(graph, "indptr", None) is not None:
        from ..core.csr import csr_connected_components

        return csr_connected_components(graph, within_mask)
    remaining = graph.full_mask() if within_mask is None else within_mask
    masks = graph.adjacency_masks()
    components: list[frozenset[VertexLabel]] = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        seen = 1 << start
        frontier = seen
        while frontier:
            reach = 0
            for vertex in iter_bits(frontier):
                reach |= masks[vertex]
            reach &= remaining
            frontier = reach & ~seen
            seen |= frontier
        components.append(graph.labels_of_mask(seen))
        remaining &= ~seen
    return components
