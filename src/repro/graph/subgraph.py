"""Neighbourhood and subgraph helpers used by the divide-and-conquer framework.

DCFastQC (Algorithm 3) builds, for each vertex ``v_i`` in the degeneracy
ordering, the subgraph induced by the 2-hop neighbourhood of ``v_i`` minus the
vertices that precede ``v_i`` in the ordering (Equation 19).  These helpers
compute 1-hop and 2-hop neighbourhoods both in label space and as bitmasks.
Connectivity (:func:`is_connected`, :func:`connected_components`) is one walk
over neighbour rows that dict and CSR graphs share.
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
    allowed = None if labels is None else graph.indices_of(labels)
    total = graph.vertex_count if allowed is None else len(allowed)
    if total == 0:
        return True
    start = 0 if allowed is None else next(iter(allowed))
    return len(_reach(graph, start, allowed)) == total


def connected_components(graph: Graph) -> list[frozenset[VertexLabel]]:
    """Return the connected components as label sets, by smallest member index."""
    seen: set[int] = set()
    components: list[frozenset[VertexLabel]] = []
    for start in range(graph.vertex_count):
        if start not in seen:
            component = _reach(graph, start)
            seen |= component
            components.append(graph.labels_of(component))
    return components


def _reach(graph: Graph, start: int, allowed: frozenset[int] | None = None) -> set[int]:
    """Indices reachable from ``start`` inside ``allowed`` (every vertex when None).

    One walk over neighbour rows (``adjacency_set``), so dict and CSR graphs
    share it and no ``|V|``-wide mask is built.
    """
    seen = {start}
    stack = [start]
    while stack:
        fresh = graph.adjacency_set(stack.pop()) - seen
        if allowed is not None:
            fresh &= allowed
        seen |= fresh
        stack.extend(fresh)
    return seen
