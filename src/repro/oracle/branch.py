"""Degree and disconnection bookkeeping over :class:`~repro.core.branch.Branch`
masks, recomputed with per-vertex popcounts (the reference quantities)."""

from __future__ import annotations

from ..core.branch import Branch
from ..graph.graph import Graph, iter_bits


def degree_in_union(graph: Graph, vertex: int, branch: Branch) -> int:
    """Return ``delta(v, S ∪ C)``."""
    return (graph.adjacency_mask(vertex) & branch.union_mask).bit_count()


def degree_in_partial(graph: Graph, vertex: int, branch: Branch) -> int:
    """Return ``delta(v, S)``."""
    return (graph.adjacency_mask(vertex) & branch.s_mask).bit_count()


def disconnections_in_partial(graph: Graph, vertex: int, branch: Branch) -> int:
    """Return ``delta_bar(v, S)`` (counts ``v`` itself when ``v ∈ S``)."""
    return (branch.s_mask & ~graph.adjacency_mask(vertex)).bit_count()


def disconnections_in_union(graph: Graph, vertex: int, branch: Branch) -> int:
    """Return ``delta_bar(v, S ∪ C)`` (counts ``v`` itself when it is in the union)."""
    return (branch.union_mask & ~graph.adjacency_mask(vertex)).bit_count()


def max_disconnections_in_partial(graph: Graph, branch: Branch) -> int:
    """Return ``Delta(S)``; 0 when S is empty."""
    if branch.s_mask == 0:
        return 0
    return max((branch.s_mask & ~graph.adjacency_mask(v)).bit_count()
               for v in iter_bits(branch.s_mask))

def max_disconnections_in_union(graph: Graph, branch: Branch) -> int:
    """Return ``Delta(S ∪ C)``; 0 when the union is empty."""
    union = branch.union_mask
    if union == 0:
        return 0
    return max((union & ~graph.adjacency_mask(v)).bit_count() for v in iter_bits(union))


def min_partial_degree_in_union(graph: Graph, branch: Branch) -> int:
    """Return ``d_min(B) = min_{v in S} delta(v, S ∪ C)`` (Equation 11); 0 when S is empty."""
    if branch.s_mask == 0:
        return 0
    union = branch.union_mask
    return min((graph.adjacency_mask(v) & union).bit_count() for v in iter_bits(branch.s_mask))
