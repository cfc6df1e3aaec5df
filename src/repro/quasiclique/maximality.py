"""Maximality checks for quasi-cliques.

Checking whether a quasi-clique is *maximal* in the input graph is NP-hard
(Section 2.1), so the library offers three tools:

* :func:`satisfies_maximality_necessary_condition` — the polynomial check of
  FastQC's output filter (Algorithm 2, line 9/22): ``H`` may be maximal only
  if no single vertex ``v`` outside ``H`` makes ``G[H ∪ {v}]`` a quasi-clique.
  FastQC runs its index-space forms over adjacency rows: the ledger-driven
  :func:`ledger_satisfies_maximality_necessary_condition` on T1 outputs and
  the bit-sliced :func:`mask_satisfies_maximality_necessary_condition`
  otherwise.
* :func:`is_maximal_quasi_clique` — an exact (exponential) check, intended for
  small graphs and for tests.
* :func:`extending_vertices` — the witnesses that the necessary condition
  inspects, useful for diagnostics.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations

from ..graph.graph import Graph, VertexLabel, iter_bits
from .definitions import degree_threshold, is_quasi_clique


def extending_vertices(graph: Graph, subset: Iterable[VertexLabel], gamma: float
                       ) -> frozenset[VertexLabel]:
    """Return the vertices ``v`` outside ``subset`` with ``G[subset ∪ {v}]`` a QC.

    Only neighbours of the subset need to be inspected: adding a vertex with no
    edge into ``subset`` disconnects the induced subgraph.
    """
    subset = frozenset(subset)
    if not subset:
        return frozenset()
    candidates: set[VertexLabel] = set()
    for member in subset:
        candidates |= graph.neighbors(member)
    candidates -= subset
    return frozenset(v for v in candidates if is_quasi_clique(graph, subset | {v}, gamma))


def satisfies_maximality_necessary_condition(graph: Graph, subset: Iterable[VertexLabel],
                                             gamma: float) -> bool:
    """Return True iff no single outside vertex extends ``subset`` to a larger QC.

    This is a *necessary* condition for maximality: every maximal quasi-clique
    passes it, but a non-maximal QC may also pass it (when only multi-vertex
    extensions exist).  FastQC uses it to discard many non-maximal outputs
    cheaply without risking the loss of any MQC.
    """
    return not extending_vertices(graph, subset, gamma)


def mask_satisfies_maximality_necessary_condition(rows: Sequence[int], subset_mask: int,
                                                  gamma: float) -> bool:
    """Bitmask form of :func:`satisfies_maximality_necessary_condition`.

    ``rows[v]`` is vertex ``v``'s neighbour bitmask (``adjacency_masks()`` or
    any row list).  Valid for the library's gamma range (``gamma >= 0.5``),
    where the degree condition alone forces connectivity, so ``G[H ∪ {v}]`` is
    a quasi-clique iff every member of ``H ∪ {v}`` has at least
    ``ceil(gamma * |H|)`` neighbours inside it.  FastQC runs it on ``G[S]``
    outputs and on the T1 outputs where the ledger check finds no critical
    member.  The degree filter over the extension candidates is bit-sliced:
    ``|Γ(v) ∩ H|`` is accumulated for every vertex simultaneously in binary
    counter planes (one ripple-carry add per member of ``H``), so candidates
    below the degree requirement never cost a per-vertex popcount; only the
    few survivors run the exact per-member verification.
    """
    if subset_mask == 0:
        return True
    members = list(iter_bits(subset_mask))
    required = degree_threshold(gamma, len(members) + 1)
    if required <= 0:
        candidates = 0
        neighbourhood = 0
        for u in members:
            neighbourhood |= rows[u]
        candidates = neighbourhood & ~subset_mask
    else:
        # Vertical counters: plane i holds bit i of |Γ(v) ∩ H| per vertex v.
        planes = [0] * required.bit_length()
        sat = 0
        top = len(planes) - 1
        for u in members:
            carry = rows[u]
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                sat |= carry
        # candidates: vertices outside H with counter >= required.
        greater = 0
        equal = -1
        for i in range(top, -1, -1):
            if (required >> i) & 1:
                equal &= planes[i]
            else:
                greater |= equal & planes[i]
        candidates = (greater | equal | sat) & ~subset_mask
    bit_length = int.bit_length
    bit_count = int.bit_count
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        extended = subset_mask | low
        for u in members:
            if bit_count(rows[u] & extended) < required:
                break
        else:
            # The candidate itself passed the degree filter already.
            return False  # it extends H to a larger quasi-clique
    return True


def ledger_satisfies_maximality_necessary_condition(
        rows: Sequence[int], subset_mask: int, degrees: Sequence[int], gamma: float,
        index: Sequence[int] | None = None) -> bool:
    """:func:`mask_satisfies_maximality_necessary_condition` from known degrees.

    ``subset_mask`` is ``H`` in a local index space and ``degrees[u]`` is
    ``|Γ(u) ∩ H|`` for every member ``u`` (FastQC's ``deg_in_union`` ledger
    when termination T1 fires).  ``index[u]`` is the row index of local
    vertex ``u`` in ``rows``; ``None`` means the two index spaces agree.

    ``H ∪ {v}`` is a quasi-clique iff every member of it has at least
    ``r = ceil(gamma * |H|)`` neighbours there.  A member with ``r - 1``
    neighbours in ``H`` is *critical*: ``v`` must be adjacent to it.  A member
    with fewer can never be lifted, so nothing extends ``H``.  The candidates
    are therefore the AND of the critical members' adjacency rows, minus
    ``H``, and each costs one popcount.  One pass over ``H`` finds the
    critical members; only when there is none does the bit-sliced general
    check run.
    """
    required = degree_threshold(gamma, subset_mask.bit_count() + 1)
    bit_length = int.bit_length
    candidates = -1  # AND of the critical members' rows; -1: none seen yet
    target = subset_mask if index is None else 0  # H in the rows' index space
    remaining = subset_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        u = bit_length(low) - 1
        degree = degrees[u]
        if index is not None:
            u = index[u]
            target |= 1 << u
        if degree < required:
            if degree < required - 1:
                return True
            candidates &= rows[u]
            if not candidates:
                return True
    if candidates == -1:
        return mask_satisfies_maximality_necessary_condition(rows, target, gamma)
    candidates &= ~target
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        if (rows[bit_length(low) - 1] & target).bit_count() >= required:
            return False  # it extends H to a larger quasi-clique
    return True


def is_maximal_quasi_clique(graph: Graph, subset: Iterable[VertexLabel], gamma: float,
                            size_limit: int | None = None) -> bool:
    """Exact maximality check by exhaustive extension search (exponential).

    ``subset`` must itself be a quasi-clique; the function then searches for
    any strict superset (within the whole graph) that is also a quasi-clique.
    ``size_limit`` optionally caps the size of supersets considered (useful
    when the caller knows an upper bound such as ``2 * degeneracy + 1``).

    Intended for small graphs and for validating the enumeration algorithms in
    tests; the runtime is exponential in the number of remaining vertices.
    """
    subset = frozenset(subset)
    if not is_quasi_clique(graph, subset, gamma):
        return False
    # Candidate extension vertices: within distance 2 of the subset (gamma >= 0.5
    # quasi-cliques have diameter <= 2), or all remaining vertices for gamma < 0.5.
    others = [v for v in graph.vertices() if v not in subset]
    max_extra = len(others)
    if size_limit is not None:
        max_extra = min(max_extra, max(0, size_limit - len(subset)))
    for extra_size in range(1, max_extra + 1):
        for extra in combinations(others, extra_size):
            if is_quasi_clique(graph, subset | frozenset(extra), gamma):
                return False
    return True


def filter_by_necessary_condition(graph: Graph, quasi_cliques: Iterable[frozenset],
                                  gamma: float) -> list[frozenset]:
    """Drop QCs that fail the single-vertex-extension necessary condition.

    The result is still a superset of all maximal quasi-cliques.
    """
    return [clique for clique in quasi_cliques
            if satisfies_maximality_necessary_condition(graph, clique, gamma)]
