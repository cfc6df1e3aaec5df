"""Quick+'s Type I / Type II and critical-vertex rules over
:class:`~repro.core.branch.Branch` masks, recomputed with popcounts."""

from __future__ import annotations

import math
from fractions import Fraction

from ..baselines.pruning_rules import max_tolerable_non_neighbors, minimum_required_degree
from ..core.branch import Branch
from ..graph.graph import Graph, iter_bits
from ..quasiclique.definitions import gamma_fraction


def branch_size_upper_bound(graph: Graph, branch: Branch, gamma: float) -> int:
    """Return an upper bound on the size of any QC under the branch.

    Each ``u ∈ S`` needs ``delta(u, H) >= ceil(gamma * (|H| - 1))`` and can have
    at most ``delta(u, S ∪ C)`` neighbours, so
    ``|H| <= floor(delta(u, S ∪ C) / gamma) + 1``; the bound is also capped by
    ``|S ∪ C|``.  (This is the Quick-style counterpart of the paper's Lemma 2.)
    """
    union = branch.union_mask
    bound = union.bit_count()
    gamma_exact = gamma_fraction(gamma)
    for u in iter_bits(branch.s_mask):
        degree = (graph.adjacency_mask(u) & union).bit_count()
        bound = min(bound, math.floor(Fraction(degree) / gamma_exact) + 1)
    return bound



def apply_type1_rules(graph: Graph, branch: Branch, gamma: float, theta: int) -> int:
    """Return the candidate mask after the Type I rules.

    Rule I.a (degree): drop ``v ∈ C`` whose degree within ``G[S ∪ C]`` is below
    the minimum degree required of a member of a large QC under the branch.

    Rule I.b (diameter): for gamma >= 0.5 quasi-cliques have diameter <= 2, so
    drop ``v ∈ C`` that is at distance > 2 (within ``G[S ∪ C]``) from some
    vertex of ``S``.

    Rule I.c (non-neighbours): drop ``v ∈ C`` whose non-neighbours within ``S``
    alone already exceed the number of non-neighbours any member of a QC under
    the branch may have.
    """
    union = branch.union_mask
    new_c_mask = branch.c_mask
    required = minimum_required_degree(gamma, theta, branch.partial_size, True)
    partial_vertices = list(iter_bits(branch.s_mask))
    non_neighbor_budget = max_tolerable_non_neighbors(
        gamma, branch_size_upper_bound(graph, branch, gamma))
    for v in iter_bits(branch.c_mask):
        adjacency = graph.adjacency_mask(v)
        if (adjacency & union).bit_count() < required:
            new_c_mask &= ~(1 << v)
            continue
        non_neighbors_in_s = (branch.s_mask & ~adjacency).bit_count()
        if non_neighbors_in_s > non_neighbor_budget:
            new_c_mask &= ~(1 << v)
            continue
        if gamma >= 0.5:
            for u in partial_vertices:
                u_adjacency = graph.adjacency_mask(u)
                if not (u_adjacency >> v) & 1 and not (adjacency & u_adjacency & union):
                    new_c_mask &= ~(1 << v)
                    break
    return new_c_mask



def triggers_type2_rules(graph: Graph, branch: Branch, gamma: float, theta: int) -> bool:
    """Return True when a Type II rule prunes the whole branch.

    Rule II.a (size): ``|S ∪ C| < theta``.

    Rule II.b (degree): some ``u ∈ S`` has degree within ``G[S ∪ C]`` below the
    minimum degree required of a member of a large QC under the branch.

    Rule II.c (upper bound): the size upper bound derived from the minimum
    degree of a partial vertex, ``floor(d_min / gamma) + 1``, is below the size
    lower bound ``max(theta, |S|)``.

    Rule II.d (non-neighbours): some ``u ∈ S`` has more non-neighbours within
    ``S`` than any member of a QC bounded by the branch's size upper bound may
    tolerate.
    """
    union = branch.union_mask
    union_size = union.bit_count()
    if union_size < theta:
        return True
    if not branch.s_mask:
        return False
    required = minimum_required_degree(gamma, theta, branch.partial_size, False)
    min_degree = None
    for u in iter_bits(branch.s_mask):
        degree = (graph.adjacency_mask(u) & union).bit_count()
        if degree < required:
            return True
        if min_degree is None or degree < min_degree:
            min_degree = degree
    size_upper_bound = union_size
    if min_degree is not None:
        size_upper_bound = min(size_upper_bound,
                               math.floor(Fraction(min_degree) / gamma_fraction(gamma)) + 1)
    if size_upper_bound < max(theta, branch.partial_size):
        return True
    budget = max_tolerable_non_neighbors(gamma, size_upper_bound)
    for u in iter_bits(branch.s_mask):
        non_neighbors_in_s = (branch.s_mask & ~graph.adjacency_mask(u)).bit_count() - 1
        if non_neighbors_in_s > budget:
            return True
    return False



def critical_vertex_forced_mask(graph: Graph, branch: Branch, gamma: float, theta: int) -> int:
    """Return the candidates forced into ``S`` by the critical-vertex rule.

    A vertex ``u ∈ S`` is *critical* when its degree within ``G[S ∪ C]`` equals
    exactly the minimum degree any member of a large QC under the branch needs:
    then every large QC under the branch must contain *all* of ``u``'s
    neighbours in ``C``, so they can be moved into the partial set wholesale
    (Quick's critical-vertex technique).  The returned bitmask is a subset of
    the candidate set; an empty mask means the rule does not apply.
    """
    if not branch.s_mask:
        return 0
    union = branch.union_mask
    required = minimum_required_degree(gamma, theta, branch.partial_size, False)
    forced = 0
    for u in iter_bits(branch.s_mask):
        adjacency = graph.adjacency_mask(u)
        if (adjacency & union).bit_count() == required:
            forced |= adjacency & branch.c_mask
    return forced
