"""Type I and Type II pruning rules used by the Quick+ baseline (Section 3).

The paper defers the exact rule list to Quick/Quick+ [24, 28]; this module
implements the provably-safe degree-, size- and diameter-based rules that those
algorithms build on, phrased directly against a branch ``B = (S, C, D)``:

* **Type I rules** remove from the candidate set ``C`` vertices that cannot
  belong to any gamma-quasi-clique of size >= theta under the branch.
* **Type II rules** prune the entire branch when some vertex of the partial
  set ``S`` (or the branch as a whole) makes such a quasi-clique impossible.

Every rule only relies on upper bounds of achievable degrees and lower bounds
of required degrees, so applying them never removes a vertex of — or a branch
containing — a large maximal quasi-clique.
"""

from __future__ import annotations

import math

from ..quasiclique.definitions import degree_threshold, gamma_fraction, gamma_pq


def minimum_required_degree(gamma: float, theta: int, partial_size: int,
                            include_candidate: bool) -> int:
    """Return the minimum degree any member of a large QC under the branch needs.

    Any quasi-clique ``H`` under the branch has ``|H| >= max(theta, |S|)`` (or
    ``|S| + 1`` when the vertex in question is a candidate still outside
    ``S``), and each member needs degree ``ceil(gamma * (|H| - 1))`` which is
    non-decreasing in ``|H|``.
    """
    lower_size = max(theta, partial_size + (1 if include_candidate else 0), 1)
    return degree_threshold(gamma, lower_size)


def max_tolerable_non_neighbors(gamma: float, size_upper_bound: int) -> int:
    """Return the most non-neighbours (excluding itself) a QC member may have.

    In a QC ``H``, ``|H| - 1 - delta(v, H) <= floor((1 - gamma) * (|H| - 1))``,
    and the right-hand side is non-decreasing in ``|H|``, so evaluating it at
    the branch's size upper bound is safe.
    """
    gamma_exact = gamma_fraction(gamma)
    return math.floor((1 - gamma_exact) * max(0, size_upper_bound - 1))


# ----------------------------------------------------------------------
# Ledger-kernel forms: the same rules phrased against a BranchState
# ----------------------------------------------------------------------
# Each *_state function decides exactly like its mask counterpart in
# :mod:`repro.oracle.pruning_rules` but reads the per-vertex degree ledgers
# of a :class:`repro.core.kernel.BranchState` instead of popcounting
# full-width bitmasks, and evaluates every threshold in integer arithmetic
# over ``gamma = p/q`` (no Fraction allocations):
# ``floor(deg / gamma) = deg*q // p`` and
# ``floor((1-gamma) * x) = (q-p)*x // q``.

def _size_upper_bound_state(state, p: int, q: int) -> int:
    """The size upper bound on any QC under the branch, read from the ledgers."""
    bound = state.s_size + state.c_size
    deg_in_union = state.deg_in_union
    bit_length = int.bit_length
    remaining = state.s_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        candidate = deg_in_union[bit_length(low) - 1] * q // p + 1
        if candidate < bound:
            bound = candidate
    return bound


def type1_removals_mask_state(state, gamma: float, theta: int) -> int:
    """The candidate bits the Type I rules remove, read from the ledgers.

    Decides exactly ``c_mask & ~apply_type1_rules(...)`` of
    :mod:`repro.oracle.pruning_rules`.  Rules I.a (degree) and I.c
    (non-neighbours) are one fused ledger-read scan over the candidates;
    rule I.b (diameter) is evaluated in bulk per *partial* vertex ``u``: the
    candidates at distance > 2 from ``u`` within ``G[S ∪ C]`` are
    ``C \\ Γ(u) \\ N(Γ(u) ∩ (S ∪ C))``, three mask operations after one
    neighbourhood-union sweep — no per-candidate inner loop at all.
    """
    p, q = gamma_pq(gamma)
    s_size = state.s_size
    required = minimum_required_degree(gamma, theta, s_size, True)
    non_neighbor_budget = (q - p) * max(0, _size_upper_bound_state(state, p, q) - 1) // q
    deg_in_s = state.deg_in_s
    deg_in_union = state.deg_in_union
    bit_length = int.bit_length
    removal_mask = 0
    s_minus_budget = s_size - non_neighbor_budget
    remaining = state.c_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        v = bit_length(low) - 1
        if deg_in_union[v] < required or deg_in_s[v] < s_minus_budget:
            removal_mask |= low
    if gamma >= 0.5 and state.s_mask:
        masks = state.graph.adjacency_masks()
        union = state.s_mask | state.c_mask
        c_mask = state.c_mask
        remaining = state.s_mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            u_adjacency = masks[bit_length(low) - 1]
            distant = c_mask & ~u_adjacency & ~removal_mask
            if not distant:
                continue
            reach = 0
            middle = u_adjacency & union
            while middle:
                middle_low = middle & -middle
                middle ^= middle_low
                reach |= masks[middle_low.bit_length() - 1]
                distant &= ~reach
                if not distant:
                    break
            removal_mask |= distant
    return removal_mask


def triggers_type2_rules_state(state, gamma: float, theta: int) -> bool:
    """Whether a Type II rule prunes the whole branch, read from the ledgers."""
    union_size = state.s_size + state.c_size
    if union_size < theta:
        return True
    s_mask = state.s_mask
    if not s_mask:
        return False
    p, q = gamma_pq(gamma)
    s_size = state.s_size
    required = minimum_required_degree(gamma, theta, s_size, False)
    deg_in_union = state.deg_in_union
    bit_length = int.bit_length
    min_degree = None
    remaining = s_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        degree = deg_in_union[bit_length(low) - 1]
        if degree < required:
            return True
        if min_degree is None or degree < min_degree:
            min_degree = degree
    size_upper_bound = union_size
    if min_degree is not None:
        size_upper_bound = min(size_upper_bound, min_degree * q // p + 1)
    if size_upper_bound < max(theta, s_size):
        return True
    budget = (q - p) * max(0, size_upper_bound - 1) // q
    deg_in_s = state.deg_in_s
    remaining = s_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        if s_size - deg_in_s[bit_length(low) - 1] - 1 > budget:
            return True
    return False


def critical_vertex_forced_mask_state(state, gamma: float, theta: int) -> int:
    """The candidates the critical-vertex rule forces into ``S`` (ledger reads)."""
    s_mask = state.s_mask
    if not s_mask:
        return 0
    required = minimum_required_degree(gamma, theta, state.s_size, False)
    deg_in_union = state.deg_in_union
    masks = state.graph.adjacency_masks()
    bit_length = int.bit_length
    forced = 0
    remaining = s_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        u = bit_length(low) - 1
        if deg_in_union[u] == required:
            forced |= masks[u] & state.c_mask
    return forced
