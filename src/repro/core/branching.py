"""Branching methods: SE, Sym-SE and Hybrid-SE (Sections 3, 4.3 and 4.4).

All three methods partition the search space of a branch ``B = (S, C, D)``
over an *ordering* ``<v_1, ..., v_|C|>`` of the candidate set:

* **SE branching** (Equation 1, used by Quick+): branch ``i`` includes ``v_i``
  and excludes ``v_1..v_{i-1}``.
* **Sym-SE branching** (Equation 13): branch ``i`` excludes ``v_i`` and
  includes ``v_1..v_{i-1}``; there are ``|C| + 1`` branches, the last one
  including all of ``C``.
* **Hybrid-SE branching** (Equation 18): applicable when the pivot lies in
  ``C`` and has no disconnection in ``S``; it combines the SE branches that
  exclude the pivot with the Sym-SE branches that include it, and prunes the
  rest using Lemma 3 (maximality) and the necessary condition respectively.

The ordering and the number of retained branches are driven by a *pivot*
vertex with more than ``tau(sigma(B))`` disconnections in ``S ∪ C``
(Equations 14–16).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PivotInfo:
    """The pivot vertex and the quantities ``a`` and ``b`` of Equation 14."""

    vertex: int
    in_partial: bool                 # pivot drawn from S (Case 1) or C (Case 2)
    disconnections_in_partial: int   # delta_bar(pivot, S)
    disconnections_in_candidates: int  # b = delta_bar(pivot, C)
    disconnections_in_union: int     # delta_bar(pivot, S ∪ C)
    budget: int                      # tau(sigma(B))

    @property
    def a(self) -> int:
        """``a = tau(sigma(B)) - delta_bar(pivot, S)`` (Equation 14)."""
        return self.budget - self.disconnections_in_partial

    @property
    def b(self) -> int:
        """``b = delta_bar(pivot, C)`` (Equation 14)."""
        return self.disconnections_in_candidates


def pivot_ordering_masks(adjacency: int, c_mask: int, pivot: PivotInfo) -> list[int]:
    """Candidate ordering from the pivot's adjacency and candidate bitmasks.

    The single source of the ordering rule, shared by the ledger kernel's
    :func:`repro.core.kernel.pivot_ordering_state` and the oracle's
    :func:`repro.oracle.branching.pivot_ordering` — the two paths must order
    identically for branch-for-branch parity.
    """
    bit_length = int.bit_length
    non_neighbours = []
    remaining = c_mask & ~adjacency
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        non_neighbours.append(bit_length(low) - 1)
    neighbours = []
    remaining = c_mask & adjacency
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        neighbours.append(bit_length(low) - 1)
    if pivot.in_partial:
        return non_neighbours + neighbours
    front = [pivot.vertex] + [v for v in non_neighbours if v != pivot.vertex]
    return front + neighbours


def hybrid_se_applicable(pivot: PivotInfo) -> bool:
    """Return True when Hybrid-SE branching may be used (remark in Section 4.4).

    Requirements: the pivot is a candidate vertex, it has no disconnection
    within ``S`` (``delta_bar(pivot, S) = 0``), and either ``b = a + 1`` or the
    disconnection budget is 1 (the extra constraints needed by the complexity
    analysis of Theorem 1).
    """
    if pivot.in_partial or pivot.disconnections_in_partial != 0:
        return False
    return pivot.b == pivot.a + 1 or pivot.budget == 1


BRANCHING_METHODS = ("hybrid", "sym-se", "se")
