"""Progressive branch refinement (Section 4.2).

Given a branch ``B = (S, C, D)`` that satisfies the necessary condition C1&2,
the candidate set can often be shrunk with two rules driven by the
disconnection budget ``tau(sigma(B))``:

* **Refinement Rule 1** — drop ``v ∈ C`` with ``Delta(S ∪ {v}) > tau(sigma(B))``:
  no QC under ``B`` can contain ``v``.
* **Refinement Rule 2** — drop ``v ∈ C`` with
  ``delta(v, S ∪ C) < theta - tau(sigma(B))``: ``v`` cannot reach the degree a
  member of a large (>= theta) QC needs.

Shrinking ``C`` can only lower ``sigma(B)`` (hence ``tau(sigma(B))``), so the
condition is re-checked and the rules re-applied until the branch is pruned or
reaches a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.branch import Branch
from ..graph.graph import Graph, iter_bits
from ..quasiclique.definitions import tau
from .branch import max_disconnections_in_partial
from .conditions import sigma


@dataclass(frozen=True)
class RefinementOutcome:
    """Result of progressively refining a branch.

    ``pruned`` is True when the branch (or one of its refinements) violates the
    necessary condition C1&2 and can be discarded.  Otherwise ``branch`` is the
    refined branch and ``tau_value`` the final disconnection budget
    ``tau(sigma(branch))``, which FastQC reuses for termination and branching.
    """

    pruned: bool
    branch: Branch
    tau_value: int
    rounds: int
    removed_by_rule1: int
    removed_by_rule2: int


def delta_of_partial_plus(graph: Graph, branch: Branch, vertex: int) -> int:
    """Return ``Delta(S ∪ {v})`` for a candidate vertex ``v`` (reference form)."""
    mask = branch.s_mask | (1 << vertex)
    return max((mask & ~graph.adjacency_mask(u)).bit_count() for u in iter_bits(mask))


def apply_rule1(graph: Graph, branch: Branch, tau_value: int) -> int:
    """Return the candidate mask after Refinement Rule 1.

    ``v`` is removed when ``Delta(S ∪ {v}) > tau_value``.  Using the
    self-counting convention, ``Delta(S ∪ {v})`` exceeds the budget exactly
    when ``delta_bar(v, S) + 1 > tau_value`` (v's own disconnections) or when
    some ``u ∈ S`` with ``delta_bar(u, S) >= tau_value`` is not adjacent to
    ``v`` (u's count grows by one).
    """
    s_mask = branch.s_mask
    # If Delta(S) already exceeds the budget, no candidate can repair it.
    if max_disconnections_in_partial(graph, branch) > tau_value:
        return 0
    # Vertices of S already at the budget: one more disconnection would overflow.
    critical_mask = 0
    for u in iter_bits(s_mask):
        if (s_mask & ~graph.adjacency_mask(u)).bit_count() >= tau_value:
            critical_mask |= 1 << u
    new_c_mask = branch.c_mask
    for v in iter_bits(branch.c_mask):
        adjacency = graph.adjacency_mask(v)
        own_disconnections = (s_mask & ~adjacency).bit_count() + 1  # +1 for v itself
        if own_disconnections > tau_value or (critical_mask & ~adjacency):
            new_c_mask &= ~(1 << v)
    return new_c_mask


def apply_rule2(graph: Graph, branch: Branch, tau_value: int, theta: int) -> int:
    """Return the candidate mask after Refinement Rule 2.

    ``v`` is removed when ``delta(v, S ∪ C) < theta - tau_value``.
    """
    required = theta - tau_value
    if required <= 0:
        return branch.c_mask
    union = branch.union_mask
    new_c_mask = branch.c_mask
    for v in iter_bits(branch.c_mask):
        if (graph.adjacency_mask(v) & union).bit_count() < required:
            new_c_mask &= ~(1 << v)
    return new_c_mask


def progressively_refine(graph: Graph, branch: Branch, gamma: float, theta: int,
                         max_rounds: int | None = None) -> RefinementOutcome:
    """Refine a branch and re-check the necessary condition until a fixpoint.

    Implements Algorithm 2, lines 3–7: the loop stops when the branch is
    pruned (condition C1&2 violated) or when no candidate can be removed.
    ``max_rounds`` optionally caps the number of iterations (None = no cap; the
    loop always terminates because ``C`` strictly shrinks every round).
    """
    removed_rule1 = 0
    removed_rule2 = 0
    rounds = 0
    current = branch
    while True:
        rounds += 1
        sigma_value = sigma(graph, current, gamma)
        tau_value = tau(sigma_value, gamma)
        if sigma_value < current.partial_size:
            return RefinementOutcome(True, current, tau_value, rounds,
                                     removed_rule1, removed_rule2)
        if max_disconnections_in_partial(graph, current) > tau_value:
            return RefinementOutcome(True, current, tau_value, rounds,
                                     removed_rule1, removed_rule2)
        after_rule1 = apply_rule1(graph, current, tau_value)
        removed_rule1 += (current.c_mask ^ after_rule1).bit_count()
        intermediate = current.with_candidates(after_rule1)
        after_rule2 = apply_rule2(graph, intermediate, tau_value, theta)
        removed_rule2 += (after_rule1 ^ after_rule2).bit_count()
        if after_rule2 == current.c_mask:
            return RefinementOutcome(False, current, tau_value, rounds,
                                     removed_rule1, removed_rule2)
        current = current.with_candidates(after_rule2)
        if max_rounds is not None and rounds >= max_rounds:
            sigma_value = sigma(graph, current, gamma)
            tau_value = tau(sigma_value, gamma)
            pruned = (sigma_value < current.partial_size
                      or max_disconnections_in_partial(graph, current) > tau_value)
            return RefinementOutcome(pruned, current, tau_value, rounds,
                                     removed_rule1, removed_rule2)
