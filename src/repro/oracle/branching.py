"""Mask/popcount pivot selection and SE, Sym-SE and Hybrid-SE branch generation
over :class:`~repro.core.branch.Branch` objects (Sections 4.3 and 4.4)."""

from __future__ import annotations

from ..core.branch import Branch
from ..core.branching import PivotInfo, hybrid_se_applicable, pivot_ordering_masks
from ..graph.graph import Graph, iter_bits
from .branch import disconnections_in_partial, disconnections_in_union


def select_pivot(graph: Graph, branch: Branch, tau_value: int) -> PivotInfo | None:
    """Select the pivot: the vertex of ``S ∪ C`` with the most disconnections.

    Only vertices with strictly more than ``tau_value`` disconnections within
    ``S ∪ C`` qualify; ``None`` is returned when no vertex qualifies, i.e. when
    ``Delta(S ∪ C) <= tau_value`` and the branch terminates via condition T1.
    """
    best_vertex = None
    best_disconnections = tau_value
    union = branch.union_mask
    for vertex in iter_bits(union):
        disconnections = (union & ~graph.adjacency_mask(vertex)).bit_count()
        if disconnections > best_disconnections:
            best_disconnections = disconnections
            best_vertex = vertex
    if best_vertex is None:
        return None
    return PivotInfo(
        vertex=best_vertex,
        in_partial=bool(branch.s_mask >> best_vertex & 1),
        disconnections_in_partial=disconnections_in_partial(graph, best_vertex, branch),
        disconnections_in_candidates=(branch.c_mask & ~graph.adjacency_mask(best_vertex)).bit_count(),
        disconnections_in_union=disconnections_in_union(graph, best_vertex, branch),
        budget=tau_value,
    )



def pivot_ordering(graph: Graph, branch: Branch, pivot: PivotInfo) -> list[int]:
    """Return the candidate ordering induced by the pivot (Equations 15 and 16).

    Case 1 (pivot in S): the non-neighbours of the pivot within ``C`` come
    first, then its neighbours.  Case 2 (pivot in C): the pivot itself comes
    first, then its other non-neighbours within ``C``, then its neighbours.
    Ties inside each block are broken by vertex index for determinism.
    """
    return pivot_ordering_masks(graph.adjacency_mask(pivot.vertex),
                                branch.c_mask, pivot)



def se_branches(branch: Branch, ordering: list[int], keep: int | None = None) -> list[Branch]:
    """Create SE branches over ``ordering`` (Equation 1).

    Branch ``i`` (1-based) includes ``v_i`` and excludes ``v_1..v_{i-1}``.
    ``keep`` optionally limits the result to the first ``keep`` branches.
    """
    limit = len(ordering) if keep is None else min(keep, len(ordering))
    branches = []
    preceding_mask = 0
    for position in range(limit):
        vertex_bit = 1 << ordering[position]
        branches.append(Branch(
            branch.s_mask | vertex_bit,
            branch.c_mask & ~(preceding_mask | vertex_bit),
            branch.d_mask | preceding_mask,
        ))
        preceding_mask |= vertex_bit
    return branches



def sym_se_branches(branch: Branch, ordering: list[int], keep: int | None = None) -> list[Branch]:
    """Create Sym-SE branches over ``ordering`` (Equation 13).

    Branch ``i`` (1-based, ``1 <= i <= |C| + 1``) includes ``v_1..v_{i-1}`` and
    excludes ``v_i`` (the ``|C|+1``-th branch excludes a fictitious vertex,
    i.e. it includes the whole candidate set).  ``keep`` limits the result to
    the first ``keep`` branches, which is how the necessary-condition pruning
    of Section 4.3 is realised.
    """
    total = len(ordering) + 1
    limit = total if keep is None else min(keep, total)
    branches = []
    included_mask = 0
    for position in range(limit):
        if position < len(ordering):
            vertex_bit = 1 << ordering[position]
            branches.append(Branch(
                branch.s_mask | included_mask,
                branch.c_mask & ~(included_mask | vertex_bit),
                branch.d_mask | vertex_bit,
            ))
            included_mask |= vertex_bit
        else:
            branches.append(Branch(
                branch.s_mask | branch.c_mask,
                0,
                branch.d_mask,
            ))
    return branches



def hybrid_se_branch_pair(branch: Branch, ordering: list[int], pivot: PivotInfo
                          ) -> tuple[list[Branch], list[Branch]]:
    """Create the Hybrid-SE branches (Equation 18).

    Returns ``(excluding, including)`` where ``excluding`` are the SE branches
    ``~B_2 .. ~B_b`` (they exclude the pivot; the later SE branches are pruned
    by Lemma 3) and ``including`` are the Sym-SE branches ``̈B_2 .. ̈B_{a+1}``
    (they include the pivot; the later Sym-SE branches violate the necessary
    condition).
    """
    excluding = se_branches(branch, ordering, keep=pivot.b)[1:]
    including = sym_se_branches(branch, ordering, keep=pivot.a + 1)[1:]
    return excluding, including



def generate_branches(graph: Graph, branch: Branch, pivot: PivotInfo,
                      method: str) -> list[Branch]:
    """Generate the child branches of ``branch`` under the requested method.

    ``method`` is one of:

    * ``"hybrid"`` — Hybrid-SE when applicable, otherwise Sym-SE (FastQC default),
    * ``"sym-se"`` — always Sym-SE branching,
    * ``"se"`` — plain SE branching over the pivot ordering with no
      pivot-based pruning of sub-branches (the "SE" ablation of Figure 11).
    """
    ordering = pivot_ordering(graph, branch, pivot)
    if method == "se":
        return se_branches(branch, ordering)
    # Branch 1 of Sym-SE never needs a justification to be kept, so the keep
    # count is clamped to at least one even if a caller skipped refinement and
    # the pivot's `a` happens to be negative.
    sym_keep = max(1, pivot.a + 1)
    if method == "sym-se":
        return sym_se_branches(branch, ordering, keep=sym_keep)
    if method == "hybrid":
        if hybrid_se_applicable(pivot):
            excluding, including = hybrid_se_branch_pair(branch, ordering, pivot)
            return excluding + including
        return sym_se_branches(branch, ordering, keep=sym_keep)
    raise ValueError(f"unknown branching method {method!r}")
