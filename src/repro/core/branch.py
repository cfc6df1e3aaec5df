"""Branch representation for the branch-and-bound algorithms.

A branch ``B = (S, C, D)`` (Section 3) represents the sub-space of vertex sets
``H`` with ``S ⊆ H ⊆ S ∪ C`` and ``H ∩ D = ∅``:

* **S** — the partial set: vertices included in every set of the branch,
* **C** — the candidate set: vertices that may still be added, and
* **D** — the exclusion set: vertices excluded from every set of the branch.

Branches are stored as bitmasks over the owning graph's vertex indices, which
keeps the per-branch bookkeeping (degrees, disconnections, set algebra) cheap.
Branch objects are immutable; refinement and branching create new objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.graph import Graph, iter_bits


@dataclass(frozen=True)
class Branch:
    """An immutable ``(S, C, D)`` branch over a graph's vertex indices."""

    s_mask: int
    c_mask: int
    d_mask: int

    def __post_init__(self) -> None:
        if self.s_mask & self.c_mask:
            raise ValueError("S and C must be disjoint")
        if (self.s_mask | self.c_mask) & self.d_mask:
            raise ValueError("D must be disjoint from S and C")

    # ------------------------------------------------------------------
    # Sizes and membership
    # ------------------------------------------------------------------
    @property
    def union_mask(self) -> int:
        """The bitmask of ``S ∪ C``."""
        return self.s_mask | self.c_mask

    @property
    def partial_size(self) -> int:
        """``|S|``."""
        return self.s_mask.bit_count()

    @property
    def candidate_size(self) -> int:
        """``|C|``."""
        return self.c_mask.bit_count()

    @property
    def union_size(self) -> int:
        """``|S ∪ C|``."""
        return self.union_mask.bit_count()

    def partial_vertices(self) -> list[int]:
        """Indices of S in increasing order."""
        return list(iter_bits(self.s_mask))

    def candidate_vertices(self) -> list[int]:
        """Indices of C in increasing order."""
        return list(iter_bits(self.c_mask))

    def excluded_vertices(self) -> list[int]:
        """Indices of D in increasing order."""
        return list(iter_bits(self.d_mask))

    # ------------------------------------------------------------------
    # Derived branches
    # ------------------------------------------------------------------
    def with_candidates(self, new_c_mask: int) -> "Branch":
        """Return a copy with the candidate set replaced (refinement step)."""
        return Branch(self.s_mask, new_c_mask, self.d_mask)

    def include(self, vertex_mask: int) -> "Branch":
        """Return the branch obtained by moving ``vertex_mask ⊆ C`` into S."""
        if vertex_mask & ~self.c_mask:
            raise ValueError("can only include candidate vertices")
        return Branch(self.s_mask | vertex_mask, self.c_mask & ~vertex_mask, self.d_mask)

    def exclude(self, vertex_mask: int) -> "Branch":
        """Return the branch obtained by moving ``vertex_mask ⊆ C`` into D."""
        if vertex_mask & ~self.c_mask:
            raise ValueError("can only exclude candidate vertices")
        return Branch(self.s_mask, self.c_mask & ~vertex_mask, self.d_mask | vertex_mask)

    def covers(self, subset_mask: int) -> bool:
        """Return True iff the vertex set ``subset_mask`` lies inside this branch."""
        if self.s_mask & ~subset_mask:
            return False
        if subset_mask & ~self.union_mask:
            return False
        return not (subset_mask & self.d_mask)

    @classmethod
    def initial(cls, graph: Graph) -> "Branch":
        """Return the universal branch ``(∅, V, ∅)``."""
        return cls(0, graph.full_mask(), 0)

    @classmethod
    def from_labels(cls, graph: Graph, partial=(), candidates=None, excluded=()) -> "Branch":
        """Build a branch from label collections (candidates default to the rest)."""
        s_mask = graph.mask_of(partial)
        d_mask = graph.mask_of(excluded)
        if candidates is None:
            c_mask = graph.full_mask() & ~s_mask & ~d_mask
        else:
            c_mask = graph.mask_of(candidates) & ~s_mask
        return cls(s_mask, c_mask, d_mask)
