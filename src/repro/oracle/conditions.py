"""The SD-space necessary condition for a branch to hold quasi-cliques (Section 4.1).

A graph ``G[H]`` is mapped to the point ``(|H|, Delta(H))`` of the
*size–disconnection* (SD) space.  For a branch ``B = (S, C, D)``:

* **Region R1** (Condition C1): any QC under ``B`` satisfies
  ``|S| <= |H| <= |S ∪ C|`` and ``Delta(S) <= Delta(H) <= Delta(S ∪ C)``.
* **Region R2'** (Condition C2): any QC under ``B`` satisfies
  ``|S| <= |H| <= sigma(B)`` and ``Delta(H) <= tau(|H|)``, where
  ``sigma(B)`` (Equation 10) tightens the size upper bound using the minimum
  degree of a partial vertex and ``tau(x) = floor((1 - gamma) x + gamma)``.
* **Condition C1&2**: the branch may hold a QC only if the two regions
  intersect, which is equivalent to ``Delta(S) <= tau(sigma(B))`` (and
  ``sigma(B) >= |S|``).

Checking the condition costs ``O(d)`` per branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.branch import Branch
from ..graph.graph import Graph
from ..quasiclique.definitions import gamma_fraction, tau
from .branch import (
    max_disconnections_in_partial,
    max_disconnections_in_union,
    min_partial_degree_in_union,
)


def sigma(graph: Graph, branch: Branch, gamma: float) -> Fraction:
    """Return ``sigma(B)``, the (possibly fractional) size upper bound of Equation 10.

    ``sigma(B) = |S ∪ C|`` when ``S`` is empty, and otherwise
    ``min(|S ∪ C|, d_min(B) / gamma + 1)`` where ``d_min(B)`` is the minimum
    degree of a partial vertex within ``G[S ∪ C]`` (Lemma 2).  The value is an
    exact :class:`fractions.Fraction` so that ``tau(sigma(B))`` never suffers a
    floating-point rounding error at an integer boundary.
    """
    union_size = branch.union_size
    if branch.s_mask == 0:
        return Fraction(union_size)
    d_min = min_partial_degree_in_union(graph, branch)
    return min(Fraction(union_size), Fraction(d_min) / gamma_fraction(gamma) + 1)


def tau_sigma(graph: Graph, branch: Branch, gamma: float) -> int:
    """Return ``tau(sigma(B))``, the disconnection budget used everywhere in FastQC."""
    return tau(sigma(graph, branch, gamma), gamma)


@dataclass(frozen=True)
class SDRegions:
    """The SD-space regions of a branch, for inspection, tests and plots."""

    size_lower: int            # |S|
    size_upper_r1: int         # |S ∪ C|
    disconnection_lower: int   # Delta(S)
    disconnection_upper: int   # Delta(S ∪ C)
    size_upper_r2: Fraction    # sigma(B)
    tau_at_sigma: int          # tau(sigma(B))

    @property
    def r1_is_empty(self) -> bool:
        return (self.size_lower > self.size_upper_r1
                or self.disconnection_lower > self.disconnection_upper)

    @property
    def r2_is_empty(self) -> bool:
        return self.size_lower > self.size_upper_r2

    @property
    def intersection_is_empty(self) -> bool:
        """Emptiness of ``R1 ∩ R2'``; equivalent to the C1&2 test (Figure 4)."""
        if self.r1_is_empty or self.r2_is_empty:
            return True
        return self.disconnection_lower > self.tau_at_sigma


def sd_regions(graph: Graph, branch: Branch, gamma: float) -> SDRegions:
    """Compute the SD-space regions R1 and R2' of a branch."""
    sigma_value = sigma(graph, branch, gamma)
    return SDRegions(
        size_lower=branch.partial_size,
        size_upper_r1=branch.union_size,
        disconnection_lower=max_disconnections_in_partial(graph, branch),
        disconnection_upper=max_disconnections_in_union(graph, branch),
        size_upper_r2=sigma_value,
        tau_at_sigma=tau(sigma_value, gamma),
    )


def satisfies_condition_c1c2(graph: Graph, branch: Branch, gamma: float) -> bool:
    """Return True iff the branch satisfies the necessary condition C1&2.

    Branches that fail the condition hold no quasi-cliques and can be pruned.
    The check is the equivalent form ``Delta(S) <= tau(sigma(B))`` plus the
    emptiness guard ``sigma(B) >= |S|``.
    """
    sigma_value = sigma(graph, branch, gamma)
    if sigma_value < branch.partial_size:
        return False
    return max_disconnections_in_partial(graph, branch) <= tau(sigma_value, gamma)
