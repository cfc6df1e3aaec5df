"""Incremental branch-state kernel: flat degree ledgers for the enumeration stack.

The reference implementations (:mod:`repro.core.branch`,
:mod:`repro.core.refinement`, :mod:`repro.core.branching`,
:mod:`repro.baselines.pruning_rules`) recompute every branch quantity —
``sigma(B)``, ``Delta(S)``, ``Delta(S ∪ C)``, the refinement and Type I/II
pruning rules, the T1/T2 termination conditions and the pivot scores — from
scratch with per-vertex popcounts over full-graph-width bitmasks, even though
a child branch differs from its parent by exactly one vertex.

This module replaces those popcounts with flat-buffer ledgers, shared by all
three branch-and-bound algorithms (FastQC, DCFastQC and Quick+):

* :class:`BranchState` carries per-vertex ledgers ``deg_in_s[v] =
  delta(v, S)`` and ``deg_in_union[v] = delta(v, S ∪ C)``, updated in
  ``O(deg(v) ∩ union)`` per single-vertex move and *adaptively* for mass
  removals (:meth:`BranchState.remove_mask` recomputes the few survivors when
  a pruning pass guts the candidate set).  Every derived quantity falls out
  of ``delta_bar(v, S) = |S| - deg_in_s[v]`` and ``delta_bar(v, S ∪ C) =
  |S ∪ C| - deg_in_union[v]``, so C1&2, Refinement Rules 1–2, Quick+'s
  Type I/II rules, T1/T2 and pivot selection become plain ``O(|S|)`` /
  ``O(|C|)`` flat-array scans with integer threshold arithmetic.
* :class:`ShrinkLedgers` kernelizes DCFastQC's subproblem shrinking: fused
  store-free first passes, a bit-sliced bulk two-hop rule, and lazily
  reconciled degree/common-neighbour ledgers for the later rounds.
* The ledger buffers are flat ``array('i')`` buffers for wide states and
  plain lists for compact subproblem states (the width rule at
  :data:`AUTO_ARRAY_MIN_WIDTH`).

The functions mirror their reference counterparts one-to-one and visit the
exact same branch tree (same refinement fixpoints, same pivot tie-breaks,
same child ordering), so the kernelized enumerators are differentially
testable against the mask-based implementations branch for branch.

The module also provides :func:`depth_first_enumerate`, the explicit
work-stack driver shared by FastQC and Quick+: it performs the same
post-order traversal as the old recursion (children first, then the
``G[S]`` fallback output decision) without consuming Python stack frames,
which removes the ``sys.setrecursionlimit`` manipulation from the
enumeration entry points.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable

from ..graph.graph import Graph, iter_bits
from ..quasiclique.definitions import gamma_fraction
from .branch import Branch
from .branching import PivotInfo, hybrid_se_applicable, pivot_ordering_masks
from .stats import SearchStatistics


# ----------------------------------------------------------------------
# Ledger buffers
# ----------------------------------------------------------------------
#: Ledger buffers switch from Python lists to flat ``array('i')`` buffers at
#: this width.  Copies/resets favour arrays (one memcpy vs a
#: pointer-by-pointer loop: 206 ns vs 81 ns at width 128, 33 us vs 1.8 us at
#: 16384) while indexed ``buf[i] += 1`` updates favour lists (~29 ns vs
#: ~94 ns — arrays box an int per access), so the winner depends on touches
#: per copy.  Measured on a 12k-vertex power-law graph: the kernelized
#: shrink pass does ~0.5 indexed updates per full-width reset, and the
#: break-even rate crosses that between widths 64 and 96 (1.9 touches/copy
#: at 128, rising linearly with width).  128 keeps ~4x margin for
#: update-heavier branch-ledger workloads while compact DC subproblem
#: states — small and touch-dominated — stay on lists; end-to-end, the
#: width rule matches all-array buffers (1.50 s vs all-list buffers' 2.05 s
#: cold DCFastQC at n=12000).
AUTO_ARRAY_MIN_WIDTH = 128


def _make_ledger(values) -> "array | list[int]":
    values = values if isinstance(values, list) else list(values)
    if len(values) >= AUTO_ARRAY_MIN_WIDTH:
        return array("i", values)
    return values


def _zero_ledger(length: int) -> "array | list[int]":
    if length >= AUTO_ARRAY_MIN_WIDTH:
        return array("i", bytes(4 * length))
    return [0] * length


class BranchState:
    """A branch ``(S, C, D)`` carrying incremental degree ledgers.

    The masks mirror :class:`repro.core.branch.Branch` (same index space, same
    invariants); on top of them the state maintains, for every member of the
    union, ``deg_in_s[v]`` and ``deg_in_union[v]`` — the number of neighbours
    of ``v`` inside ``S`` and inside ``S ∪ C``.  Ledger entries of vertices
    outside ``S ∪ C`` are never read: single-vertex moves update them anyway
    (the updates are symmetric), while :meth:`remove_mask`'s mass-removal
    path deliberately lets them go stale.

    States are mutable; :meth:`copy` is an O(n) flat-buffer copy used when a
    branch forks into children, after which each single-vertex move costs
    ``O(deg(v))``.  Ledgers at least :data:`AUTO_ARRAY_MIN_WIDTH` wide live
    in flat ``array('i')`` buffers, so the per-child copy is a memcpy rather
    than a pointer-by-pointer Python list copy; narrower ones are lists.
    """

    __slots__ = ("graph", "stats", "s_mask", "c_mask", "d_mask",
                 "s_size", "c_size", "deg_in_s", "deg_in_union")

    def __init__(self, graph: Graph, stats: SearchStatistics | None,
                 s_mask: int, c_mask: int, d_mask: int,
                 s_size: int, c_size: int,
                 deg_in_s, deg_in_union) -> None:
        self.graph = graph
        self.stats = stats
        self.s_mask = s_mask
        self.c_mask = c_mask
        self.d_mask = d_mask
        self.s_size = s_size
        self.c_size = c_size
        self.deg_in_s = deg_in_s
        self.deg_in_union = deg_in_union

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_branch(cls, graph: Graph, branch: Branch,
                    stats: SearchStatistics | None = None) -> "BranchState":
        """Build the ledgers for an arbitrary branch (one full scan, then O(deg))."""
        n = graph.vertex_count
        deg_in_s = [0] * n
        deg_in_union = [0] * n
        s_mask = branch.s_mask
        union = branch.union_mask
        masks = graph.adjacency_masks()
        for v in iter_bits(union):
            adjacency = masks[v]
            deg_in_union[v] = (adjacency & union).bit_count()
            if s_mask:
                deg_in_s[v] = (adjacency & s_mask).bit_count()
        return cls(graph, stats, s_mask, branch.c_mask, branch.d_mask,
                   branch.partial_size, branch.candidate_size,
                   _make_ledger(deg_in_s), _make_ledger(deg_in_union))

    def copy(self) -> "BranchState":
        """Fork the state (ledger buffers are copied, the graph is shared)."""
        return BranchState(self.graph, self.stats, self.s_mask, self.c_mask,
                          self.d_mask, self.s_size, self.c_size,
                          self.deg_in_s[:], self.deg_in_union[:])

    def to_branch(self) -> Branch:
        """The immutable mask view (reference interop, tests, diagnostics)."""
        return Branch(self.s_mask, self.c_mask, self.d_mask)

    # ------------------------------------------------------------------
    # O(deg) vertex moves
    # ------------------------------------------------------------------
    def include(self, vertex: int) -> None:
        """Move a candidate into S: only ``deg_in_s`` of its neighbours changes.

        The update walk is restricted to neighbours still inside the union —
        entries of vertices that left the union are stale by contract (no
        rule reads them, and a vertex never re-enters the union).
        """
        bit = 1 << vertex
        self.s_mask |= bit
        self.c_mask &= ~bit
        self.s_size += 1
        self.c_size -= 1
        deg_in_s = self.deg_in_s
        bit_length = int.bit_length
        updates = 0
        remaining = self.graph.adjacency_mask(vertex) & (self.s_mask | self.c_mask)
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            deg_in_s[bit_length(low) - 1] += 1
            updates += 1
        stats = self.stats
        if stats is not None:
            stats.ledger_moves += 1
            stats.ledger_updates += updates

    def remove(self, vertex: int, exclude: bool = False) -> None:
        """Drop a candidate from the union (to D when ``exclude``, else to X).

        Only ``deg_in_union`` of its still-in-union neighbours changes;
        ``deg_in_s`` is untouched because the vertex was not in S.
        """
        bit = 1 << vertex
        self.c_mask &= ~bit
        self.c_size -= 1
        if exclude:
            self.d_mask |= bit
        deg_in_union = self.deg_in_union
        bit_length = int.bit_length
        updates = 0
        remaining = self.graph.adjacency_mask(vertex) & (self.s_mask | self.c_mask)
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            deg_in_union[bit_length(low) - 1] -= 1
            updates += 1
        stats = self.stats
        if stats is not None:
            stats.ledger_moves += 1
            stats.ledger_updates += updates

    def remove_mask(self, removal_mask: int) -> None:
        """Drop a batch of candidates to X in one call (mass-pruning fast path).

        Decides identically to ``remove(v)`` for each set bit, with the mask
        update and the statistics accounting batched — and with the ledger
        maintenance **adaptive**: when the batch drops most of the union
        (FastQC's refinement and Quick+'s Type I rules routinely gut a
        child's candidate set), recomputing the survivors' ``deg_in_union``
        with one restricted popcount each is far cheaper than walking every
        dropped vertex's neighbourhood.  The recompute path leaves ledger
        entries of vertices *outside* the union stale, which is safe: no
        rule reads them, and a vertex that left the union never re-enters
        it.  ``deg_in_s`` is untouched either way (the batch leaves S
        alone).
        """
        deg_in_union = self.deg_in_union
        self.c_mask &= ~removal_mask
        dropped = removal_mask.bit_count()
        self.c_size -= dropped
        union_size = self.s_size + self.c_size
        bit_length = int.bit_length
        if dropped * 3 >= union_size:
            masks = self.graph.adjacency_masks()
            union = self.s_mask | self.c_mask
            remaining = union
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                v = bit_length(low) - 1
                deg_in_union[v] = (masks[v] & union).bit_count()
            updates = union_size
        else:
            masks = self.graph.adjacency_masks()
            union = self.s_mask | self.c_mask
            updates = 0
            remaining = removal_mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                walk = masks[bit_length(low) - 1] & union
                while walk:
                    bit = walk & -walk
                    walk ^= bit
                    deg_in_union[bit_length(bit) - 1] -= 1
                    updates += 1
        stats = self.stats
        if stats is not None:
            stats.ledger_moves += dropped
            stats.ledger_updates += updates

    # ------------------------------------------------------------------
    # Derived views (used by tests and the emit path)
    # ------------------------------------------------------------------
    @property
    def union_mask(self) -> int:
        return self.s_mask | self.c_mask

    @property
    def union_size(self) -> int:
        return self.s_size + self.c_size


# ----------------------------------------------------------------------
# Kernelized refinement (mirrors repro.core.refinement.progressively_refine)
# ----------------------------------------------------------------------
def refine_state(state: BranchState, gamma: float, theta: int,
                 max_rounds: int | None = None
                 ) -> tuple[bool, int, int, int, int]:
    """Refine a branch state in place until the C1&2 / Rules 1–2 fixpoint.

    Returns ``(pruned, tau_value, rounds, removed_by_rule1, removed_by_rule2)``
    with exactly the semantics of
    :func:`repro.core.refinement.progressively_refine`: same prune decisions,
    same surviving candidate set, same final disconnection budget.  All checks
    are O(|S|) / O(|C|) ledger scans; each removal costs O(deg).

    ``sigma(B)`` and ``tau(sigma(B))`` are evaluated in exact integer
    arithmetic over ``gamma = p/q`` instead of :class:`fractions.Fraction`
    objects: with ``sigma = num/den``, ``tau(sigma) = ((q-p)*num + p*den) //
    (q*den)`` — same values, no rational-number allocations in the hot loop.
    """
    gamma_exact = gamma_fraction(gamma)
    p = gamma_exact.numerator
    q = gamma_exact.denominator
    removed_rule1 = 0
    removed_rule2 = 0
    rounds = 0
    deg_in_s = state.deg_in_s
    deg_in_union = state.deg_in_union
    masks = state.graph.adjacency_masks()
    bit_length = int.bit_length
    while True:
        rounds += 1
        s_size = state.s_size
        union_size = s_size + state.c_size
        if s_size == 0:
            sigma_num, sigma_den = union_size, 1
            delta_s = 0
        else:
            min_deg_s = s_size
            min_deg_u = union_size
            remaining = state.s_mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                v = bit_length(low) - 1
                ds = deg_in_s[v]
                if ds < min_deg_s:
                    min_deg_s = ds
                du = deg_in_union[v]
                if du < min_deg_u:
                    min_deg_u = du
            delta_s = s_size - min_deg_s
            # sigma = min(|S ∪ C|, d_min/gamma + 1): compare via cross products.
            alt_num = min_deg_u * q + p        # (d_min*q + p) / p
            if union_size * p <= alt_num:
                sigma_num, sigma_den = union_size, 1
            else:
                sigma_num, sigma_den = alt_num, p
        tau_value = ((q - p) * sigma_num + p * sigma_den) // (q * sigma_den)
        if sigma_num < s_size * sigma_den or delta_s > tau_value:
            return True, tau_value, rounds, removed_rule1, removed_rule2

        # Rule 1: v ∈ C falls when delta_bar(v, S) + 1 > tau, or when some
        # u ∈ S already sitting at the budget is not adjacent to v.
        critical_mask = 0
        if s_size:
            remaining = state.s_mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                if s_size - deg_in_s[bit_length(low) - 1] >= tau_value:
                    critical_mask |= low
        removal_mask = 0
        threshold = tau_value - 1  # delta_bar(v, S) + 1 > tau  <=>  s - deg > tau - 1
        remaining = state.c_mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            v = bit_length(low) - 1
            if s_size - deg_in_s[v] > threshold or (critical_mask & ~masks[v]):
                removal_mask |= low
        removed_this_round = 0
        if removal_mask:
            removed_this_round = removal_mask.bit_count()
            removed_rule1 += removed_this_round
            state.remove_mask(removal_mask)

        # Rule 2: v ∈ C falls when delta(v, S ∪ C) < theta - tau (the union —
        # hence the ledger — already reflects the Rule 1 removals).
        required = theta - tau_value
        if required > 0:
            removal_mask = 0
            remaining = state.c_mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                v = bit_length(low) - 1
                if deg_in_union[v] < required:
                    removal_mask |= low
            if removal_mask:
                dropped = removal_mask.bit_count()
                removed_rule2 += dropped
                removed_this_round += dropped
                state.remove_mask(removal_mask)

        if removed_this_round == 0:
            return False, tau_value, rounds, removed_rule1, removed_rule2
        if max_rounds is not None and rounds >= max_rounds:
            s_size = state.s_size
            union_size = s_size + state.c_size
            if s_size == 0:
                sigma_num, sigma_den = union_size, 1
                delta_s = 0
            else:
                min_deg_s = min(deg_in_s[v] for v in iter_bits(state.s_mask))
                min_deg_u = min(deg_in_union[v] for v in iter_bits(state.s_mask))
                delta_s = s_size - min_deg_s
                alt_num = min_deg_u * q + p
                if union_size * p <= alt_num:
                    sigma_num, sigma_den = union_size, 1
                else:
                    sigma_num, sigma_den = alt_num, p
            tau_value = ((q - p) * sigma_num + p * sigma_den) // (q * sigma_den)
            pruned = sigma_num < s_size * sigma_den or delta_s > tau_value
            return pruned, tau_value, rounds, removed_rule1, removed_rule2


# ----------------------------------------------------------------------
# Kernelized termination and pivoting
# ----------------------------------------------------------------------
def union_min_degree(state: BranchState) -> tuple[int, int]:
    """Return ``(min deg_in_union over S ∪ C, first argmin)`` in one O(|S ∪ C|) scan.

    ``Delta(S ∪ C) = |S ∪ C| - min``, and the argmin (lowest index among the
    minima) is exactly the pivot the reference
    :func:`repro.core.branching.select_pivot` picks, because it scans in
    increasing index order and only replaces on strictly more disconnections.
    """
    deg_in_union = state.deg_in_union
    best = state.s_size + state.c_size + 1
    best_vertex = -1
    bit_length = int.bit_length
    remaining = state.s_mask | state.c_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        v = bit_length(low) - 1
        d = deg_in_union[v]
        if d < best:
            best = d
            best_vertex = v
    return best, best_vertex


def terminates_by_theta_state(state: BranchState, theta: int, tau_value: int) -> bool:
    """Ledger form of termination condition T2 (Section 4.5)."""
    union_size = state.s_size + state.c_size
    if union_size < theta:
        return True
    required = theta - tau_value
    if required <= 0:
        return False
    deg_in_union = state.deg_in_union
    bit_length = int.bit_length
    remaining = state.s_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        if deg_in_union[bit_length(low) - 1] < required:
            return True
    return False


def pivot_from_state(state: BranchState, vertex: int, tau_value: int) -> PivotInfo:
    """Build the :class:`PivotInfo` of a pivot vertex from the ledgers alone."""
    s_size = state.s_size
    union_size = s_size + state.c_size
    deg_s = state.deg_in_s[vertex]
    deg_u = state.deg_in_union[vertex]
    return PivotInfo(
        vertex=vertex,
        in_partial=bool(state.s_mask >> vertex & 1),
        disconnections_in_partial=s_size - deg_s,
        disconnections_in_candidates=state.c_size - (deg_u - deg_s),
        disconnections_in_union=union_size - deg_u,
        budget=tau_value,
    )


def pivot_ordering_state(state: BranchState, pivot: PivotInfo) -> list[int]:
    """The candidate ordering induced by the pivot (Equations 15 and 16)."""
    return pivot_ordering_masks(state.graph.adjacency_mask(pivot.vertex),
                                state.c_mask, pivot)


def tau_sigma_state(state: BranchState, gamma: float) -> int:
    """Ledger form of ``tau(sigma(B))`` (Equations 8 and 10).

    Mirrors :func:`repro.core.conditions.tau_sigma` exactly, evaluated in
    integer arithmetic over ``gamma = p/q``: with ``sigma = num/den``,
    ``tau(sigma) = ((q-p)*num + p*den) // (q*den)``.  ``d_min(B)`` comes from
    one O(|S|) ledger scan instead of per-vertex popcounts.
    """
    gamma_exact = gamma_fraction(gamma)
    p = gamma_exact.numerator
    q = gamma_exact.denominator
    union_size = state.s_size + state.c_size
    if state.s_size == 0:
        sigma_num, sigma_den = union_size, 1
    else:
        deg_in_union = state.deg_in_union
        bit_length = int.bit_length
        min_deg = union_size
        remaining = state.s_mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            d = deg_in_union[bit_length(low) - 1]
            if d < min_deg:
                min_deg = d
        alt_num = min_deg * q + p          # (d_min*q + p) / p
        if union_size * p <= alt_num:
            sigma_num, sigma_den = union_size, 1
        else:
            sigma_num, sigma_den = alt_num, p
    return ((q - p) * sigma_num + p * sigma_den) // (q * sigma_den)


def partial_is_quasi_clique_state(state: BranchState, gamma: float) -> bool:
    """Ledger form of ``mask_is_quasi_clique(graph, S, gamma)`` (Lemma 1).

    ``Delta(S) = |S| - min deg_in_s`` and ``tau(|S|)`` are both integer
    expressions over the ledgers, so the check is one O(|S|) scan.
    """
    s_size = state.s_size
    if s_size == 0:
        return False
    gamma_exact = gamma_fraction(gamma)
    p = gamma_exact.numerator
    q = gamma_exact.denominator
    deg_in_s = state.deg_in_s
    bit_length = int.bit_length
    min_deg = s_size
    remaining = state.s_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        d = deg_in_s[bit_length(low) - 1]
        if d < min_deg:
            min_deg = d
    return s_size - min_deg <= ((q - p) * s_size + p) // q


# ----------------------------------------------------------------------
# Kernelized branch generation (mirrors repro.core.branching)
# ----------------------------------------------------------------------
def se_children(state: BranchState, ordering: list[int],
                keep: int | None = None, skip: int = 0) -> list[BranchState]:
    """SE children over ``ordering``: child ``i`` includes ``v_i``, excludes priors."""
    limit = len(ordering) if keep is None else min(keep, len(ordering))
    children = []
    running = state.copy()
    for position in range(limit):
        vertex = ordering[position]
        if position >= skip:
            child = running.copy()
            child.include(vertex)
            children.append(child)
        running.remove(vertex, exclude=True)
    return children


def sym_se_children(state: BranchState, ordering: list[int],
                    keep: int | None = None, skip: int = 0) -> list[BranchState]:
    """Sym-SE children: child ``i`` includes ``v_1..v_{i-1}``, excludes ``v_i``."""
    total = len(ordering) + 1
    limit = total if keep is None else min(keep, total)
    children = []
    running = state.copy()
    for position in range(limit):
        if position < len(ordering):
            vertex = ordering[position]
            if position >= skip:
                child = running.copy()
                child.remove(vertex, exclude=True)
                children.append(child)
            running.include(vertex)
        elif position >= skip:
            # The |C|+1-th branch includes the whole candidate set; the running
            # state already did exactly that, so it is the child itself.
            children.append(running)
    return children


def generate_child_states(state: BranchState, pivot: PivotInfo,
                          method: str) -> list[BranchState]:
    """Ledger counterpart of :func:`repro.core.branching.generate_branches`."""
    ordering = pivot_ordering_state(state, pivot)
    if method == "se":
        return se_children(state, ordering)
    sym_keep = max(1, pivot.a + 1)
    if method == "sym-se":
        return sym_se_children(state, ordering, keep=sym_keep)
    if method == "hybrid":
        if hybrid_se_applicable(pivot):
            excluding = se_children(state, ordering, keep=pivot.b, skip=1)
            including = sym_se_children(state, ordering, keep=pivot.a + 1, skip=1)
            return excluding + including
        return sym_se_children(state, ordering, keep=sym_keep)
    raise ValueError(f"unknown branching method {method!r}")


# ----------------------------------------------------------------------
# Kernelized subproblem shrinking (mirrors DCFastQC._one_hop_prune /
# _two_hop_prune, Lines 5-6 of Algorithm 3)
# ----------------------------------------------------------------------
class ShrinkLedgers:
    """Adaptive degree / common-neighbour ledgers for subproblem shrinking.

    Mirrors ``DCFastQC._one_hop_prune`` / ``_two_hop_prune`` bit-for-bit while
    eliminating redundant full-width popcount rescans:

    * The **first** pass of each rule runs store-free: one restricted popcount
      per scanned vertex, fused with the removal decision, in a tight
      bit-extraction loop.  On a fresh 2-hop ball this pass typically removes
      most members, so recording per-vertex values would be wasted work.
    * From each rule's **second** pass on, the values live in dense flat
      buffers (same width rule as :class:`BranchState`) that are reconciled with
      the alive set lazily: few deaths since the last reconcile decrement only
      the dead vertices' still-alive neighbours (``O(deg ∩ ball)`` per death),
      a gutted ball recomputes the few survivors fused into the reading pass,
      and a pass over an unchanged alive set is pure array reads — the
      "round ``k+1`` never re-popcounts what round ``k`` established" path.
    Every pass collects its removals before applying any of them, so the
    surviving vertex set is exactly the one the mask-based reference produces
    (each pass is a simultaneous removal against the pass-start set).
    Entries of dead vertices (and of the root, which no rule ever tests) are
    stale by design.
    """

    __slots__ = ("graph", "stats", "root_clear", "root_adjacency",
                 "alive_mask", "alive_count", "deg", "common", "fresh_mask",
                 "common_seeded", "track_common", "_deg_passes",
                 "_common_passes", "_counts")

    def __init__(self, graph: Graph, root_index: int, ball_mask: int,
                 stats: SearchStatistics | None = None,
                 track_common: bool = True) -> None:
        self.graph = graph
        self.stats = stats
        # CSR-backed graphs expose `restricted_counts`, which batches an
        # entire counting pass over flat adjacency rows with byte-buffer
        # membership tests.  On wide graphs that replaces, per scanned
        # vertex, one lazy O(deg + n/8) mask build plus an O(n/64) full-width
        # popcount.  (Bit-slicing the one-hop pass — the other candidate
        # batching — does not pay here: unlike the two-hop rule, the
        # accumulation set equals the scan set, so the plane adds cost as
        # much as the popcounts they replace.)
        self._counts = getattr(graph, "restricted_counts", None)
        self.root_clear = ~(1 << root_index)
        self.root_adjacency = graph.adjacency_mask(root_index)
        self.alive_mask = ball_mask
        self.alive_count = ball_mask.bit_count()
        self.track_common = track_common
        # Buffers allocate lazily: balls whose shrinking finishes within the
        # store-free first passes never pay for them.
        self.deg = None
        self.common = None
        # None: the ledgers have never been seeded.  Otherwise: the alive mask
        # the degree ledger (and the common ledger, when ``common_seeded``)
        # was last reconciled against.
        self.fresh_mask = None
        self.common_seeded = False
        self._deg_passes = 0
        self._common_passes = 0

    # ------------------------------------------------------------------
    # Removal application and freshness bookkeeping
    # ------------------------------------------------------------------
    def remove_vertices(self, removals) -> None:
        """Clear removed bits; ledgers go stale until the next reconcile."""
        alive = self.alive_mask
        count = 0
        for v in removals:
            alive &= ~(1 << v)
            count += 1
        self.alive_mask = alive
        self.alive_count -= count

    def _needs_reseed(self) -> bool:
        """True when reconciling should recompute survivors outright (never
        seeded, or a mass removal made decrements the dearer option)."""
        fresh = self.fresh_mask
        if fresh is None:
            return True
        dead = (fresh & ~self.alive_mask).bit_count()
        return dead * 3 >= self.alive_count

    def _decrement_walk(self) -> None:
        """Reconcile the ledgers by walking the dead vertices' neighbours."""
        alive = self.alive_mask
        masks = self.graph.adjacency_masks()
        deg = self.deg
        common = self.common
        update_common = self.common_seeded
        root_adjacency = self.root_adjacency
        updates = 0
        dead = self.fresh_mask & ~alive
        while dead:
            low = dead & -dead
            v = low.bit_length() - 1
            dead ^= low
            drop_common = update_common and low & root_adjacency
            remaining = masks[v] & alive
            while remaining:
                bit = remaining & -remaining
                u = bit.bit_length() - 1
                remaining ^= bit
                deg[u] -= 1
                if drop_common:
                    # v stops being a common neighbour of the root and u.
                    common[u] -= 1
                updates += 1
        self.fresh_mask = alive
        if self.stats is not None:
            self.stats.shrink_ledger_updates += updates

    def refresh(self) -> None:
        """Force the ledgers fresh against the current alive set (seeds them
        on first use).  The pruning passes prefer fusing a reseed into their
        own scan; this is the standalone hook for tests and direct users."""
        alive = self.alive_mask
        if self.fresh_mask == alive and (self.common_seeded
                                         or not self.track_common):
            return
        if self.fresh_mask is not None and not self._needs_reseed() and (
                self.common_seeded or not self.track_common):
            self._decrement_walk()
            return
        self._reseed(alive)

    def _reseed(self, alive: int) -> None:
        """Recompute both ledgers for every alive vertex (fused popcounts)."""
        masks = self.graph.adjacency_masks()
        if self.deg is None:
            self.deg = _zero_ledger(self.graph.vertex_count)
        deg = self.deg
        common = None
        if self.track_common:
            if self.common is None:
                self.common = _zero_ledger(self.graph.vertex_count)
            common = self.common
        root_alive = self.root_adjacency & alive
        updates = 0
        if self._counts is not None:
            for v, value in self._counts(alive).items():
                deg[v] = value
                updates += 1
            if common is not None:
                for v, value in self._counts(alive, root_alive).items():
                    common[v] = value
        else:
            remaining = alive
            while remaining:
                low = remaining & -remaining
                v = low.bit_length() - 1
                remaining ^= low
                restricted = masks[v] & alive
                deg[v] = restricted.bit_count()
                if common is not None:
                    common[v] = (restricted & root_alive).bit_count()
                updates += 1
        self.fresh_mask = alive
        if common is not None:
            self.common_seeded = True
        if self.stats is not None:
            self.stats.shrink_ledger_updates += updates

    # ------------------------------------------------------------------
    # Pruning passes
    # ------------------------------------------------------------------
    def one_hop_round(self, required_degree: int) -> int:
        """One simultaneous pass of the one-hop (degree) pruning rule."""
        alive = self.alive_mask
        scan = alive & self.root_clear
        removals = []
        if self.fresh_mask == alive:
            deg = self.deg
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                scan ^= low
                if deg[v] < required_degree:
                    removals.append(v)
        elif self.fresh_mask is not None and not self._needs_reseed():
            self._decrement_walk()
            deg = self.deg
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                scan ^= low
                if deg[v] < required_degree:
                    removals.append(v)
        elif self._deg_passes == 0:
            if self._counts is not None:
                # CSR batching: one row scan per member against the alive
                # byte buffer, no per-member mask build or wide popcount.
                for v, value in self._counts(scan, alive).items():
                    if value < required_degree:
                        removals.append(v)
            else:
                # First pass: store-free fused popcount + decide (the hottest
                # loop of the shrinking phase — everything prebound).
                masks = self.graph.adjacency_masks()
                bit_length = int.bit_length
                bit_count = int.bit_count
                append = removals.append
                while scan:
                    low = scan & -scan
                    scan ^= low
                    v = bit_length(low) - 1
                    if bit_count(masks[v] & alive) < required_degree:
                        append(v)
        else:
            self._reseed(alive)
            deg = self.deg
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                scan ^= low
                if deg[v] < required_degree:
                    removals.append(v)
        self._deg_passes += 1
        if removals:
            self.remove_vertices(removals)
        return len(removals)

    def _two_hop_bulk(self, scan: int, threshold: int,
                      threshold_plus: int) -> int:
        """Bit-sliced two-hop pass: return the mask of vertices to remove.

        Accumulates, for every graph vertex simultaneously, the count
        ``|Γ(v) ∩ R|`` (``R = Γ(root) ∩ alive``) in vertical binary counter
        planes: adding one ``w ∈ R`` is a ripple-carry over ``k`` full-width
        masks, so the whole pass costs ``O(|R| * k)`` big-int operations with
        ``k = (threshold + 2).bit_length()``, independent of the scan size.
        The comparison against the two thresholds is plane logic; saturated
        counters (``>= 2**k > threshold_plus``) always survive.
        """
        if threshold_plus <= 0:
            return 0
        root_adjacency = self.root_adjacency
        k = threshold_plus.bit_length()
        planes = [0] * k
        sat = 0
        masks = self.graph.adjacency_masks()
        members = root_adjacency & self.alive_mask
        while members:
            low = members & -members
            members ^= low
            carry = masks[low.bit_length() - 1]
            for i in range(k):
                plane = planes[i]
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                sat |= carry
        removed = 0
        non_adjacent = scan & ~root_adjacency
        if non_adjacent:
            removed = non_adjacent & ~self._ge_mask(planes, sat, threshold_plus)
        if threshold > 0:
            adjacent = scan & root_adjacency
            if adjacent:
                removed |= adjacent & ~self._ge_mask(planes, sat, threshold)
        return removed

    @staticmethod
    def _ge_mask(planes: list[int], sat: int, value: int) -> int:
        """Positions whose plane-encoded counter is ``>= value`` (value >= 1).

        Standard bitwise magnitude comparison, most significant plane first;
        ``value`` must be representable in ``len(planes)`` bits.
        """
        greater = 0
        equal = -1  # arbitrary-precision all-ones
        for i in range(len(planes) - 1, -1, -1):
            plane = planes[i]
            if (value >> i) & 1:
                equal &= plane
            else:
                greater |= equal & plane
        return greater | equal | sat

    def two_hop_round(self, threshold: int) -> int:
        """One simultaneous pass of the two-hop (common-neighbour) rule.

        ``threshold`` applies to root neighbours; non-neighbours of the root
        need two more common neighbours (the intermediate vertices of two
        disjoint 2-hop paths), exactly as in the mask-based rule.
        """
        alive = self.alive_mask
        root_adjacency = self.root_adjacency
        threshold_plus = threshold + 2
        scan = alive & self.root_clear
        removals = []
        if self.common_seeded and self.fresh_mask == alive:
            common = self.common
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                scan ^= low
                if common[v] < (threshold if low & root_adjacency
                                else threshold_plus):
                    removals.append(v)
        elif self.common_seeded and not self._needs_reseed():
            self._decrement_walk()
            common = self.common
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                scan ^= low
                if common[v] < (threshold if low & root_adjacency
                                else threshold_plus):
                    removals.append(v)
        elif self._common_passes == 0:
            # First pass, bit-sliced: common(v) = |Γ(v) ∩ R| with
            # R = Γ(root) ∩ alive.  R is small (it is bounded by the root's
            # degree), so instead of one popcount per scanned member we add
            # each w ∈ R's adjacency mask into binary counter planes — one
            # vertical counter per graph vertex, O(|R| * log threshold)
            # full-width mask operations total — and read off the removal
            # set with plane logic.  No per-member loop at all.
            self._common_passes += 1
            removed_mask = self._two_hop_bulk(scan, threshold, threshold_plus)
            if removed_mask:
                self.alive_mask = alive & ~removed_mask
                dropped = removed_mask.bit_count()
                self.alive_count -= dropped
                return dropped
            return 0
        else:
            self._reseed(alive)
            common = self.common
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                scan ^= low
                if common[v] < (threshold if low & root_adjacency
                                else threshold_plus):
                    removals.append(v)
        self._common_passes += 1
        if removals:
            self.remove_vertices(removals)
        return len(removals)


# ----------------------------------------------------------------------
# Explicit work-stack driver (replaces the recursive search)
# ----------------------------------------------------------------------
#: Values the enumerators accept for their ``kernel`` knob.
KERNELS = ("ledger", "reference")


class BranchFrame:
    """One unresolved ``close`` obligation of the steal-aware driver.

    The plain driver keeps close obligations implicit in stack order: a
    branch's ``(True, payload)`` entry sits below its children, so by the time
    it pops every descendant has been processed.  Work stealing breaks that
    invariant — a stolen subtree finishes *elsewhere*, possibly long after the
    local stack drained — so each interior branch gets an explicit frame that
    counts its outstanding contributions (``pending``: unresolved child frames
    plus stolen subtrees) and accumulates the found-a-quasi-clique verdict
    (``found``).  ``close(payload, found)`` runs only once ``popped`` (the
    frame's own stack entry was reached) *and* ``pending == 0``.

    ``on_resolve`` is set on task-root frames by the stealing scheduler: it
    fires exactly once with the subtree's final verdict, which is how a worker
    reports a (possibly parked) task back to the coordinator.
    """

    __slots__ = ("payload", "parent", "found", "pending", "popped", "on_resolve")

    def __init__(self, payload=None, parent: "BranchFrame | None" = None) -> None:
        self.payload = payload
        self.parent = parent
        self.found = False
        self.pending = 0
        self.popped = False
        self.on_resolve = None


def resolve_ready_frames(frame: BranchFrame, close: Callable):
    """Run ``close`` up the frame chain while frames are fully contributed.

    Returns the root frame's verdict when the cascade resolves it, else None
    (some frame is still waiting on a stolen subtree or unpopped entry).
    """
    while frame.popped and frame.pending == 0:
        if frame.parent is None:
            result = frame.found
        else:
            result = bool(close(frame.payload, frame.found)) or frame.found
        if frame.on_resolve is not None:
            callback, frame.on_resolve = frame.on_resolve, None
            callback(result)
        parent = frame.parent
        if parent is None:
            return result
        if result:
            parent.found = True
        parent.pending -= 1
        frame = parent
    return None


def contribute_steal_result(frame: BranchFrame, found: bool, close: Callable):
    """Apply a stolen subtree's verdict to its parked parent frame.

    The inverse of the ``pending += 1`` a steal performs: decrement, fold the
    verdict in, and resolve whatever the contribution unblocked.
    """
    if found:
        frame.found = True
    frame.pending -= 1
    return resolve_ready_frames(frame, close)


def _enumerate_with_scheduler(root, expand: Callable, close: Callable,
                              scheduler, poll) -> bool | None:
    """The frame-based driver variant used when a stealing scheduler is active.

    Behaviourally identical to the plain loop below — same visit order, same
    ``expand``/``close`` call sequence — except that pending subtrees may be
    removed from the *bottom* of the stack by ``scheduler`` and finished by
    another worker.  Returns the root verdict, or None when the root is parked
    on stolen subtrees (its ``on_resolve`` callback fires later, when the last
    steal result is contributed via :func:`contribute_steal_result`).
    """
    root_frame = BranchFrame()
    stack: list = [(root, root_frame)]

    def steal():
        # Bottom-most pending visit, excluding the entry about to be popped:
        # stealing the worker's only remaining visit would just idle *this*
        # worker instead.  Returns (state, parent_frame) with the parent's
        # pending count already bumped, or None when nothing is stealable.
        for index in range(len(stack) - 1):
            entry = stack[index]
            if type(entry) is tuple:
                del stack[index]
                state, parent = entry
                parent.pending += 1
                return state, parent
        return None

    scheduler.begin_task(steal, close, root_frame)
    on_branch = scheduler.on_branch
    while stack:
        entry = stack.pop()
        if type(entry) is not tuple:
            entry.popped = True
            resolve_ready_frames(entry, close)
            continue
        state, parent = entry
        if poll is not None and poll(len(stack)):
            return True
        on_branch()
        outcome = expand(state)
        if isinstance(outcome, bool):
            if outcome:
                parent.found = True
            continue
        children, close_payload = outcome
        frame = BranchFrame(close_payload, parent)
        parent.pending += 1
        stack.append(frame)
        for child in reversed(children):
            stack.append((child, frame))
    root_frame.popped = True
    return resolve_ready_frames(root_frame, close)


def depth_first_enumerate(root, expand: Callable, close: Callable,
                          should_stop: Callable[[], bool] | None = None,
                          ticker=None, scheduler=None) -> bool | None:
    """Post-order depth-first search over branches with an explicit work stack.

    ``expand(branch)`` is called once per visited branch and returns either a
    ``bool`` (the branch terminated: pruned, T1/T2, or emitted) or a tuple
    ``(children, payload)``; after every child's subtree completes,
    ``close(payload, found_in_subtree)`` decides the branch's own result (the
    ``G[S]`` fallback output of Algorithms 1–2).  The return value is True iff
    a quasi-clique was output anywhere in the tree — identical to the old
    recursion, but with O(depth) heap frames instead of Python stack frames.

    ``should_stop`` is polled before each expansion; when it fires the search
    abandons the stack and reports True so no ancestor emits its partial set
    during the unwind (cooperative-cancellation semantics of the recursion).

    ``ticker`` is an optional :class:`repro.obs.progress.ProgressTicker`:
    ``ticker.on_branch(depth)`` is called once per expansion (an increment
    plus a modulo until its period elapses) and a True return requests the
    same cooperative unwind as ``should_stop``.

    ``scheduler`` is an optional work-stealing scheduler (see
    :mod:`repro.extensions.stealing`): ``scheduler.begin_task(steal, close,
    root_frame)`` is called once before the loop and ``scheduler.on_branch()``
    once per expansion.  The scheduler may call ``steal()`` to remove the
    bottom-most pending subtree for another worker and must later contribute
    that subtree's verdict via :func:`contribute_steal_result`.  With a
    scheduler the return value may be None: the local stack drained but the
    root still awaits stolen subtrees (the root frame's ``on_resolve`` fires
    when it finally resolves).  With ``scheduler=None`` (the default) this is
    the original allocation-free loop, unchanged.
    """
    # Both hooks fold into one prebuilt ``poll``, so the common disabled case
    # pays exactly one is-None check per branch — the same instruction count
    # as the loop had before progress hooks existed.
    if ticker is None:
        poll = None if should_stop is None else lambda depth: should_stop()
    elif should_stop is None:
        poll = ticker.on_branch
    else:
        def poll(depth, _tick=ticker.on_branch):
            return should_stop() or _tick(depth)
    if scheduler is not None:
        return _enumerate_with_scheduler(root, expand, close, scheduler, poll)
    stack: list[tuple[bool, object]] = [(False, root)]
    found: list[bool] = [False]
    while stack:
        closing, payload = stack.pop()
        if closing:
            sub_found = found.pop()
            if close(payload, sub_found):
                sub_found = True
            if sub_found:
                found[-1] = True
            continue
        if poll is not None and poll(len(stack)):
            return True
        outcome = expand(payload)
        if isinstance(outcome, bool):
            if outcome:
                found[-1] = True
            continue
        children, close_payload = outcome
        stack.append((True, close_payload))
        found.append(False)
        for child in reversed(children):
            stack.append((False, child))
    return found[0]
