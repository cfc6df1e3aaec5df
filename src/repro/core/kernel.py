"""Incremental branch-state kernel: flat degree ledgers for the enumeration stack.

The mask/popcount reference implementations (:mod:`repro.oracle`) recompute
every branch quantity — ``sigma(B)``, ``Delta(S)``, ``Delta(S ∪ C)``, the
refinement and Type I/II pruning rules, the T1/T2 termination conditions
and the pivot scores — from scratch with per-vertex popcounts over
full-graph-width bitmasks, even though a child branch differs from its
parent by exactly one vertex.

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
* :func:`one_hop_pass` and :func:`two_hop_pass` are DCFastQC's subproblem
  shrinking rules as store-free passes: a fused popcount-and-decide loop
  (one batched row scan on a CSR-backed graph) and a bit-sliced bulk
  common-neighbour count.  No state survives a pass.
* The ledger buffers are flat ``array('i')`` buffers for wide states and
  plain lists for compact subproblem states (the width rule at
  :data:`AUTO_ARRAY_MIN_WIDTH`).

The functions mirror their oracle counterparts one-to-one and visit the
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
#: Branch-state ledgers switch from Python lists to flat ``array('i')``
#: buffers at this width.  Copies favour arrays (one memcpy vs a
#: pointer-by-pointer loop: 206 ns vs 81 ns at width 128, 33 us vs 1.8 us at
#: 16384) while indexed ``buf[i] += 1`` updates favour lists (~29 ns vs
#: ~94 ns — arrays box an int per access), so the winner depends on touches
#: per copy.  Only whole-graph branch states reach the rule: Quick+,
#: ``framework="none"`` and standalone FastQC.  DC subproblem states are at
#: most 32 wide on every measured workload and stay lists.  Best of 3, three
#: alternating runs on 2 CPUs (Python 3.11): whole-graph FastQC on kmer
#: (520 vertices) at (0.51, 6) took 2.6-3.7 s with the rule against
#: 4.6-5.4 s with every ledger a list; Quick+ on enron at (0.9, 9) was
#: mixed, 269-361 ms against 340-347 ms.
AUTO_ARRAY_MIN_WIDTH = 128


def _make_ledger(values) -> "array | list[int]":
    values = values if isinstance(values, list) else list(values)
    if len(values) >= AUTO_ARRAY_MIN_WIDTH:
        return array("i", values)
    return values


class BranchState:
    """A branch ``(S, C, D)`` carrying incremental degree ledgers.

    The masks mirror :class:`repro.core.branch.Branch` (same index space, same
    invariants); on top of them the state maintains, for every member of the
    union, ``deg_in_s[v]`` and ``deg_in_union[v]`` — the number of neighbours
    of ``v`` inside ``S`` and inside ``S ∪ C``.  ``graph`` is the search
    input, a :class:`Graph` or a
    :class:`~repro.core.dcfastqc.CompactSubproblem`; the state reads only its
    ``vertex_count``, ``adjacency_masks()`` and ``adjacency_mask(i)``.
    Ledger entries of vertices outside ``S ∪ C`` are never read:
    single-vertex moves update them anyway (the updates are symmetric),
    while :meth:`remove_mask`'s mass-removal path deliberately lets them go
    stale.

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
# Kernelized refinement (mirrors repro.oracle.refinement.progressively_refine)
# ----------------------------------------------------------------------
def refine_state(state: BranchState, gamma: float, theta: int
                 ) -> tuple[bool, int, int, int, int, int, int]:
    """Refine a branch state in place until the C1&2 / Rules 1–2 fixpoint.

    Returns ``(pruned, tau_value, rounds, removed_by_rule1, removed_by_rule2,
    min_deg_union, min_vertex)``.  The first five have exactly the semantics
    of :func:`repro.oracle.refinement.progressively_refine`: same prune
    decisions, same surviving candidate set, same final disconnection budget.
    The last two are what :func:`union_min_degree` returns for the refined
    state (the pivot of :func:`pivot_from_state`); they are ``(-1, -1)`` when
    the branch is pruned.  All checks are O(|S|) / O(|C|) ledger scans; each
    removal costs O(deg).

    Each round reads every C member once: Rule 1, Rule 2 and the union
    minimum share that pass.  Rule 2's removals from it are exact when Rule 1
    removed nothing; otherwise Rule 2 runs again on the shrunken union.  The
    final round removes nothing, so its pass already saw the minimum.

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
        # The union minimum over S (lowest index on ties); C's comes later.
        min_deg_u = union_size + 1
        min_vertex = -1
        if s_size == 0:
            sigma_num, sigma_den = union_size, 1
            delta_s = 0
        else:
            min_deg_s = s_size
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
                    min_vertex = v
            delta_s = s_size - min_deg_s
            # sigma = min(|S ∪ C|, d_min/gamma + 1): compare via cross products.
            alt_num = min_deg_u * q + p        # (d_min*q + p) / p
            if union_size * p <= alt_num:
                sigma_num, sigma_den = union_size, 1
            else:
                sigma_num, sigma_den = alt_num, p
        tau_value = ((q - p) * sigma_num + p * sigma_den) // (q * sigma_den)
        if sigma_num < s_size * sigma_den or delta_s > tau_value:
            return True, tau_value, rounds, removed_rule1, removed_rule2, -1, -1

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
        # Rule 2: v ∈ C falls when delta(v, S ∪ C) < theta - tau.  Survivors
        # of both rules feed C's union minimum.
        required = theta - tau_value
        rule1_mask = rule2_mask = 0
        min_deg_c = union_size + 1
        min_vertex_c = -1
        threshold = tau_value - 1  # delta_bar(v, S) + 1 > tau  <=>  s - deg > tau - 1
        remaining = state.c_mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            v = bit_length(low) - 1
            if s_size - deg_in_s[v] > threshold or (critical_mask & ~masks[v]):
                rule1_mask |= low
            else:
                du = deg_in_union[v]
                if du < required:
                    rule2_mask |= low
                elif du < min_deg_c:
                    min_deg_c = du
                    min_vertex_c = v
        if not (rule1_mask or rule2_mask):
            if min_deg_c < min_deg_u or (min_deg_c == min_deg_u
                                         and min_vertex_c < min_vertex):
                min_deg_u, min_vertex = min_deg_c, min_vertex_c
            return (False, tau_value, rounds, removed_rule1, removed_rule2,
                    min_deg_u, min_vertex)
        if rule1_mask:
            removed_rule1 += rule1_mask.bit_count()
            state.remove_mask(rule1_mask)
            if required > 0:
                # The ledger changed: re-read Rule 2 on the shrunken union.
                rule2_mask = 0
                remaining = state.c_mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    if deg_in_union[bit_length(low) - 1] < required:
                        rule2_mask |= low
        if rule2_mask:
            removed_rule2 += rule2_mask.bit_count()
            state.remove_mask(rule2_mask)


# ----------------------------------------------------------------------
# Kernelized termination and pivoting
# ----------------------------------------------------------------------
def union_min_degree(state: BranchState) -> tuple[int, int]:
    """Return ``(min deg_in_union over S ∪ C, first argmin)`` in one O(|S ∪ C|) scan.

    ``Delta(S ∪ C) = |S ∪ C| - min``, and the argmin (lowest index among the
    minima) is exactly the pivot the reference
    :func:`repro.oracle.branching.select_pivot` picks, because it scans in
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

    Mirrors :func:`repro.oracle.conditions.tau_sigma` exactly, evaluated in
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
# Kernelized branch generation (mirrors repro.oracle.branching)
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
    """Ledger counterpart of :func:`repro.oracle.branching.generate_branches`."""
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
# Subproblem shrinking passes (mirror the oracle's mask rounds, Lines 5-6
# of Algorithm 3)
# ----------------------------------------------------------------------
# Each pass counts against its pass-start alive set and returns the removal
# mask without applying it, so a pass removes exactly the vertices the
# mask-based reference drops in one simultaneous sweep.  Nothing is stored
# between passes: after round 1 few vertices survive per ball (p50 1, p90 11
# on the registry grid), so recounting them costs less than keeping
# per-vertex counts up to date across passes.

def one_hop_pass(graph: Graph, root_index: int, alive: int,
                 required_degree: int) -> int:
    """One-hop (degree) rule: the mask of non-root ``v`` in ``alive`` with
    fewer than ``required_degree`` neighbours in ``alive``.

    Not bit-sliced like :func:`two_hop_pass`: here the accumulation set
    equals the scan set, so the plane adds would cost as much as the
    popcounts they replace.
    """
    scan = alive & ~(1 << root_index)
    removed = 0
    counts = getattr(graph, "restricted_counts", None)
    if counts is not None:
        # CSR batching: one row scan per member against the alive byte
        # buffer, no per-member mask build or wide popcount.
        for v, value in counts(scan, alive).items():
            if value < required_degree:
                removed |= 1 << v
        return removed
    # Store-free fused popcount + decide: the hottest loop of the shrinking
    # phase, everything prebound.
    masks = graph.adjacency_masks()
    bit_length = int.bit_length
    bit_count = int.bit_count
    while scan:
        low = scan & -scan
        scan ^= low
        if bit_count(masks[bit_length(low) - 1] & alive) < required_degree:
            removed |= low
    return removed


def two_hop_pass(graph: Graph, root_index: int, alive: int,
                 threshold: int) -> int:
    """Two-hop (common-neighbour) rule: the mask of non-root ``v`` in
    ``alive`` with too few common neighbours with the root inside ``alive``.

    ``threshold`` applies to root neighbours; non-neighbours of the root need
    two more (the intermediate vertices of two disjoint 2-hop paths).

    Bit-sliced: ``common(v) = |Γ(v) ∩ R|`` with ``R = Γ(root) ∩ alive`` is
    accumulated for every graph vertex at once in vertical binary counter
    planes.  ``R`` is bounded by the root's degree, so adding each ``w ∈ R``'s
    adjacency mask as a ripple-carry over ``k = (threshold + 2).bit_length()``
    full-width masks costs ``O(|R| * k)`` big-int operations, independent of
    the scan size, and plane logic reads off the removals.  Saturated
    counters (``>= 2**k > threshold + 2``) always survive.
    """
    threshold_plus = threshold + 2
    if threshold_plus <= 0:
        return 0
    root_adjacency = graph.adjacency_mask(root_index)
    k = threshold_plus.bit_length()
    planes = [0] * k
    sat = 0
    masks = graph.adjacency_masks()
    members = root_adjacency & alive
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
    scan = alive & ~(1 << root_index)
    removed = 0
    non_adjacent = scan & ~root_adjacency
    if non_adjacent:
        removed = non_adjacent & ~_ge_mask(planes, sat, threshold_plus)
    if threshold > 0:
        adjacent = scan & root_adjacency
        if adjacent:
            removed |= adjacent & ~_ge_mask(planes, sat, threshold)
    return removed


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


# ----------------------------------------------------------------------
# Explicit work-stack driver (replaces the recursive search)
# ----------------------------------------------------------------------
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
