"""Search statistics shared by all branch-and-bound algorithms.

Branch counts are machine- and language-independent, so the experiment harness
reports them next to wall-clock times: they are the quantity the paper's
theoretical analysis actually bounds.  The ledger counters expose how much
incremental bookkeeping the :mod:`repro.core.kernel` branch-state kernel did
(each vertex move between S/C/X touches only the moved vertex's neighbours).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict


@dataclass
class SizeHistogram:
    """Bounded summary of a stream of sizes (count / total / max + log2 buckets).

    Replaces the old unbounded per-subproblem size list: a long-lived engine
    serving millions of queries must not grow a Python list without bound, so
    only O(log(max size)) bucket counters are kept.  Bucket keys are the
    power-of-two floor of the recorded size (0 sizes land in bucket 0).
    """

    count: int = 0
    total: int = 0
    max: int = 0
    buckets: dict[int, int] = field(default_factory=dict)

    def record(self, size: int) -> None:
        """Record one size observation in O(1) space."""
        self.count += 1
        self.total += size
        if size > self.max:
            self.max = size
        key = 1 << (size.bit_length() - 1) if size > 0 else 0
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def average(self) -> float:
        """Mean recorded size (0.0 when nothing was recorded)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "SizeHistogram") -> None:
        """Accumulate another histogram into this one."""
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max
        for key, value in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + value

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0


@dataclass
class SearchStatistics:
    """Counters accumulated during one enumeration run."""

    branches_explored: int = 0
    branches_pruned_by_condition: int = 0
    branches_pruned_by_type2: int = 0
    branches_terminated_t1: int = 0
    branches_terminated_t2: int = 0
    candidates_removed_by_refinement: int = 0
    candidates_removed_by_type1: int = 0
    outputs: int = 0
    outputs_suppressed_by_maximality: int = 0
    subproblems: int = 0
    #: Ledger kernel bookkeeping: vertex moves between S/C/X and the per-move
    #: neighbour ledger entries touched (0 for the mask-based reference path).
    ledger_moves: int = 0
    ledger_updates: int = 0
    #: DCFastQC subproblem shrinking: pruning rounds run and vertices
    #: dropped per rule (0 for the oracle's mask-based shrinking).
    shrink_rounds: int = 0
    shrink_removed_one_hop: int = 0
    shrink_removed_two_hop: int = 0
    #: Branch-parallel runs only: subtrees stolen between workers and the
    #: summed worker busy wall-clock (both 0 for sequential runs).
    steals: int = 0
    parallel_busy_seconds: float = 0.0
    subproblem_sizes: SizeHistogram = field(default_factory=SizeHistogram)
    #: Branches explored per DC subproblem — work measured directly; its
    #: total opens the planner's parallel gate once a run has recorded it.
    #: Branch-parallel runs leave it empty: stolen subtrees cross workers, so
    #: per-subproblem attribution is only possible on sequential runs.
    subproblem_branches: SizeHistogram = field(default_factory=SizeHistogram)

    def as_dict(self) -> dict:
        data = asdict(self)
        data["max_subproblem_size"] = self.subproblem_sizes.max
        data["avg_subproblem_size"] = self.subproblem_sizes.average
        # Process high-water mark at snapshot time (None where the platform
        # offers no getrusage).  Lazy import: obs depends on this module.
        from ..obs.process import peak_rss_bytes
        data["peak_rss_bytes"] = peak_rss_bytes()
        return data

    def merge(self, other: "SearchStatistics") -> None:
        """Accumulate another run's counters into this one (used by the DC driver)."""
        self.branches_explored += other.branches_explored
        self.branches_pruned_by_condition += other.branches_pruned_by_condition
        self.branches_pruned_by_type2 += other.branches_pruned_by_type2
        self.branches_terminated_t1 += other.branches_terminated_t1
        self.branches_terminated_t2 += other.branches_terminated_t2
        self.candidates_removed_by_refinement += other.candidates_removed_by_refinement
        self.candidates_removed_by_type1 += other.candidates_removed_by_type1
        self.outputs += other.outputs
        self.outputs_suppressed_by_maximality += other.outputs_suppressed_by_maximality
        self.subproblems += other.subproblems
        self.ledger_moves += other.ledger_moves
        self.ledger_updates += other.ledger_updates
        self.shrink_rounds += other.shrink_rounds
        self.shrink_removed_one_hop += other.shrink_removed_one_hop
        self.shrink_removed_two_hop += other.shrink_removed_two_hop
        self.steals += other.steals
        self.parallel_busy_seconds += other.parallel_busy_seconds
        self.subproblem_sizes.merge(other.subproblem_sizes)
        self.subproblem_branches.merge(other.subproblem_branches)
