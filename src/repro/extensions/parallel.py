"""Parallel DCFastQC: work-stealing branch parallelism over the DC subproblems.

The paper's conclusion lists "efficient parallel implementations" as future
work, and its related work covers a task-parallel Quick+ (T-thinker).  The
divide-and-conquer framework makes every subproblem ``(v_i, G_i)``
independent, and the explicit work-stack driver makes every pending subtree
of a subproblem independent too.  This module fans both out to worker
processes through :mod:`repro.extensions.stealing`: workers pull subproblem
roots from a shared task queue and steal pending subtrees from each other, so
one dominant subproblem is split across workers instead of serializing the
run.  The outputs are merged before the usual MQCE-S2 filter.

The parent process does the cheap global preprocessing (core reduction,
degeneracy ordering, per-root two-hop shrinking) exactly once and publishes
each subproblem as a *compact* payload
(:class:`~repro.core.dcfastqc.CompactSubproblem`): the subproblem's vertices
remapped to a dense local index space with their within-subproblem adjacency
bitmasks.  Workers therefore enumerate graphs whose bitmask and ledger widths
track the subproblem size, not the input graph.

Each payload also carries the subproblem's **one-hop maximality halo** (the
outside neighbours of the ball with their adjacency into it), so workers apply
the maximality necessary-condition filter against exactly the evidence a
full-graph check would consult: the emitted candidate sets are identical to
a sequential DCFastQC run's, batch for batch, not merely after the MQCE-S2
set-trie filter.  (Sequential DCFastQC itself enumerates these payloads on
CSR-backed graphs.)
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from ..core.dcfastqc import CompactSubproblem, DCFastQC, DEFAULT_MAX_ROUNDS
from ..core.fastqc import FastQC
from ..core.stats import SearchStatistics
from ..graph.graph import Graph
from ..obs.metrics import REGISTRY
from ..quasiclique.definitions import validate_parameters
from ..settrie.filter import filter_non_maximal
from .stealing import WorkerCrash, branch_parallel_enumerate

_STEALS = REGISTRY.counter(
    "repro_parallel_steals_total",
    "Subtrees stolen between branch-parallel workers")
_IDLE_GAPS = REGISTRY.histogram(
    "repro_parallel_idle_gap_ms",
    "Milliseconds branch-parallel workers spent idle between tasks")
_UTILIZATION = REGISTRY.gauge(
    "repro_parallel_utilization",
    "busy_seconds / (workers * wall_seconds) of the last parallel run")
_RUNS = REGISTRY.counter(
    "repro_parallel_runs_total",
    "Branch-parallel enumerations")
_SUBPROBLEMS = REGISTRY.counter(
    "repro_parallel_subproblems_total",
    "DC subproblems enumerated by branch-parallel workers")
_WORKER_BRANCHES = REGISTRY.counter(
    "repro_parallel_worker_branches_total",
    "Branches explored inside branch-parallel workers")
_SUBPROBLEM_SIZES = REGISTRY.histogram(
    "repro_parallel_subproblem_sizes",
    "Vertex counts of subproblems shipped to workers")

#: Telemetry of the most recent parallel run in this process (surfaced by
#: ``repro engine stats`` next to the registry metrics).
LAST_PARALLEL_RUN: dict = {}


def available_cpus() -> int:
    """CPUs this process may run on: the default worker budget.

    Reads the scheduler affinity mask, so a CPU-restricted container or a
    ``taskset`` is not oversubscribed the way ``os.cpu_count()`` (every CPU
    of the machine) would; falls back to ``os.cpu_count() or 1`` on platforms
    without ``sched_getaffinity``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def run_compact_subproblem(subproblem: CompactSubproblem, gamma: float,
                           theta: int, branching: str = "hybrid",
                           kernel: str = "ledger"
                           ) -> tuple[list[frozenset], SearchStatistics]:
    """Enumerate one compact DC subproblem in-process (the per-subproblem reference).

    The maximality filter checks single-vertex extensions against the ball
    plus its one-hop halo, which decides exactly like a full-graph check (any
    extension vertex is adjacent to the candidate set, hence inside ball ∪
    halo) — so the emitted candidate sets are *identical* to sequential
    DCFastQC's for this root.  Returns the candidate sets and the run's
    :class:`SearchStatistics`; the work-stealing parity tests compare
    branch-parallel runs against both.
    """
    graph = subproblem.build_graph()
    maximality = (subproblem.build_maximality_graph()
                  if subproblem.halo_labels else graph)
    engine = FastQC(graph, gamma, theta,
                    branching=branching, kernel=kernel,
                    maximality_graph=maximality)
    chunk = engine.enumerate_branch(subproblem.initial_branch())
    return chunk, engine.statistics


class ParallelDCFastQC:
    """DCFastQC with the per-vertex subproblems enumerated by work-stealing workers.

    Parameters mirror :class:`repro.core.dcfastqc.DCFastQC` (``graph`` may
    be an engine ``PreparedGraph``) plus ``workers`` (process count, default:
    :func:`available_cpus` capped at 8) and ``steal_schedule`` (a
    deterministic steal trigger for tests; default: the idle-worker signal).

    With ``workers=1`` or nothing to enumerate, everything runs in-process —
    no worker is ever spawned.  A crashed worker, or a platform without POSIX
    shared memory, falls back to the sequential driver.  After ``enumerate``,
    :attr:`statistics` holds the parent shrink-phase counters merged with
    every worker's counters (branch counts add up exactly to a sequential
    run's) and :attr:`mode_selected` names the path actually taken
    (``"sequential"`` or ``"branch"``).
    """

    def __init__(self, graph: Graph, gamma: float, theta: int,
                 branching: str = "hybrid", kernel: str = "ledger",
                 max_rounds: int = DEFAULT_MAX_ROUNDS,
                 workers: int | None = None, steal_schedule=None) -> None:
        validate_parameters(gamma, theta)
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        self.graph = graph  # handed as-is to every DCFastQC it builds
        self.gamma = gamma
        self.theta = theta
        self.branching = branching
        self.kernel = kernel
        self.max_rounds = max_rounds
        self.workers = workers if workers is not None else min(8, available_cpus())
        self.steal_schedule = steal_schedule
        self.statistics = SearchStatistics()
        self.mode_selected: str | None = None

    # ------------------------------------------------------------------
    def _driver(self) -> DCFastQC:
        """A sequential driver with this configuration (preprocessing + fallback)."""
        return DCFastQC(self.graph, self.gamma, self.theta, branching=self.branching,
                        kernel=self.kernel, max_rounds=self.max_rounds)

    def _sequential(self, driver: DCFastQC | None = None) -> list[frozenset]:
        """In-process run, reusing an existing driver if it has not started."""
        if driver is None:
            driver = self._driver()
        results = driver.enumerate()
        self.statistics = driver.statistics
        self.mode_selected = "sequential"
        return results

    def enumerate(self) -> list[frozenset]:
        """Return a set of QCs containing every large MQC (MQCE-S1), in parallel."""
        driver = self._driver()
        if self.workers <= 1:
            return self._sequential(driver)
        subproblems = tuple(driver.iter_compact_subproblems())
        if not subproblems:
            self.statistics = driver.statistics
            self.mode_selected = "sequential"
            return []
        try:
            results, worker_stats, telemetry = branch_parallel_enumerate(
                subproblems, self.gamma, self.theta,
                branching=self.branching, kernel=self.kernel,
                workers=self.workers, steal_schedule=self.steal_schedule)
        except (WorkerCrash, OSError, ValueError):
            # A dead worker (or a platform without POSIX shared memory) must
            # not cost the answer: rerun sequentially.  Segments were already
            # unlinked by the coordinator's cleanup path.
            return self._sequential()
        merged = driver.statistics
        merged.merge(worker_stats)
        self.statistics = merged
        self.mode_selected = "branch"
        _record_parallel_run(subproblems, self.statistics, telemetry)
        return sorted(results, key=lambda h: (-len(h), sorted(map(str, h))))

    def find_maximal(self) -> list[frozenset]:
        """Full parallel MQCE: enumerate in parallel and filter non-maximal QCs."""
        return filter_non_maximal(self.enumerate(), theta=self.theta)


def _record_parallel_run(subproblems: Sequence[CompactSubproblem],
                         stats: SearchStatistics, telemetry: dict) -> None:
    """Publish one parallel run's telemetry to the registry + LAST_PARALLEL_RUN."""
    workers, wall_seconds = telemetry["workers"], telemetry["wall_seconds"]
    _RUNS.inc()
    _SUBPROBLEMS.inc(len(subproblems))
    for subproblem in subproblems:
        _SUBPROBLEM_SIZES.observe(len(subproblem.labels))
    _WORKER_BRANCHES.inc(sum(telemetry["worker_branches"].values()))
    if stats.steals:
        _STEALS.inc(stats.steals)
    for gap_ms in telemetry["idle_gaps_ms"]:
        _IDLE_GAPS.observe(gap_ms)
    utilization = (stats.parallel_busy_seconds / (workers * wall_seconds)
                   if workers > 0 and wall_seconds > 0 else 0.0)
    _UTILIZATION.set(round(utilization, 4))
    LAST_PARALLEL_RUN.clear()
    LAST_PARALLEL_RUN.update({
        "mode": "branch", "workers": workers,
        "steals": stats.steals,
        "busy_seconds": round(stats.parallel_busy_seconds, 6),
        "wall_seconds": round(wall_seconds, 6),
        "parallel_utilization": round(utilization, 4),
        #: Branches explored per worker: the max entry is the run's critical
        #: path in machine-independent units, which the parallel benchmark
        #: compares against the largest subproblem's branch count to measure
        #: load balance.
        "worker_branches": dict(telemetry["worker_branches"]),
    })


def parallel_enumerate(graph: Graph, gamma: float, theta: int, workers: int | None = None,
                       **kwargs) -> list[frozenset]:
    """Functional wrapper around :class:`ParallelDCFastQC.enumerate`."""
    return ParallelDCFastQC(graph, gamma, theta, workers=workers, **kwargs).enumerate()
