"""Parallel DCFastQC: the telemetry and worker defaults of its fan-out.

The paper's conclusion lists "efficient parallel implementations" as future
work, and its related work covers a task-parallel Quick+ (T-thinker).  The
divide-and-conquer framework makes every subproblem ``(v_i, G_i)``
independent, and the explicit work-stack driver makes every pending subtree
of a subproblem independent too.  :class:`~repro.core.dcfastqc.DCFastQC`
fans both out to worker processes through :mod:`repro.extensions.stealing`
once a run has done enough work in-process: workers pull tasks from a shared
queue and steal pending subtrees from each other, so one dominant subproblem
is split across workers instead of serializing the run.

Workers search the same *compact* payloads
(:class:`~repro.core.dcfastqc.CompactSubproblem`) the in-process search
does — the subproblem's vertices remapped to a dense local index space with
their within-subproblem adjacency bitmasks — with the same maximality route
(the full graph's rows on a dict graph, inherited by fork; the payload's
one-hop halo on a CSR graph).  So workers apply the maximality
necessary-condition filter against exactly the evidence a full-graph check
would consult: the emitted candidate sets are identical to an in-process
run's, not merely after the MQCE-S2 set-trie filter.

This module keeps what the fan-out reports and reads: the registry metrics,
:data:`LAST_PARALLEL_RUN`, the default worker count and
:func:`run_compact_subproblem`, the per-subproblem reference the parity
tests compare against.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from ..core.dcfastqc import CompactSubproblem
from ..core.fastqc import FastQC
from ..core.stats import SearchStatistics
from ..obs.metrics import REGISTRY

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


#: Cap on the default worker count.
MAX_WORKERS = 8


def available_cpus() -> int:
    """CPUs this process may run on.

    Reads the scheduler affinity mask, so a CPU-restricted container or a
    ``taskset`` is not oversubscribed the way ``os.cpu_count()`` (every CPU
    of the machine) would; falls back to ``os.cpu_count() or 1`` on platforms
    without ``sched_getaffinity``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def default_workers() -> int:
    """The worker count when none is given: :func:`available_cpus` capped at
    :data:`MAX_WORKERS`, both read at call time.  The planner reads it for
    an engine built without ``workers``."""
    return min(MAX_WORKERS, available_cpus())


def run_compact_subproblem(subproblem: CompactSubproblem, gamma: float,
                           theta: int, branching: str = "hybrid"
                           ) -> tuple[list[frozenset], SearchStatistics]:
    """Enumerate one compact DC subproblem in-process (the per-subproblem reference).

    FastQC searches the payload itself.  The maximality filter checks
    single-vertex extensions against the ball plus its one-hop halo
    (:meth:`CompactSubproblem.maximality_rows`), which decides exactly like a
    full-graph check (any extension vertex is adjacent to the candidate set,
    hence inside ball ∪ halo) — so the emitted candidate sets are
    *identical* to sequential DCFastQC's for this root.  Returns the candidate sets and the run's
    :class:`SearchStatistics`.
    """
    engine = FastQC(subproblem, gamma, theta, branching=branching,
                    maximality_rows=subproblem.maximality_rows())
    chunk = engine.enumerate_branch(subproblem.initial_branch())
    return chunk, engine.statistics


def record_parallel_run(subproblems: Sequence[tuple], stats: SearchStatistics,
                        telemetry: dict) -> None:
    """Publish one fan-out's telemetry to the registry + LAST_PARALLEL_RUN.

    ``subproblems`` are the ``(payload, route)`` pairs the workers received.
    """
    workers, wall_seconds = telemetry["workers"], telemetry["wall_seconds"]
    _RUNS.inc()
    _SUBPROBLEMS.inc(len(subproblems))
    for subproblem, _route in subproblems:
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
