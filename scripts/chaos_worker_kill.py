#!/usr/bin/env python
"""Chaos-smoke leg: kill a work-stealing worker mid-task and prove full recovery.

Arms the ``worker.task`` fault site to kill a branch-parallel steal worker
(``os._exit``, the in-process equivalent of SIGKILL) inside its first task,
runs ``ParallelDCFastQC`` and requires the crash to fall back to the
sequential path with an answer identical to a clean sequential run — and, the
point of the leg, that every ``/dev/shm`` shared-memory segment the steal
coordinator published was unlinked despite the crash.

Run from the repo root:  PYTHONPATH=src python scripts/chaos_worker_kill.py
"""

from __future__ import annotations

import glob
import random
import sys

sys.path.insert(0, "src")

from repro import Graph
from repro.core.dcfastqc import DCFastQC
from repro.extensions.parallel import ParallelDCFastQC
from repro.extensions.stealing import SEGMENT_PREFIX
from repro.resilience.faults import install_plan, reset_plan
from repro.settrie.filter import filter_non_maximal

GAMMA, THETA = 0.85, 4


def _random_graph(seed: int = 11, vertices: int = 36, edges: int = 260) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    while graph.edge_count < edges:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            graph.add_edge(u, v)
    return graph


def main() -> int:
    """SIGKILL a branch-parallel steal worker; require fallback parity and
    zero leaked shared-memory segments."""
    graph = _random_graph(seed=23)
    expected = set(filter_non_maximal(
        DCFastQC(graph, GAMMA, THETA).enumerate(), theta=THETA))
    install_plan("worker.task:kill:times=1")
    try:
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2)
        answers = set(runner.find_maximal())
    finally:
        reset_plan()
    if runner.mode_selected != "sequential":
        raise SystemExit("the killed branch worker did not trigger the "
                         f"sequential fallback (got {runner.mode_selected!r})")
    if answers != expected:
        raise SystemExit(
            f"branch-parallel fallback parity broken: {len(answers)} cliques "
            f"vs sequential {len(expected)}")
    leaked = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    if leaked:
        raise SystemExit(f"leaked shared-memory segments after the worker "
                         f"kill: {leaked}")
    print(f"branch-parallel kill: sequential fallback matches parity "
          f"({len(answers)} cliques), /dev/shm clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
