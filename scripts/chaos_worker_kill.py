#!/usr/bin/env python
"""Chaos-smoke leg: kill a work-stealing worker mid-fan-out and prove full recovery.

Lowers DCFastQC's branch budget so a run fans out inside its giant
subproblem, with frames of its own parked on the branches it published, arms
the ``worker.task`` fault site to kill a steal worker (``os._exit``, the
in-process equivalent of SIGKILL) inside its first task, and requires the
crash to fall back to the in-process run with an answer identical to a clean
one — and, the point of the leg, that no child process of this interpreter
is left running after the fallback (a ``/proc`` scan, which also sees helper
processes that ``multiprocessing`` does not list as children).

Run from the repo root:  PYTHONPATH=src python scripts/chaos_worker_kill.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, "src")

import repro.core.dcfastqc as dcfastqc_module
from repro.core.dcfastqc import DCFastQC
from repro.graph.generators import planted_quasi_clique_graph
from repro.obs import Tracer
from repro.resilience.faults import install_plan, reset_plan
from repro.settrie.filter import filter_non_maximal

GAMMA, THETA = 0.9, 9
#: Spent 60 branches into the planted community's subproblem, which holds
#: 981 of the run's 1,446 branches.
BUDGET = 64


def _live_children() -> list[str]:
    """Running (non-zombie) processes whose parent is this interpreter."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if parent == me and state != "Z":
            found.append(entry)
    return found


def main() -> int:
    """SIGKILL a steal worker during a mid-subproblem fan-out; require
    fallback parity and no child process left behind."""
    graph = planted_quasi_clique_graph(800, 2000, [24], GAMMA, seed=11)
    expected = set(filter_non_maximal(
        DCFastQC(graph, GAMMA, THETA).enumerate(), theta=THETA))
    dcfastqc_module.FAN_OUT_BRANCHES = BUDGET
    tracer = Tracer()
    install_plan("worker.task:kill:times=1")
    try:
        runner = DCFastQC(graph, GAMMA, THETA, workers=2, tracer=tracer)
        answers = set(filter_non_maximal(runner.enumerate(), theta=THETA))
    finally:
        reset_plan()
    fan_outs = [span.attributes for span in tracer.spans if span.name == "fan_out"]
    if len(fan_outs) != 1 or not fan_outs[0]["taken"]:
        raise SystemExit(f"expected one mid-subproblem fan-out, got {fan_outs}")
    if runner.mode_selected != "sequential":
        raise SystemExit("the killed worker did not trigger the in-process "
                         f"fallback (got {runner.mode_selected!r})")
    if answers != expected:
        raise SystemExit(
            f"fan-out fallback parity broken: {len(answers)} cliques "
            f"vs in-process {len(expected)}")
    leaked = _live_children()
    if leaked:
        raise SystemExit(f"child processes still running after the worker "
                         f"kill: pids {leaked}")
    print(f"worker kill at a fan-out after {fan_outs[0]['branches']} branches "
          f"({fan_outs[0]['taken']} taken off the stack): in-process fallback "
          f"matches parity ({len(answers)} cliques), no child process left")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
