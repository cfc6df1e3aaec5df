"""Work-stealing branch parallelism: steal-protocol parity, transport, recovery.

The differential heart of this file is *branch-for-branch* parity: a stolen
subtree must reproduce exactly the candidate sets the sequential driver would
have produced from the same branch, and the donor/thief branch counts must add
up to the sequential run's.  :class:`repro.extensions.stealing.InlineStealRuntime`
drives the real scheduler surfaces deterministically (seeded steal points via
:class:`ForcedStealSchedule`), so the grid sweeps every steal cadence without
multiprocessing nondeterminism; the multiprocess tests then cover the actual
fork-inherited transport, natural hungry-driven stealing and crash fallback,
and that every run gives back each process, thread and fd it took.

Run as a script (``python tests/test_stealing.py SCENARIO`` with ``src`` on
``PYTHONPATH``), this file is the fresh interpreter the resource tests start,
so no earlier test's processes, threads or fds are in the baseline.
"""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro import MQCEEngine, QuerySpec
from repro.datasets import load_dataset
from repro.core.dcfastqc import DCFastQC
from repro.core.fastqc import FastQC
from repro.core.stats import SizeHistogram
import repro.engine.planner as planner_module
import repro.extensions.parallel as parallel_module
from repro.engine.planner import QueryPlanner
from repro.engine.prepared import PreparedGraph
from repro.extensions.parallel import ParallelDCFastQC, run_compact_subproblem
from repro.extensions.stealing import (ForcedStealSchedule, InlineStealRuntime,
                                       WorkerCrash, branch_parallel_enumerate)
from repro.graph.generators import barabasi_albert
from repro.obs import Tracer
from repro.resilience.faults import install_plan, reset_plan
from repro.settrie.filter import filter_non_maximal

GAMMA, THETA = 0.85, 4


def _subproblems(graph, gamma=GAMMA, theta=THETA):
    return tuple(DCFastQC(graph, gamma, theta).iter_compact_subproblems())


def _live_children() -> list[int]:
    """Pids of running processes whose parent is this interpreter.

    A ``/proc`` scan rather than ``multiprocessing.active_children()``, which
    misses helpers multiprocessing starts outside its child table (its
    resource tracker).  Zombies are skipped: they hold nothing but a pid.
    """
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
            found.append(int(entry))
    return found


def _resources() -> tuple[list[int], int, int]:
    """(live children, live threads, open fds) of this interpreter."""
    return (_live_children(), threading.active_count(),
            len(os.listdir("/proc/self/fd")))


def _assert_released(before) -> None:
    """No child process, thread or fd beyond those ``before`` counted.

    Inside the shared test process another test's garbage may be freed
    meanwhile, so counts may fall; the fresh-interpreter tests require them
    equal.
    """
    children, threads, fds = _resources()
    assert set(children) <= set(before[0])
    assert threads <= before[1] and fds <= before[2]


def _in_fresh_interpreter(scenario: str) -> dict:
    """Run one of this file's :data:`_SCENARIOS` in a new interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    completed = subprocess.run([sys.executable, __file__, scenario], env=env,
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


def _maximal(candidates):
    return filter_non_maximal(
        sorted(candidates, key=lambda h: (-len(h), sorted(map(str, h)))),
        theta=THETA)


def _sequential_answer(graph, gamma=GAMMA, theta=THETA):
    candidates = set()
    for subproblem in _subproblems(graph, gamma, theta):
        chunk, _ = run_compact_subproblem(subproblem, gamma, theta)
        candidates.update(chunk)
    return candidates


def _fixture_graph():
    return barabasi_albert(160, attachment=8, seed=3)


@pytest.fixture(scope="module")
def graph():
    return _fixture_graph()


@pytest.fixture(scope="module")
def subproblems(graph):
    found = _subproblems(graph)
    assert found, "fixture graph must decompose into nontrivial subproblems"
    return found


# ----------------------------------------------------------------------
# Branch-for-branch differential parity (deterministic inline protocol)
# ----------------------------------------------------------------------
class TestInlineStealParity:
    @pytest.mark.parametrize("every", [1, 2, 3])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_stolen_subtrees_reproduce_sequential_branches(
            self, subproblems, every, offset):
        total_steals = 0
        for subproblem in subproblems:
            maximality = subproblem.maximality_rows()
            reference = FastQC(subproblem, GAMMA, THETA, maximality_rows=maximality)
            expected = set(reference.enumerate_branch(subproblem.initial_branch()))

            emissions: list[frozenset] = []

            def make_engine():
                return FastQC(subproblem, GAMMA, THETA, maximality_rows=maximality,
                              on_output=emissions.append)

            donor = make_engine()
            runtime = InlineStealRuntime(
                make_engine, ForcedStealSchedule(every=every, offset=offset))
            runtime.enumerate(donor, subproblem.initial_branch())

            assert set(emissions) == expected
            combined = donor.statistics.branches_explored + sum(
                thief.statistics.branches_explored
                for thief in runtime.thief_engines)
            assert combined == reference.statistics.branches_explored
            total_steals += runtime.steals
        assert total_steals > 0, "the forced schedule must actually steal"


# ----------------------------------------------------------------------
# Multiprocess transport parity
# ----------------------------------------------------------------------
class TestBranchParallel:
    def test_forced_aggressive_stealing_matches_sequential(self, graph,
                                                           subproblems):
        expected = _sequential_answer(graph)
        before = _resources()
        results, stats, telemetry = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3,
            steal_schedule=ForcedStealSchedule(every=1))
        _assert_released(before)
        assert set(results) == expected
        assert stats.steals > 0
        assert telemetry["steals"] == stats.steals

    def test_natural_hungry_driven_stealing_matches_sequential(
            self, graph, subproblems):
        expected = _sequential_answer(graph)
        before = _resources()
        results, stats, _ = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3)
        _assert_released(before)
        assert set(results) == expected

    def test_branch_counts_add_up_to_sequential(self, graph, subproblems):
        sequential_branches = 0
        for subproblem in subproblems:
            _, stats = run_compact_subproblem(subproblem, GAMMA, THETA)
            sequential_branches += stats.branches_explored
        _, stats, _ = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3,
            steal_schedule=ForcedStealSchedule(every=2))
        assert stats.branches_explored == sequential_branches

    def test_engine_branch_query_conserves_the_sequential_counts(self, graph):
        def run(parallel):
            engine = MQCEEngine(workers=2)
            result = engine.query(graph, QuerySpec(GAMMA, THETA, parallel=parallel,
                                                   include_candidates=True),
                                  use_cache=False)
            stats = result.search_statistics
            return engine.stats()["parallel"].get("mode"), (
                stats.branches_explored, stats.outputs,
                stats.shrink_removed_one_hop, stats.shrink_removed_two_hop,
                set(result.candidate_quasi_cliques))

        branch_mode, branch_counts = run("branch")
        _, sequential_counts = run("none")
        assert branch_mode == "branch"
        assert branch_counts == sequential_counts

    @pytest.mark.parametrize("knob", [{"framework": "basic-dc"},
                                      {"max_rounds": 0},
                                      {"framework": "none"},
                                      {"maximality_filter": False}])
    def test_branch_plans_keep_the_ablation_knobs(self, knob):
        """A forced fan-out runs the spec's framework, shrink rounds and
        maximality filter, exactly as the sequential plan does (Figure 12's
        ablations through the engine)."""
        graph = load_dataset("enron")

        def run(parallel):
            spec = QuerySpec(0.9, 9, algorithm="dcfastqc", parallel=parallel, **knob)
            engine = MQCEEngine(workers=2)
            plan = engine.explain(graph, spec)
            result = engine.query(graph, spec, use_cache=False)
            return plan, (set(result.candidate_quasi_cliques),
                          result.search_statistics.branches_explored)

        branch_plan, branch_run = run("branch")
        none_plan, none_run = run("none")
        assert branch_run == none_run
        framework = knob.get("framework", "dc")
        assert branch_plan.framework == none_plan.framework == framework
        # Only divide-and-conquer subproblems fan out.
        assert branch_plan.parallel == (framework != "none")
        assert not none_plan.parallel

    def test_workers_fork_from_a_single_threaded_coordinator(self):
        # Python 3.12+ warns once per fork of a multi-threaded process, which
        # a queue put before forking makes the coordinator.
        report = _in_fresh_interpreter("fork-warnings")
        assert report["fork_warnings"] == []


# ----------------------------------------------------------------------
# Crash recovery (reuses the PR-9 worker.task fault site)
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_killed_worker_falls_back_sequential_without_shm_leak(self, graph):
        expected = _maximal(_sequential_answer(graph))
        before = _resources()
        install_plan("worker.task:kill:times=1")
        try:
            runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2)
            answers = runner.find_maximal()
        finally:
            reset_plan()
        _assert_released(before)
        assert runner.mode_selected == "sequential"
        assert sorted(map(sorted, answers)) == sorted(map(sorted, expected))

    def test_runs_give_back_every_process_thread_and_fd(self):
        # In a fresh interpreter, so nothing an earlier test started (such as
        # a resource tracker) hides in the baseline.
        report = _in_fresh_interpreter("release")
        before = report["before"]
        assert before[0] == []
        assert report["after_run"] == before
        assert report["mode"] == "sequential"
        assert report["after_kill"] == before

    def test_killed_worker_with_a_deep_backlog_lets_the_interpreter_exit(self):
        # More queued tasks than one pipe holds: with the workers dead, only
        # the coordinator can read them, or its feeder thread blocks the
        # interpreter's exit (the subprocess timeout fails the test).
        report = _in_fresh_interpreter("deep-backlog-kill")
        assert report["crashed"] and report["tasks"] >= 4000


# ----------------------------------------------------------------------
# Satellite 1: no pointless pools
# ----------------------------------------------------------------------
class TestInProcessFallback:
    def test_workers_one_never_spawns_a_pool(self, graph, monkeypatch):
        import repro.extensions.parallel as parallel_module

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(parallel_module, "branch_parallel_enumerate", _boom)
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=1)
        answers = runner.enumerate()
        assert runner.mode_selected == "sequential"
        assert set(answers) == _sequential_answer(graph)

    def test_cpu_count_none_defaults_to_one_worker(self, monkeypatch):
        import repro.extensions.parallel as parallel_module
        # Without sched_getaffinity the default falls back to os.cpu_count(),
        # which may return None.
        monkeypatch.delattr(parallel_module.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
        runner = ParallelDCFastQC(barabasi_albert(30, attachment=3, seed=1),
                                  GAMMA, THETA)
        assert runner.workers == 1

    def test_single_affinity_cpu_defaults_to_one_worker(self, graph,
                                                        monkeypatch):
        import repro.extensions.parallel as parallel_module
        # A taskset or CPU-limited container: the machine reports many CPUs,
        # but this process may run on only one of them.
        monkeypatch.setattr(parallel_module.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(planner_module, "PARALLEL_MIN_VERTICES", 1)
        plan = QueryPlanner().plan(PreparedGraph(graph), QuerySpec(GAMMA, THETA))
        assert not plan.parallel and plan.workers == 1
        assert ParallelDCFastQC(graph, GAMMA, THETA).workers == 1


# ----------------------------------------------------------------------
# Planner: when the gate opens, and that every fan-out runs branch mode
# ----------------------------------------------------------------------
def _branch_histogram(branches=50_000, subproblems=10):
    histogram = SizeHistogram()
    for _ in range(subproblems):
        histogram.record(branches // subproblems)
    return histogram


#: The 160-vertex fixture core clears this size threshold on size alone ...
SIZE_GATE = 32
#: ... and no core is this large: only observed branch counts open the gate.
WORK_GATE = 10**9


class TestPlannerModeSelection:
    """Plans are memoized per preparation, so each gate setting below plans
    on a fresh ``PreparedGraph``."""

    @staticmethod
    def _gate(monkeypatch, min_vertices):
        monkeypatch.setattr(planner_module, "PARALLEL_MIN_VERTICES", min_vertices)
        monkeypatch.setattr(parallel_module, "MAX_WORKERS", 4)
        return QueryPlanner()

    def test_every_fan_out_plan_runs_branch_mode(self, graph, monkeypatch):
        expected = set(_maximal(_sequential_answer(graph)))
        before = _resources()
        observed = PreparedGraph(graph)
        observed.record_subproblem_histogram(GAMMA, THETA, _branch_histogram())
        stock = planner_module.PARALLEL_MIN_VERTICES
        cases = ((SIZE_GATE, PreparedGraph(graph), "auto"),
                 (WORK_GATE, observed, "auto"),
                 (stock, PreparedGraph(graph), "branch"))
        for min_vertices, prepared, parallel in cases:
            self._gate(monkeypatch, min_vertices)
            engine = MQCEEngine(workers=2)
            spec = QuerySpec(GAMMA, THETA, parallel=parallel)
            assert engine.explain(prepared, spec=spec).parallel
            tracer = Tracer()
            result = engine.query(prepared, spec=spec, use_cache=False,
                                  trace=tracer)
            root = tracer.as_dict()["spans"][0]
            enumerate_span = next(span for span in root["children"]
                                  if span["name"] == "enumerate")
            assert enumerate_span.get("attributes", {}).get("mode") == "branch"
            assert engine.stats()["parallel"]["mode"] == "branch"
            assert set(result.maximal_quasi_cliques) == expected
        _assert_released(before)

    def test_explain_names_the_evidence_that_opened_the_gate(self, graph,
                                                              monkeypatch):
        by_size = self._gate(monkeypatch, SIZE_GATE).plan(
            PreparedGraph(graph), QuerySpec(GAMMA, THETA))
        assert by_size.parallel
        assert (f"core of {by_size.core_vertices_kept} vertices exceeds the "
                "parallel threshold (32)") in by_size.describe()

        prepared = PreparedGraph(graph)
        prepared.record_subproblem_histogram(GAMMA, THETA, _branch_histogram())
        by_work = self._gate(monkeypatch, WORK_GATE).plan(
            prepared, QuerySpec(GAMMA, THETA))
        assert by_work.parallel
        assert "an observed run explored 50000 branches" in by_work.describe()

    @pytest.mark.parametrize("cap", [1, 3])
    def test_one_cap_sets_both_default_worker_counts(self, graph, monkeypatch,
                                                     cap):
        """A planned query and a directly built runner default to the same
        worker count, so patching the one cap moves both."""
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 16)
        monkeypatch.setattr(parallel_module, "MAX_WORKERS", cap)
        assert ParallelDCFastQC(graph, GAMMA, THETA).workers == cap
        plan = QueryPlanner().plan(PreparedGraph(graph),
                                   QuerySpec(GAMMA, THETA, parallel="branch"))
        assert plan.workers == cap and plan.parallel == (cap > 1)

    @pytest.mark.parametrize("workers", [2, None])
    def test_declined_reason_names_both_gates(self, graph, monkeypatch,
                                              workers):
        # Default workers are the affinity CPUs: make that 2 on any host.
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 2)
        engine = MQCEEngine(workers=workers)
        prepared = PreparedGraph(graph)
        spec = QuerySpec(GAMMA, THETA)

        def declined_reason():
            plan = engine.explain(prepared, spec=spec)
            assert not plan.parallel
            [reason] = [r for r in plan.reasons if "parallelism declined" in r]
            assert (f"core of {plan.core_vertices_kept} vertices < "
                    "parallel_min_vertices (2048)") in reason
            assert "parallel_min_branches (4096)" in reason
            return reason

        assert "no completed run yet" in declined_reason()
        engine.query(prepared, spec=spec, use_cache=False)
        total = prepared.subproblem_branch_histogram(GAMMA, THETA).total
        assert (f"a completed run explored {total} branches < "
                "parallel_min_branches (4096)") in declined_reason()

    def test_forced_modes_and_none(self, graph, monkeypatch):
        prepared = PreparedGraph(graph)
        planner = QueryPlanner()
        # Default thresholds: the 160-vertex fixture never opens the gate.
        assert not planner.plan(prepared, QuerySpec(GAMMA, THETA), workers=4).parallel
        forced = planner.plan(prepared, QuerySpec(GAMMA, THETA, parallel="branch"),
                              workers=4)
        assert forced.parallel and forced.workers == 4
        assert "forced by the caller" in forced.describe()
        disabled = self._gate(monkeypatch, SIZE_GATE).plan(
            PreparedGraph(graph), QuerySpec(GAMMA, THETA, parallel="none"), workers=4)
        assert not disabled.parallel and disabled.workers == 1

    def test_new_observation_invalidates_the_plan_memo(self, graph, monkeypatch):
        prepared = PreparedGraph(graph)
        planner = self._gate(monkeypatch, WORK_GATE)
        cold = planner.plan(prepared, QuerySpec(GAMMA, THETA), workers=4)
        assert not cold.parallel
        prepared.record_subproblem_histogram(GAMMA, THETA, _branch_histogram())
        warm = planner.plan(prepared, QuerySpec(GAMMA, THETA), workers=4)
        assert warm.parallel and warm.workers == 4


# ----------------------------------------------------------------------
# Fresh-interpreter scenarios (``python tests/test_stealing.py SCENARIO``)
# ----------------------------------------------------------------------
def _scenario_release() -> dict:
    """Resources before, after a normal run and after the kill fallback."""
    graph = _fixture_graph()
    before = _resources()
    branch_parallel_enumerate(_subproblems(graph), GAMMA, THETA, workers=2)
    after_run = _resources()
    install_plan("worker.task:kill:times=1")
    try:
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2)
        runner.enumerate()
    finally:
        reset_plan()
    return {"before": before, "after_run": after_run,
            "after_kill": _resources(), "mode": runner.mode_selected}


def _scenario_deep_backlog_kill() -> dict:
    """Kill the workers while ~4,000 tasks (several pipes' worth) are queued."""
    subproblems = _subproblems(_fixture_graph())
    backlog = subproblems * (4000 // len(subproblems) + 1)
    install_plan("worker.task:kill:times=1")
    try:
        branch_parallel_enumerate(backlog, GAMMA, THETA, workers=2)
    except WorkerCrash:
        return {"crashed": True, "tasks": len(backlog)}
    return {"crashed": False, "tasks": len(backlog)}


def _scenario_fork_warnings() -> dict:
    """Every warning a branch-parallel run raises that names ``fork()``."""
    subproblems = _subproblems(_fixture_graph())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        branch_parallel_enumerate(subproblems, GAMMA, THETA, workers=2)
    return {"fork_warnings": [str(warning.message) for warning in caught
                              if "fork()" in str(warning.message)]}


_SCENARIOS = {"release": _scenario_release,
              "deep-backlog-kill": _scenario_deep_backlog_kill,
              "fork-warnings": _scenario_fork_warnings}


if __name__ == "__main__":
    print(json.dumps(_SCENARIOS[sys.argv[1]]()))
