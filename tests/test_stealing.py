"""Work-stealing branch parallelism: steal-protocol parity, transport, recovery.

The differential heart of this file is *branch-for-branch* parity: a stolen
subtree must reproduce exactly the candidate sets the sequential driver would
have produced from the same branch, and the donor/thief branch counts must add
up to the sequential run's.  :class:`repro.extensions.stealing.InlineStealRuntime`
drives the real scheduler surfaces deterministically (seeded steal points via
:class:`ForcedStealSchedule`), so the grid sweeps every steal cadence without
multiprocessing nondeterminism; the multiprocess tests then cover the actual
fork-inherited transport, natural hungry-driven stealing, DCFastQC's fan-out
at every point a run can reach its branch budget (before the first
subproblem, at a subproblem boundary, mid-subproblem), crash fallback, and
that every run gives back each process, thread and fd it took.

Run as a script (``python tests/test_stealing.py SCENARIO`` with ``src`` on
``PYTHONPATH``), this file is the fresh interpreter the resource tests start,
so no earlier test's processes, threads or fds are in the baseline.
"""

import json
import multiprocessing.process
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro import MQCEEngine, QuerySpec
from repro.datasets import load_dataset
import repro.core.dcfastqc as dcfastqc_module
from repro.core.dcfastqc import FAN_OUT_BRANCHES, DCFastQC
from repro.core.fastqc import FastQC
import repro.extensions.parallel as parallel_module
import repro.extensions.stealing as stealing_module
from repro.engine.planner import QueryPlanner
from repro.engine.prepared import PreparedGraph
from repro.extensions.parallel import LAST_PARALLEL_RUN, default_workers
from repro.extensions.stealing import (ForcedStealSchedule, InlineStealRuntime,
                                       WorkerCrash, branch_parallel_enumerate)
from repro.graph.generators import barabasi_albert, planted_quasi_clique_graph
from repro.obs import Tracer
from repro.resilience.faults import install_plan, reset_plan
from repro.serve import ReproService, ServeClient, start_in_thread
from repro.settrie.filter import filter_non_maximal

GAMMA, THETA = 0.85, 4

REPO = Path(__file__).resolve().parent.parent


def _subproblems(graph, gamma=GAMMA, theta=THETA):
    """The run's ``(payload, maximality route)`` pairs, as a fan-out
    publishes them."""
    return tuple(DCFastQC(graph, gamma, theta)._iter_payloads())


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
    return set(DCFastQC(graph, gamma, theta).enumerate())


def _fixture_graph():
    return barabasi_albert(160, attachment=8, seed=3)


def _planted_skew():
    """One 24-vertex community in a sparse background: one subproblem holds
    981 of the run's 1,446 branches (at 0.9, 9)."""
    return planted_quasi_clique_graph(800, 2000, [24], 0.9, seed=11)


def _counts(statistics):
    return (statistics.branches_explored, statistics.outputs,
            statistics.shrink_removed_one_hop, statistics.shrink_removed_two_hop)


def _fan_out_spans(tracer) -> list[dict]:
    found = []

    def walk(span):
        if span["name"] == "fan_out":
            found.append(span["attributes"])
        for child in span.get("children", ()):
            walk(child)

    for span in tracer.as_dict()["spans"]:
        walk(span)
    return found


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
        for subproblem, (rows, index) in subproblems:
            reference = FastQC(subproblem, GAMMA, THETA, maximality_rows=rows,
                               maximality_index=index)
            expected = set(reference.enumerate_branch(subproblem.initial_branch()))

            emissions: list[frozenset] = []

            def make_engine():
                return FastQC(subproblem, GAMMA, THETA, maximality_rows=rows,
                              maximality_index=index, on_output=emissions.append)

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
        results, stats, telemetry, _verdicts = branch_parallel_enumerate(
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
        results, stats, _, _ = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3)
        _assert_released(before)
        assert set(results) == expected

    def test_branch_counts_add_up_to_sequential(self, graph, subproblems):
        sequential = DCFastQC(graph, GAMMA, THETA)
        sequential.enumerate()
        _, stats, _, verdicts = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3,
            steal_schedule=ForcedStealSchedule(every=2))
        assert stats.branches_explored == sequential.statistics.branches_explored
        # One verdict per seeded root, each the subtree's found flag.
        assert len(verdicts) == len(subproblems)
        assert all(isinstance(verdict, bool) for verdict in verdicts)

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
# DCFastQC's fan-out: parity wherever the budget runs out
# ----------------------------------------------------------------------
#: Budgets that reach the fan-out before the first subproblem (0) or inside
#: one; :func:`_boundary_budget` adds one spent exactly at a boundary.
BUDGETS = (0, 1, 2, 64, 65, 1000)


def _boundary_budget(graph, gamma, theta) -> int:
    """The first subproblem's branch count: a run with this budget spends it
    on that subproblem's last branch and fans out at the boundary after it."""
    payload, (rows, index) = _subproblems(graph, gamma, theta)[0]
    engine = FastQC(payload, gamma, theta, maximality_rows=rows,
                    maximality_index=index)
    engine.enumerate_branch(payload.initial_branch())
    return engine.statistics.branches_explored


#: ``(graph, gamma, theta, maximality_filter)`` per fan-out case.  Without
#: the maximality filter, the fixture at (0.9, 3) emits a ``G[S]`` fallback
#: from a parked frame, so a wrong verdict for a taken branch shows.
FAN_OUT_CASES = {
    "fixture": lambda: (_fixture_graph(), GAMMA, THETA, True),
    "planted-skew": lambda: (_planted_skew(), 0.9, 9, True),
    "fixture-unfiltered": lambda: (_fixture_graph(), 0.9, 3, False),
}


class TestFanOut:
    @pytest.mark.parametrize("name", sorted(FAN_OUT_CASES))
    def test_every_fan_out_point_reproduces_the_in_process_run(
            self, name, monkeypatch):
        graph, gamma, theta, maximality_filter = FAN_OUT_CASES[name]()
        reference = DCFastQC(graph, gamma, theta, maximality_filter=maximality_filter)
        expected = reference.enumerate()
        before = _resources()
        points = set()
        budgets = BUDGETS + (_boundary_budget(graph, gamma, theta),)
        runs = [(budget, "auto") for budget in budgets] + [(FAN_OUT_BRANCHES, "branch")]
        for budget, parallel in runs:
            monkeypatch.setattr(dcfastqc_module, "FAN_OUT_BRANCHES", budget)
            tracer = Tracer()
            runner = DCFastQC(graph, gamma, theta, workers=2, parallel=parallel,
                              maximality_filter=maximality_filter, tracer=tracer)
            candidates = runner.enumerate()
            assert runner.mode_selected == "branch"
            assert sorted(map(sorted, candidates)) == sorted(map(sorted, expected))
            assert _counts(runner.statistics) == _counts(reference.statistics)
            [span] = _fan_out_spans(tracer)
            assert span["workers"] == 2 and span["tasks"] >= 1
            assert span["branches"] >= (0 if parallel == "branch" else budget)
            if span["taken"]:  # the budget is checked before every branch
                assert span["branches"] == budget
            points.add("first" if span["branches"] == 0
                       else "mid" if span["taken"] else "boundary")
        _assert_released(before)
        assert points == {"first", "boundary", "mid"}

    def test_a_run_within_its_budget_never_forks(self, graph, monkeypatch):
        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a run within its budget must not fan out")

        monkeypatch.setattr(stealing_module, "branch_parallel_enumerate", _boom)
        runner = DCFastQC(graph, GAMMA, THETA, workers=2)
        assert set(runner.enumerate()) == _sequential_answer(graph)
        assert runner.statistics.branches_explored < FAN_OUT_BRANCHES
        assert runner.mode_selected == "sequential"


def _counting_forks(monkeypatch) -> dict:
    """Count coordinator calls and process starts from here on."""
    counts = {"coordinator": 0, "processes": 0}
    coordinator = stealing_module.branch_parallel_enumerate
    start = multiprocessing.process.BaseProcess.start

    def counted_coordinator(*args, **kwargs):
        counts["coordinator"] += 1
        return coordinator(*args, **kwargs)

    def counted_start(process):
        counts["processes"] += 1
        return start(process)

    monkeypatch.setattr(stealing_module, "branch_parallel_enumerate",
                        counted_coordinator)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    return counts


class TestNothingForksThatShouldNot:
    def test_no_registry_grid_query_fans_out(self, monkeypatch):
        sys.path.insert(0, str(REPO / "perfbench"))
        try:
            from grid import registry_grid
        finally:
            sys.path.remove(str(REPO / "perfbench"))
        counts = _counting_forks(monkeypatch)
        engine = MQCEEngine(workers=2)
        graphs = {}
        points = registry_grid()
        assert len(points) == 52
        for name, gamma, theta in points:
            graph = graphs.get(name) or graphs.setdefault(name, load_dataset(name))
            result = engine.query(graph, QuerySpec(gamma, theta), use_cache=False)
            assert result.search_statistics.branches_explored < FAN_OUT_BRANCHES
        assert counts == {"coordinator": 0, "processes": 0}

    def test_streams_and_served_queries_stay_in_process(self, monkeypatch):
        graph = load_dataset("wordnet")
        spec = QuerySpec(0.7, 4)
        expected = set(MQCEEngine(workers=1).query(graph, spec).maximal_quasi_cliques)
        counts = _counting_forks(monkeypatch)
        assert set(MQCEEngine(workers=2).stream(graph, spec)) == expected
        service = ReproService()
        service.add_graph("wordnet", graph)
        with start_in_thread(service) as handle:
            with ServeClient(port=handle.port) as client:
                served, _done = client.query({"gamma": 0.7, "theta": 4},
                                             graph="wordnet")
        assert {frozenset(clique) for clique in served} == expected
        assert counts == {"coordinator": 0, "processes": 0}
        # The same spec through engine.query passes the budget and fans out.
        result = MQCEEngine(workers=2).query(graph, spec, use_cache=False)
        assert result.search_statistics.branches_explored >= FAN_OUT_BRANCHES
        assert set(result.maximal_quasi_cliques) == expected
        assert counts["coordinator"] == 1 and counts["processes"] == 2


# ----------------------------------------------------------------------
# Crash recovery (reuses the PR-9 worker.task fault site)
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_killed_worker_falls_back_sequential_without_shm_leak(self, monkeypatch):
        # The budget runs out mid-subproblem (see TestFanOut), so the parent
        # has parked frames when the worker dies.
        graph = _planted_skew()
        expected = _maximal(_sequential_answer(graph, 0.9, 9))
        monkeypatch.setattr(dcfastqc_module, "FAN_OUT_BRANCHES", 64)
        before = _resources()
        install_plan("worker.task:kill:times=1")
        try:
            runner = DCFastQC(graph, 0.9, 9, workers=2)
            answers = filter_non_maximal(runner.enumerate(), theta=9)
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
        assert report["modes"] == ["branch", "sequential"]
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
        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(stealing_module, "branch_parallel_enumerate", _boom)
        runner = DCFastQC(graph, GAMMA, THETA, workers=1, parallel="branch")
        answers = runner.enumerate()
        assert runner.mode_selected is None  # the run could not fan out
        assert set(answers) == _sequential_answer(graph)

    def test_cpu_count_none_defaults_to_one_worker(self, monkeypatch):
        # Without sched_getaffinity the default falls back to os.cpu_count(),
        # which may return None.
        monkeypatch.delattr(parallel_module.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
        assert default_workers() == 1
        plan = QueryPlanner().plan(PreparedGraph(barabasi_albert(30, attachment=3, seed=1)),
                                   QuerySpec(GAMMA, THETA, parallel="branch"))
        assert not plan.parallel and plan.workers == 1

    def test_single_affinity_cpu_defaults_to_one_worker(self, graph,
                                                        monkeypatch):
        # A taskset or CPU-limited container: the machine reports many CPUs,
        # but this process may run on only one of them.
        monkeypatch.setattr(parallel_module.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
        plan = QueryPlanner().plan(PreparedGraph(graph), QuerySpec(GAMMA, THETA))
        assert not plan.parallel and plan.workers == 1
        assert default_workers() == 1


# ----------------------------------------------------------------------
# Planner: what a plan says about the fan-out, and that every fan-out runs
# branch mode
# ----------------------------------------------------------------------
class TestPlannerModeSelection:
    """Plans are memoized per preparation, so each case below plans on a
    fresh ``PreparedGraph``."""

    def test_every_fan_out_plan_runs_branch_mode(self, graph, monkeypatch):
        expected = set(_maximal(_sequential_answer(graph)))
        before = _resources()
        monkeypatch.setattr(parallel_module, "MAX_WORKERS", 4)
        for budget, parallel in ((0, "auto"), (64, "auto"),
                                 (FAN_OUT_BRANCHES, "branch")):
            monkeypatch.setattr(dcfastqc_module, "FAN_OUT_BRANCHES", budget)
            prepared = PreparedGraph(graph)
            engine = MQCEEngine(workers=2)
            spec = QuerySpec(GAMMA, THETA, parallel=parallel)
            assert engine.explain(prepared, spec=spec).parallel
            LAST_PARALLEL_RUN.clear()
            tracer = Tracer()
            result = engine.query(prepared, spec=spec, use_cache=False,
                                  trace=tracer)
            root = tracer.as_dict()["spans"][0]
            enumerate_span = next(span for span in root["children"]
                                  if span["name"] == "enumerate")
            assert enumerate_span.get("attributes", {}).get("mode") == "branch"
            assert [span["name"] for span in enumerate_span["children"]
                    ].count("fan_out") == 1
            assert engine.stats()["parallel"]["mode"] == "branch"
            assert set(result.maximal_quasi_cliques) == expected
        _assert_released(before)

    def test_explain_names_the_budget_the_force_or_none(self, graph):
        planner = QueryPlanner()
        auto = planner.plan(PreparedGraph(graph), QuerySpec(GAMMA, THETA), workers=4)
        assert auto.parallel and auto.workers == 4
        assert (f"fans out to 4 work-stealing workers once the run has "
                f"explored {FAN_OUT_BRANCHES} branches") in auto.describe()
        forced = planner.plan(PreparedGraph(graph),
                              QuerySpec(GAMMA, THETA, parallel="branch"), workers=4)
        assert forced.parallel and "'branch' forced by the caller" in forced.describe()
        disabled = planner.plan(PreparedGraph(graph),
                                QuerySpec(GAMMA, THETA, parallel="none"), workers=4)
        assert not disabled.parallel and disabled.workers == 1
        assert "parallel='none'" in disabled.describe()

    @pytest.mark.parametrize("cap", [1, 3])
    def test_one_cap_sets_both_default_worker_counts(self, graph, monkeypatch,
                                                     cap):
        """An engine built without ``workers`` plans with
        :func:`default_workers`, so patching the one cap moves both."""
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 16)
        monkeypatch.setattr(parallel_module, "MAX_WORKERS", cap)
        assert default_workers() == cap
        plan = QueryPlanner().plan(PreparedGraph(graph),
                                   QuerySpec(GAMMA, THETA, parallel="branch"))
        assert plan.workers == cap and plan.parallel == (cap > 1)

    @pytest.mark.parametrize("workers", [2, None])
    def test_auto_plan_names_the_budget(self, graph, monkeypatch, workers):
        # Default workers are the affinity CPUs: make that 2 on any host.
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 2)
        engine = MQCEEngine(workers=workers)
        prepared = PreparedGraph(graph)
        plan = engine.explain(prepared, spec=QuerySpec(GAMMA, THETA))
        assert plan.parallel and plan.workers == 2
        [reason] = [r for r in plan.reasons if "work-stealing workers" in r]
        assert f"once the run has explored {FAN_OUT_BRANCHES} branches" in reason

    def test_forced_modes_and_none(self, graph):
        prepared = PreparedGraph(graph)
        planner = QueryPlanner()
        # A divide-and-conquer plan with several workers may fan out ...
        auto = planner.plan(prepared, QuerySpec(GAMMA, THETA), workers=4)
        assert auto.parallel and auto.workers == 4
        forced = planner.plan(prepared, QuerySpec(GAMMA, THETA, parallel="branch"),
                              workers=4)
        assert forced.parallel and forced.workers == 4
        assert "forced by the caller" in forced.describe()
        # ... unless the caller says none, or there is one worker.
        disabled = planner.plan(prepared, QuerySpec(GAMMA, THETA, parallel="none"),
                                workers=4)
        assert not disabled.parallel and disabled.workers == 1
        single = planner.plan(prepared, QuerySpec(GAMMA, THETA), workers=1)
        assert not single.parallel and single.workers == 1

    def test_planning_after_a_run_gives_the_plan_that_ran(self, graph):
        engine = MQCEEngine(workers=2)
        prepared = PreparedGraph(graph)
        spec = QuerySpec(GAMMA, THETA)
        before = engine.explain(prepared, spec=spec)
        engine.query(prepared, spec=spec, use_cache=False)
        after = engine.explain(prepared, spec=spec)
        assert after == before
        assert QueryPlanner().plan(PreparedGraph(graph), spec, workers=2) == before


# ----------------------------------------------------------------------
# Fresh-interpreter scenarios (``python tests/test_stealing.py SCENARIO``)
# ----------------------------------------------------------------------
def _scenario_release() -> dict:
    """Resources before, after a mid-subproblem fan-out and after the kill
    fallback of the same run."""
    dcfastqc_module.FAN_OUT_BRANCHES = 64
    graph = _planted_skew()
    before = _resources()
    fanned = DCFastQC(graph, 0.9, 9, workers=2)
    fanned.enumerate()
    after_run = _resources()
    install_plan("worker.task:kill:times=1")
    try:
        killed = DCFastQC(graph, 0.9, 9, workers=2)
        killed.enumerate()
    finally:
        reset_plan()
    return {"before": before, "after_run": after_run,
            "after_kill": _resources(),
            "modes": [fanned.mode_selected, killed.mode_selected]}


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
    """Every warning a fan-out raises that names ``fork()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        DCFastQC(_fixture_graph(), GAMMA, THETA, workers=2,
                 parallel="branch").enumerate()
    return {"fork_warnings": [str(warning.message) for warning in caught
                              if "fork()" in str(warning.message)]}


_SCENARIOS = {"release": _scenario_release,
              "deep-backlog-kill": _scenario_deep_backlog_kill,
              "fork-warnings": _scenario_fork_warnings}


if __name__ == "__main__":
    print(json.dumps(_SCENARIOS[sys.argv[1]]()))
