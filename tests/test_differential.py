"""Differential test harness: every execution path must produce identical answers.

One parametrized suite cross-checks the brute-force reference against every
MQCE-S1 algorithm (FastQC, DCFastQC, Quick+) and both engine delivery paths
(``MQCEEngine.query`` and ``MQCEEngine.stream``) on a grid of seeded random
graphs that varies the vertex count, the edge density, gamma and theta.  This
replaces ad-hoc pairwise comparisons: any divergence between any two paths
shows up as a failure against the same brute-force ground truth.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Graph, MQCEEngine
from repro.api import QuerySpec
from repro.graph.generators import erdos_renyi_gnm, planted_quasi_clique_graph
from repro.oracle import reference_enumeration
from repro.pipeline.mqce import canonical_order, run_enumeration
from repro.quasiclique import enumerate_maximal_quasi_cliques_bruteforce

#: (case id, graph builder, gamma, theta) — graphs stay <= 13 vertices so the
#: brute-force oracle runs in milliseconds.
CASES = [
    ("sparse-n8", lambda: erdos_renyi_gnm(8, 10, seed=11), 0.6, 2),
    ("sparse-n10", lambda: erdos_renyi_gnm(10, 14, seed=12), 0.7, 3),
    ("medium-n10", lambda: erdos_renyi_gnm(10, 22, seed=13), 0.8, 3),
    ("dense-n9", lambda: erdos_renyi_gnm(9, 28, seed=14), 0.9, 4),
    ("dense-n12", lambda: erdos_renyi_gnm(12, 40, seed=15), 0.9, 4),
    ("planted-n12", lambda: planted_quasi_clique_graph(12, 10, [5], 0.9, seed=16), 0.9, 4),
    ("planted-n13", lambda: planted_quasi_clique_graph(13, 12, [5, 4], 0.85, seed=17), 0.8, 3),
    ("half-gamma-n9", lambda: erdos_renyi_gnm(9, 16, seed=18), 0.5, 2),
    ("full-gamma-n10", lambda: erdos_renyi_gnm(10, 24, seed=19), 1.0, 3),
    ("tiny-theta1-n7", lambda: erdos_renyi_gnm(7, 8, seed=20), 0.75, 1),
]

#: Execution paths under test.  Each maps a (graph, gamma, theta) query to a
#: canonically ordered list of maximal quasi-cliques.  Each FastQC-family
#: algorithm runs twice: in production (incremental ledger branch states,
#: compact DC subproblems) and on :mod:`repro.oracle` (the original
#: mask/popcount implementation).
EXECUTORS = {
    "fastqc": lambda graph, gamma, theta: run_enumeration(
        graph, QuerySpec(gamma=gamma, theta=theta, algorithm="fastqc")
    ).maximal_quasi_cliques,
    "fastqc-reference": lambda graph, gamma, theta: reference_enumeration(
        graph, QuerySpec(gamma=gamma, theta=theta, algorithm="fastqc")
    ).maximal_quasi_cliques,
    "dcfastqc": lambda graph, gamma, theta: run_enumeration(
        graph, QuerySpec(gamma=gamma, theta=theta, algorithm="dcfastqc")
    ).maximal_quasi_cliques,
    "dcfastqc-reference": lambda graph, gamma, theta: reference_enumeration(
        graph, QuerySpec(gamma=gamma, theta=theta, algorithm="dcfastqc")
    ).maximal_quasi_cliques,
    "quickplus": lambda graph, gamma, theta: run_enumeration(
        graph, QuerySpec(gamma=gamma, theta=theta, algorithm="quickplus")
    ).maximal_quasi_cliques,
    "quickplus-reference": lambda graph, gamma, theta: reference_enumeration(
        graph, QuerySpec(gamma=gamma, theta=theta, algorithm="quickplus")
    ).maximal_quasi_cliques,
    "engine-query": lambda graph, gamma, theta: MQCEEngine().query(
        graph, QuerySpec(gamma, theta)).maximal_quasi_cliques,
    "engine-stream": lambda graph, gamma, theta: canonical_order(
        list(MQCEEngine().stream(graph, QuerySpec(gamma, theta)))),
}

_ORACLE_CACHE: dict[str, tuple[Graph, list[frozenset]]] = {}


def _case(case_id: str) -> tuple[Graph, float, int, list[frozenset]]:
    """Build the case graph and its brute-force ground truth (memoized)."""
    name, builder, gamma, theta = next(c for c in CASES if c[0] == case_id)
    if name not in _ORACLE_CACHE:
        graph = builder()
        expected = canonical_order(
            enumerate_maximal_quasi_cliques_bruteforce(graph, gamma, theta))
        _ORACLE_CACHE[name] = (graph, expected)
    graph, expected = _ORACLE_CACHE[name]
    return graph, gamma, theta, expected


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("case_id", [case[0] for case in CASES])
def test_execution_path_matches_bruteforce(case_id, executor):
    graph, gamma, theta, expected = _case(case_id)
    produced = EXECUTORS[executor](graph, gamma, theta)
    assert canonical_order(produced) == expected, (
        f"{executor} diverged from brute force on {case_id} "
        f"(gamma={gamma}, theta={theta})")


@pytest.mark.parametrize("case_id", [case[0] for case in CASES])
def test_executors_agree_pairwise(case_id):
    """Redundant guard: all paths produce the same *set* of answers."""
    graph, gamma, theta, _ = _case(case_id)
    answers = {name: frozenset(EXECUTORS[name](graph, gamma, theta))
               for name in EXECUTORS}
    reference = answers["dcfastqc"]
    assert all(result == reference for result in answers.values()), answers


@pytest.mark.parametrize("branching", ["hybrid", "sym-se", "se"])
@pytest.mark.parametrize("algorithm", ["fastqc", "dcfastqc"])
@pytest.mark.parametrize("case_id", [case[0] for case in CASES])
def test_ledger_kernel_matches_reference_exactly(case_id, algorithm, branching):
    """The strongest parity claim: the ledger kernel is branch-for-branch
    equivalent to the mask-based oracle, for every algorithm and branching
    method across the whole gamma/theta grid — identical *candidate
    sequences* (pre-MQCE-S2, in emission order), identical maximal answers,
    and identical search counters."""
    graph, gamma, theta, _ = _case(case_id)
    spec = QuerySpec(gamma=gamma, theta=theta, algorithm=algorithm,
                     branching=branching)
    ledger = run_enumeration(graph, spec)
    reference = reference_enumeration(graph, spec)
    assert ledger.candidate_quasi_cliques == reference.candidate_quasi_cliques
    assert ledger.maximal_quasi_cliques == reference.maximal_quasi_cliques
    for counter in ("branches_explored", "branches_pruned_by_condition",
                    "branches_terminated_t1", "branches_terminated_t2",
                    "candidates_removed_by_refinement", "outputs",
                    "outputs_suppressed_by_maximality"):
        assert (getattr(ledger.search_statistics, counter)
                == getattr(reference.search_statistics, counter)), counter
    # Only the ledger kernel performs incremental bookkeeping.  Vertices move
    # whenever a branch forks into children (a subproblem that terminates at
    # its root branch moves nothing), so compare against the subproblem count.
    assert reference.search_statistics.ledger_moves == 0
    stats = ledger.search_statistics
    if stats.branches_explored > stats.subproblems:
        assert stats.ledger_moves > 0


@pytest.mark.parametrize("branching", ["se", "sym-se", "hybrid"])
@pytest.mark.parametrize("case_id", [case[0] for case in CASES])
def test_quickplus_ledger_matches_reference_exactly(case_id, branching):
    """Quick+'s ledger kernel is branch-for-branch equivalent to its
    mask-based oracle for every branching method across the whole
    gamma/theta grid: identical candidate sequences (pre-MQCE-S2, in
    emission order), identical maximal answers and identical Type I/II
    pruning counters."""
    graph, gamma, theta, _ = _case(case_id)
    spec = QuerySpec(gamma=gamma, theta=theta, algorithm="quickplus",
                     branching=branching)
    ledger = run_enumeration(graph, spec)
    reference = reference_enumeration(graph, spec)
    assert ledger.candidate_quasi_cliques == reference.candidate_quasi_cliques
    assert ledger.maximal_quasi_cliques == reference.maximal_quasi_cliques
    for counter in ("branches_explored", "branches_pruned_by_type2",
                    "candidates_removed_by_type1", "outputs"):
        assert (getattr(ledger.search_statistics, counter)
                == getattr(reference.search_statistics, counter)), counter
    assert reference.search_statistics.ledger_moves == 0


#: Answers queries through the CLI and the engine, then asserts the oracle
#: never loaded.
_BOUNDARY_SCRIPT = """
import sys
import repro, repro.cli, repro.serve
from repro.datasets import load_dataset
assert repro.cli.main(["query", "-d", "twitter", "--count"]) == 0
repro.MQCEEngine().query(load_dataset("twitter"), repro.QuerySpec(0.9, 4))
assert "repro.oracle" not in sys.modules, "production imported repro.oracle"
"""


def test_production_never_imports_the_oracle():
    """:mod:`repro.oracle` is a test and benchmark dependency only: a fresh
    interpreter that answers queries through every production entry point
    must not load it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    completed = subprocess.run([sys.executable, "-c", _BOUNDARY_SCRIPT], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
