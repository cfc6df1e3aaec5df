"""Bounded-exhaustive checks over every graph on at most seven vertices.

The small-scope hypothesis: most bugs show on some small input.  The fixture
``tests/data/graph_atlas.txt`` (written by ``scripts/generate_graph_atlas.py``
from networkx's graph atlas) holds the 1,252 non-empty graphs on at most
seven vertices, one per isomorphism class.

**The shrink layer.**  For every γ-quasi-clique ``H`` with ``|H| >= θ``, its
lowest-ordered vertex under DCFastQC's ordering must root a yielded
subproblem whose refined set contains ``H``.  That checks the core
reduction, the prior-vertex cut (Equation 19) and each shrink rule, root by
root.  γ takes every value ``k/(h-1)`` in ``[0.5, 1]`` for ``2 <= h <= 7``
(where the degree and two-hop thresholds step) and each of those plus
0.001; θ takes every value in ``1..|V|``.

**The final answers.**  For every graph, every such γ and every θ, the
maximal set :func:`~repro.pipeline.mqce.run_enumeration` returns equals
brute force's, in seven configurations (:data:`ANSWER_CONFIGURATIONS`):
DCFastQC on the dict and the CSR backend, FastQC, Quick+, the basic-dc
framework, and the sym-se and se branchings.

Tier-1 sweeps the shrink layer over every graph on at most six vertices on
the dict backend and a slice of them on the CSR twin, and the final answers
over every graph on at most five vertices.  ``REPRO_EXHAUSTIVE_FULL=1``
sweeps all 1,252 graphs in both layers (a separate CI step, a few minutes).
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest

from repro.api.spec import QuerySpec
from repro.core.csr import CSRGraph
from repro.core.dcfastqc import DCFastQC
from repro.graph.graph import Graph
from repro.pipeline.mqce import run_enumeration
from repro.quasiclique.bruteforce import (enumerate_all_quasi_cliques,
                                          enumerate_maximal_quasi_cliques_bruteforce)

ATLAS = Path(__file__).with_name("data") / "graph_atlas.txt"
FULL = os.environ.get("REPRO_EXHAUSTIVE_FULL") == "1"


def _gammas() -> list[Fraction]:
    steps = {Fraction(k, m) for m in range(1, 7) for k in range(m + 1)
             if Fraction(1, 2) <= Fraction(k, m)}
    return sorted(steps | {min(step + Fraction(1, 1000), Fraction(1))
                           for step in steps})


GAMMAS = _gammas()
FRAMEWORKS = ("dc", "basic-dc")

#: ``(backend, QuerySpec fields)`` of every configuration whose final answers
#: the sweep checks against brute force.
ANSWER_CONFIGURATIONS = (
    ("dict", {"algorithm": "dcfastqc"}),
    ("csr", {"algorithm": "dcfastqc"}),
    ("dict", {"algorithm": "fastqc"}),
    ("dict", {"algorithm": "quickplus"}),
    ("dict", {"algorithm": "dcfastqc", "framework": "basic-dc"}),
    ("dict", {"algorithm": "dcfastqc", "branching": "sym-se"}),
    ("dict", {"algorithm": "dcfastqc", "branching": "se"}),
)


def load_atlas() -> list[tuple[int, int, list[tuple[int, int]]]]:
    """``(atlas index, vertex count, edges)`` for every fixture graph."""
    graphs = []
    for line in ATLAS.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        index, n, *pairs = line.split()
        graphs.append((int(index), int(n),
                       [(int(pair[0]), int(pair[1])) for pair in pairs]))
    return graphs


def build(backend: str, n: int, edges: list[tuple[int, int]]) -> Graph:
    """The graph on labels ``0..n-1``, where label ``i`` has index ``i``."""
    if backend == "csr":
        return CSRGraph.from_edge_stream(edges, vertices=range(n))
    return Graph(edges=edges, vertices=range(n))


def shrink_containment(graphs, backend: str) -> tuple[int, list[tuple]]:
    """Check the shrink layer over ``graphs``; return ``(checks, violations)``.

    A violation is ``(atlas index, gamma, theta, framework, H)``.
    """
    checks = 0
    violations = []
    for atlas_index, n, edges in graphs:
        graph = build(backend, n, edges)
        for gamma in GAMMAS:
            quasi_cliques = [(len(h), sum(1 << v for v in h))
                             for h in enumerate_all_quasi_cliques(graph, gamma)]
            for theta in range(1, n + 1):
                for framework in FRAMEWORKS:
                    algo = DCFastQC(graph, gamma, theta, framework=framework)
                    refined = dict(algo._iter_subproblems())
                    position = {record.root: order for order, record
                                in enumerate(algo.dc_statistics.subproblem_records)}
                    for size, h in quasi_cliques:
                        if size < theta:
                            continue
                        checks += 1
                        members = [v for v in range(n) if h >> v & 1]
                        if all(v in position for v in members):
                            root = min(members, key=position.__getitem__)
                            if h & ~refined.get(root, 0) == 0:
                                continue
                        violations.append((atlas_index, gamma, theta,
                                           framework, members))
    return checks, violations


def final_answers(graphs) -> tuple[int, list[tuple]]:
    """Check every configuration's maximal set against brute force.

    Returns ``(checks, mismatches)``; a mismatch is ``(atlas index, gamma,
    theta, backend, spec fields)``.
    """
    checks = 0
    mismatches = []
    for atlas_index, n, edges in graphs:
        graphs_by_backend = {backend: build(backend, n, edges)
                             for backend in ("dict", "csr")}
        for gamma in GAMMAS:
            # Maximality is global, so the answer at theta is the maximal
            # quasi-cliques of every size, cut at theta.
            maximal = enumerate_maximal_quasi_cliques_bruteforce(
                graphs_by_backend["dict"], gamma)
            for theta in range(1, n + 1):
                expected = {h for h in maximal if len(h) >= theta}
                for backend, fields in ANSWER_CONFIGURATIONS:
                    checks += 1
                    result = run_enumeration(graphs_by_backend[backend],
                                             QuerySpec(gamma, theta, **fields))
                    if set(result.maximal_quasi_cliques) != expected:
                        mismatches.append((atlas_index, gamma, theta, backend,
                                           fields))
    return checks, mismatches


def _slice(backend: str):
    graphs = load_atlas()
    if FULL:
        return graphs
    small = [graph for graph in graphs if graph[1] <= 6]
    # The CSR twin runs a third of the small graphs in tier-1.
    return small if backend == "dict" else small[::3]


def test_fixture_is_the_whole_atlas():
    graphs = load_atlas()
    assert len(graphs) == 1252
    counts = {}
    for _, n, _ in graphs:
        counts[n] = counts.get(n, 0) + 1
    assert counts == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    assert len(GAMMAS) == 13


def test_every_configuration_returns_the_brute_force_answer():
    graphs = load_atlas()
    if not FULL:
        graphs = [graph for graph in graphs if graph[1] <= 5]
    checks, mismatches = final_answers(graphs)
    assert checks > 0
    assert not mismatches, (
        f"{len(mismatches)} of {checks} checks failed; first: {mismatches[0]}")


@pytest.mark.parametrize("backend", ["dict", "csr"])
def test_shrink_keeps_every_quasi_clique_in_its_root_subproblem(backend):
    checks, violations = shrink_containment(_slice(backend), backend)
    assert checks > 0
    assert not violations, (
        f"{len(violations)} of {checks} checks failed; first: {violations[0]}")
