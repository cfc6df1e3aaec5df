#!/usr/bin/env python
"""Perf-trajectory harness: record every perf subsystem's speed over time.

Runs the repository's recorded benchmark suites and writes one combined
trajectory record to ``BENCH_core.json`` at the repository root:

* ``core-enumeration`` — cold DCFastQC enumeration (no result cache, no
  prepared-graph reuse) on registry dataset analogues at branch-heavy
  parameter points, on the ledger kernel vs the mask-based
  :mod:`repro.oracle` reference (``ReferenceDCFastQC``), with output-parity
  checks;
* ``quickplus-kernel`` — the same ledger-vs-reference comparison for the
  Quick+ baseline (the paper's co-design ablation workhorse), against
  ``ReferenceQuickPlus``;
* ``engine-cache`` — cold vs warm `MQCEEngine.query` latency (result-cache
  serving path);
* ``dynamic-updates`` — one edge update + requery through an engine sync
  (incremental) vs a full rebuild;
* ``large-graph`` — streaming CSR ingestion vs the dict/bitmask builder on a
  generated power-law edge list (10^5 vertices full, 2*10^4 quick), each in
  its own subprocess so peak RSS isolates one representation; the recorded
  ``speedup`` is the dict-over-CSR peak-RSS ratio and the row includes one
  budgeted enumerate query per backend;
* ``parallel`` — sequential vs work-stealing branch parallelism at 4 workers
  on a planted-community graph whose one dominant subproblem holds most of
  the branches (10^5 vertices full, 2*10^4 quick), plus an un-skewed
  multi-community row.  The recorded ``speedup`` is the wall-clock ratio
  ``sequential_s / branch_s``; each row also records ``affinity_cpus`` (the
  CPUs the run could use) and, as a host-independent diagnostic,
  ``balance_speedup`` (the largest subproblem's branch count over the
  busiest worker's).  Branch mode is parity-checked against the sequential
  driver, and ``auto_mode`` records whether the planner fans the
  query out from the observed branch histogram.

Committing the file after a perf-relevant change gives the repo a recorded
perf trajectory that later PRs can regress against — one file, every
subsystem.  A run writes only the suites it selected: the other suites keep
their recorded rows, and every suite carries the ``quick`` / ``repeat`` it
was measured with.

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py              # all suites
    PYTHONPATH=src python scripts/bench_trajectory.py --suite core --quick
    PYTHONPATH=src python scripts/bench_trajectory.py --quick \\
        --assert-speedup 3.0 --assert-quickplus-speedup 1.5 --output -

``--assert-speedup X`` exits non-zero unless at least ``--assert-count``
core datasets beat the oracle's reference enumerator by the given factor;
``--assert-quickplus-speedup``, ``--assert-warm-speedup``,
``--assert-dynamic-speedup`` and ``--assert-rss-speedup`` do the same for
the other suites (an RSS floor of 8.5 asserts CSR peaks under 12% of dict).
``--assert-branch-speedup`` checks the skewed parallel row's wall-clock
speedup over sequential; when the run had fewer affinity CPUs than workers it
prints ``skipped: N affinity CPUs < W workers`` instead.  The CI
perf-smoke job runs the quick suites with floors so kernel, cache or
dynamic-path regressions fail the PR.  ``REPRO_BENCH_QUICK=1`` implies
``--quick``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines.quickplus import QuickPlus                   # noqa: E402
from repro.core.dcfastqc import DCFastQC                          # noqa: E402
from repro.datasets import (                                      # noqa: E402
    get_spec,
    load_dataset,
    load_prepared,
)
from repro.api import QuerySpec                                   # noqa: E402
from repro.engine import MQCEEngine, PreparedGraph                # noqa: E402
from repro.graph import preferential_attachment_edges             # noqa: E402
from repro.oracle import ReferenceDCFastQC, ReferenceQuickPlus    # noqa: E402

#: ``--suite`` name -> the suite's key in the record, in record order.
SUITE_KEYS = {"core": "core-enumeration", "quickplus": "quickplus-kernel",
              "engine-cache": "engine-cache", "dynamic-updates": "dynamic-updates",
              "large-graph": "large-graph", "parallel": "parallel"}
SUITES = tuple(SUITE_KEYS)

#: Core suite: (dataset, gamma, theta) chosen so enumeration — not
#: preprocessing — dominates (hundreds to thousands of branches each).
CORE_FULL = (
    ("ca-grqc", 0.9, 5),
    ("enron", 0.85, 6),
    ("pokec", 0.9, 6),
    ("uk2002", 0.9, 7),
    ("uk2002-heavy", 0.85, 8),
)
CORE_QUICK = (
    ("enron", 0.85, 6),
    ("pokec", 0.9, 6),
    ("uk2002", 0.9, 7),
)

#: Quick+ suite: branch-heavy points where the baseline still terminates
#: quickly enough to benchmark both kernels.
QUICKPLUS_FULL = (
    ("trec", 0.96, 10),
    ("kmer", 0.51, 6),
    ("enron", 0.9, 9),
    ("flixster", 0.96, 10),
)
QUICKPLUS_QUICK = (
    ("trec", 0.96, 10),
    ("kmer", 0.51, 6),
)

ENGINE_CACHE_FULL = ("ca-grqc", "enron", "douban", "kmer")
ENGINE_CACHE_QUICK = ("ca-grqc",)

DYNAMIC_FULL = ("ca-grqc", "enron", "uk2002")
DYNAMIC_QUICK = ("ca-grqc",)

#: Large-graph suite rows: (name, vertices, attachment, gamma, theta,
#: time_limit).  Each row generates a power-law (preferential-attachment)
#: edge list, ingests it under both graph backends in separate subprocesses
#: and runs one budgeted enumerate query per backend; gamma/theta sit at the
#: graph's degeneracy (BA attachment 3) so the query does real branch work
#: instead of emptying the core.  The quick row completes untruncated and
#: also checks answer parity; the full 10^5-vertex row leans on the time
#: budget.
LARGE_GRAPH_FULL = (("powerlaw-100k", 100_000, 3, 0.9, 4, 30.0),)
LARGE_GRAPH_QUICK = (("powerlaw-20k", 20_000, 3, 0.9, 4, 120.0),)

#: Seed for the generated large-graph edge lists (fixed so the recorded
#: trajectory rows are comparable across commits).
LARGE_GRAPH_SEED = 13

#: Parallel suite rows: (name, vertices, background_edges, community_sizes,
#: seed, gamma, theta, kind).  "skewed" plants one dense community whose
#: subtree holds ~60% of all branches; "uniform" plants several equal
#: communities, so no subproblem dominates and the row measures what the
#: fan-out costs against the sequential driver.
PARALLEL_FULL = (
    ("planted-skew-100k", 100_000, 200_000, (32,), 7, 0.9, 10, "skewed"),
    ("planted-uniform-20k", 20_000, 40_000, (24,) * 16, 9, 0.9, 10, "uniform"),
)
PARALLEL_QUICK = (
    ("planted-skew-20k", 20_000, 40_000, (32,), 7, 0.9, 10, "skewed"),
    ("planted-uniform-20k", 20_000, 40_000, (24,) * 16, 9, 0.9, 10, "uniform"),
)

#: Worker count for the parallel suite (the ISSUE acceptance point).
PARALLEL_WORKERS = 4

#: Benchmark rows may rename a dataset to carry distinct parameters.
DATASET_ALIASES = {"uk2002-heavy": "uk2002"}


def _best_of(repeat: int, build, run):
    """Best-of-``repeat`` timing; returns (seconds, instance, result)."""
    best = None
    for _ in range(repeat):
        instance = build()
        start = time.perf_counter()
        result = run(instance)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, instance, result)
    return best


def _geomean(values) -> float:
    values = list(values)
    product = 1.0
    for value in values:
        product *= value
    return product ** (1 / len(values)) if values else 0.0


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------
def run_core_suite(suite, repeat: int = 1, verbose: bool = True) -> dict:
    """Cold DCFastQC enumeration, ledger kernel vs oracle (with parity checks)."""
    rows = {}
    for name, gamma, theta in suite:
        graph = load_dataset(DATASET_ALIASES.get(name, name))
        ledger_s, ledger_algo, ledger_results = _best_of(
            repeat, lambda: DCFastQC(graph, gamma, theta),
            lambda algo: algo.enumerate())
        reference_s, _, reference_results = _best_of(
            repeat, lambda: ReferenceDCFastQC(graph, gamma, theta),
            lambda algo: algo.enumerate())
        if ledger_results != reference_results:
            raise AssertionError(
                f"{name}: kernel and reference outputs diverged "
                f"({len(ledger_results)} vs {len(reference_results)} candidates)")
        stats = ledger_algo.statistics
        branches = stats.branches_explored
        row = {
            "gamma": gamma,
            "theta": theta,
            "vertices": graph.vertex_count,
            "edges": graph.edge_count,
            "candidates": len(ledger_results),
            "branches": branches,
            "ledger_ms": round(ledger_s * 1000, 3),
            "reference_ms": round(reference_s * 1000, 3),
            "branches_per_sec": round(branches / ledger_s) if ledger_s else 0,
            "speedup": round(reference_s / ledger_s, 2) if ledger_s else float("inf"),
            "ledger_moves": stats.ledger_moves,
            "ledger_updates": stats.ledger_updates,
            "shrink_rounds": stats.shrink_rounds,
            "shrink_removed": (stats.shrink_removed_one_hop
                               + stats.shrink_removed_two_hop),
        }
        rows[name] = row
        if verbose:
            print(f"core       {name:14s} gamma={gamma} theta={theta}: "
                  f"ledger {row['ledger_ms']:.1f} ms vs reference "
                  f"{row['reference_ms']:.1f} ms -> {row['speedup']}x "
                  f"({row['branches']} branches)")
    return {
        "workload": "cold DCFastQC enumeration (no result cache)",
        "kernels": ["ledger", "reference"],
        "datasets": rows,
        "summary": {
            "geomean_speedup": round(
                _geomean(r["speedup"] for r in rows.values()), 2),
            "total_ledger_ms": round(sum(r["ledger_ms"] for r in rows.values()), 3),
            "total_reference_ms": round(
                sum(r["reference_ms"] for r in rows.values()), 3),
        },
    }


def run_quickplus_suite(suite, repeat: int = 1, verbose: bool = True) -> dict:
    """Cold Quick+ enumeration, ledger kernel vs oracle (with parity checks)."""
    rows = {}
    for name, gamma, theta in suite:
        graph = load_dataset(DATASET_ALIASES.get(name, name))
        ledger_s, ledger_algo, ledger_results = _best_of(
            repeat, lambda: QuickPlus(graph, gamma, theta),
            lambda algo: algo.enumerate())
        reference_s, _, reference_results = _best_of(
            repeat, lambda: ReferenceQuickPlus(graph, gamma, theta),
            lambda algo: algo.enumerate())
        if ledger_results != reference_results:
            raise AssertionError(f"{name}: Quick+ kernel outputs diverged")
        row = {
            "gamma": gamma,
            "theta": theta,
            "branches": ledger_algo.statistics.branches_explored,
            "ledger_ms": round(ledger_s * 1000, 3),
            "reference_ms": round(reference_s * 1000, 3),
            "speedup": round(reference_s / ledger_s, 2) if ledger_s else float("inf"),
        }
        rows[name] = row
        if verbose:
            print(f"quickplus  {name:14s} gamma={gamma} theta={theta}: "
                  f"ledger {row['ledger_ms']:.1f} ms vs reference "
                  f"{row['reference_ms']:.1f} ms -> {row['speedup']}x")
    return {
        "workload": "cold Quick+ enumeration (SE branching, Type I/II pruning)",
        "kernels": ["ledger", "reference"],
        "datasets": rows,
        "summary": {
            "geomean_speedup": round(
                _geomean(r["speedup"] for r in rows.values()), 2),
        },
    }


def run_engine_cache_suite(names, repeat: int = 1, verbose: bool = True) -> dict:
    """Cold vs warm `MQCEEngine.query` latency per registry dataset."""
    rows = {}
    for name in names:
        spec = get_spec(name)
        gamma, theta = spec.default_gamma, spec.default_theta
        best = None
        for _ in range(repeat):
            prepared = load_prepared(name)
            engine = MQCEEngine()
            start = time.perf_counter()
            cold_result = engine.query(prepared, QuerySpec(gamma, theta))
            cold = time.perf_counter() - start
            start = time.perf_counter()
            warm_result = engine.query(prepared, QuerySpec(gamma, theta))
            warm = time.perf_counter() - start
            assert warm_result.maximal_quasi_cliques == cold_result.maximal_quasi_cliques
            assert engine.cache.stats.hits == 1
            if best is None or cold + warm < best[0] + best[1]:
                best = (cold, warm)
        cold, warm = best
        row = {
            "gamma": gamma,
            "theta": theta,
            "cold_ms": round(cold * 1000, 3),
            "warm_ms": round(warm * 1000, 3),
            "speedup": round(cold / warm, 1) if warm else float("inf"),
        }
        rows[name] = row
        if verbose:
            print(f"cache      {name:14s} cold {row['cold_ms']:.1f} ms vs warm "
                  f"{row['warm_ms']:.2f} ms -> {row['speedup']}x")
    return {
        "workload": "MQCEEngine.query cold vs warm (result-cache hit)",
        "datasets": rows,
        "summary": {
            "geomean_speedup": round(
                _geomean(r["speedup"] for r in rows.values()), 1),
        },
    }


def run_dynamic_suite(names, repeat: int = 1, verbose: bool = True) -> dict:
    """One edge update + requery: engine sync vs full engine rebuild."""
    rows = {}
    for name in names:
        spec = get_spec(name)
        gamma, theta = spec.default_gamma, spec.default_theta
        best = None
        for _ in range(repeat):
            graph = load_dataset(name)
            engine = MQCEEngine()
            engine.prepare(graph, name=spec.name).prepare()
            baseline = engine.query(graph, QuerySpec(gamma, theta))
            result_sets = (list(baseline.maximal_quasi_cliques)
                           + list(baseline.candidate_quasi_cliques))
            edge = next(((u, v) for u, v in graph.edges()
                         if not any(u in s and v in s for s in result_sets)), None)
            assert edge is not None, f"{name}: no background edge available"
            start = time.perf_counter()
            graph.remove_edge(*edge)
            report = engine.sync(graph)
            incremental_result = engine.query(graph, QuerySpec(gamma, theta))
            incremental = time.perf_counter() - start
            assert report.invalidated == 0 and report.retained >= 1, report
            start = time.perf_counter()
            rebuilt = MQCEEngine().query(PreparedGraph(graph), QuerySpec(gamma, theta))
            rebuild = time.perf_counter() - start
            assert rebuilt.maximal_quasi_cliques == incremental_result.maximal_quasi_cliques
            if best is None or incremental < best[0]:
                best = (incremental, rebuild)
        incremental, rebuild = best
        row = {
            "gamma": gamma,
            "theta": theta,
            "incremental_ms": round(incremental * 1000, 3),
            "rebuild_ms": round(rebuild * 1000, 3),
            "speedup": (round(rebuild / incremental, 1)
                        if incremental else float("inf")),
        }
        rows[name] = row
        if verbose:
            print(f"dynamic    {name:14s} incremental {row['incremental_ms']:.1f} ms "
                  f"vs rebuild {row['rebuild_ms']:.1f} ms -> {row['speedup']}x")
    return {
        "workload": "edge update + requery: engine sync vs full rebuild",
        "datasets": rows,
        "summary": {
            "geomean_speedup": round(
                _geomean(r["speedup"] for r in rows.values()), 1),
        },
    }


def _ingest_subprocess(path: str, backend: str, gamma: float, theta: int,
                       time_limit: float) -> dict:
    """Run ``repro ingest`` in a child process and return its JSON report.

    Peak RSS is a process-wide high-water mark, so the two backends must be
    measured in separate interpreters; the child reports its post-import
    baseline so ``peak - baseline`` isolates representation + query memory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-m", "repro", "ingest", path,
               "--backend", backend, "--gamma", str(gamma),
               "--theta", str(theta), "--time-limit", str(time_limit),
               "--json"]
    completed = subprocess.run(command, env=env, capture_output=True,
                               text=True, check=True)
    report = json.loads(completed.stdout)
    report["rss_delta_bytes"] = (report["peak_rss_bytes"]
                                 - report["baseline_rss_bytes"])
    return report


def run_large_graph_suite(suite, repeat: int = 1, verbose: bool = True) -> dict:
    """Streaming CSR ingestion vs the dict/bitmask builder, per subprocess."""
    # Peak-RSS deltas are allocation high-water marks, not timings: they are
    # stable across runs, and the children are the most expensive thing the
    # trajectory launches — two repetitions bound the cost of --repeat 4.
    repeat = min(repeat, 2)
    rows = {}
    for name, vertices, attachment, gamma, theta, time_limit in suite:
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".edges", prefix="repro-large-", delete=False)
        try:
            with handle:
                for u, v in preferential_attachment_edges(
                        vertices, attachment, seed=LARGE_GRAPH_SEED):
                    handle.write(f"{u} {v}\n")
            reports = {}
            for backend in ("dict", "csr"):
                best = None
                for _ in range(repeat):
                    report = _ingest_subprocess(handle.name, backend, gamma,
                                                theta, time_limit)
                    if best is None or report["rss_delta_bytes"] < best["rss_delta_bytes"]:
                        best = report
                reports[backend] = best
        finally:
            os.unlink(handle.name)
        dict_report, csr_report = reports["dict"], reports["csr"]
        if not dict_report["truncated"] and not csr_report["truncated"]:
            if dict_report["maximal"] != csr_report["maximal"]:
                raise AssertionError(
                    f"{name}: backends disagree on the answer "
                    f"({dict_report['maximal']} vs {csr_report['maximal']})")
        dict_delta, csr_delta = (dict_report["rss_delta_bytes"],
                                 csr_report["rss_delta_bytes"])
        row = {
            "gamma": gamma,
            "theta": theta,
            "time_limit": time_limit,
            "vertices": csr_report["vertices"],
            "edges": csr_report["edges"],
            "dict_ingest_s": dict_report["ingest_seconds"],
            "csr_ingest_s": csr_report["ingest_seconds"],
            "dict_rss_mb": round(dict_delta / 1e6, 1),
            "csr_rss_mb": round(csr_delta / 1e6, 1),
            "maximal": csr_report["maximal"],
            "truncated": dict_report["truncated"] or csr_report["truncated"],
            "enumeration_s": csr_report["enumeration_seconds"],
            "speedup": round(dict_delta / csr_delta, 2) if csr_delta else float("inf"),
        }
        rows[name] = row
        if verbose:
            print(f"large      {name:14s} gamma={gamma} theta={theta}: "
                  f"dict {row['dict_rss_mb']:.1f} MB vs CSR "
                  f"{row['csr_rss_mb']:.1f} MB -> {row['speedup']}x "
                  f"({row['maximal']} maximal"
                  f"{', truncated' if row['truncated'] else ''})")
    return {
        "workload": ("power-law edge-list ingest + one budgeted query: "
                     "peak-RSS delta, dict/bitmask vs streaming CSR"),
        "backends": ["dict", "csr"],
        "datasets": rows,
        "summary": {
            "geomean_speedup": round(
                _geomean(r["speedup"] for r in rows.values()), 2),
        },
    }


def run_parallel_suite(suite, repeat: int = 1, verbose: bool = True) -> dict:
    """Sequential vs work-stealing branch parallelism on planted-community graphs.

    Each row runs the same query two ways — sequential ledger DCFastQC (the
    parity oracle) and branch mode at :data:`PARALLEL_WORKERS` workers — and
    then replans it from the observed branch histogram to record whether the
    planner fans it out.  ``speedup`` is the wall-clock ratio
    ``sequential_s / branch_s``.  ``balance_speedup`` rides along as a
    host-independent diagnostic: the largest subproblem's branch count over
    the busiest worker's, i.e. how evenly stealing split the dominant
    subtree.  ``affinity_cpus`` is the number of CPUs the run could use; with
    fewer than ``workers`` the wall clock cannot show a parallel win.
    """
    from repro.engine.planner import QueryPlanner
    from repro.extensions.parallel import (LAST_PARALLEL_RUN, ParallelDCFastQC,
                                           available_cpus)
    from repro.graph.generators import planted_quasi_clique_graph

    def _canonical(results):
        return sorted(sorted(map(str, clique)) for clique in results)

    affinity_cpus = available_cpus()
    rows = {}
    for name, vertices, background, communities, seed, gamma, theta, kind in suite:
        graph = planted_quasi_clique_graph(vertices, background,
                                           list(communities), gamma, seed=seed)
        sequential_s, driver, sequential_results = _best_of(
            repeat, lambda: DCFastQC(graph, gamma, theta),
            lambda algo: algo.enumerate())
        branch_histogram = driver.statistics.subproblem_branches
        branch_s, branch_runner, branch_results = _best_of(
            repeat, lambda: ParallelDCFastQC(graph, gamma, theta,
                                             workers=PARALLEL_WORKERS),
            lambda runner: runner.enumerate())
        if branch_runner.mode_selected != "branch":
            raise AssertionError(f"{name}: the parallel run fell back to "
                                 f"{branch_runner.mode_selected!r}")
        if _canonical(branch_results) != _canonical(sequential_results):
            raise AssertionError(f"{name}: branch answers diverged from sequential")

        worker_branches = LAST_PARALLEL_RUN.get("worker_branches", {})
        steals = branch_runner.statistics.steals
        busiest = max(worker_branches.values()) if worker_branches else 0
        balance_speedup = (round(branch_histogram.max / busiest, 2)
                           if busiest else 0.0)

        # Replan from the run's own evidence: observed branch counts open the
        # parallel gate although the planted core is small.
        prepared = PreparedGraph(graph)
        prepared.record_subproblem_histogram(gamma, theta, branch_histogram)
        plan = QueryPlanner().plan(prepared, QuerySpec(gamma, theta),
                                   workers=PARALLEL_WORKERS)

        row = {
            "gamma": gamma,
            "theta": theta,
            "kind": kind,
            "vertices": graph.vertex_count,
            "edges": graph.edge_count,
            "workers": PARALLEL_WORKERS,
            "affinity_cpus": affinity_cpus,
            "branches": driver.statistics.branches_explored,
            "subproblems": branch_histogram.count,
            "largest_subproblem_branches": branch_histogram.max,
            "sequential_s": round(sequential_s, 3),
            "branch_s": round(branch_s, 3),
            "steals": steals,
            "busiest_worker_branches": busiest,
            "balance_speedup": balance_speedup,
            "auto_mode": "branch" if plan.parallel else "sequential",
            "parity": True,
            "speedup": (round(sequential_s / branch_s, 2)
                        if branch_s else float("inf")),
        }
        rows[name] = row
        if verbose:
            print(f"parallel   {name:18s} gamma={gamma} theta={theta} "
                  f"[{kind}]: sequential {row['sequential_s']:.2f}s vs branch "
                  f"{row['branch_s']:.2f}s -> {row['speedup']}x, balance "
                  f"{balance_speedup}x ({steals} steals, "
                  f"auto={row['auto_mode']}, {affinity_cpus} affinity CPUs)")
    return {
        "workload": ("sequential vs work-stealing branch parallelism at "
                     f"{PARALLEL_WORKERS} workers (planted-community graphs, "
                     "sequential-parity checked)"),
        "datasets": rows,
        "summary": {
            "geomean_speedup": round(
                _geomean(r["speedup"] for r in rows.values()
                         if r["kind"] == "skewed"), 2),
            "uniform_overhead_pct": next(
                (round((r["branch_s"] / r["sequential_s"] - 1.0) * 100, 1)
                 for r in rows.values() if r["kind"] == "uniform"
                 and r["sequential_s"]), None),
        },
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _assert_floor(record: dict, suite_key: str, floor: float | None,
                  needed: int, failures: list[str]) -> None:
    if floor is None:
        return
    if suite_key not in record["suites"]:
        # A floor on a suite that did not run is a harness mistake (wrong
        # --suite selection, renamed key): fail loudly, never vacuously pass.
        failures.append(f"{suite_key}: floor {floor}x requested but the suite "
                        f"did not run (ran: {sorted(record['suites'])})")
        return
    rows = record["suites"][suite_key]["datasets"]
    passing = [name for name, row in rows.items() if row["speedup"] >= floor]
    required = min(needed, len(rows))
    if len(passing) < required:
        failures.append(
            f"{suite_key}: only {len(passing)} of {len(rows)} datasets reached "
            f"{floor}x (need {required}): "
            f"{ {name: row['speedup'] for name, row in rows.items()} }")
    else:
        print(f"OK: {suite_key} has {len(passing)}/{len(rows)} datasets at "
              f">= {floor}x ({', '.join(passing)})")


def _assert_parallel_floor(record: dict, floor: float | None,
                           failures: list[str]) -> None:
    """Skewed parallel rows: branch mode's wall-clock speedup over sequential.

    A row whose run had fewer affinity CPUs than workers cannot show a
    parallel win, so its check is skipped and says so, never faked.
    """
    if floor is None:
        return
    if "parallel" not in record["suites"]:
        failures.append(f"parallel: floor {floor}x requested but the suite "
                        f"did not run (ran: {sorted(record['suites'])})")
        return
    for name, row in record["suites"]["parallel"]["datasets"].items():
        if row["kind"] != "skewed":
            continue
        if row["affinity_cpus"] < row["workers"]:
            print(f"parallel {name}: skipped: {row['affinity_cpus']} affinity "
                  f"CPUs < {row['workers']} workers")
        elif row["speedup"] < floor:
            failures.append(f"parallel: {name} branch mode ran at "
                            f"{row['speedup']}x sequential (floor {floor}x)")
        else:
            print(f"OK: parallel {name} at {row['speedup']}x over sequential "
                  f"(>= {floor}x)")


def merge_into_existing(path: Path, record: dict) -> dict:
    """The record at ``path`` with this run's suites replacing their old rows.

    Suites this run did not select keep their recorded rows, each stamped
    with the ``quick`` / ``repeat`` it was measured with (older files kept
    one pair for the whole record).  ``peak_rss_bytes`` is this run's.
    """
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        existing = {}
    old_suites = existing.get("suites", {}) if isinstance(existing, dict) else {}
    suites = {}
    for key in SUITE_KEYS.values():
        if key in record["suites"]:
            suites[key] = record["suites"][key]
        elif key in old_suites:
            suites[key] = old_suites[key]
            for stamp in ("quick", "repeat"):
                suites[key].setdefault(stamp, existing.get(stamp))
    return {"suites": suites, "peak_rss_bytes": record["peak_rss_bytes"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--suite", action="append", choices=SUITES + ("all",),
                        help="which suites to run (repeatable; default all)")
    parser.add_argument("--quick", action="store_true",
                        help="run the CI smoke subsets (also via REPRO_BENCH_QUICK=1)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions per measurement (best-of, default 1)")
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_core.json",
                        help="where to write the trajectory record "
                        "(default: BENCH_core.json at the repo root; '-' to skip)")
    parser.add_argument("--assert-speedup", type=float, default=None, metavar="FLOOR",
                        help="core suite: fail unless enough datasets beat the "
                        "repro.oracle reference by this factor")
    parser.add_argument("--assert-quickplus-speedup", type=float, default=None,
                        metavar="FLOOR",
                        help="quickplus suite: same assertion for Quick+")
    parser.add_argument("--assert-warm-speedup", type=float, default=None,
                        metavar="FLOOR",
                        help="engine-cache suite: warm hits must beat cold queries")
    parser.add_argument("--assert-dynamic-speedup", type=float, default=None,
                        metavar="FLOOR",
                        help="dynamic-updates suite: incremental must beat rebuild")
    parser.add_argument("--assert-rss-speedup", type=float, default=None,
                        metavar="FLOOR",
                        help="large-graph suite: dict peak-RSS delta must exceed "
                        "the CSR delta by this factor (8.5 = CSR under 12%%)")
    parser.add_argument("--assert-branch-speedup", type=float, default=None,
                        metavar="FLOOR",
                        help="parallel suite: branch mode's wall-clock speedup "
                        "over sequential on the skewed row must reach this "
                        "factor (skipped when the run has fewer affinity "
                        "CPUs than workers)")
    parser.add_argument("--assert-count", type=int, default=2, metavar="N",
                        help="how many datasets must meet each floor (default 2)")
    args = parser.parse_args(argv)

    quick = args.quick or bool(os.environ.get("REPRO_BENCH_QUICK"))
    selected = set(args.suite or ["all"])
    if "all" in selected:
        selected = set(SUITES)

    from repro.obs.process import peak_rss_bytes

    record: dict = {"suites": {}}
    if "core" in selected:
        record["suites"]["core-enumeration"] = run_core_suite(
            CORE_QUICK if quick else CORE_FULL, repeat=args.repeat)
    if "quickplus" in selected:
        record["suites"]["quickplus-kernel"] = run_quickplus_suite(
            QUICKPLUS_QUICK if quick else QUICKPLUS_FULL, repeat=args.repeat)
    if "engine-cache" in selected:
        record["suites"]["engine-cache"] = run_engine_cache_suite(
            ENGINE_CACHE_QUICK if quick else ENGINE_CACHE_FULL, repeat=args.repeat)
    if "dynamic-updates" in selected:
        record["suites"]["dynamic-updates"] = run_dynamic_suite(
            DYNAMIC_QUICK if quick else DYNAMIC_FULL, repeat=args.repeat)
    if "large-graph" in selected:
        record["suites"]["large-graph"] = run_large_graph_suite(
            LARGE_GRAPH_QUICK if quick else LARGE_GRAPH_FULL,
            repeat=args.repeat)
    if "parallel" in selected:
        record["suites"]["parallel"] = run_parallel_suite(
            PARALLEL_QUICK if quick else PARALLEL_FULL, repeat=args.repeat)
    for suite in record["suites"].values():
        suite["quick"] = quick
        suite["repeat"] = args.repeat

    # Process high-water mark after every suite ran (None on platforms
    # without getrusage) — part of the recorded trajectory, like the timings.
    record["peak_rss_bytes"] = peak_rss_bytes()

    print()
    for key, suite in record["suites"].items():
        summary = suite["summary"]
        print(f"{key}: geomean speedup {summary['geomean_speedup']}x "
              f"over {len(suite['datasets'])} datasets")

    if str(args.output) != "-":
        merged = merge_into_existing(args.output, record)
        args.output.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"wrote {args.output} (suites this run: "
              f"{', '.join(record['suites'])})")

    failures: list[str] = []
    _assert_floor(record, "core-enumeration", args.assert_speedup,
                  args.assert_count, failures)
    _assert_floor(record, "quickplus-kernel", args.assert_quickplus_speedup,
                  args.assert_count, failures)
    _assert_floor(record, "engine-cache", args.assert_warm_speedup,
                  1, failures)
    _assert_floor(record, "dynamic-updates", args.assert_dynamic_speedup,
                  1, failures)
    _assert_floor(record, "large-graph", args.assert_rss_speedup,
                  1, failures)
    _assert_parallel_floor(record, args.assert_branch_speedup, failures)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
