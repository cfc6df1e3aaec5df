"""End-to-end MQCE pipeline: MQCE-S1 enumeration followed by MQCE-S2 filtering.

This is the library's primary *one-shot* entry point.  It runs one of the
MQCE-S1 algorithms (DCFastQC by default, FastQC or Quick+ on request), removes
non-maximal quasi-cliques with the set-trie filter, and returns both the final
maximal quasi-cliques and the intermediate candidate set together with timing
and search statistics.

Every call re-validates the parameters and re-derives the per-graph
preprocessing (core decomposition, ordering) from scratch, which is the right
trade-off for a single enumeration.  For *repeated* queries over the same
graph — parameter sweeps, interactive exploration, serving traffic — use
:class:`repro.engine.MQCEEngine` instead: it wraps these same functions with a
:class:`~repro.engine.prepared.PreparedGraph` (preprocessing computed once), a
cost-based :class:`~repro.engine.planner.QueryPlanner` (algorithm / branching /
parallelism selection) and an LRU :class:`~repro.engine.cache.ResultCache`
(identical queries are served without re-enumeration).  For repeated queries
over a graph that *changes* in between, use
:class:`repro.dynamic.DynamicEngine`, which additionally patches the prepared
artifacts per mutation and invalidates the cache selectively.
"""

from __future__ import annotations

from collections.abc import Callable

from ..baselines.naive import NaiveEnumerator
from ..baselines.quickplus import QuickPlus
from ..core.dcfastqc import DCFastQC, DEFAULT_MAX_ROUNDS
from ..core.fastqc import FastQC
from ..core.stats import SearchStatistics
from ..graph.graph import Graph
from ..obs.trace import NULL_TRACER
from ..quasiclique.definitions import validate_parameters
from ..resilience.retry import Deadline
from ..settrie.filter import filter_non_maximal
from .results import EnumerationResult

#: Algorithms usable as the MQCE-S1 stage.
ALGORITHMS = ("dcfastqc", "fastqc", "quickplus", "naive")


def resolve_algorithm(algorithm: str) -> str:
    """Map the spec-level ``"auto"`` to the one-shot default MQCE-S1 algorithm."""
    return "dcfastqc" if algorithm == "auto" else algorithm


def canonical_order(quasi_cliques) -> list[frozenset]:
    """Deterministic result order: decreasing size, then sorted string labels."""
    return sorted(quasi_cliques, key=lambda h: (-len(h), sorted(map(str, h))))


def build_enumerator(graph: Graph, gamma: float, theta: int, algorithm: str = "dcfastqc",
                     branching: str | None = None, framework: str = "dc",
                     kernel: str = "ledger",
                     max_rounds: int = DEFAULT_MAX_ROUNDS,
                     maximality_filter: bool = True,
                     on_output: Callable[[frozenset], None] | None = None,
                     should_stop: Callable[[], bool] | None = None,
                     progress=None, tracer=None):
    """Construct (but do not run) the requested MQCE-S1 enumerator.

    ``branching`` defaults to ``"hybrid"`` for FastQC/DCFastQC and ``"se"`` for
    Quick+, matching the paper's configurations.  ``kernel`` selects the
    execution kernel shared by all three branch-and-bound algorithms
    (``"ledger"`` incremental branch states or the mask-based
    ``"reference"``); only the naive baseline has no kernelized form.
    ``on_output`` and ``should_stop`` feed the streaming/cancellation path;
    the naive baseline ignores both (it materialises its answer in one
    exhaustive pass).  ``progress`` is an optional
    :class:`repro.obs.ProgressTicker` branch-tick hook and ``tracer`` an
    optional :class:`repro.obs.Tracer` (the DC driver records decompose /
    shrink / subproblem spans); the naive baseline ignores both as well.
    ``graph`` may be an engine ``PreparedGraph``: DCFastQC reuses its core
    mask, the other algorithms run on the underlying graph.
    """
    # Lazy import: the engine package imports this module.
    from ..engine.prepared import as_plain_graph

    validate_parameters(gamma, theta)
    if algorithm == "dcfastqc":
        return DCFastQC(graph, gamma, theta, branching=branching or "hybrid",
                        framework=framework, kernel=kernel, max_rounds=max_rounds,
                        maximality_filter=maximality_filter,
                        on_output=on_output, should_stop=should_stop,
                        progress=progress, tracer=tracer)
    graph = as_plain_graph(graph)
    if algorithm == "fastqc":
        return FastQC(graph, gamma, theta, branching=branching or "hybrid",
                      kernel=kernel, maximality_filter=maximality_filter,
                      on_output=on_output, should_stop=should_stop,
                      progress=progress)
    if algorithm == "quickplus":
        return QuickPlus(graph, gamma, theta, branching=branching or "se",
                         kernel=kernel,
                         on_output=on_output, should_stop=should_stop,
                         progress=progress)
    if algorithm == "naive":
        return NaiveEnumerator(graph, gamma, theta)
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def enumerate_candidate_quasi_cliques(graph: Graph, gamma: float, theta: int,
                                      algorithm: str = "dcfastqc", **kwargs
                                      ) -> tuple[list[frozenset], SearchStatistics]:
    """Solve MQCE-S1 only: return a superset of all large MQCs plus statistics."""
    enumerator = build_enumerator(graph, gamma, theta, algorithm=algorithm, **kwargs)
    candidates = enumerator.enumerate()
    return candidates, enumerator.statistics


def run_enumeration(graph: Graph, spec,
                    should_stop: Callable[[], bool] | None = None,
                    tracer=None, progress=None) -> EnumerationResult:
    """Run one full MQCE enumeration described by a :class:`repro.api.QuerySpec`.

    This is the canonical execution path for the ``enumerate`` workload: it
    builds the MQCE-S1 enumerator from the spec's execution knobs, filters the
    candidates with the set-trie (MQCE-S2), and packs everything into an
    :class:`EnumerationResult`.

    ``spec.algorithm="auto"`` resolves to DCFastQC here (no planner is
    involved at this level; the engine plans before calling in).  A spec
    ``time_limit`` — or an explicit ``should_stop`` predicate, which takes
    precedence — stops the enumeration cooperatively; the result is then
    marked ``truncated`` and holds the maximal sets of the candidates found
    so far (a best-effort subset).

    ``tracer`` records the two phases as ``enumerate`` / ``filter`` spans
    (and passes through to the DC driver's decompose/shrink spans);
    ``progress`` receives branch ticks.  Both default to disabled.
    """
    algorithm = resolve_algorithm(spec.algorithm)
    framework = spec.framework if spec.framework is not None else "dc"
    if should_stop is None and spec.time_limit is not None:
        should_stop = Deadline.after(spec.time_limit).expired
    obs = tracer if tracer is not None else NULL_TRACER
    enumerator = build_enumerator(graph, spec.gamma, spec.theta, algorithm=algorithm,
                                  branching=spec.branching, framework=framework,
                                  kernel=spec.kernel, max_rounds=spec.max_rounds,
                                  maximality_filter=spec.maximality_filter,
                                  should_stop=should_stop,
                                  progress=progress, tracer=tracer)
    with obs.span("enumerate", stats=lambda: enumerator.statistics,
                  algorithm=algorithm) as enumerate_span:
        candidates = enumerator.enumerate()
        enumerate_span.annotate(candidates=len(candidates))
    enumeration_seconds = enumerate_span.seconds

    with obs.span("filter", theta=spec.theta) as filter_span:
        maximal = filter_non_maximal(candidates, theta=spec.theta)
        filter_span.annotate(maximal=len(maximal))
    filtering_seconds = filter_span.seconds

    return EnumerationResult(
        maximal_quasi_cliques=canonical_order(maximal),
        candidate_quasi_cliques=list(candidates),
        algorithm=algorithm,
        gamma=spec.gamma,
        theta=spec.theta,
        search_statistics=enumerator.statistics,
        enumeration_seconds=enumeration_seconds,
        filtering_seconds=filtering_seconds,
        truncated=getattr(enumerator, "stopped", False),
    )

