"""The workloads of a :class:`~repro.api.spec.QuerySpec` beyond plain enumeration.

:class:`repro.engine.MQCEEngine` runs the ``enumerate`` / ``count``
workloads through :mod:`repro.pipeline.mqce` and these two through the
functions here, after planning and around its cache:

* ``containment`` — the query-driven variant: seed FastQC with the required
  vertices, restrict to their joint 2-hop neighbourhood (legal for
  gamma >= 0.5 by the diameter-2 property), filter for global maximality,
* ``topk`` — the shrinking-size-threshold search for the k largest maximal
  quasi-cliques (optionally started from a prepared graph's degeneracy bound).

:func:`shape_result` applies a spec's output options to a (possibly cached)
result, and :func:`result_value` turns it into what ``Q(...).run()`` returns.
A spec ``time_limit`` becomes a :class:`~repro.resilience.retry.Deadline`
whose ``expired`` is the enumerator's cooperative ``should_stop``.
"""

from __future__ import annotations

import dataclasses
from functools import reduce

from ..core.branch import Branch
from ..core.fastqc import FastQC
from ..core.stats import SearchStatistics
from ..errors import QueryError
from ..graph.graph import Graph
from ..graph.subgraph import two_hop_mask
from ..obs.trace import NULL_TRACER
from ..pipeline.mqce import build_enumerator, canonical_order, resolve_algorithm
from ..pipeline.results import EnumerationResult
from ..quasiclique.definitions import degree_threshold
from ..quasiclique.maximality import satisfies_maximality_necessary_condition
from ..resilience.retry import Deadline
from ..settrie.filter import filter_non_maximal
from .spec import QuerySpec


def shape_result(result: EnumerationResult, spec: QuerySpec) -> EnumerationResult:
    """Apply the spec's output options to a (possibly shared) result.

    Returns a defensively copied envelope: the maximal list trimmed to
    ``max_results`` (it is already in canonical order, so trimming keeps the
    largest), ranked and trimmed to ``k`` when the spec asks for top-k, and
    the candidate list emptied when ``include_candidates`` is off.
    """
    maximal = list(result.maximal_quasi_cliques)
    if spec.k is not None:
        maximal = canonical_order(maximal)[:spec.k]
    if spec.max_results is not None:
        maximal = maximal[:spec.max_results]
    candidates = list(result.candidate_quasi_cliques) if spec.include_candidates else []
    return dataclasses.replace(result, maximal_quasi_cliques=maximal,
                               candidate_quasi_cliques=candidates)


def result_value(result: EnumerationResult, spec: QuerySpec):
    """The workload-shaped value of a result (what ``Q(...).run()`` returns).

    ``count`` -> int, ``topk`` / ``containment`` -> list of frozensets,
    ``enumerate`` -> the full :class:`EnumerationResult` envelope.
    """
    if spec.count_only:
        return result.maximal_count
    if spec.workload in ("topk", "containment"):
        return list(result.maximal_quasi_cliques)
    return result


def _deadline_stop(spec: QuerySpec):
    """The cooperative-stop predicate of a spec's ``time_limit`` (or None)."""
    return None if spec.time_limit is None else Deadline.after(spec.time_limit).expired


# ----------------------------------------------------------------------
# Containment workload
# ----------------------------------------------------------------------
def _query_candidate_mask(graph: Graph, query_indices: list[int], gamma: float,
                          theta: int) -> int:
    """Candidate region for a containment query: intersection of 2-hop balls."""
    full = graph.full_mask()
    balls = [two_hop_mask(graph, index, full) | (1 << index) for index in query_indices]
    region = reduce(lambda a, b: a & b, balls, full)
    # Degree-based shrinking, as in the DC framework's one-hop pruning.
    required = degree_threshold(gamma, theta)
    query_bits = 0
    for index in query_indices:
        query_bits |= 1 << index
    changed = True
    while changed:
        changed = False
        for vertex in list(graph.labels_of_mask(region)):
            index = graph.index_of(vertex)
            if (1 << index) & query_bits:
                continue
            if (graph.adjacency_mask(index) & region).bit_count() < required:
                region &= ~(1 << index)
                changed = True
    return region | query_bits


def containment_search(graph: Graph, spec: QuerySpec, *,
                       tracer=None, progress=None) -> EnumerationResult:
    """Find the (maximal) quasi-cliques containing every ``spec.contains`` vertex."""
    query_set = frozenset(spec.contains)
    if not query_set:
        raise QueryError("the query must contain at least one vertex")
    effective_theta = max(spec.theta, len(query_set))
    query_indices = [graph.index_of(v) for v in query_set]
    obs = tracer if tracer is not None else NULL_TRACER

    should_stop = _deadline_stop(spec)
    found: list[frozenset] = []
    engine = None
    with obs.span("enumerate", workload="containment",
                  query_size=len(query_set)) as enumerate_span:
        region = _query_candidate_mask(graph, query_indices, spec.gamma,
                                       effective_theta)
        query_mask = 0
        for index in query_indices:
            query_mask |= 1 << index
        if region & query_mask == query_mask:
            engine = FastQC(graph, spec.gamma, effective_theta,
                            maximality_filter=False, progress=progress,
                            should_stop=should_stop)
            branch = Branch(query_mask, region & ~query_mask, 0)
            with obs.span("subproblem", stats=engine.statistics,
                          size=region.bit_count()):
                found = [clique for clique in engine.enumerate_branch(branch)
                         if query_set <= clique]
        enumerate_span.annotate(candidates=len(found))
    enumeration_seconds = enumerate_span.seconds

    with obs.span("filter", theta=spec.theta,
                  require_maximal=spec.require_maximal) as filter_span:
        if spec.require_maximal:
            matches = [clique for clique in filter_non_maximal(found, theta=spec.theta)
                       if satisfies_maximality_necessary_condition(graph, clique, spec.gamma)]
        else:
            matches = list(found)
        filter_span.annotate(maximal=len(matches))
    filtering_seconds = filter_span.seconds

    return EnumerationResult(
        maximal_quasi_cliques=canonical_order(matches),
        candidate_quasi_cliques=list(found),
        algorithm=resolve_algorithm(spec.algorithm),
        gamma=spec.gamma,
        theta=spec.theta,
        search_statistics=engine.statistics if engine is not None else SearchStatistics(),
        enumeration_seconds=enumeration_seconds,
        filtering_seconds=filtering_seconds,
        truncated=engine.stopped if engine is not None else False,
    )


# ----------------------------------------------------------------------
# Top-k workload
# ----------------------------------------------------------------------
def topk_search(graph: Graph, spec: QuerySpec, size_bound: int | None = None,
                *, tracer=None, progress=None) -> EnumerationResult:
    """The k largest maximal quasi-cliques, via a shrinking size threshold.

    The search runs the spec's MQCE-S1 algorithm with a size threshold that
    starts high (``|V| / 2``, or ``size_bound`` — e.g. a prepared graph's
    degeneracy bound — when that is lower) and halves until at least ``k``
    maximal quasi-cliques of that size exist or the threshold reaches
    ``spec.theta``.  Every threshold that returns >= k answers provably
    contains the true top-k, so the ranked prefix is exact.
    """
    k = spec.k if spec.k is not None else 1
    minimum_size = max(spec.theta, 1)
    if graph.vertex_count == 0:
        return EnumerationResult(
            maximal_quasi_cliques=[], candidate_quasi_cliques=[],
            algorithm=resolve_algorithm(spec.algorithm),
            gamma=spec.gamma, theta=spec.theta)

    threshold = max(minimum_size, graph.vertex_count // 2)
    if size_bound is not None:
        # No gamma-QC can exceed the bound; starting the halving schedule
        # there skips rounds that provably return nothing.
        threshold = max(minimum_size, min(threshold, size_bound))

    should_stop = _deadline_stop(spec)
    algorithm = resolve_algorithm(spec.algorithm)
    framework = spec.framework if spec.framework is not None else "dc"
    obs = tracer if tracer is not None else NULL_TRACER
    candidates: list[frozenset] = []
    maximal: list[frozenset] = []
    statistics = SearchStatistics()
    truncated = False
    rounds = 0
    with obs.span("enumerate", workload="topk", k=k,
                  algorithm=algorithm) as enumerate_span:
        while True:
            rounds += 1
            enumerator = build_enumerator(
                graph, spec.gamma, threshold, algorithm=algorithm,
                branching=spec.branching, framework=framework,
                max_rounds=spec.max_rounds, maximality_filter=spec.maximality_filter,
                should_stop=should_stop, progress=progress)
            with obs.span("threshold_round",
                          stats=lambda: enumerator.statistics,
                          threshold=threshold) as round_span:
                candidates = enumerator.enumerate()
                statistics = enumerator.statistics
                with obs.span("filter", theta=threshold):
                    maximal = filter_non_maximal(candidates, theta=threshold)
                round_span.annotate(candidates=len(candidates),
                                    maximal=len(maximal))
            truncated = getattr(enumerator, "stopped", False)
            if truncated or len(maximal) >= k or threshold <= minimum_size:
                break
            threshold = max(minimum_size, threshold // 2)
        enumerate_span.annotate(rounds=rounds, final_threshold=threshold)
    enumeration_seconds = enumerate_span.seconds

    return EnumerationResult(
        maximal_quasi_cliques=canonical_order(maximal)[:k],
        candidate_quasi_cliques=list(candidates),
        algorithm=algorithm,
        gamma=spec.gamma,
        theta=spec.theta,
        search_statistics=statistics,
        enumeration_seconds=enumeration_seconds,
        filtering_seconds=0.0,
        truncated=truncated,
    )
