"""The MQCE query engine: prepared graphs + plan selection + result caching.

:class:`MQCEEngine` is the persistent facade the one-shot
:func:`repro.find_maximal_quasi_cliques` pipeline lacks.  A query flows
through three stages:

1. **Prepare** — the graph is wrapped in a
   :class:`~repro.engine.prepared.PreparedGraph` (memoized core decomposition,
   ordering, components, fingerprint).  A plain graph is prepared once and the
   preparation attached to the graph object itself, so it lives exactly as
   long as the graph does (and is shared by every engine that sees the graph).
2. **Plan** — the :class:`~repro.engine.planner.QueryPlanner` picks the
   MQCE-S1 algorithm, branching rule and (for large cores) process-level
   parallelism from the prepared statistics; :meth:`MQCEEngine.explain`
   returns this plan without enumerating anything.
3. **Execute or hit** — the plan key is looked up in the LRU
   :class:`~repro.engine.cache.ResultCache`; on a miss the plan is executed
   through the existing :mod:`repro.pipeline.mqce` internals (or
   :class:`~repro.extensions.parallel.ParallelDCFastQC` when the plan says
   so) and the result is cached.

Results are regular :class:`~repro.pipeline.results.EnumerationResult`
objects, bit-identical in content to what ``find_maximal_quasi_cliques``
returns for the same parameters; cache hits hand out defensive copies so
callers may mutate the lists they receive.
"""

from __future__ import annotations

import weakref
from collections import Counter, deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ..api.execute import containment_search, shape_result, topk_search
from ..api.spec import QuerySpec, coerce_spec
from ..errors import EngineError
from ..extensions.parallel import LAST_PARALLEL_RUN, ParallelDCFastQC
from ..graph.graph import Graph
from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER
from ..pipeline.mqce import canonical_order, run_enumeration
from ..pipeline.results import EnumerationResult
from ..settrie.filter import filter_non_maximal
from .cache import DEFAULT_CAPACITY, ResultCache
from .planner import PlannerConfig, QueryPlan, QueryPlanner
from .prepared import PreparedGraph
from .stream import ResultStream

_QUERIES = REGISTRY.counter(
    "repro_engine_queries_total",
    "Queries served by MQCEEngine.query, by how they were served")

#: How many per-query records the engine keeps for ``stats()``.
HISTORY_LIMIT = 1024

#: Attribute under which a Graph carries its own PreparedGraph.  Attaching the
#: preparation to the graph ties their lifetimes together: a WeakKeyDictionary
#: would never release entries (the PreparedGraph value strongly references
#: its Graph key), while the graph -> prepared -> graph reference cycle is
#: ordinary garbage for the cycle collector once the caller drops the graph.
_PREPARED_ATTRIBUTE = "_repro_prepared"


@dataclass(frozen=True)
class QueryRequest:
    """One entry of a :meth:`MQCEEngine.query_batch` workload."""

    gamma: float
    theta: int
    algorithm: str = "auto"
    branching: str | None = None

    @classmethod
    def coerce(cls, entry: "QueryRequest | Mapping | tuple") -> "QueryRequest":
        """Accept a QueryRequest, a ``{"gamma": .., "theta": ..}`` mapping or a tuple."""
        if isinstance(entry, cls):
            return entry
        if isinstance(entry, Mapping):
            return cls(**entry)
        gamma, theta, *rest = entry
        return cls(gamma, theta, *rest)


@dataclass(frozen=True)
class QueryRecord:
    """Bookkeeping for one served query (fed into ``stats()``)."""

    fingerprint: str
    gamma: float
    theta: int
    algorithm: str
    cached: bool
    seconds: float


class MQCEEngine:
    """A persistent, caching MQCE query engine over one or more graphs.

    Parameters
    ----------
    cache_size:
        Capacity of the LRU result cache (entries, not bytes).
    planner:
        A :class:`QueryPlanner`; defaults to one with the stock thresholds.
        Pass ``QueryPlanner(PlannerConfig(...))`` to tune plan selection.
    workers:
        Default worker budget offered to the planner for parallel plans
        (None: let the planner use the machine's CPU count).
    """

    def __init__(self, cache_size: int = DEFAULT_CAPACITY,
                 planner: QueryPlanner | None = None,
                 workers: int | None = None) -> None:
        self.planner = planner or QueryPlanner()
        self.cache = ResultCache(cache_size)
        self.workers = workers
        self.history: deque[QueryRecord] = deque(maxlen=HISTORY_LIMIT)
        # Stats-only view of the preparations this engine has touched; each
        # PreparedGraph is kept alive by its graph, never by the engine.
        self._prepared: "weakref.WeakSet[PreparedGraph]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Stage 1: preparation
    # ------------------------------------------------------------------
    def prepare(self, graph: Graph | PreparedGraph,
                name: str | None = None) -> PreparedGraph:
        """Return (and remember) the :class:`PreparedGraph` for ``graph``.

        A plain :class:`Graph` is prepared on first sight and the preparation
        attached to the graph object, so every later call with the same object
        (from this or any other engine) reuses it; if the graph was mutated in
        between, it is transparently re-prepared.  An explicit
        :class:`PreparedGraph` is the caller's responsibility: passing one
        whose underlying graph changed raises :class:`EngineError`.
        """
        if isinstance(graph, PreparedGraph):
            if not graph.check_unmodified():
                raise EngineError(
                    "the underlying graph of the PreparedGraph was mutated after "
                    "preparation; build a new PreparedGraph for the new content")
            self._prepared.add(graph)
            return graph
        prepared = getattr(graph, _PREPARED_ATTRIBUTE, None)
        if not isinstance(prepared, PreparedGraph) or not prepared.check_unmodified():
            prepared = PreparedGraph(graph, name=name)
            setattr(graph, _PREPARED_ATTRIBUTE, prepared)
        self._prepared.add(prepared)
        return prepared

    # ------------------------------------------------------------------
    # Stage 2: planning
    # ------------------------------------------------------------------
    def explain(self, graph: Graph | PreparedGraph, gamma=None, theta: int | None = None,
                algorithm: str = "auto", branching: str | None = None, *,
                spec: QuerySpec | None = None) -> QueryPlan:
        """Return the plan a query would use, without running the enumeration.

        Accepts either the PR-1 parameters (``explain(graph, gamma, theta,
        ...)``) or a :class:`QuerySpec` (``explain(graph, spec)``).
        """
        spec = coerce_spec(gamma, theta, algorithm, branching, spec=spec)
        prepared = self.prepare(graph)
        return self.planner.plan_spec(prepared, spec, workers=self.workers)

    # ------------------------------------------------------------------
    # Stage 3: execution
    # ------------------------------------------------------------------
    def query(self, graph: Graph | PreparedGraph, gamma=None, theta: int | None = None,
              algorithm: str = "auto", branching: str | None = None,
              use_cache: bool = True, *,
              spec: QuerySpec | None = None,
              trace=None, progress=None) -> EnumerationResult:
        """Solve one query described by a :class:`QuerySpec`, serving repeats from cache.

        Both calling styles are supported — ``query(graph, spec)`` /
        ``query(graph, spec=spec)`` with a :class:`repro.api.QuerySpec`, and
        the PR-1 style ``query(graph, gamma, theta, algorithm=...,
        branching=...)`` which builds the equivalent spec internally (both
        styles address the same cache entries).

        For the plain enumerate workload the returned
        :class:`EnumerationResult` is content-identical to the one-shot
        pipeline's result for the same parameters; the ``algorithm`` may
        differ when the planner picked a cheaper exact one (all MQCE-S1
        algorithms agree after MQCE-S2 filtering).  Top-k and containment
        specs return the same envelope with their (ranked / constrained)
        answers as ``maximal_quasi_cliques``.  Results truncated by a
        ``time_limit`` are marked and never cached; ``max_results`` /
        ``include_candidates`` shape only the delivered copy, so warm
        identical queries still skip re-enumeration regardless of output
        options.

        ``trace`` is an optional :class:`repro.obs.Tracer`: the query becomes
        one ``query`` root span with ``prepare`` / ``plan`` / ``cache``
        children plus the execution-path spans (``enumerate`` / ``filter``,
        or the DC driver's ``decompose`` / ``shrink`` / ``subproblem``).
        ``progress`` is an optional :class:`repro.obs.ProgressTicker` fed by
        the branch loop (ignored on cache hits and parallel plans).
        """
        tracer = trace if trace is not None else NULL_TRACER
        with tracer.span("query") as query_span:
            spec = coerce_spec(gamma, theta, algorithm, branching, spec=spec)
            with tracer.span("prepare"):
                prepared = self.prepare(graph)
            with tracer.span("plan") as plan_span:
                plan = self.planner.plan_spec(prepared, spec, workers=self.workers)
                plan_span.annotate(algorithm=plan.algorithm,
                                   branching=plan.branching)
            resolved = spec.resolved(plan)
            key = ResultCache.spec_key(prepared.fingerprint, resolved)
            query_span.annotate(gamma=plan.gamma, theta=plan.theta,
                                algorithm=plan.algorithm,
                                workload=spec.workload)
            if use_cache and spec.cacheable:
                with tracer.span("cache") as cache_span:
                    cached = self.cache.get(key)
                    cache_span.annotate(hit=cached is not None)
                if cached is not None:
                    query_span.annotate(served="cache")
                    self._record(plan, cached=True,
                                 seconds=query_span.elapsed())
                    return shape_result(cached, spec)
            result = self._execute_spec(prepared, resolved, plan,
                                        tracer=tracer, progress=progress)
            if use_cache and spec.cacheable and not result.truncated:
                self.cache.put(key, result)
            query_span.annotate(served="execute")
            self._record(plan, cached=False, seconds=query_span.elapsed())
            return shape_result(result, spec)

    def stream(self, graph: Graph | PreparedGraph, gamma=None, theta: int | None = None,
               algorithm: str = "auto", branching: str | None = None,
               use_cache: bool = True, *,
               spec: QuerySpec | None = None,
               trace=None, progress=None) -> ResultStream:
        """Yield maximal quasi-cliques incrementally for one query.

        Returns a :class:`~repro.engine.stream.ResultStream` iterator.  Warm
        queries replay the cached answer; cold enumerate queries yield each
        maximal quasi-clique as soon as it is *confirmed* (for DCFastQC plans
        the first answers arrive long before the enumeration finishes) and
        populate the cache when they run to completion.  The spec's budgets
        (``time_limit``, ``max_results``) stop the underlying enumeration
        cooperatively, and :meth:`ResultStream.cancel` aborts mid-flight.
        Every set yielded by an incremental (DC) stream is genuinely maximal
        in the full answer, even when the stream is truncated.

        ``trace`` attaches a :class:`repro.obs.Tracer` to the stream (exposed
        as :attr:`ResultStream.tracer`): the live path records an
        ``enumerate`` span whose clock pauses while the stream is suspended
        at a yield.  ``progress`` forwards a branch-tick hook to the
        underlying enumeration.
        """
        spec = coerce_spec(gamma, theta, algorithm, branching, spec=spec)
        prepared = self.prepare(graph)
        plan = self.planner.plan_spec(prepared, spec, workers=self.workers)
        resolved = spec.resolved(plan)
        key = ResultCache.spec_key(prepared.fingerprint, resolved)
        return ResultStream(self, prepared, spec, plan, key, use_cache=use_cache,
                            trace=trace, progress=progress)

    def query_batch(self, graph: Graph | PreparedGraph,
                    requests: Iterable[QuerySpec | QueryRequest | Mapping | tuple]
                    ) -> list[EnumerationResult]:
        """Run many queries against one graph, preparing it exactly once.

        ``requests`` entries may be :class:`repro.api.QuerySpec` objects,
        :class:`QueryRequest` objects, ``(gamma, theta[, algorithm[,
        branching]])`` tuples or mappings with those keys.  Results come back
        in request order; duplicates within the batch are served from the
        cache.
        """
        prepared = self.prepare(graph)
        results = []
        for entry in requests:
            if isinstance(entry, QuerySpec):
                results.append(self.query(prepared, entry))
                continue
            request = QueryRequest.coerce(entry)
            results.append(self.query(prepared, request.gamma, request.theta,
                                      algorithm=request.algorithm,
                                      branching=request.branching))
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Engine counters: queries served, cache behaviour, plan mix."""
        algorithms = Counter(record.algorithm for record in self.history)
        cached = sum(1 for record in self.history if record.cached)
        stats = {
            "queries": len(self.history),
            "queries_cached": cached,
            "queries_executed": len(self.history) - cached,
            "prepared_graphs": len(self._prepared),
            "cache_entries": len(self.cache),
            "cache_capacity": self.cache.capacity,
            "cache": self.cache.stats.as_dict(),
            "plans_by_algorithm": dict(algorithms),
        }
        if LAST_PARALLEL_RUN:
            # Telemetry of the most recent parallel enumeration (mode, steal
            # count, worker utilization) — process-global, like the registry.
            stats["parallel"] = dict(LAST_PARALLEL_RUN)
        return stats

    def clear_cache(self) -> None:
        """Drop every cached result (the counters survive for ``stats()``)."""
        self.cache.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute_spec(self, prepared: PreparedGraph, resolved: QuerySpec,
                      plan: QueryPlan, tracer=None,
                      progress=None) -> EnumerationResult:
        """Run one resolved spec through the right workload path."""
        tracer = tracer if tracer is not None else NULL_TRACER
        if plan.trivial:
            # Preprocessing proved no quasi-clique of size >= theta exists, so
            # every workload's answer is empty.
            return EnumerationResult(
                maximal_quasi_cliques=[], candidate_quasi_cliques=[],
                algorithm=plan.algorithm, gamma=plan.gamma, theta=plan.theta)
        graph = prepared.graph
        if resolved.contains:
            return containment_search(graph, resolved, tracer=tracer,
                                      progress=progress)
        if resolved.k is not None:
            return topk_search(graph, resolved,
                               size_bound=prepared.size_upper_bound(resolved.gamma),
                               tracer=tracer, progress=progress)
        if plan.parallel and resolved.time_limit is None:
            # The work-stealing driver has no cooperative-cancellation channel,
            # so budgeted queries always take the sequential path.  (It has no
            # branch-tick channel either; `progress` only applies below.)
            runner = ParallelDCFastQC(graph, plan.gamma, plan.theta,
                                      branching=plan.branching, kernel=plan.kernel,
                                      workers=plan.workers)
            with tracer.span("enumerate", algorithm=plan.algorithm,
                             parallel=True) as enumerate_span:
                candidates = runner.enumerate()
                enumerate_span.annotate(candidates=len(candidates),
                                        mode=runner.mode_selected)
            with tracer.span("filter") as filter_span:
                maximal = filter_non_maximal(candidates, theta=plan.theta)
                filter_span.annotate(maximal=len(maximal))
            result = EnumerationResult(
                maximal_quasi_cliques=canonical_order(maximal),
                candidate_quasi_cliques=list(candidates),
                algorithm=plan.algorithm, gamma=plan.gamma, theta=plan.theta,
                search_statistics=runner.statistics,
                enumeration_seconds=enumerate_span.seconds,
                filtering_seconds=filter_span.seconds)
        else:
            result = run_enumeration(graph, resolved, tracer=tracer,
                                     progress=progress)
        if result.search_statistics is not None:
            # Per-subproblem branch counts (recorded by sequential DC runs; a
            # no-op otherwise) open the parallel gate for the next plan of
            # this (gamma, theta) once the observed work is large.
            prepared.record_subproblem_histogram(
                plan.gamma, plan.theta,
                result.search_statistics.subproblem_branches)
        return result

    def _record(self, plan: QueryPlan, cached: bool, seconds: float) -> None:
        _QUERIES.inc(served="cache" if cached else "execute")
        self.history.append(QueryRecord(
            fingerprint=plan.fingerprint, gamma=plan.gamma, theta=plan.theta,
            algorithm=plan.algorithm, cached=cached, seconds=seconds))

    def __repr__(self) -> str:
        return (f"MQCEEngine(prepared={len(self._prepared)}, "
                f"cache={len(self.cache)}/{self.cache.capacity}, "
                f"queries={len(self.history)})")


# Re-exported here so `from repro.engine.engine import PlannerConfig` users see
# the full tuning surface next to the facade.
__all__ = ["EngineError", "MQCEEngine", "QueryRecord", "QueryRequest", "PlannerConfig"]
