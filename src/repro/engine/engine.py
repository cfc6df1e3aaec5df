"""The MQCE query engine: prepared graphs + plan selection + result caching.

:class:`MQCEEngine` is the persistent facade over the
:func:`repro.run_enumeration` pipeline: ``query``, ``stream`` and ``explain``
each take a graph and a :class:`~repro.api.spec.QuerySpec`.  A query flows
through three stages:

1. **Prepare** — the graph is wrapped in a
   :class:`~repro.engine.prepared.PreparedGraph` (memoized fingerprint and
   core decomposition).  A plain graph is prepared once and the
   preparation attached to the graph object itself, so it lives exactly as
   long as the graph does (and is shared by every engine that sees the graph).
   A graph mutated since this engine last saw it is *synced* first
   (:meth:`MQCEEngine.sync`): the preparation replays the graph's changelog
   and this engine's cache is invalidated selectively.
2. **Plan** — the :class:`~repro.engine.planner.QueryPlanner` picks the
   MQCE-S1 algorithm, branching rule and the worker processes a
   divide-and-conquer run may fan out to from the prepared statistics;
   :meth:`MQCEEngine.explain` returns this plan without enumerating anything.
3. **Execute or hit** — the plan key is looked up in the LRU
   :class:`~repro.engine.cache.ResultCache`; on a miss the spec, resolved by
   the plan, runs through :func:`~repro.pipeline.mqce.run_enumeration` with
   the plan's workers (a DCFastQC run fans out to them once it has done
   enough work in this process).  The result is cached.

Results are regular :class:`~repro.pipeline.results.EnumerationResult`
objects, bit-identical in content to what ``run_enumeration`` returns for the
same spec; cache hits hand out defensive copies so
callers may mutate the lists they receive.

Cache keys are content-addressed (fingerprint + resolved spec), so an entry is
valid for every graph with that content.  A sync decides which entries a
mutation may affect; for γ >= 0.5 every quasi-clique has diameter <= 2, so
any maximal quasi-clique that appears or disappears lies inside the 2-hop
neighbourhood of a touched edge.  The rules are conservative (they may
invalidate a still-valid entry) but never retain a stale one:

* *edge removed* ``(u, v)`` — removing an edge cannot create a new
  quasi-clique, only kill answers containing both endpoints or promote their
  subsets to maximal; an entry is stale iff one of its result sets contains
  **both** ``u`` and ``v``.
* *edge added* ``(u, v)`` — an entry is stale if its region intersects the
  2-hop ball of ``{u, v}`` (an existing answer could be absorbed), or if a
  *new* answer could have appeared: both endpoints survive the
  ``ceil(gamma * (theta - 1))``-core of the subgraph induced by the ball and
  that core is at least ``theta`` strong.
* *vertex removed* — stale iff the vertex is in the entry's region (its
  incident edge removals are handled by the rule above first).
* *vertex added* — only entries with ``theta <= 1`` change (the new isolated
  vertex is itself a maximal quasi-clique).

Surviving entries are re-keyed to the new fingerprint.  When the graph's
bounded changelog no longer reaches back to the engine's synced version,
every entry of the old content is invalidated (a full rebuild).  An engine
that never synced a mutation can only lose warm entries: its old entries
become unreachable under the new fingerprint, never stale.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, deque
from dataclasses import dataclass

from ..api.execute import containment_search, shape_result, topk_search
from ..api.spec import QuerySpec
from ..dynamic.index import CacheIndex, UpdateReport, UpdateStats
from ..errors import EngineError, SpecError
from ..extensions.parallel import LAST_PARALLEL_RUN
from ..graph.core_decomposition import core_numbers
from ..graph.delta import GraphMutation
from ..graph.graph import Graph
from ..graph.subgraph import two_hop_mask
from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER
from ..pipeline.mqce import run_enumeration
from ..pipeline.results import EnumerationResult
from ..quasiclique.definitions import degree_threshold
from .cache import DEFAULT_CAPACITY, ResultCache
from .planner import QueryPlan, QueryPlanner
from .prepared import PreparedGraph
from .stream import ResultStream

_QUERIES = REGISTRY.counter(
    "repro_engine_queries_total",
    "Queries served by MQCEEngine.query, by how they were served")

#: How many recent per-query records ``MQCEEngine.history`` keeps (the
#: counts in ``stats()`` are running totals, not read from this window).
HISTORY_LIMIT = 1024

#: Attribute under which a Graph carries its own PreparedGraph.  Attaching the
#: preparation to the graph ties their lifetimes together: a WeakKeyDictionary
#: would never release entries (the PreparedGraph value strongly references
#: its Graph key), while the graph -> prepared -> graph reference cycle is
#: ordinary garbage for the cycle collector once the caller drops the graph.
_PREPARED_ATTRIBUTE = "_repro_prepared"


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
    workers:
        Default worker budget offered to the planner for parallel plans
        (None: let the planner use the machine's CPU count; 1 keeps every
        query in this process).
    """

    def __init__(self, cache_size: int = DEFAULT_CAPACITY,
                 workers: int | None = None) -> None:
        self.planner = QueryPlanner()
        self.cache = ResultCache(cache_size)
        self.workers = workers
        self.history: deque[QueryRecord] = deque(maxlen=HISTORY_LIMIT)
        self._plans: Counter[str] = Counter()  # queries served, by algorithm
        self._queries_cached = 0
        # Sync state: the (version, fingerprint) this engine last saw of each
        # preparation (kept alive by its graph, never by the engine), and one
        # selective-invalidation index per fingerprint.
        self._synced: "weakref.WeakKeyDictionary[PreparedGraph, tuple[int, str]]" = (
            weakref.WeakKeyDictionary())
        self._indexes: dict[str, CacheIndex] = {}
        self.update_stats = UpdateStats()

    # ------------------------------------------------------------------
    # Stage 1: preparation
    # ------------------------------------------------------------------
    def prepare(self, graph: Graph | PreparedGraph,
                name: str | None = None) -> PreparedGraph:
        """Return the :class:`PreparedGraph` for ``graph``, synced (see :meth:`sync`).

        A plain :class:`Graph` is prepared on first sight and the preparation
        attached to the graph object, so every later call with the same object
        (from this or any other engine) reuses it.  An explicit
        :class:`PreparedGraph` is used as given.
        """
        prepared = self._preparation(graph, name)
        self._sync(prepared)
        return prepared

    def sync(self, graph: Graph | PreparedGraph) -> UpdateReport:
        """Bring ``graph``'s preparation and this engine's cache up to its current version.

        The preparation replays the graph's changelog into its artifacts; then
        this engine's cache entries for the old content are invalidated
        selectively and the survivors re-keyed to the new fingerprint (see the
        module docstring for the rules).  Queries sync on their own; call this
        to sync eagerly, e.g. right after applying an update batch.
        """
        start = time.perf_counter()
        prepared = self._preparation(graph)
        report = self._sync(prepared)
        if report is None:
            fingerprint = prepared.fingerprint
            index = self._indexes.get(fingerprint)
            entries = len(index) if index is not None else 0
            report = UpdateReport(entries_before=entries, retained=entries,
                                  old_fingerprint=fingerprint,
                                  new_fingerprint=fingerprint,
                                  seconds=time.perf_counter() - start)
        return report

    def _preparation(self, graph: Graph | PreparedGraph,
                     name: str | None = None) -> PreparedGraph:
        if isinstance(graph, PreparedGraph):
            return graph
        prepared = getattr(graph, _PREPARED_ATTRIBUTE, None)
        if not isinstance(prepared, PreparedGraph):
            prepared = PreparedGraph(graph, name=name)
            setattr(graph, _PREPARED_ATTRIBUTE, prepared)
        return prepared

    def _sync(self, prepared: PreparedGraph) -> UpdateReport | None:
        """Sync one preparation; None when this engine was already current."""
        version = prepared.graph.version
        state = self._synced.get(prepared)
        if state is not None and state[0] == version:
            return None
        start = time.perf_counter()
        new_fingerprint = prepared.fingerprint  # replays the changelog
        self._synced[prepared] = (version, new_fingerprint)
        if state is None:
            return None
        synced_version, old_fingerprint = state
        pending = prepared.graph.delta.since(synced_version)
        index = self._indexes.pop(old_fingerprint, None) or CacheIndex()
        self._reconcile(index, old_fingerprint)
        entries_before = len(index)
        if pending is None:
            stale = set(index.keys())
        else:
            stale = self._stale_entries(index, prepared.graph, pending)
        for key in stale:
            self.cache.discard(key)
            index.discard(key)
        rekeyed = 0
        if old_fingerprint != new_fingerprint:
            for key in index.keys():
                new_key = (new_fingerprint,) + tuple(key[1:])
                if self.cache.rekey(key, new_key):
                    rekeyed += 1
                    index.rekey(key, new_key)
                else:
                    index.discard(key)  # evicted by the LRU meanwhile
        self._indexes[new_fingerprint] = index
        by_op = Counter(mutation.op for mutation in pending or ())
        report = UpdateReport(
            mutations=len(pending or ()),
            added_vertices=by_op.get("add_vertex", 0),
            removed_vertices=by_op.get("remove_vertex", 0),
            added_edges=by_op.get("add_edge", 0),
            removed_edges=by_op.get("remove_edge", 0),
            entries_before=entries_before,
            invalidated=len(stale),
            retained=len(index),
            rekeyed=rekeyed,
            full_rebuild=pending is None,
            old_fingerprint=old_fingerprint,
            new_fingerprint=new_fingerprint,
            seconds=time.perf_counter() - start,
        )
        self.update_stats.absorb(report, by_op)
        return report

    def _reconcile(self, index: CacheIndex, fingerprint: str) -> None:
        """Register the cache entries for ``fingerprint`` that ``index`` lacks.

        Entries appear in the cache through ``query`` and completed
        ``stream`` runs; scanning the (bounded) cache for keys under
        the fingerprint keeps the index complete no matter which path
        inserted them.  The spec-key layout puts gamma and theta right after
        the ``"spec"`` tag (see :meth:`QuerySpec.cache_key`).
        """
        for key in self.cache.keys():
            if not (isinstance(key, tuple) and len(key) >= 4
                    and key[0] == fingerprint and key[1] == "spec"):
                continue
            if key in index:
                continue
            value = self.cache.peek(key)
            if isinstance(value, EnumerationResult):
                gamma, theta = key[2], key[3]
                index.register(key, value, gamma, theta)

    def _stale_entries(self, index: CacheIndex, graph: Graph,
                       pending: list[GraphMutation]) -> set:
        stale: set = set()
        added_pairs = [(m.u, m.v) for m in pending if m.op == "add_edge"]
        removed_pairs = [(m.u, m.v) for m in pending if m.op == "remove_edge"]
        removed_vertices = [m.u for m in pending if m.op == "remove_vertex"]
        vertex_added = any(m.op == "add_vertex" for m in pending)

        # A new isolated vertex is itself a maximal quasi-clique when theta <= 1.
        if vertex_added:
            stale |= {key for key, meta in index.items() if meta.theta <= 1}

        # A removed vertex takes every answer that mentioned it.
        for label in removed_vertices:
            stale |= index.touching((label,))

        # Removal: answers only change where a result held both endpoints.
        for u, v in removed_pairs:
            for key in index.touching((u,)) & index.touching((v,)):
                if key in stale:
                    continue
                meta = index.get(key)
                if any(u in result and v in result for result in meta.result_sets):
                    stale.add(key)

        # Addition: region intersection with the 2-hop ball, plus the
        # new-answer test on the ball's core.
        for u, v in added_pairs:
            if u not in graph or v not in graph or not graph.has_edge(u, v):
                # The pair did not survive to the final graph; any transient
                # effect is covered by the records that undid it.
                continue
            ball = self._touched_ball(graph, u, v)
            stale |= index.touching(ball)
            remaining = [(key, meta) for key, meta in index.items()
                         if key not in stale]
            if not remaining:
                continue
            ball_cores = core_numbers(graph.induced_subgraph(ball))
            for key, meta in remaining:
                threshold = degree_threshold(meta.gamma, meta.theta)
                if threshold <= 0:
                    stale.add(key)
                    continue
                if (ball_cores.get(u, 0) >= threshold
                        and ball_cores.get(v, 0) >= threshold
                        and sum(1 for core in ball_cores.values()
                                if core >= threshold) >= meta.theta):
                    stale.add(key)
        return stale

    @staticmethod
    def _touched_ball(graph: Graph, u, v) -> frozenset:
        """Labels within distance 2 of either endpoint, in the current graph."""
        full = graph.full_mask()
        iu, iv = graph.index_of(u), graph.index_of(v)
        mask = (two_hop_mask(graph, iu, full) | two_hop_mask(graph, iv, full)
                | (1 << iu) | (1 << iv))
        return graph.labels_of_mask(mask)

    # ------------------------------------------------------------------
    # Stage 2: planning
    # ------------------------------------------------------------------
    def explain(self, graph: Graph | PreparedGraph, spec: QuerySpec) -> QueryPlan:
        """Return the plan :meth:`query` would run for ``spec``, without enumerating."""
        spec = _require_spec(spec)
        return self.planner.plan(self.prepare(graph), spec, workers=self.workers)

    # ------------------------------------------------------------------
    # Stage 3: execution
    # ------------------------------------------------------------------
    def query(self, graph: Graph | PreparedGraph, spec: QuerySpec,
              use_cache: bool = True, *,
              trace=None, progress=None) -> EnumerationResult:
        """Solve one query described by a :class:`QuerySpec`, serving repeats from cache.

        ``spec`` must be a :class:`repro.api.QuerySpec` (anything else raises
        :class:`~repro.errors.SpecError`).  For the plain enumerate workload
        the returned :class:`EnumerationResult` is content-identical to the
        one-shot pipeline's result for the same spec; the ``algorithm`` may
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
        or the DC driver's ``decompose`` / ``shrink`` / ``subproblem`` /
        ``fan_out``).
        ``progress`` is an optional :class:`repro.obs.ProgressTicker` fed by
        the branch loop (ignored on cache hits); like a ``time_limit`` it
        keeps the run in this process.
        """
        spec = _require_spec(spec)
        tracer = trace if trace is not None else NULL_TRACER
        with tracer.span("query") as query_span:
            with tracer.span("prepare"):
                prepared = self.prepare(graph)
            with tracer.span("plan") as plan_span:
                plan = self.planner.plan(prepared, spec, workers=self.workers)
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

    def stream(self, graph: Graph | PreparedGraph, spec: QuerySpec,
               use_cache: bool = True, *,
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
        in the full answer, even when the stream is truncated.  A stream
        always enumerates in this process, whatever the plan's parallelism.

        ``trace`` attaches a :class:`repro.obs.Tracer` to the stream (exposed
        as :attr:`ResultStream.tracer`): the live path records an
        ``enumerate`` span whose clock pauses while the stream is suspended
        at a yield.  ``progress`` forwards a branch-tick hook to the
        underlying enumeration.
        """
        spec = _require_spec(spec)
        prepared = self.prepare(graph)
        plan = self.planner.plan(prepared, spec, workers=self.workers)
        resolved = spec.resolved(plan)
        key = ResultCache.spec_key(prepared.fingerprint, resolved)
        return ResultStream(self, prepared, spec, plan, key, use_cache=use_cache,
                            trace=trace, progress=progress)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Engine counters: queries served, cache behaviour, plan mix, syncs."""
        queries = sum(self._plans.values())
        stats = {
            "queries": queries,
            "queries_cached": self._queries_cached,
            "queries_executed": queries - self._queries_cached,
            "prepared_graphs": len(self._synced),
            "cache_entries": len(self.cache),
            "cache_capacity": self.cache.capacity,
            "cache": self.cache.stats.as_dict(),
            "plans_by_algorithm": dict(self._plans),
            "dynamic": {
                "indexed_entries": sum(map(len, self._indexes.values())),
                "updates": self.update_stats.as_dict(),
            },
        }
        if LAST_PARALLEL_RUN:
            # Telemetry of the most recent parallel enumeration (mode, steal
            # count, worker utilization) — process-global, like the registry.
            stats["parallel"] = dict(LAST_PARALLEL_RUN)
        return stats

    def clear_cache(self) -> None:
        """Drop every cached result (the counters survive for ``stats()``)."""
        self.cache.clear()
        self._indexes.clear()

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
        if resolved.contains:
            return containment_search(prepared.graph, resolved, tracer=tracer,
                                      progress=progress)
        if resolved.k is not None:
            # Every halving round reuses the preparation's core masks.
            return topk_search(prepared, resolved,
                               size_bound=prepared.size_upper_bound(resolved.gamma),
                               tracer=tracer, progress=progress)
        return run_enumeration(prepared, resolved, tracer=tracer,
                               progress=progress, workers=plan.workers)

    def _record(self, plan: QueryPlan, cached: bool, seconds: float) -> None:
        _QUERIES.inc(served="cache" if cached else "execute")
        self._plans[plan.algorithm] += 1
        self._queries_cached += cached
        self.history.append(QueryRecord(
            fingerprint=plan.fingerprint, gamma=plan.gamma, theta=plan.theta,
            algorithm=plan.algorithm, cached=cached, seconds=seconds))

    def __repr__(self) -> str:
        return (f"MQCEEngine(prepared={len(self._synced)}, "
                f"cache={len(self.cache)}/{self.cache.capacity}, "
                f"queries={sum(self._plans.values())})")


def _require_spec(spec) -> QuerySpec:
    """``spec`` itself when it is a :class:`QuerySpec`; a :class:`SpecError` otherwise."""
    if not isinstance(spec, QuerySpec):
        raise SpecError(f"a query is described by a QuerySpec, not "
                        f"{type(spec).__name__}: use QuerySpec(gamma=..., theta=...)")
    return spec


__all__ = ["EngineError", "MQCEEngine", "QueryRecord"]
