"""Incremental delivery of one query's maximal quasi-cliques: :class:`ResultStream`.

``MQCEEngine.stream(spec)`` returns a :class:`ResultStream` — an iterator of
maximal quasi-cliques that

* serves **warm** queries straight from the result cache (yielding the cached
  maximal sets in canonical order without re-enumerating),
* runs **cold** enumerate queries live: it builds the MQCE-S1 enumerator from
  the resolved spec, yields each maximal quasi-clique as soon as it is
  confirmed (first answers arrive while the enumeration is still running),
  and — when the stream runs to completion un-truncated — assembles the full
  :class:`~repro.pipeline.results.EnumerationResult` and inserts it into the
  cache, so a later ``query()`` or ``stream()`` with the same spec is a hit,
* computes top-k / containment workloads eagerly (they have no incremental
  path) and yields their answers.

Why early yields are safe
-------------------------
DCFastQC solves one subproblem per vertex of its ordering; every output of
subproblem ``i`` contains the root ``v_i`` and no earlier-ordered vertex
(:meth:`repro.core.dcfastqc.DCFastQC.iter_candidate_batches`).  Any proper
superset ``H`` of such an output ``X`` contains ``X``'s vertices, so ``H``'s
lowest-ordered vertex is ``v_j`` with ``j <= i`` — meaning ``H`` is emitted in
subproblem ``j``, *no later than* ``X``'s own subproblem.  Therefore, once
subproblem ``i`` completes, each of its outputs is maximal **iff** no proper
superset exists among the candidates seen so far, which an incrementally
maintained set-trie answers exactly.  Confirmed sets are yielded immediately
and never retracted.

Plans without the divide-and-conquer structure (plain FastQC, Quick+, the
naive baseline, ``framework="none"``) have no such barrier, so the stream
falls back to a terminal flush: enumerate fully (still honouring the budgets
cooperatively), filter once, then yield.  Under truncation, sets yielded by
the incremental path are always genuinely maximal in the full answer; a
time-truncated terminal flush yields the maximal sets of the candidates found
so far (best-effort).

Budgets and cancellation are one predicate: the enumerator's ``should_stop``
turns true once :meth:`ResultStream.cancel` was called, the ``max_results``
quota is met or the ``time_limit`` :class:`~repro.resilience.retry.Deadline`
has passed.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterable, Iterator

from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER
from ..pipeline.mqce import build_enumerator, canonical_order
from ..pipeline.results import EnumerationResult
from ..resilience.retry import Deadline
from ..settrie.filter import filter_non_maximal
from ..settrie.settrie import SetTrie

_YIELDS = REGISTRY.counter(
    "repro_stream_yields_total",
    "Maximal quasi-cliques delivered by engine result streams, by path")


class ResultStream(Iterator[frozenset]):
    """An engine-managed stream of maximal quasi-cliques for one query.

    Progress is observable mid-iteration: ``delivered``, ``finished``,
    ``truncated``, ``from_cache``, ``cancelled`` and, for live DC plans,
    ``subproblems_completed``.

    ``trace`` attaches a :class:`repro.obs.Tracer` (kept on :attr:`tracer`):
    the live path records an ``enumerate`` span whose clock pauses while the
    stream is suspended at a yield, with the DC driver's ``decompose`` /
    ``shrink`` / ``subproblem`` spans beneath it.  ``progress`` forwards a
    :class:`repro.obs.ProgressTicker` to the enumeration.
    """

    def __init__(self, engine, prepared, spec, plan, key: tuple,
                 use_cache: bool = True, trace=None, progress=None) -> None:
        self.spec = spec
        self.plan = plan
        self.delivered = 0
        self.finished = False
        self.truncated = False
        self.from_cache = False
        self.subproblems_completed = 0
        self.tracer = trace if trace is not None else NULL_TRACER
        self._progress = progress
        self._engine = engine
        self._prepared = prepared
        self._key = key
        self._use_cache = use_cache
        # cancel() may come from any thread (the serve layer cancels from
        # the asyncio loop while an executor thread consumes the stream),
        # possibly before iteration starts; it only ever sets this flag,
        # which the delivery loop and the enumerator's should_stop read.
        self._cancelled = False
        self._deadline: Deadline | None = None
        self._start = time.perf_counter()
        # The graph version the cache key was derived from.  Caching on
        # completion is gated on this exact version — not on the
        # preparation's synced version, which a sync legitimately advances
        # mid-stream.
        self._graph_version = prepared.graph.version

        if spec.contains or spec.k is not None:
            # Top-k / containment constraints (regardless of count_only) have
            # no incremental path; query() handles their caching (and its own
            # hit/miss accounting).
            self._iterator = self._eager()
            return
        cached = None
        if use_cache and spec.cacheable:
            cached = engine.cache.get(key)
        if cached is not None:
            self.from_cache = True
            self._iterator = self._replay(cached)
        elif plan.trivial:
            self._iterator = self._empty()
        else:
            self._iterator = self._live()

    # ------------------------------------------------------------------
    def __iter__(self) -> "ResultStream":
        return self

    def __next__(self) -> frozenset:
        return next(self._iterator)

    def cancel(self) -> None:
        """Request cooperative cancellation of the stream.

        Thread-safe and idempotent: safe to call from a thread other than the
        consumer's (the next yield boundary stops delivery, the next branch
        boundary stops the enumeration), repeatedly, and even before
        iteration starts — the enumeration is then stopped at its first
        check.
        """
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been requested (by any thread)."""
        return self._cancelled

    def _halted(self) -> bool:
        """Cancelled, or the ``max_results`` quota is met."""
        limit = self.spec.max_results
        return self._cancelled or (limit is not None and self.delivered >= limit)

    def _should_stop(self) -> bool:
        """The enumerator's cooperative-stop predicate (budgets + cancel)."""
        return self._halted() or (self._deadline is not None and self._deadline.expired())

    # ------------------------------------------------------------------
    def _deliver(self, cliques: Iterable[frozenset], path: str,
                 span=None) -> Iterator[frozenset]:
        """Yield ``cliques`` under the budgets, pausing ``span`` at each yield."""
        for clique in cliques:
            if self._halted():
                self.truncated = True
                return
            self.delivered += 1
            _YIELDS.inc(path=path)
            if span is not None:
                span.pause()
            yield clique
            if span is not None:
                span.resume()
        if self._cancelled:
            self.truncated = True
        self.finished = not self.truncated

    def _replay(self, result: EnumerationResult) -> Iterator[frozenset]:
        """Serve a cache hit: the canonical maximal list, budget-trimmed."""
        self._engine._record(self.plan, cached=True,
                             seconds=time.perf_counter() - self._start)
        yield from self._deliver(list(result.maximal_quasi_cliques), "replay")

    def _empty(self) -> Iterator[frozenset]:
        """A trivial plan: preprocessing proved the answer empty."""
        self._engine._record(self.plan, cached=False,
                             seconds=time.perf_counter() - self._start)
        self.finished = True
        return
        yield  # pragma: no cover - makes this a generator

    def _eager(self) -> Iterator[frozenset]:
        """Top-k / containment: no incremental path; compute, then yield."""
        # Fetch the un-trimmed answer (same cache entry: budgets are not part
        # of the key) so _deliver can apply max_results and flag truncation.
        base = dataclasses.replace(self.spec, max_results=None)
        result = self._engine.query(self._prepared, base,
                                    use_cache=self._use_cache,
                                    trace=self.tracer, progress=self._progress)
        self.truncated = result.truncated
        yield from self._deliver(list(result.maximal_quasi_cliques), "eager")

    def _live(self) -> Iterator[frozenset]:
        """Cold enumerate query: enumerate, confirm and yield; cache on completion."""
        spec = self.spec.resolved(self.plan)
        if spec.time_limit is not None:
            self._deadline = Deadline.after(spec.time_limit)
        enumerator = build_enumerator(
            self._prepared, spec.gamma, spec.theta, algorithm=spec.algorithm,
            branching=spec.branching, framework=spec.framework,
            max_rounds=spec.max_rounds, maximality_filter=spec.maximality_filter,
            should_stop=self._should_stop, progress=self._progress,
            tracer=self.tracer)
        candidates: list[frozenset] = []
        confirmed: list[frozenset] = []
        if spec.algorithm == "dcfastqc" and spec.framework in ("dc", "basic-dc"):
            source = self._confirm_batches(enumerator, candidates, confirmed)
        else:
            source = self._flush(enumerator, candidates, confirmed)
        # Only time spent *inside* the enumerator counts; the span's clock
        # pauses while the generator is suspended at `yield`, so a slow
        # consumer does not inflate the cached timings or the engine history.
        with self.tracer.span("enumerate", stats=lambda: enumerator.statistics,
                              algorithm=spec.algorithm, streaming=True) as span:
            yield from self._deliver(source, "live", span)
        # A consumer may mutate the graph between yields; a stream that ran
        # across a mutation must not populate the cache under the pre-mutation
        # fingerprint (its content reflects neither snapshot cleanly).
        if (self.finished and self._use_cache and spec.cacheable
                and self._prepared.graph.version == self._graph_version):
            self._engine.cache.put(self._key, EnumerationResult(
                maximal_quasi_cliques=canonical_order(confirmed),
                candidate_quasi_cliques=candidates,
                algorithm=spec.algorithm,
                gamma=spec.gamma,
                theta=spec.theta,
                search_statistics=enumerator.statistics,
                enumeration_seconds=span.seconds,
                filtering_seconds=0.0))
        self._engine._record(self.plan, cached=False, seconds=span.seconds)

    def _confirm_batches(self, enumerator, candidates: list,
                         confirmed: list) -> Iterator[frozenset]:
        """DC plans: confirm each subproblem's outputs as it completes."""
        trie = SetTrie()
        for batch in enumerator.iter_candidate_batches():
            candidates.extend(batch)
            for candidate in batch:
                trie.insert(candidate)
            if enumerator.stopped:
                # The last batch may be partial (a superset of one of its
                # members could still be unexplored), so it is not confirmed.
                break
            self.subproblems_completed += 1
            # Largest first: a batch member never eliminates a larger one.
            for candidate in sorted(batch, key=len, reverse=True):
                if not trie.exists_superset(candidate, proper=True):
                    confirmed.append(candidate)
                    yield candidate
        self.truncated = enumerator.stopped

    def _flush(self, enumerator, candidates: list,
               confirmed: list) -> Iterator[frozenset]:
        """Other plans: enumerate fully (budget-aware), filter once, then yield."""
        candidates.extend(enumerator.enumerate())
        self.truncated = getattr(enumerator, "stopped", False)
        confirmed.extend(canonical_order(
            filter_non_maximal(candidates, theta=self.spec.theta)))
        yield from confirmed

    def __repr__(self) -> str:
        state = ("finished" if self.finished
                 else "truncated" if self.truncated else "running")
        return (f"ResultStream({self.spec.describe()!r}, {state}, "
                f"delivered={self.delivered}, from_cache={self.from_cache})")
