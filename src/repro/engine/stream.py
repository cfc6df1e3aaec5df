"""Engine-level streaming delivery: :class:`ResultStream`.

``MQCEEngine.stream(spec)`` returns a :class:`ResultStream` — an iterator of
maximal quasi-cliques that

* serves **warm** queries straight from the result cache (yielding the cached
  maximal sets in canonical order without re-enumerating),
* runs **cold** enumerate queries through the incremental
  :class:`~repro.pipeline.streaming.QuasiCliqueStream` (first answers arrive
  while the enumeration is still running), and — when the stream runs to
  completion un-truncated — assembles the full
  :class:`~repro.pipeline.results.EnumerationResult` and inserts it into the
  cache, so a later ``query()`` or ``stream()`` with the same spec is a hit,
* computes top-k / containment workloads eagerly (they have no incremental
  path) and yields their answers.

Progress is observable mid-iteration: ``delivered``, ``finished``,
``truncated`` and ``from_cache``.  :meth:`ResultStream.cancel` requests
cooperative cancellation.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Iterator

from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER
from ..pipeline.mqce import canonical_order
from ..pipeline.results import EnumerationResult
from ..pipeline.streaming import QuasiCliqueStream

_YIELDS = REGISTRY.counter(
    "repro_stream_yields_total",
    "Maximal quasi-cliques delivered by engine result streams, by path")


class ResultStream(Iterator[frozenset]):
    """An engine-managed stream of maximal quasi-cliques for one query.

    ``trace`` attaches a :class:`repro.obs.Tracer` (kept on :attr:`tracer`):
    the live path records an ``enumerate`` span whose clock pauses while the
    generator is suspended at a yield, so the span's seconds equal the old
    hand-rolled active-time accounting.  ``progress`` forwards a
    :class:`repro.obs.ProgressTicker` to the underlying enumeration.
    """

    def __init__(self, engine, prepared, spec, plan, key: tuple,
                 use_cache: bool = True, trace=None, progress=None) -> None:
        self.spec = spec
        self.plan = plan
        self.delivered = 0
        self.finished = False
        self.truncated = False
        self.from_cache = False
        self.tracer = trace if trace is not None else NULL_TRACER
        self._progress = progress
        self._engine = engine
        self._prepared = prepared
        self._key = key
        self._use_cache = use_cache
        self._inner: QuasiCliqueStream | None = None
        # cancel() may be called from any thread (the serve layer cancels
        # from the asyncio loop while an executor thread consumes the
        # stream), possibly before iteration has created the inner stream;
        # the lock makes the flag hand-off to _live() race-free.
        self._cancel_lock = threading.Lock()
        self._cancelled = False
        self._start = time.perf_counter()
        # The graph version the cache key was derived from.  Caching on
        # completion is gated on this exact version — not on the prepared
        # graph's own snapshot, which a dynamic prepared graph legitimately
        # advances while patching itself mid-stream.
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
        consumer's (the next yield boundary stops delivery), repeatedly, and
        even before iteration starts — a live enumeration created afterwards
        is born cancelled.
        """
        with self._cancel_lock:
            if self._cancelled:
                return
            self._cancelled = True
            inner = self._inner
        if inner is not None:
            inner.cancel()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been requested (by any thread)."""
        return self._cancelled

    # ------------------------------------------------------------------
    def _deliver(self, cliques, path: str) -> Iterator[frozenset]:
        limit = self.spec.max_results
        for clique in cliques:
            if self._cancelled or (limit is not None and self.delivered >= limit):
                self.truncated = True
                return
            self.delivered += 1
            _YIELDS.inc(path=path)
            yield clique
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
        """Cold enumerate query: stream incrementally, cache on completion."""
        spec = self.spec
        inner = QuasiCliqueStream(
            self._prepared, spec.gamma, spec.theta,
            algorithm=spec.algorithm if spec.algorithm != "auto" else self.plan.algorithm,
            branching=spec.branching or self.plan.branching,
            framework=spec.framework or self.plan.framework,
            max_rounds=spec.max_rounds, maximality_filter=spec.maximality_filter,
            time_limit=spec.time_limit, max_results=spec.max_results,
            progress=self._progress, tracer=self.tracer)
        with self._cancel_lock:
            self._inner = inner
            born_cancelled = self._cancelled
        if born_cancelled:
            inner.cancel()
        collected: list[frozenset] = []
        # Only time spent *inside* the enumerator counts; the span's clock
        # pauses while the generator is suspended at `yield`, so a slow
        # consumer does not inflate the cached timings or the engine history.
        with self.tracer.span("enumerate", stats=lambda: inner.statistics,
                              algorithm=inner.algorithm,
                              streaming=True) as span:
            span.pause()
            while True:
                span.resume()
                try:
                    clique = next(inner)
                except StopIteration:
                    span.pause()
                    break
                span.pause()
                collected.append(clique)
                self.delivered += 1
                _YIELDS.inc(path="live")
                yield clique
        active_seconds = span.seconds
        self.truncated = inner.truncated
        self.finished = inner.finished
        # A consumer may mutate the graph between yields; a stream that ran
        # across a mutation must not populate the cache under the pre-mutation
        # fingerprint (its content reflects neither snapshot cleanly).
        if (self.finished and self._use_cache and spec.cacheable
                and self._prepared.graph.version == self._graph_version):
            result = EnumerationResult(
                maximal_quasi_cliques=canonical_order(collected),
                candidate_quasi_cliques=list(inner.candidates),
                algorithm=self.plan.algorithm,
                gamma=spec.gamma,
                theta=spec.theta,
                search_statistics=inner.statistics,
                enumeration_seconds=active_seconds,
                filtering_seconds=0.0)
            self._engine.cache.put(self._key, result)
        self._engine._record(self.plan, cached=False, seconds=active_seconds)

    # ------------------------------------------------------------------
    @property
    def subproblems_completed(self) -> int:
        """DC subproblems fully processed by a live stream (0 otherwise)."""
        return self._inner.subproblems_completed if self._inner is not None else 0

    @property
    def candidates_seen(self) -> int:
        """MQCE-S1 candidates observed by a live stream (0 otherwise)."""
        return self._inner.candidates_seen if self._inner is not None else 0

    def __repr__(self) -> str:
        state = ("finished" if self.finished
                 else "truncated" if self.truncated else "running")
        return (f"ResultStream({self.spec.describe()!r}, {state}, "
                f"delivered={self.delivered}, from_cache={self.from_cache})")
