"""The long-lived query service: ``repro serve``.

:class:`ReproService` turns the engine stack into a server process.  It owns
one :class:`repro.engine.MQCEEngine` per named graph and multiplexes any
number of client connections over one asyncio event loop:

* **queries** stream through the engine's :class:`~repro.engine.stream.ResultStream`
  consumed in an executor thread, with batches relayed to each connection
  through bounded asyncio queues (backpressure: a slow consumer throttles the
  enumeration, not the process);
* **identical concurrent cold queries coalesce** — the
  :class:`~repro.serve.coalesce.SingleFlight` table runs exactly one
  enumeration per ``(graph, fingerprint, resolved spec)`` and fans the
  batches out to every waiter;
* **admission control** bounds concurrent enumerations and sheds load with a
  typed :class:`~repro.errors.ServiceOverloadedError` once its wait queue is
  full (see :mod:`repro.serve.admission`);
* **failure degrades gracefully** — per-request deadlines clamp the
  enumeration budget to what the client will actually wait, a circuit
  breaker per ``(graph, resolved spec)`` fails persistent faulters fast
  with the typed :class:`~repro.errors.CircuitOpenError` (half-open probe
  after the reset timeout), interrupted query streams resume mid-flight via
  the protocol's ``resume_from`` field, and the hot paths carry named
  :func:`repro.resilience.faults.fault_point` sites so chaos tests schedule
  exactly these failures deterministically;
* **mutations** apply to the graph between queries under a per-graph
  writer-priority read/write gate, and the engine syncs right away
  (:meth:`~repro.engine.MQCEEngine.sync`: selective cache invalidation), so
  warm entries survive updates exactly as in-process;
* the same TCP port answers plain HTTP ``GET /metrics`` (Prometheus text
  exposition of the process :data:`~repro.obs.metrics.REGISTRY`),
  ``GET /healthz`` and ``GET /stats`` — the scrape endpoint the metrics
  module reserved for this moment.

The wire protocol is line-delimited JSON (:mod:`repro.serve.protocol`);
:class:`repro.serve.client.ServeClient` and the ``repro client`` CLI speak
it.  For tests and benchmarks, :func:`start_in_thread` boots a service on an
ephemeral port inside a daemon thread and returns a stop handle.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager, suppress

from ..api.spec import QuerySpec
from ..dynamic.updates import apply_updates, normalise_update, parse_updates
from ..engine.engine import MQCEEngine
from ..errors import (CircuitOpenError, DeadlineExceededError, ReproError,
                      ServiceOverloadedError)
from ..graph.graph import Graph
from ..obs.metrics import REGISTRY, render_prometheus
from ..obs.trace import NULL_TRACER, Tracer
from ..resilience.breaker import BreakerBoard
from ..resilience.faults import fault_point
from .admission import AdmissionController
from .coalesce import SingleFlight
from .protocol import (DEFAULT_BATCH_SIZE, HTTP_METHODS, ProtocolError,
                       clique_to_wire, decode_frame, encode_frame,
                       error_payload, validate_request)

_REQUESTS = REGISTRY.counter(
    "repro_serve_requests_total",
    "Requests handled by the serve layer, by operation and outcome")
_CONNECTIONS = REGISTRY.counter(
    "repro_serve_connections_total",
    "Client connections accepted by the serve layer, by kind")
_BATCHES = REGISTRY.counter(
    "repro_serve_batches_total",
    "Result batch frames written to clients")
_TTFB = REGISTRY.histogram(
    "repro_serve_time_to_first_batch_ms",
    "Milliseconds from enumeration start to the first published batch")
_SERVE_RETRIES = REGISTRY.counter(
    "repro_serve_retries_total",
    "Query requests arriving as client retries or stream resumes, by kind")
_CIRCUIT_STATE = REGISTRY.gauge(
    "repro_serve_circuit_state",
    "Circuit-breaker state per graph (0 closed, 1 half-open, 2 open)")


class _ReadWriteGate:
    """Writer-priority read/write exclusion for one graph.

    Queries hold the gate for *reading* (many at once); mutations hold it for
    *writing* (alone).  A waiting writer blocks new readers, so a mutation
    lands as soon as the in-flight enumerations drain instead of starving
    behind a steady query stream.
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @asynccontextmanager
    async def reading(self):
        async with self._cond:
            while self._writer or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @asynccontextmanager
    async def writing(self):
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            async with self._cond:
                self._writer = False
                self._cond.notify_all()


class GraphHost:
    """One served graph: the graph, its engine and the per-graph gate."""

    def __init__(self, name: str, graph: Graph) -> None:
        self.name = name
        self.graph = graph
        self.engine = MQCEEngine()
        # Prepared eagerly, so the first query does not pay for it.
        self.prepared = self.engine.prepare(graph, name=name).prepare()
        self.gate = _ReadWriteGate()
        self.queries = 0
        self.mutations = 0

    def open_stream(self, spec: QuerySpec, tracer=None):
        """Create the engine stream for one admitted query (on the loop)."""
        return self.engine.stream(self.graph, spec=spec, trace=tracer)

    def apply_updates(self, updates):
        """Apply one mutation batch to the graph and sync the engine."""
        self.mutations += 1
        apply_updates(self.graph, updates)
        return self.engine.sync(self.graph)


class ReproService:
    """The asyncio server owning named graphs and their engines.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    max_concurrent, max_queue, default_time_limit, max_time_limit,
    max_results:
        Admission-control knobs (see
        :class:`~repro.serve.admission.AdmissionController`).
    batch_size:
        Default cliques per ``batch`` frame (requests may override).
    queue_size:
        Bound of each subscriber's relay queue, in batches — the
        backpressure window.
    single_flight:
        Coalesce identical in-flight queries (disable only for A/B
        benchmarking the stampede behaviour).
    allow_shutdown:
        Honour the ``shutdown`` wire operation (tests, CI and local dev).
    trace_dir:
        When set, each query request writes a Chrome trace of its phase
        spans to ``trace_dir/request-N.json``.
    circuit_threshold, circuit_reset:
        The per-``(graph, resolved spec)`` circuit breaker: after
        ``circuit_threshold`` consecutive enumeration failures that key
        fails fast with :class:`~repro.errors.CircuitOpenError` for
        ``circuit_reset`` seconds, then admits one half-open probe.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 max_concurrent: int = 4, max_queue: int = 16,
                 default_time_limit: float | None = None,
                 max_time_limit: float | None = None,
                 max_results: int | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE, queue_size: int = 8,
                 single_flight: bool = True, allow_shutdown: bool = False,
                 trace_dir: str | None = None, circuit_threshold: int = 5,
                 circuit_reset: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.batch_size = batch_size
        self.single_flight = single_flight
        self.allow_shutdown = allow_shutdown
        self.trace_dir = trace_dir
        self.admission = AdmissionController(
            max_concurrent=max_concurrent, max_queue=max_queue,
            default_time_limit=default_time_limit,
            max_time_limit=max_time_limit, max_results=max_results)
        self.flights = SingleFlight(queue_size=queue_size)
        self.breakers = BreakerBoard(circuit_threshold, circuit_reset)
        self.hosts: dict[str, GraphHost] = {}
        self.started_at: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent + 2, thread_name_prefix="repro-serve")
        self._flight_seq = 0
        self._trace_seq = 0

    # ------------------------------------------------------------------
    # Graph registration
    # ------------------------------------------------------------------
    def add_graph(self, name: str, graph: Graph) -> GraphHost:
        """Serve ``graph`` under ``name`` (prepared artifacts built now)."""
        if name in self.hosts:
            raise ReproError(f"a graph named {name!r} is already being served")
        host = GraphHost(name, graph)
        self.hosts[name] = host
        return host

    def add_dataset(self, name: str) -> GraphHost:
        """Serve a registered dataset analogue under its registry name."""
        from ..datasets.registry import get_spec, load_dataset

        spec = get_spec(name)
        return self.add_graph(spec.name, load_dataset(spec.name))

    def _host(self, name: str | None) -> GraphHost:
        if not self.hosts:
            raise ReproError("this server is not serving any graphs")
        if name is None:
            if len(self.hosts) == 1:
                return next(iter(self.hosts.values()))
            raise ProtocolError(
                f"multiple graphs served ({', '.join(sorted(self.hosts))}); "
                "the request must name one with 'graph'")
        host = self.hosts.get(name)
        if host is None:
            raise ProtocolError(f"unknown graph {name!r}; "
                                f"serving: {', '.join(sorted(self.hosts))}")
        return host

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def serve_forever(self) -> None:
        """Run until :meth:`request_stop` (or the shutdown op) fires."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._stop_event.wait()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def request_stop(self) -> None:
        """Signal the serve loop to exit (safe from any thread)."""
        if self._stop_event is not None:
            loop = self._loop
            if loop is not None:
                try:
                    loop.call_soon_threadsafe(self._stop_event.set)
                except RuntimeError:  # loop already closed: nothing to stop
                    pass

    async def run(self) -> None:
        """Start and serve until stopped — the CLI entry point."""
        await self.start()
        await self.serve_forever()

    @property
    def _loop(self) -> asyncio.AbstractEventLoop | None:
        if self._server is not None:
            return self._server.get_loop()
        return None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if any(line.startswith(method) for method in HTTP_METHODS):
                _CONNECTIONS.inc(kind="http")
                await self._handle_http(line, reader, writer)
                return
            _CONNECTIONS.inc(kind="protocol")
            while line:
                stop = await self._handle_request_line(line, writer)
                if stop:
                    break
                line = await reader.readline()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_request_line(self, line: bytes,
                                   writer: asyncio.StreamWriter) -> bool:
        """Dispatch one request line; returns True when the server must stop."""
        if not line.strip():
            return False
        op = "?"
        try:
            payload = decode_frame(line)
            op = validate_request(payload)
            handler = getattr(self, f"_op_{op}")
            stop = await handler(payload, writer)
            _REQUESTS.inc(op=op, outcome="ok")
            return bool(stop)
        except ServiceOverloadedError as exc:
            _REQUESTS.inc(op=op, outcome="overloaded")
            await self._write(writer, error_payload(exc))
        except CircuitOpenError as exc:
            _REQUESTS.inc(op=op, outcome="circuit-open")
            await self._write(writer, error_payload(exc))
        except DeadlineExceededError as exc:
            _REQUESTS.inc(op=op, outcome="deadline")
            await self._write(writer, error_payload(exc))
        except ReproError as exc:
            _REQUESTS.inc(op=op, outcome="error")
            await self._write(writer, error_payload(exc))
        except Exception as exc:  # noqa: BLE001 - one request never kills the server
            _REQUESTS.inc(op=op, outcome="error")
            await self._write(writer, error_payload(exc))
        return False

    async def _write(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        action = fault_point("serve.write_frame")
        if action == "drop":
            # Simulate an abrupt connection loss: RST, nothing flushed.
            writer.transport.abort()
            raise ConnectionResetError("injected connection drop")
        data = encode_frame(payload)
        if action == "truncate":
            # Half a frame then a hard close: the client must treat the torn
            # line as transport loss, never as a parseable frame.
            writer.write(data[: max(1, len(data) // 2)])
            with suppress(ConnectionResetError, BrokenPipeError, OSError):
                await writer.drain()
            writer.transport.abort()
            raise ConnectionResetError("injected truncated write")
        writer.write(data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _op_ping(self, payload: dict, writer) -> None:
        await self._write(writer, {"type": "pong"})

    async def _op_graphs(self, payload: dict, writer) -> None:
        graphs = {
            name: {"vertices": host.graph.vertex_count,
                   "edges": host.graph.edge_count,
                   "version": host.graph.version,
                   "queries": host.queries, "mutations": host.mutations}
            for name, host in sorted(self.hosts.items())}
        await self._write(writer, {"type": "graphs", "graphs": graphs})

    async def _op_stats(self, payload: dict, writer) -> None:
        await self._write(writer, {"type": "stats", **self._stats_payload()})

    async def _op_flush(self, payload: dict, writer) -> None:
        names = ([payload["graph"]] if payload.get("graph") is not None
                 else list(self.hosts))
        flushed = 0
        for name in names:
            host = self._host(name)
            flushed += len(host.engine.cache)
            host.engine.clear_cache()
        await self._write(writer, {"type": "flushed", "entries": flushed})

    async def _op_shutdown(self, payload: dict, writer) -> bool:
        if not self.allow_shutdown:
            raise ProtocolError("shutdown is disabled; start the server with "
                                "--allow-shutdown to enable it")
        await self._write(writer, {"type": "bye"})
        self.request_stop()
        return True

    async def _op_mutate(self, payload: dict, writer) -> None:
        host = self._host(payload.get("graph"))
        if isinstance(payload.get("updates"), list):
            updates = [normalise_update(entry) for entry in payload["updates"]]
        else:
            updates = parse_updates(payload["script"].splitlines())
        loop = asyncio.get_running_loop()
        async with host.gate.writing():
            report = await loop.run_in_executor(
                self._executor, host.apply_updates, updates)
        await self._write(writer, {"type": "report", **report.as_dict()})

    # ------------------------------------------------------------------
    # The query path
    # ------------------------------------------------------------------
    async def _op_query(self, payload: dict, writer) -> None:
        host = self._host(payload.get("graph"))
        deadline = payload.get("deadline")
        resume_from = int(payload.get("resume_from") or 0)
        resume_token = payload.get("resume_stream")
        attempt = int(payload.get("attempt") or 0)
        if resume_from:
            _SERVE_RETRIES.inc(kind="resume")
        elif attempt:
            _SERVE_RETRIES.inc(kind="retry")
        spec = self.admission.apply_budgets(
            QuerySpec.from_dict(payload["spec"]),
            deadline=float(deadline) if deadline is not None else None)
        batch_size = max(1, int(payload.get("batch") or self.batch_size))
        host.queries += 1
        tracer = self._request_tracer()
        with tracer.span("serve_request", op="query", graph=host.name,
                         workload=spec.workload) as request_span:
            # Key computation needs a consistent snapshot (no mutation
            # mid-plan); the enumeration itself re-acquires the read gate in
            # the leader task for its whole duration.
            async with host.gate.reading():
                resolved = spec.resolved(host.engine.explain(host.graph, spec=spec))
                fingerprint = host.prepared.fingerprint
            # The breaker key deliberately drops the content fingerprint:
            # a (graph, resolved spec) that keeps faulting stays open across
            # mutations until its reset timeout, unlike the flight key.
            breaker = self.breakers.for_key((host.name, resolved))
            breaker.allow()
            _CIRCUIT_STATE.set(breaker.state, graph=host.name)
            if self.single_flight:
                # The single-flight identity on the current content.  The
                # spec is the resolved one (planner knobs fixed), so an
                # explicit algorithm="dcfastqc" and an "auto" spec the planner
                # resolves to DCFastQC coalesce onto one flight, as cache keys
                # do.  Budgets stay part of it (the frozen spec hashes whole):
                # differently-budgeted queries deliver different frame
                # sequences and must not share a flight.
                key = (host.name, fingerprint, resolved)
            else:
                self._flight_seq += 1
                key = (host.name, "uncoalesced", self._flight_seq)
            # The cache-replay token is shared by every flight that replays
            # this exact cached sequence; live enumerations get a unique one
            # in the leader (their emission order differs from the replay).
            cache_token = (f"c:{host.name}:{fingerprint}:"
                           f"{abs(hash(resolved)):x}")
            flight, created = self.flights.get_or_create(key)
            if created:
                flight.task = asyncio.get_running_loop().create_task(
                    self._lead_flight(flight, host, spec, batch_size, tracer,
                                      breaker=breaker,
                                      cache_token=cache_token))
            snapshot, queue = flight.subscribe()
            try:
                # Resume is only sound against the *same* batch sequence the
                # client already acked — identified by the stream token a
                # dropped stream's frames carried.  A mismatch (e.g. the
                # first attempt rode a live enumeration and the retry hits
                # the cache replay, whose order differs) restarts from 0;
                # the client detects the restart from the seq numbers.
                await flight.token_ready.wait()
                if resume_from and resume_token != flight.stream_token:
                    resume_from = 0
                # ``seq`` numbers every batch of the (deterministic) stream;
                # a resuming client already holds batches < resume_from, so
                # those are skipped on the wire but still counted — the
                # delivered seq values continue exactly where they stopped.
                seq = 0
                for batch in snapshot:
                    if seq >= resume_from:
                        await self._write_batch(writer, seq, batch, flight)
                    seq += 1
                while queue is not None:
                    item = await queue.get()
                    if item[0] != "batch":
                        break
                    if seq >= resume_from:
                        await self._write_batch(writer, seq, item[1], flight)
                    seq += 1
            finally:
                flight.leave(queue)
                if flight.done:
                    self.flights.discard(flight)
            request_span.annotate(batches=seq, coalesced=not created,
                                  resumed_from=resume_from)
        if flight.error is not None:
            if flight.error.get("error") == "ServiceOverloadedError":
                # Re-raise so the per-request outcome counter says "overloaded".
                from .protocol import exception_from_payload
                raise exception_from_payload(flight.error)
            await self._write(writer, flight.error)
            return
        done = dict(flight.summary or {})
        done.update(type="done", coalesced=not created, batches=seq,
                    resumed_from=resume_from)
        if flight.stream_token is not None:
            done["stream"] = flight.stream_token
        await self._write(writer, done)
        self._write_request_trace(tracer)

    async def _write_batch(self, writer, seq: int, batch: list,
                           flight) -> None:
        _BATCHES.inc()
        frame = {"type": "batch", "seq": seq, "cliques": batch}
        if flight.stream_token is not None:
            frame["stream"] = flight.stream_token
        await self._write(writer, frame)

    async def _lead_flight(self, flight, host: GraphHost, spec: QuerySpec,
                           batch_size: int, tracer, breaker=None,
                           cache_token: str | None = None) -> None:
        """The single-flight leader: admission, enumeration, publication.

        The leader is also where the circuit breaker observes outcomes —
        exactly one record per actual enumeration, however many subscribers
        coalesced onto it.  Overload shedding is *not* a failure of the query
        itself and leaves the breaker untouched.
        """
        loop = asyncio.get_running_loop()
        try:
            with tracer.span("admission") as admission_span:
                async with self.admission.slot():
                    admission_span.annotate(running=self.admission.running)
                    async with host.gate.reading():
                        fault_point("serve.enumerate")
                        stream = host.open_stream(spec, tracer=tracer)
                        flight.stream = stream
                        # Cache replays of the same key are byte-identical
                        # across flights and share the cache token; a live
                        # enumeration emits in discovery order, so its
                        # sequence is resumable only within this flight.
                        flight.stream_token = (
                            cache_token if stream.from_cache
                            else f"x:{uuid.uuid4().hex[:12]}")
                        flight.token_ready.set()
                        summary = await loop.run_in_executor(
                            self._executor, self._pump_stream,
                            flight, stream, batch_size, loop)
            if breaker is not None:
                breaker.record_success()
            await flight.finish(summary=summary)
        except ServiceOverloadedError as exc:
            await flight.finish(error=error_payload(exc), outcome="overloaded")
        except ReproError as exc:
            if breaker is not None:
                breaker.record_failure()
            await flight.finish(error=error_payload(exc), outcome="error")
        except Exception as exc:  # noqa: BLE001 - surface, don't crash the loop
            if breaker is not None:
                breaker.record_failure()
            await flight.finish(error=error_payload(exc), outcome="error")
        finally:
            if breaker is not None:
                _CIRCUIT_STATE.set(breaker.state, graph=host.name)
            self.flights.discard(flight)

    def _pump_stream(self, flight, stream, batch_size: int,
                     loop: asyncio.AbstractEventLoop) -> dict:
        """Executor thread: consume the ResultStream, publish wire batches.

        ``publish`` is awaited on the loop via ``run_coroutine_threadsafe``
        and blocks this thread while any subscriber queue is full — that is
        the backpressure path from a slow client all the way into the
        enumeration (whose tracer span clock pauses at the yield meanwhile).
        """
        start = time.perf_counter()
        first_batch_seconds = None
        batch: list = []

        def publish() -> None:
            nonlocal first_batch_seconds, batch
            if first_batch_seconds is None:
                first_batch_seconds = time.perf_counter() - start
                _TTFB.observe(int(first_batch_seconds * 1000))
            asyncio.run_coroutine_threadsafe(
                flight.publish(batch), loop).result()
            batch = []

        for clique in stream:
            if flight.abandoned:
                stream.cancel()
                break
            batch.append(clique_to_wire(clique))
            if len(batch) >= batch_size:
                publish()
        if batch and not flight.abandoned:
            publish()
        return {
            "delivered": stream.delivered,
            "count": stream.delivered,
            "finished": stream.finished,
            "truncated": stream.truncated,
            "from_cache": stream.from_cache,
            "cancelled": stream.cancelled,
            "seconds": round(time.perf_counter() - start, 6),
            "first_batch_seconds": (None if first_batch_seconds is None
                                    else round(first_batch_seconds, 6)),
        }

    # ------------------------------------------------------------------
    # HTTP shim (single-port /metrics, /healthz, /stats)
    # ------------------------------------------------------------------
    async def _handle_http(self, request_line: bytes, reader, writer) -> None:
        try:
            _method, path, *_ = request_line.decode("latin-1").split()
        except ValueError:
            path = "/"
        while True:  # drain headers
            header = await reader.readline()
            if not header.strip():
                break
        path = path.split("?", 1)[0]
        if path == "/metrics":
            status, ctype = "200 OK", "text/plain; version=0.0.4; charset=utf-8"
            body = render_prometheus()
        elif path in ("/health", "/healthz"):
            status, ctype = "200 OK", "application/json"
            body = json.dumps({"status": "ok", "graphs": sorted(self.hosts),
                               "uptime_seconds": round(
                                   time.time() - (self.started_at or time.time()), 3)})
        elif path == "/stats":
            status, ctype = "200 OK", "application/json"
            body = json.dumps(self._stats_payload())
        else:
            status, ctype = "404 Not Found", "text/plain"
            body = f"no such endpoint: {path}\n"
        _REQUESTS.inc(op=f"http:{path}", outcome=status.split()[0])
        encoded = body.encode("utf-8")
        writer.write((f"HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\n"
                      f"Content-Length: {len(encoded)}\r\n"
                      f"Connection: close\r\n\r\n").encode("latin-1") + encoded)
        await writer.drain()

    # ------------------------------------------------------------------
    # Introspection / tracing
    # ------------------------------------------------------------------
    def _stats_payload(self) -> dict:
        return {
            "admission": self.admission.stats(),
            "circuits": self.breakers.stats(),
            "flights_in_table": len(self.flights),
            "graphs": {name: host.engine.stats()
                       for name, host in sorted(self.hosts.items())},
            "config": {"batch_size": self.batch_size,
                       "single_flight": self.single_flight,
                       "allow_shutdown": self.allow_shutdown},
        }

    def _request_tracer(self):
        if self.trace_dir is None:
            return NULL_TRACER
        return Tracer()

    def _write_request_trace(self, tracer) -> None:
        if tracer is NULL_TRACER or self.trace_dir is None:
            return
        import os

        os.makedirs(self.trace_dir, exist_ok=True)
        self._trace_seq += 1
        tracer.write(os.path.join(self.trace_dir,
                                  f"request-{self._trace_seq}.json"),
                     format="chrome")


# ----------------------------------------------------------------------
# Thread-hosted service (tests, benchmarks, notebooks)
# ----------------------------------------------------------------------
class ServiceHandle:
    """A running :class:`ReproService` in a background thread."""

    def __init__(self, service: ReproService, thread: threading.Thread) -> None:
        self.service = service
        self.thread = thread

    @property
    def port(self) -> int:
        return self.service.port

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread."""
        self.service.request_stop()
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(service: ReproService, timeout: float = 10.0) -> ServiceHandle:
    """Boot ``service`` in a daemon thread; returns once it is accepting."""
    started = threading.Event()
    failure: list[BaseException] = []

    async def _main() -> None:
        try:
            await service.start()
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            failure.append(exc)
            started.set()
            raise
        started.set()
        await service.serve_forever()

    thread = threading.Thread(target=lambda: asyncio.run(_main()),
                              name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise ReproError("serve thread failed to start in time")
    if failure:
        raise failure[0]
    return ServiceHandle(service, thread)


__all__ = ["GraphHost", "ReproService", "ServiceHandle", "start_in_thread"]
