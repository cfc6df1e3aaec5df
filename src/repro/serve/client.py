"""A blocking client for the ``repro serve`` wire protocol.

:class:`ServeClient` is deliberately synchronous — plain sockets, no asyncio —
so tests, benchmarks and the ``repro client`` CLI can drive the server from
ordinary threads.  One client holds one connection and may issue any number
of sequential requests over it; error frames come back as the matching typed
:class:`repro.errors.ReproError` subclass (see
:func:`repro.serve.protocol.exception_from_payload`), so
``except ServiceOverloadedError`` works across the wire.

Fault tolerance (see :mod:`repro.resilience`):

* a transport failure (reset, EOF, truncated frame) **closes the dead socket
  immediately** and surfaces as the typed
  :class:`~repro.errors.ConnectionLostError`; the client transparently
  redials on the next request instead of hammering a dead file object;
* :meth:`query` accepts a :class:`~repro.resilience.retry.RetryPolicy` and
  retries transient failures with capped decorrelated-jitter backoff,
  **resuming** an interrupted stream from the last fully-received batch via
  the protocol's ``resume_from`` field — already-delivered batches are never
  re-transferred and the reassembled stream is byte-identical to an
  uninterrupted run;
* a ``deadline`` (seconds) bounds the whole retry loop client-side *and*
  rides the wire, where the server clamps the enumeration budget to the
  remaining time — a query never runs server-side longer than the client
  will wait.

Against a running server (``repro serve``, or
:func:`~repro.serve.service.start_in_thread` in-process)::

    with ServeClient(port=service.port) as client:
        cliques, done = client.query({"gamma": 0.9, "theta": 3},
                                     retry=RetryPolicy(max_attempts=4),
                                     deadline=30.0)
"""

from __future__ import annotations

import socket
import time
from collections.abc import Iterable, Iterator, Mapping

from ..api.spec import QuerySpec
from ..errors import (CircuitOpenError, ConnectionLostError,
                      FaultInjectedError, ReproError, ServiceOverloadedError)
from ..resilience.faults import fault_point
from ..resilience.retry import Deadline, RetryPolicy
from .protocol import (decode_frame, encode_frame, exception_from_payload,
                       wire_to_clique)

#: Failures worth a redial: the transport died under us.
TRANSPORT_ERRORS = (ConnectionLostError, ConnectionError, TimeoutError, OSError)

#: Server-signalled conditions a backoff retry can outwait.
BACKOFF_ERRORS = (ServiceOverloadedError, CircuitOpenError, FaultInjectedError)


class ServeClient:
    """One blocking protocol connection to a :class:`ReproService`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float | None = 60.0,
                 retry: RetryPolicy | None = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._sock: socket.socket | None = None
        self._file = None
        self._connect()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _connect(self) -> None:
        fault_point("client.connect")
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        self._file = self._sock.makefile("rb")

    def _teardown(self) -> None:
        """Drop a dead connection *now* so nothing reuses the stale socket."""
        sock, file = self._sock, self._file
        self._sock = self._file = None
        try:
            if file is not None:
                file.close()
        except OSError:
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:
            pass

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()

    def _send(self, request: dict) -> None:
        self._ensure_connected()
        try:
            self._sock.sendall(encode_frame(request))
        except OSError:
            self._teardown()
            raise

    def _recv(self) -> dict:
        try:
            line = self._file.readline()
        except OSError as exc:
            self._teardown()
            raise ConnectionLostError(
                f"connection lost mid-request: {exc}") from exc
        if not line:
            self._teardown()
            raise ConnectionLostError("server closed the connection mid-request")
        if not line.endswith(b"\n"):
            # EOF mid-frame: a truncated write on the server side.  Never
            # hand the torn JSON to the caller — this is a transport loss.
            self._teardown()
            raise ConnectionLostError("connection lost mid-frame "
                                      f"({len(line)} trailing bytes)")
        return decode_frame(line)

    def _recv_terminal(self) -> dict:
        frame = self._recv()
        if frame.get("type") == "error":
            raise exception_from_payload(frame)
        return frame

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_stream(self, spec: QuerySpec | Mapping, *,
                     graph: str | None = None, batch: int | None = None,
                     resume_from: int = 0, resume_stream: str | None = None,
                     deadline: float | None = None,
                     attempt: int = 0) -> Iterator[dict]:
        """Run one query, yielding every frame (``batch`` then ``done``).

        ``resume_from`` asks the server to skip the first N batches of the
        (deterministic) stream — the resume half of a reconnect;
        ``resume_stream`` is the stream token those N acked batches carried,
        which the server requires before skipping anything (a retry that
        lands on a differently-ordered stream restarts from batch 0);
        ``deadline`` is the seconds budget the server may spend; ``attempt``
        marks a retried request for the server's
        ``repro_serve_retries_total`` counter.  Raises the reconstructed
        typed exception on an ``error`` frame.  The generator must be
        consumed fully (or the connection abandoned) before the next request
        on this client.
        """
        if isinstance(spec, QuerySpec):
            spec = spec.to_dict()
        request: dict = {"op": "query", "spec": dict(spec)}
        if graph is not None:
            request["graph"] = graph
        if batch is not None:
            request["batch"] = batch
        if resume_from:
            request["resume_from"] = int(resume_from)
            if resume_stream is not None:
                request["resume_stream"] = resume_stream
        if deadline is not None:
            request["deadline"] = float(deadline)
        if attempt:
            request["attempt"] = int(attempt)
        self._send(request)
        while True:
            frame = self._recv()
            kind = frame.get("type")
            if kind == "error":
                raise exception_from_payload(frame)
            yield frame
            if kind != "batch":
                return

    def query(self, spec: QuerySpec | Mapping, *, graph: str | None = None,
              batch: int | None = None, retry: RetryPolicy | None = None,
              deadline: float | Deadline | None = None
              ) -> tuple[list[frozenset], dict]:
        """Run one query to completion: ``(cliques, done_frame)``.

        With a ``retry`` policy (or one set on the client), transient
        failures — transport loss, overload shedding, an open circuit, an
        injected fault — are retried with decorrelated-jitter backoff, and a
        stream interrupted after N batches resumes at batch N instead of
        restarting — provided the retry lands on the same deterministic
        batch sequence (stream tokens match); otherwise the server restarts
        from batch 0 and the superseded partial result is discarded, so the
        final clique list is always exactly one complete stream.  A
        ``deadline`` (seconds or :class:`~repro.resilience.retry.Deadline`)
        bounds the whole loop and propagates to the server.
        """
        policy = retry if retry is not None else self.retry
        if isinstance(deadline, (int, float)):
            deadline = Deadline.after(float(deadline))
        delays = policy.delays() if policy is not None else iter(())
        cliques: list[frozenset] = []
        acked = 0  # batch frames fully received and appended
        token: str | None = None  # stream identity of the acked batches
        attempt = 0
        while True:
            try:
                done: dict = {}
                requested = acked
                restarted = False
                remaining = deadline.remaining() if deadline is not None else None
                for frame in self.query_stream(spec, graph=graph, batch=batch,
                                               resume_from=acked,
                                               resume_stream=token,
                                               deadline=remaining,
                                               attempt=attempt):
                    if frame["type"] == "batch":
                        # A seq below our ack count means the server could
                        # not resume (the retry landed on a differently-
                        # ordered stream) and restarted from batch 0:
                        # everything previously held belongs to the old
                        # sequence and is superseded.
                        if frame.get("seq", acked) < acked:
                            cliques.clear()
                            acked = 0
                            restarted = True
                        cliques.extend(wire_to_clique(entry)
                                       for entry in frame["cliques"])
                        acked += 1
                        token = frame.get("stream", token)
                    else:
                        done = frame
                if (requested and not restarted
                        and not int(done.get("resumed_from", requested))):
                    # The server restarted with an *empty* stream — no batch
                    # frame carried the restart signal, but the held batches
                    # belong to the superseded sequence all the same.
                    cliques.clear()
                    acked = 0
                return cliques, done
            except TRANSPORT_ERRORS + BACKOFF_ERRORS as exc:
                if isinstance(exc, TRANSPORT_ERRORS):
                    self._teardown()
                delay = next(delays, None)
                if delay is None:
                    raise
                if deadline is not None:
                    left = deadline.remaining()
                    if left <= 0:
                        raise
                    delay = min(delay, left)
                time.sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------
    # Mutations and control
    # ------------------------------------------------------------------
    def mutate(self, updates: Iterable | None = None, *,
               script: str | None = None, graph: str | None = None) -> dict:
        """Apply a mutation batch; returns the server's ``report`` frame."""
        request: dict = {"op": "mutate"}
        if updates is not None:
            request["updates"] = [list(entry) for entry in updates]
        if script is not None:
            request["script"] = script
        if graph is not None:
            request["graph"] = graph
        self._send(request)
        return self._recv_terminal()

    def graphs(self) -> dict:
        self._send({"op": "graphs"})
        return self._recv_terminal()["graphs"]

    def stats(self) -> dict:
        self._send({"op": "stats"})
        return self._recv_terminal()

    def ping(self) -> bool:
        self._send({"op": "ping"})
        return self._recv_terminal().get("type") == "pong"

    def flush(self, graph: str | None = None) -> int:
        """Drop the server's cached results; returns entries flushed."""
        request: dict = {"op": "flush"}
        if graph is not None:
            request["graph"] = graph
        self._send(request)
        return int(self._recv_terminal().get("entries", 0))

    def shutdown(self) -> None:
        """Ask the server to stop (needs ``allow_shutdown=True`` server-side)."""
        self._send({"op": "shutdown"})
        self._recv_terminal()


def fetch_http(path: str, host: str = "127.0.0.1", port: int = 0, *,
               timeout: float | None = 10.0) -> tuple[int, str]:
    """One plain ``GET`` against the server's HTTP shim: ``(status, body)``.

    Used by tests, the benchmark and the CI smoke job to scrape
    ``/metrics`` without an HTTP client dependency.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n"
                     .encode("latin-1"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks).decode("utf-8", errors="replace")
    head, _, body = response.partition("\r\n\r\n")
    try:
        status = int(head.split()[1])
    except (IndexError, ValueError):
        raise ReproError(f"malformed HTTP response: {head[:120]!r}")
    return status, body


__all__ = ["BACKOFF_ERRORS", "ServeClient", "TRANSPORT_ERRORS", "fetch_http"]
