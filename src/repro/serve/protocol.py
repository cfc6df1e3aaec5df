"""The ``repro serve`` wire format: line-delimited canonical JSON frames.

One connection carries a sequence of **requests** (client -> server) and
**frames** (server -> client), each a single JSON object on its own
``\\n``-terminated line (UTF-8, no embedded newlines — JSON string escaping
guarantees this).  The framing is deliberately transport-trivial so that any
language (or ``nc``) can speak it; the same TCP port also answers plain
``GET /metrics`` / ``GET /healthz`` HTTP requests (see
:mod:`repro.serve.service`), distinguished by the first bytes of the first
line.

Requests
--------
``{"op": "query", "graph": NAME, "spec": {...QuerySpec fields...}}``
    Run one :class:`repro.api.QuerySpec` against the named graph.  The server
    answers with zero or more ``batch`` frames followed by one ``done`` frame
    (or one ``error`` frame).  Optional ``"batch"`` sets the per-frame clique
    count.  Resilience fields (all optional): ``"resume_from"`` skips the
    first N batches of the deterministic stream — a client reconnecting
    after a transport loss resumes where it stopped, and the ``seq`` numbers
    continue as if uninterrupted; ``"resume_stream"`` names the stream
    token the acked batches carried (batch and done frames include a
    ``"stream"`` field) — the server honors ``resume_from`` only against
    the same token, and restarts from batch 0 otherwise, because a retry
    may land on a differently-ordered sequence (a live enumeration emits in
    discovery order, the cache replay in canonical order); ``"deadline"``
    (seconds) clamps the server-side enumeration budget to what the client
    will actually wait; ``"attempt"`` marks a retried request (counted in
    ``repro_serve_retries_total``).
``{"op": "mutate", "graph": NAME, "updates": [["add_edge", 1, 2], ...]}``
    Apply a batch of graph mutations (the :mod:`repro.dynamic.updates`
    spellings; a ``"script"`` string of update-script lines is also accepted)
    to the graph, then sync its :class:`repro.engine.MQCEEngine` — selective
    cache invalidation included.  Answered by one ``report`` frame.
``{"op": "graphs" | "stats" | "ping" | "flush" | "shutdown"}``
    Introspection and control.  ``flush`` drops cached results (named
    ``"graph"`` or all); ``shutdown`` is honoured only when the server was
    started with ``allow_shutdown=True``.

Frames
------
``{"type": "batch", "seq": N, "cliques": [[...], ...]}``
    One batch of maximal quasi-cliques, each serialised by
    :func:`clique_to_wire` (sorted labels — canonical, so every client in a
    coalesced flight receives byte-identical frames).
``{"type": "done", "delivered": N, "finished": ..., "truncated": ...,
   "from_cache": ..., "coalesced": ..., "seconds": ...}``
    Terminal success frame of a query.
``{"type": "report", ...}`` / ``{"type": "stats", ...}`` / ``{"type":
"pong"}`` / ``{"type": "graphs", ...}`` / ``{"type": "flushed", ...}`` /
``{"type": "bye"}``
    Terminal frames of the other operations.
``{"type": "error", "error": CLASS, "message": ...}``
    Terminal failure frame; :func:`exception_from_payload` reconstructs the
    matching :class:`repro.errors.ReproError` subclass client-side.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from ..errors import CircuitOpenError, ReproError, ServiceOverloadedError

#: Request operations the server understands.
OPERATIONS = ("query", "mutate", "graphs", "stats", "ping", "flush", "shutdown")

#: Default cliques per ``batch`` frame.
DEFAULT_BATCH_SIZE = 64

#: HTTP methods whose request line switches a connection into the HTTP shim.
HTTP_METHODS = (b"GET ", b"HEAD ", b"POST ")


class ProtocolError(ReproError):
    """A malformed request or frame on the serve wire."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict) -> bytes:
    """Serialise one frame/request to its canonical wire line."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_frame(line: bytes | str) -> dict:
    """Parse one wire line into a frame/request dictionary."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty frame")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("a frame must be a JSON object")
    return payload


def validate_request(payload: dict) -> str:
    """Check a decoded request and return its operation name."""
    op = payload.get("op")
    if op not in OPERATIONS:
        raise ProtocolError(f"unknown operation {op!r}; "
                            f"expected one of {OPERATIONS}")
    if op == "query":
        if not isinstance(payload.get("spec"), dict):
            raise ProtocolError("a query request needs a 'spec' object")
        resume_from = payload.get("resume_from", 0)
        if not isinstance(resume_from, int) or isinstance(resume_from, bool) \
                or resume_from < 0:
            raise ProtocolError("'resume_from' must be a non-negative integer")
        attempt = payload.get("attempt", 0)
        if not isinstance(attempt, int) or isinstance(attempt, bool) \
                or attempt < 0:
            raise ProtocolError("'attempt' must be a non-negative integer")
        resume_stream = payload.get("resume_stream")
        if resume_stream is not None and not isinstance(resume_stream, str):
            raise ProtocolError("'resume_stream' must be a string")
        deadline = payload.get("deadline")
        if deadline is not None and (not isinstance(deadline, (int, float))
                                     or isinstance(deadline, bool)
                                     or deadline <= 0):
            raise ProtocolError("'deadline' must be a positive number "
                                "of seconds")
    if op == "mutate" and not (isinstance(payload.get("updates"), list)
                               or isinstance(payload.get("script"), str)):
        raise ProtocolError("a mutate request needs 'updates' or 'script'")
    return op


# ----------------------------------------------------------------------
# Clique serialisation
# ----------------------------------------------------------------------
def clique_to_wire(clique: Iterable) -> list:
    """A canonical JSON-ready form of one quasi-clique (labels sorted)."""
    return sorted(clique, key=lambda label: (str(type(label)), str(label)))


def wire_to_clique(labels: Iterable) -> frozenset:
    """The inverse of :func:`clique_to_wire`."""
    return frozenset(labels)


# ----------------------------------------------------------------------
# Error transport
# ----------------------------------------------------------------------
def error_payload(exc: BaseException) -> dict:
    """The ``error`` frame for an exception (class name + message)."""
    payload = {"type": "error", "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ServiceOverloadedError):
        payload["running"] = exc.running
        payload["queued"] = exc.queued
    if isinstance(exc, CircuitOpenError) and exc.retry_after is not None:
        payload["retry_after"] = round(exc.retry_after, 6)
    return payload


def _error_classes() -> dict[str, type]:
    """Every :class:`ReproError` subclass currently importable, by name."""
    classes: dict[str, type] = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        classes[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    return classes


def exception_from_payload(payload: dict) -> ReproError:
    """Reconstruct the typed exception described by an ``error`` frame.

    Known :class:`ReproError` subclasses come back as themselves (so client
    code can ``except ServiceOverloadedError`` across the wire); anything
    else degrades to a plain :class:`ReproError` tagged with the server-side
    class name.
    """
    name = payload.get("error", "ReproError")
    message = payload.get("message", "")
    cls = _error_classes().get(name)
    if cls is ServiceOverloadedError:
        return ServiceOverloadedError(message, running=payload.get("running"),
                                      queued=payload.get("queued"))
    if cls is CircuitOpenError:
        return CircuitOpenError(message, retry_after=payload.get("retry_after"))
    if cls is not None:
        try:
            return cls(message)
        except TypeError:  # pragma: no cover - exotic constructor signature
            pass
    return ReproError(f"{name}: {message}" if name != "ReproError" else message)


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "HTTP_METHODS",
    "OPERATIONS",
    "ProtocolError",
    "clique_to_wire",
    "decode_frame",
    "encode_frame",
    "error_payload",
    "exception_from_payload",
    "validate_request",
    "wire_to_clique",
]
