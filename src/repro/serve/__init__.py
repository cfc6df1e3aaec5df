"""repro.serve — the long-lived query service.

This package turns the engine stack into a server process:

* :mod:`repro.serve.protocol` — the line-delimited JSON wire format;
* :mod:`repro.serve.service` — the asyncio server (:class:`ReproService`):
  one :class:`~repro.dynamic.DynamicEngine` per named graph, streaming
  queries, mutations under a writer-priority gate, and a single-port HTTP
  shim for ``GET /metrics`` scrapes;
* :mod:`repro.serve.coalesce` — single-flight coalescing (a stampede of
  identical cold queries runs exactly one enumeration);
* :mod:`repro.serve.admission` — bounded concurrency with typed load
  shedding (:class:`~repro.errors.ServiceOverloadedError`);
* :mod:`repro.serve.client` — the blocking :class:`ServeClient`, with
  retry/backoff and mid-stream resume (see :mod:`repro.resilience`).

The whole stack is threaded through :mod:`repro.resilience`: deterministic
fault injection at named sites, per-``(graph, spec)`` circuit breaking, and
per-request deadlines that clamp server-side enumeration budgets.

Quick start (in-process, for tests and notebooks)::

    from repro.serve import ReproService, ServeClient, start_in_thread

    service = ReproService(max_concurrent=2)
    service.add_graph("demo", graph)
    with start_in_thread(service) as handle:
        with ServeClient(port=handle.port) as client:
            cliques, done = client.query({"gamma": 0.9, "theta": 3})

From the command line: ``repro serve --dataset enron``, then
``repro client --query '{"gamma": 0.9, "theta": 5}'``.
"""

from .admission import AdmissionController
from .client import ServeClient, fetch_http
from .coalesce import Flight, SingleFlight
from .protocol import (DEFAULT_BATCH_SIZE, OPERATIONS, ProtocolError,
                       clique_to_wire, decode_frame, encode_frame,
                       error_payload, exception_from_payload,
                       validate_request, wire_to_clique)
from .service import GraphHost, ReproService, ServiceHandle, start_in_thread

__all__ = [
    "AdmissionController",
    "DEFAULT_BATCH_SIZE",
    "Flight",
    "GraphHost",
    "OPERATIONS",
    "ProtocolError",
    "ReproService",
    "ServeClient",
    "ServiceHandle",
    "SingleFlight",
    "clique_to_wire",
    "decode_frame",
    "encode_frame",
    "error_payload",
    "exception_from_payload",
    "fetch_http",
    "start_in_thread",
    "validate_request",
    "wire_to_clique",
]
