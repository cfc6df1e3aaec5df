"""Unified exception hierarchy for the repro package.

Every error the library raises on *invalid input* descends from
:class:`ReproError`, so callers (and the CLI) can catch one type instead of
guessing which submodule complained:

``ReproError``
    The package-wide base class.
``QueryError``
    Anything wrong with a query description: unknown workload or algorithm,
    contradictory options, an unsatisfiable containment query, ...
``ParameterError``
    The classic MQCE parameter validation (gamma outside [0.5, 1] or a
    non-positive theta).  A :class:`QueryError` subclass.
``SpecError``
    A structurally invalid :class:`repro.api.QuerySpec` (bad field values or
    combinations).  A :class:`QueryError` subclass.
``EngineError``
    Invalid use of the persistent :class:`repro.engine.MQCEEngine` (e.g.
    querying a prepared graph whose underlying graph was mutated).

All of these also subclass :class:`ValueError`, preserving the exception types
the pre-``repro.errors`` releases raised; ``except ValueError`` code keeps
working.  :class:`repro.graph.GraphError` joins the hierarchy from its own
module (it subclasses :class:`ReproError` there) so this module stays
dependency-free.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro package."""


class QueryError(ReproError, ValueError):
    """An invalid or unsatisfiable query description."""


class ParameterError(QueryError):
    """Raised when gamma or theta are outside the problem's valid ranges."""


class SpecError(QueryError):
    """Raised when a :class:`repro.api.QuerySpec` is structurally invalid."""


class EngineError(QueryError):
    """Raised for invalid engine usage (e.g. querying a mutated prepared graph)."""


class ServiceOverloadedError(ReproError):
    """Raised when the serving layer sheds a request instead of queueing it.

    The ``repro serve`` admission controller raises (and wire-encodes) this
    when every enumeration slot is busy and the bounded wait queue is full —
    the client should back off and retry rather than pile on.  Not a
    :class:`QueryError`: the query was fine, the server was saturated.
    """

    def __init__(self, message: str = "service overloaded", *,
                 running: int | None = None, queued: int | None = None) -> None:
        super().__init__(message)
        self.running = running
        self.queued = queued


class FaultInjectedError(ReproError):
    """Raised by an armed :mod:`repro.resilience.faults` injection site.

    Chaos tests install a :class:`~repro.resilience.faults.FaultPlan` whose
    ``raise`` rules surface as this type, so recovery code can be asserted to
    retry *injected* faults without accidentally swallowing real bugs.
    """

    def __init__(self, message: str = "injected fault", *,
                 site: str | None = None) -> None:
        super().__init__(message)
        self.site = site


class CircuitOpenError(ReproError):
    """A circuit breaker is open: the request fails fast instead of running.

    The serve layer opens one circuit per ``(graph, resolved spec)`` after
    repeated enumeration faults; ``retry_after`` is the seconds until the
    breaker half-opens for a probe.
    """

    def __init__(self, message: str = "circuit open", *,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ReproError):
    """A request's deadline elapsed before (or while) serving it."""


class ConnectionLostError(ReproError):
    """The serve connection died mid-request (EOF, reset, truncated frame).

    The client closes the dead socket before raising, so the instance is
    reconnectable; retry-aware callers treat this as transient.
    """


__all__ = [
    "ReproError",
    "QueryError",
    "ParameterError",
    "SpecError",
    "EngineError",
    "ServiceOverloadedError",
    "FaultInjectedError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ConnectionLostError",
]
