"""repro.resilience — the fault-tolerance layer.

Everything the serving stack needs to keep answering correctly while pieces
of it die, stall, or lie:

* :mod:`repro.resilience.faults` — **deterministic fault injection**: a
  seeded, process-global :class:`~repro.resilience.faults.FaultPlan`
  (``REPRO_FAULTS`` env or programmatic) with named sites registered at the
  hot paths (``worker.task``, ``serve.write_frame``, ``client.connect``,
  ...).  Rules raise, delay, truncate writes, drop connections, or kill the
  process on the Nth hit, and every fired fault is counted in
  ``repro_faults_injected_total{site=}`` so chaos tests can assert the fault
  actually happened.
* :mod:`repro.resilience.retry` — **client retry machinery**: capped
  decorrelated-jitter backoff (:class:`~repro.resilience.retry.RetryPolicy`),
  wall-clock :class:`~repro.resilience.retry.Deadline` budgets that propagate
  into the server-side budget clamp, and
  :func:`~repro.resilience.retry.call_with_retry`.
* :mod:`repro.resilience.breaker` — **circuit breaking**: per-key
  :class:`~repro.resilience.breaker.CircuitBreaker` (closed → open →
  half-open probe) failing fast with the typed
  :class:`~repro.errors.CircuitOpenError`.

The consumers: retry + stream resume in :mod:`repro.serve.client`,
deadlines and per-``(graph, spec)`` breakers in :mod:`repro.serve.service`,
and the work-stealing workers' sequential fallback in
:mod:`repro.extensions.parallel`.  The invariant every piece defends: under
any interleaving of worker kills and dropped connections, a recovered run's
answers are **identical** to the fault-free sequential run — faults may cost
latency, never correctness.
"""

from .breaker import BreakerBoard, CircuitBreaker
from .faults import (FaultPlan, FaultRule, KNOWN_SITES, active_plan,
                     fault_point, install_plan, parse_plan, reset_plan)
from .retry import Deadline, RetryPolicy, call_with_retry

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "KNOWN_SITES",
    "RetryPolicy",
    "active_plan",
    "call_with_retry",
    "fault_point",
    "install_plan",
    "parse_plan",
    "reset_plan",
]
