"""Client-side retry machinery: capped decorrelated-jitter backoff, deadlines.

The backoff schedule is the "decorrelated jitter" variant: each delay is
drawn uniformly from ``[base, previous * 3]`` and capped at ``max_delay``.
Compared to plain exponential backoff it decorrelates a thundering herd of
retrying clients (each draws a different point of the widening window) while
keeping the expected delay growth exponential.  With ``seed`` set the
schedule is deterministic — tests assert exact sleep sequences.

:class:`Deadline` is the propagation half: a client-side wall-clock budget
that (a) bounds the retry loop and (b) rides the wire as the ``deadline``
request field, where the server folds the *remaining* seconds into its
budget clamp (:meth:`repro.serve.admission.AdmissionController.apply_budgets`)
so a query never runs longer server-side than the client will wait.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from ..errors import DeadlineExceededError
from ..obs.metrics import REGISTRY

_RETRIES = REGISTRY.counter(
    "repro_client_retries_total",
    "Operations retried by resilience-aware clients, by operation")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to back off in between.

    ``max_attempts`` counts *total* tries (1 = no retries).  ``seed`` makes
    the jitter deterministic; ``None`` draws from the process RNG.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 < base_delay <= max_delay")

    def delays(self) -> Iterator[float]:
        """The backoff delays between successive attempts (len = attempts-1)."""
        rng = random.Random(self.seed)
        previous = self.base_delay
        for _ in range(self.max_attempts - 1):
            previous = min(self.max_delay,
                           rng.uniform(self.base_delay, previous * 3))
            yield previous


class Deadline:
    """A wall-clock budget: ``Deadline.after(2.5)`` expires 2.5s from now.

    ``clock`` defaults to ``time.monotonic``, looked up when the deadline is
    made.  Besides bounding client retries, a deadline is the ``time_limit``
    budget of every enumeration path (``run_enumeration``, top-k,
    containment and engine streams): its :meth:`expired` is the enumerator's
    cooperative ``should_stop``.
    """

    def __init__(self, expires_at: float, *,
                 clock: Callable[[], float] | None = None) -> None:
        self._expires_at = expires_at
        self._clock = clock if clock is not None else time.monotonic

    @classmethod
    def after(cls, seconds: float, *,
              clock: Callable[[], float] | None = None) -> "Deadline":
        clock = clock if clock is not None else time.monotonic
        return cls(clock() + seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` once the budget is gone."""
        if self.expired():
            raise DeadlineExceededError(f"deadline exceeded before {what}")


def call_with_retry(fn: Callable, *, policy: RetryPolicy,
                    retryable: tuple[type[BaseException], ...] | Callable,
                    deadline: Deadline | None = None,
                    operation: str = "call",
                    on_retry: Callable | None = None,
                    sleep: Callable[[float], None] = time.sleep):
    """Run ``fn()`` under ``policy``, retrying matching failures with backoff.

    ``retryable`` is an exception-type tuple or a predicate.  A deadline
    bounds the whole loop: a sleep never overruns it, and an expired deadline
    re-raises the last failure rather than burning a final doomed attempt.
    ``on_retry(attempt, exc, delay)`` observes each retry (logging, tests).
    """
    is_retryable = (retryable if callable(retryable) and
                    not isinstance(retryable, tuple)
                    else lambda exc: isinstance(exc, retryable))  # type: ignore[arg-type]
    delays = policy.delays()
    attempt = 1
    while True:
        try:
            return fn()
        except BaseException as exc:  # noqa: BLE001 - filtered just below
            if not is_retryable(exc):
                raise
            delay = next(delays, None)
            if delay is None:
                raise
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise
                delay = min(delay, remaining)
            _RETRIES.inc(operation=operation)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            sleep(delay)
            attempt += 1


__all__ = ["Deadline", "RetryPolicy", "call_with_retry"]
