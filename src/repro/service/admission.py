"""Resilience primitives for the serving front end: expire and trip.

The HTTP front end (:mod:`repro.service.server`) composes two small,
independently testable mechanisms, both pure bookkeeping with no I/O:

* :class:`Deadline` — a monotonic-clock budget carried through a request's
  whole lifetime: queue wait and dispatch.  The front end's wait on the
  gateway is clamped to ``remaining()``.
* :class:`CircuitBreaker` — consecutive-worker-failure trip switch.  Open
  means *degraded read-only mode*: writes are refused (durability must not
  ride on a worker storm) while reads keep flowing — each successful read
  is the health probe that closes the breaker again after its cooldown.

The serving stack's other two concerns each live in one place elsewhere:
intake is bounded by the gateway queue
(``RequestGateway(max_queue_depth=...)``, a 429 on the wire), and a dead
worker is retried only by the process executor, which respawns it and
resends the interrupted tiles.

Both take an injectable ``clock`` so the chaos tests can drive the state
machines deterministically.

Examples
--------
>>> breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0, clock=lambda: 0.0)
>>> breaker.record_failure(); breaker.record_failure()
>>> breaker.state, breaker.allows_writes()
('open', False)
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "BREAKER_STATES",
]

#: The circuit breaker's states, in trip order.
BREAKER_STATES = ("closed", "open", "half_open")


class Deadline:
    """A monotonic-clock time budget threaded through one request.

    Examples
    --------
    >>> deadline = Deadline(5.0, clock=lambda: 100.0)
    >>> round(deadline.remaining(now=103.0), 1)
    2.0
    >>> deadline.expired(now=106.0)
    True
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self._clock = clock
        self.expires_at = clock() + float(seconds)

    def remaining(self, now: Optional[float] = None) -> float:
        """Seconds left in the budget (never negative)."""
        now = self._clock() if now is None else now
        return max(0.0, self.expires_at - now)

    def expired(self, now: Optional[float] = None) -> bool:
        """True once the budget is spent."""
        return self.remaining(now) <= 0.0


class CircuitBreaker:
    """Trip to degraded read-only mode after consecutive worker failures.

    State machine (``closed`` → ``open`` → ``half_open`` → ...):

    * **closed** — healthy; writes allowed.  ``failure_threshold``
      *consecutive* worker failures trip the breaker (any success resets
      the streak).
    * **open** — degraded read-only mode: ``allows_writes()`` is False, so
      the front end refuses writes with 503 while reads keep flowing.
      After ``cooldown_s`` the next recorded outcome is a probe.
    * **half_open** — cooldown elapsed; one successful read closes the
      breaker, one more failure re-opens it (and restarts the cooldown).

    Examples
    --------
    >>> now = [0.0]
    >>> breaker = CircuitBreaker(failure_threshold=2, cooldown_s=5.0, clock=lambda: now[0])
    >>> breaker.record_failure(); breaker.record_failure()
    >>> breaker.state
    'open'
    >>> now[0] = 6.0; breaker.state
    'half_open'
    >>> breaker.record_success(); breaker.state, breaker.allows_writes()
    ('closed', True)
    """

    __slots__ = ("_lock", "failure_threshold", "cooldown_s", "_clock",
                 "_failures", "_open", "_opened_at", "_trip_total", "_recover_total")

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive, got {cooldown_s}")
        self._lock = threading.Lock()
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._failures = 0
        self._open = False
        self._opened_at = 0.0
        self._trip_total = 0
        self._recover_total = 0

    @property
    def state(self) -> str:
        """One of :data:`BREAKER_STATES`."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if not self._open:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown_s:
            return "half_open"
        return "open"

    def allows_writes(self) -> bool:
        """False while degraded (open *or* probing): reads-only until recovered."""
        with self._lock:
            return not self._open

    def record_success(self) -> None:
        """A read completed without a worker failure; closes a half-open breaker."""
        with self._lock:
            self._failures = 0
            if self._open and self._state_locked() == "half_open":
                self._open = False
                self._recover_total += 1

    def record_failure(self) -> None:
        """A worker failure; trips a closed breaker, re-arms an open one."""
        with self._lock:
            self._failures += 1
            if self._open:
                # A half-open probe failed (or the storm continues): restart
                # the cooldown so recovery waits for a full quiet window.
                self._opened_at = self._clock()
            elif self._failures >= self.failure_threshold:
                self._open = True
                self._opened_at = self._clock()
                self._trip_total += 1

    def stats(self) -> dict:
        """JSON-ready state for the front end's ``/stats`` endpoint."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "consecutive_failures": self._failures,
                "trips_total": self._trip_total,
                "recoveries_total": self._recover_total,
            }
