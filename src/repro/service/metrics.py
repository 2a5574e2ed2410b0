"""Telemetry for the serving layer: counters, histograms, latency reservoirs.

The gateway (:mod:`repro.service.gateway`) needs to answer two operational
questions — *what is the traffic doing* (per-operation request counters,
micro-batch sizes) and *what does it feel like to a caller* (end-to-end
latency percentiles).  This module provides the three primitives it records
into, all safe to share between the submitting threads and the dispatcher:

* :class:`LatencyReservoir` — a fixed-size uniform reservoir sample of
  observed latencies.  Percentiles over the reservoir converge to the
  stream's percentiles without retaining every observation (Vitter's
  Algorithm R with a deterministic seed, so two identical runs report
  identical telemetry);
* :class:`BatchSizeHistogram` — power-of-two buckets over dispatched
  micro-batch sizes.  The shape tells you how much the backlog coalesces:
  a load-saturated gateway fills the top bucket, a lightly loaded one sits
  at size 1;
* :class:`GatewayMetrics` — the aggregate the gateway owns: per-operation
  request/completion/error counters, the batch histogram, and one latency
  reservoir per operation, snapshotted by :meth:`GatewayMetrics.snapshot`
  (surfaced as ``RequestGateway.stats()``).

Everything is pure bookkeeping — no numpy in the hot path, one lock per
aggregate, O(1) per observation.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Optional

__all__ = ["LatencyReservoir", "BatchSizeHistogram", "GatewayMetrics"]

#: Default number of latency observations retained per operation.
DEFAULT_RESERVOIR_SIZE = 4096

#: The percentiles reported by every latency snapshot.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


class LatencyReservoir:
    """Uniform reservoir sample of a latency stream with percentile queries.

    Parameters
    ----------
    capacity:
        Maximum number of observations retained.  Once the stream exceeds
        the capacity, each new observation replaces a uniformly random slot
        with probability ``capacity / seen`` (Algorithm R), so the retained
        set stays a uniform sample of everything observed.
    seed:
        Seed for the replacement decisions.  Fixed by default so telemetry
        is reproducible run-to-run.

    Examples
    --------
    >>> reservoir = LatencyReservoir(capacity=128)
    >>> for ms in range(1, 101):
    ...     reservoir.record(ms / 1000.0)
    >>> reservoir.count
    100
    >>> round(reservoir.percentile(50.0) * 1000.0)
    50
    >>> round(reservoir.percentile(99.0) * 1000.0)
    99
    """

    __slots__ = ("_capacity", "_values", "_seen", "_total", "_max", "_rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_SIZE, seed: int = 2024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._values: list[float] = []
        self._seen = 0
        self._total = 0.0
        self._max = 0.0
        self._rng = random.Random(seed)

    @property
    def count(self) -> int:
        """Total number of observations recorded (not just retained)."""
        return self._seen

    def record(self, seconds: float) -> None:
        """Add one latency observation (in seconds)."""
        value = float(seconds)
        self._seen += 1
        self._total += value
        if value > self._max:
            self._max = value
        if len(self._values) < self._capacity:
            self._values.append(value)
        else:
            slot = self._rng.randrange(self._seen)
            if slot < self._capacity:
                self._values[slot] = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the reservoir."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    def snapshot_ms(self) -> dict:
        """Summary statistics in milliseconds (count, mean, p50/p95/p99, max)."""
        summary = {
            "count": self._seen,
            "mean_ms": round(self._total / self._seen * 1e3, 3) if self._seen else 0.0,
            "max_ms": round(self._max * 1e3, 3),
        }
        for q in REPORTED_PERCENTILES:
            summary[f"p{q:g}_ms"] = round(self.percentile(q) * 1e3, 3)
        return summary


class BatchSizeHistogram:
    """Power-of-two bucketed histogram of dispatched micro-batch sizes.

    Buckets are ``1``, ``2``, ``3-4``, ``5-8``, ``9-16``, ... — the first
    bucket isolating the degenerate "no coalescing happened" case that the
    gateway exists to avoid under load.

    Examples
    --------
    >>> histogram = BatchSizeHistogram()
    >>> for size in [1, 1, 2, 3, 4, 7, 64]:
    ...     histogram.record(size)
    >>> histogram.snapshot()
    {'1': 2, '2': 1, '3-4': 2, '5-8': 1, '33-64': 1}
    >>> round(histogram.mean(), 2)
    11.71
    """

    __slots__ = ("_buckets", "_total", "_count")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self._total = 0
        self._count = 0

    def record(self, size: int) -> None:
        """Add one batch-size observation (must be >= 1)."""
        size = int(size)
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size}")
        bucket = (size - 1).bit_length()  # 1 -> 0, 2 -> 1, 3-4 -> 2, 5-8 -> 3, ...
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self._total += size
        self._count += 1

    def mean(self) -> float:
        """Mean dispatched batch size (0.0 before the first batch)."""
        return self._total / self._count if self._count else 0.0

    def snapshot(self) -> dict:
        """Ordered ``{bucket_label: count}`` mapping of non-empty buckets."""
        out: dict[str, int] = {}
        for bucket in sorted(self._buckets):
            lo, hi = (2 ** (bucket - 1) + 1, 2**bucket) if bucket else (1, 1)
            label = str(lo) if lo == hi else f"{lo}-{hi}"
            out[label] = self._buckets[bucket]
        return out


class GatewayMetrics:
    """Aggregate telemetry recorded by a :class:`~repro.service.gateway.RequestGateway`.

    Thread-safe: submitting threads record enqueues while the dispatcher
    records dispatches and completions.  ``snapshot()`` returns plain dicts
    (JSON-ready), computed under the same lock.

    Examples
    --------
    >>> metrics = GatewayMetrics()
    >>> metrics.record_request("count")
    >>> metrics.record_batch(size=1, groups=1)
    >>> metrics.record_completion("count", seconds=0.002)
    >>> stats = metrics.snapshot()
    >>> stats["requests"]
    {'count': 1}
    >>> stats["batches"]["dispatched"]
    1
    >>> stats["latency_ms"]["count"]["count"]
    1
    """

    __slots__ = (
        "_lock",
        "_reservoir_size",
        "_requests",
        "_completions",
        "_errors",
        "_timeouts",
        "_sheds",
        "_fallbacks",
        "_histogram",
        "_groups_total",
        "_latency",
    )

    def __init__(self, reservoir_size: int = DEFAULT_RESERVOIR_SIZE) -> None:
        self._lock = threading.Lock()
        self._reservoir_size = int(reservoir_size)
        self._requests: dict[str, int] = {}
        self._completions: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._timeouts: dict[str, int] = {}
        self._sheds: dict[str, int] = {}
        self._fallbacks = 0
        self._histogram = BatchSizeHistogram()
        self._groups_total = 0
        self._latency: dict[str, LatencyReservoir] = {}

    def record_request(self, op: str) -> None:
        """Count one submitted request for operation ``op``."""
        with self._lock:
            self._requests[op] = self._requests.get(op, 0) + 1

    def record_batch(self, size: int, groups: int = 1) -> None:
        """Count one dispatched micro-batch of ``size`` requests in ``groups`` dispatch groups."""
        with self._lock:
            self._histogram.record(size)
            self._groups_total += int(groups)

    def record_timeout(self, op: str) -> None:
        """Count one blocking-wrapper (or front-end deadline) timeout for ``op``."""
        with self._lock:
            self._timeouts[op] = self._timeouts.get(op, 0) + 1

    def record_shed(self, op: str) -> None:
        """Count one request shed at submit time (gateway queue at capacity)."""
        with self._lock:
            self._sheds[op] = self._sheds.get(op, 0) + 1

    def record_fallback(self) -> None:
        """Count one grouped dispatch that fell back to per-request execution."""
        with self._lock:
            self._fallbacks += 1

    def record_completion(
        self, op: str, seconds: float, error: bool = False
    ) -> None:
        """Record one finished request: end-to-end latency plus error accounting."""
        with self._lock:
            self._completions[op] = self._completions.get(op, 0) + 1
            if error:
                self._errors[op] = self._errors.get(op, 0) + 1
            reservoir = self._latency.get(op)
            if reservoir is None:
                reservoir = self._latency[op] = LatencyReservoir(self._reservoir_size)
            reservoir.record(seconds)

    def snapshot(self, percentiles: Optional[tuple[float, ...]] = None) -> dict:
        """A JSON-ready snapshot of every counter, the histogram and all reservoirs."""
        with self._lock:
            dispatched = self._histogram._count
            return {
                "requests": dict(sorted(self._requests.items())),
                "completions": dict(sorted(self._completions.items())),
                "errors": dict(sorted(self._errors.items())),
                "timed_out": dict(sorted(self._timeouts.items())),
                "shed": dict(sorted(self._sheds.items())),
                "batches": {
                    "dispatched": dispatched,
                    "mean_size": round(self._histogram.mean(), 3),
                    "size_histogram": self._histogram.snapshot(),
                    "dispatch_groups": self._groups_total,
                    "fallbacks": self._fallbacks,
                },
                "latency_ms": {
                    op: reservoir.snapshot_ms()
                    for op, reservoir in sorted(self._latency.items())
                },
            }
