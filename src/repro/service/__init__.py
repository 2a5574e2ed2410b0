"""Serving layer: sharded, update-aware batch query execution over FlatAIT.

The :mod:`repro.service` subsystem turns the single-snapshot batch engine of
:class:`~repro.core.flat.FlatAIT` into something deployable: a
:class:`ShardedEngine` that partitions the dataset across shards, answers
batches by scatter-gather with exact (counting/reporting) or
distribution-identical (sampling) semantics, and absorbs writes through
per-shard delta logs with versioned snapshot refresh; a
:class:`RequestGateway` that transparently coalesces concurrent single-query
traffic into micro-batches for the engine's batch API;
and :class:`GatewayMetrics` telemetry (counters, batch-size histogram,
latency percentiles).  On top of the gateway sits the wire tier: an
:class:`HttpFrontend` (:mod:`repro.service.server`) serving JSON-over-HTTP
with per-request deadlines, a :class:`CircuitBreaker` guarding a degraded
read-only mode (:mod:`repro.service.admission`), and graceful drain.  Each
concern has one mechanism: the gateway's bounded queue
(``max_queue_depth``) is the only intake bound, answered on the wire with
429, and the :class:`ProcessExecutor`'s respawn-and-resend is the only
retry.  A batch's shard ops run inline in the owner process or, through a
:class:`ProcessExecutor`, on long-lived worker processes over
shared-memory snapshots (see :mod:`repro.service.shm`).
See ``docs/ARCHITECTURE.md`` for the layer map, the sampling-correctness
argument, and the batch-boundary consistency argument.
"""

from .admission import BREAKER_STATES, CircuitBreaker, Deadline
from .engine import ShardedEngine
from .executor import (
    EXECUTOR_NAMES,
    SCATTER_NAMES,
    ProcessExecutor,
    resolve_executor,
)
from .gateway import RequestGateway
from .metrics import BatchSizeHistogram, GatewayMetrics, LatencyReservoir
from .server import HttpFrontend, http_request, http_request_async
from .shard import Shard
from .shm import ShardView

__all__ = [
    "ShardedEngine",
    "Shard",
    "ShardView",
    "RequestGateway",
    "HttpFrontend",
    "CircuitBreaker",
    "Deadline",
    "BREAKER_STATES",
    "http_request",
    "http_request_async",
    "GatewayMetrics",
    "BatchSizeHistogram",
    "LatencyReservoir",
    "ProcessExecutor",
    "resolve_executor",
    "EXECUTOR_NAMES",
    "SCATTER_NAMES",
]
