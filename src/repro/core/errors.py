"""Exception hierarchy for the repro library.

All exceptions raised by the public API derive from :class:`ReproError`, so
callers can catch a single type when they do not care about the specific
failure mode.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidIntervalError",
    "InvalidQueryError",
    "InvalidWeightError",
    "EmptyDatasetError",
    "EmptyResultError",
    "StructureStateError",
    "UnsupportedOperationError",
    "GatewayClosedError",
    "GatewayOverloadError",
    "WorkerFailureError",
    "WorkerTimeoutError",
    "WorkerCrashError",
    "PersistenceError",
    "SnapshotCorruptError",
    "WALCorruptError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class InvalidIntervalError(ReproError, ValueError):
    """An interval is malformed (e.g. left endpoint greater than right)."""


class InvalidQueryError(ReproError, ValueError):
    """A query interval or sample size is malformed."""


class InvalidWeightError(ReproError, ValueError):
    """A weight is malformed (non-finite, negative, or missing)."""


class EmptyDatasetError(ReproError, ValueError):
    """An index was asked to be built over an empty interval collection."""


class EmptyResultError(ReproError, LookupError):
    """A sampling query matched no intervals and ``on_empty='raise'``."""


class StructureStateError(ReproError, RuntimeError):
    """An index is in a state that does not support the requested operation."""


class UnsupportedOperationError(ReproError, NotImplementedError):
    """The requested operation is not supported by this structure."""


class GatewayClosedError(StructureStateError):
    """A request was submitted to a :class:`RequestGateway` after ``close()``.

    Subclasses :class:`StructureStateError` (and therefore ``RuntimeError``),
    so pre-existing ``except RuntimeError`` handlers keep working.
    """


class GatewayOverloadError(StructureStateError):
    """A request was shed at submit time because the gateway queue is full.

    Raised by :meth:`RequestGateway.submit` when the intake queue already
    holds ``max_queue_depth`` requests — the bounded-intake contract that
    keeps a traffic spike from growing memory without bound.  Shedding is
    deliberate and *fast*: the request never enters the queue, so the
    caller can retry with backoff (the HTTP front end translates this into
    a 429 with ``Retry-After``).  Subclasses :class:`StructureStateError`
    (and therefore ``RuntimeError``).
    """


class WorkerFailureError(ReproError):
    """A process-executor worker failed under a request that was itself fine.

    The common base of :class:`WorkerTimeoutError` and
    :class:`WorkerCrashError`: the substrate failed, not the op.  The HTTP
    front end feeds exactly these errors to its circuit breaker.  An
    exception raised by the op itself on a worker is not one of them: it
    surfaces as it would inline.
    """


class WorkerTimeoutError(WorkerFailureError, TimeoutError):
    """A process-executor worker failed to answer within ``op_timeout`` seconds.

    Raised by :class:`~repro.service.executor.ProcessExecutor` when a
    dispatched shard op times out; the executor kills the hung worker
    (the next batch respawns it and replays its segments) before raising.
    Subclasses the builtin :class:`TimeoutError`, so pre-existing
    ``except TimeoutError`` handlers keep working.
    """


class WorkerCrashError(WorkerFailureError, RuntimeError):
    """A process-executor worker kept dying past the executor's respawn cap.

    Raised by :class:`~repro.service.executor.ProcessExecutor` once a worker
    has died more times in a row than it respawns (each respawn resends the
    interrupted message).  Subclasses the builtin :class:`RuntimeError`.
    """


class PersistenceError(ReproError, OSError):
    """Base class for durability-layer failures (snapshots, write-ahead logs)."""


class SnapshotCorruptError(PersistenceError):
    """A snapshot file failed validation (bad magic, header, or array checksum)."""


class WALCorruptError(PersistenceError):
    """A write-ahead log's *header* is unreadable.

    Torn or truncated record *tails* are expected after a crash and are never
    reported as errors — recovery stops at the first bad record checksum and
    keeps everything before it (see :meth:`repro.persist.DeltaLog.scan`).
    """
