"""RequestGateway — transparent micro-batching for concurrent single-query traffic.

The batch engines built by the earlier layers (:class:`~repro.core.flat.FlatAIT`,
:class:`~repro.service.engine.ShardedEngine`) answer *batches* an order of
magnitude faster than query-at-a-time loops — but real serving traffic
arrives as independent single requests from many concurrent callers, none of
whom can assemble a batch on their own.  The gateway closes that gap:

* callers submit single ``count`` / ``report`` / ``sample`` /
  ``total_weight`` requests (plus ``insert`` / ``delete`` writes and
  ``checkpoint`` snapshots) from any thread and get a
  :class:`concurrent.futures.Future` back;
* a single dispatcher thread coalesces queued requests into **micro-batches**
  without a timer: a batch is whatever is queued when the dispatcher becomes
  free, up to ``max_batch_size`` requests.  A lone request is dispatched at
  once; under load, requests that arrive while one batch runs form the next
  (the "natural batching" of group commit);
* each micro-batch is dispatched **grouped by operation** through the
  engine's vectorised ``*_many`` APIs, so a burst of 64 concurrent ``count``
  calls costs one level-synchronous traversal instead of 64.

Consistency
-----------
The engine applies buffered writes at batch boundaries only (see
:meth:`ShardedEngine.refresh`), and the gateway preserves exactly that
invariant one level up: writes drained into a micro-batch are applied
*before* the batch's read groups are dispatched, and never between them.
Every read in a micro-batch therefore observes one snapshot version — the
one containing all writes that arrived before the batch closed.  A write
never splits a micro-batch of reads, and a micro-batch never observes a
half-applied write burst.

Failure isolation
-----------------
Requests are validated at submit time (malformed queries fail their own
future immediately, before ever joining a batch), and if a *grouped*
dispatch raises mid-batch — e.g. one ``sample(..., on_empty="raise")``
request with an empty result set — the gateway falls back to per-request
dispatch within that group, so the exception lands only on the future that
caused it and its batch-mates still succeed.

Telemetry from :mod:`repro.service.metrics` is surfaced via
:meth:`RequestGateway.stats`: per-operation counters, the micro-batch size
histogram, and p50/p95/p99 end-to-end latency per operation.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from concurrent.futures import Future
from typing import Optional

import numpy as np

from ..core.errors import (
    GatewayClosedError,
    GatewayOverloadError,
    InvalidIntervalError,
    InvalidQueryError,
)
from ..core.flat import FlatAIT
from ..core.interval import Interval, validate_endpoints
from ..core.query import QueryLike, validate_sample_size
from ..sampling.rng import RandomState, resolve_rng
from .metrics import GatewayMetrics

__all__ = ["RequestGateway"]

#: Read operations, dispatched grouped through the engine's ``*_many`` APIs.
READ_OPS = frozenset({"count", "total_weight", "report", "sample"})

#: Write operations, applied in bulk at the head of every micro-batch.
WRITE_OPS = frozenset({"insert", "delete"})

#: Control operations, executed on the dispatcher thread between the write
#: and read groups of their micro-batch.
CONTROL_OPS = frozenset({"checkpoint"})

_STOP = object()


class _Request:
    """One queued request: operation, validated payload, and its future."""

    __slots__ = ("op", "payload", "group_key", "future", "enqueued_at")

    def __init__(self, op: str, payload: tuple, group_key: tuple) -> None:
        self.op = op
        self.payload = payload
        self.group_key = group_key
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


class RequestGateway:
    """Coalesce concurrent single-query requests into engine micro-batches.

    Parameters
    ----------
    engine:
        Any object exposing the batch API (``count_many`` /
        ``total_weight_many`` / ``report_many`` / ``sample_many`` and, for
        write traffic, ``insert_many`` / ``delete_many``) — typically a
        :class:`~repro.service.engine.ShardedEngine`.  The gateway is the
        engine's **only** caller while it is running: all engine access is
        serialised through the dispatcher thread, which is what makes the
        (thread-unsafe) engine safe to share between callers.
    max_batch_size:
        Maximum requests per micro-batch.  ``1`` degenerates to scalar
        dispatch (useful as an experimental baseline).
    max_queue_depth:
        Bounded-intake cap: when the dispatch queue already holds this many
        requests, :meth:`submit` sheds the newcomer with
        :class:`~repro.core.errors.GatewayOverloadError` instead of growing
        memory without bound.  ``None`` disables shedding (the pre-bounded
        legacy behaviour).
    random_state:
        Seed/generator for ``sample`` dispatch.  One stream is used for all
        sampling batches, so results are reproducible given a deterministic
        arrival order (e.g. a paused gateway in tests).
    metrics:
        A :class:`~repro.service.metrics.GatewayMetrics` to record into
        (a fresh one by default).
    start:
        When False the dispatcher thread is not started; requests queue up
        until :meth:`process_pending` is called (deterministic batch
        formation — used by tests and the latency experiment's replay mode).

    Examples
    --------
    >>> from repro import IntervalDataset
    >>> from repro.service import ShardedEngine, RequestGateway
    >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30), (25, 40)])
    >>> with ShardedEngine(data, num_shards=2) as engine:
    ...     with RequestGateway(engine) as gateway:
    ...         future = gateway.submit("count", (4, 12))
    ...         future.result()
    ...         gateway.count((18, 26))        # blocking convenience wrapper
    ...         new_id = gateway.insert((8, 22))
    ...         gateway.count((4, 12))
    2
    2
    3
    >>> isinstance(gateway.stats()["batches"]["dispatched"], int)
    True
    """

    def __init__(
        self,
        engine,
        max_batch_size: int = 64,
        max_queue_depth: Optional[int] = 8192,
        random_state: RandomState = 0,
        metrics: Optional[GatewayMetrics] = None,
        start: bool = True,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1 or None, got {max_queue_depth}")
        self._engine = engine
        self._max_batch_size = int(max_batch_size)
        self._max_queue_depth = None if max_queue_depth is None else int(max_queue_depth)
        self._rng = resolve_rng(random_state)
        self._metrics = metrics if metrics is not None else GatewayMetrics()
        self._queue: queue_module.Queue = queue_module.Queue()
        self._closed = False
        self._close_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        if start:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-gateway-dispatcher", daemon=True
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # accessors / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def max_batch_size(self) -> int:
        """Maximum number of requests coalesced into one micro-batch."""
        return self._max_batch_size

    @property
    def max_queue_depth(self) -> Optional[int]:
        """Intake bound; submits shed with ``GatewayOverloadError`` beyond it."""
        return self._max_queue_depth

    @property
    def queue_depth(self) -> int:
        """Requests currently queued and not yet drained into a micro-batch."""
        return self._queue.qsize()

    @property
    def is_running(self) -> bool:
        """True while the dispatcher thread is alive and accepting requests."""
        return (
            not self._closed
            and self._dispatcher is not None
            and self._dispatcher.is_alive()
        )

    def stats(self) -> dict:
        """JSON-ready telemetry snapshot (counters, batch histogram, latency percentiles).

        Besides the request/batch counters the snapshot reports an
        ``"engine"`` section describing the serving stack behind the
        gateway — most usefully which execution tier is live
        (``executor: "serial" | "threads" | "process"``, plus the process
        executor's ``scatter`` strategy and its ``placements`` counter —
        read batches answered ``inline``, under the ``data`` scatter and
        under the ``query`` scatter — both ``None`` for in-process
        executors).
        """
        out = self._metrics.snapshot()
        out["queue"] = {
            "depth": self._queue.qsize(),
            "max_queue_depth": self._max_queue_depth,
        }
        engine = self._engine
        out["engine"] = {
            "executor": getattr(engine, "executor_kind", type(engine).__name__),
            "num_shards": getattr(engine, "num_shards", 1),
            "scatter": getattr(engine, "scatter", None),
            "placements": getattr(engine, "placements", None),
        }
        return out

    def close(self, timeout: Optional[float] = None, close_engine: bool = False) -> None:
        """Stop accepting requests, flush everything queued, join the dispatcher.

        Pending futures are *completed*, not cancelled: the dispatcher
        drains the queue into final micro-batches before exiting, and any
        engine write-ahead log is fsynced before close returns — every
        acknowledged write is durable by the time the caller regains
        control.  Idempotent; submits after close raise
        :class:`~repro.core.errors.GatewayClosedError`.

        ``close_engine=True`` additionally closes the engine once the
        dispatcher has drained — the one-call teardown for process-executor
        deployments: the engine's ``close`` shuts down an owned executor,
        which stops its worker processes and unlinks every shared-memory
        segment.  The ordering matters and is guaranteed here: workers go
        down only *after* the last micro-batch has been answered.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
        else:
            self._drain_all()
        self._sync_writes()
        if close_engine:
            closer = getattr(self._engine, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "RequestGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, op: str, *args, **kwargs) -> Future:
        """Enqueue one request; return the future carrying its result.

        ``op`` is one of ``count`` / ``total_weight`` / ``report`` /
        ``sample`` / ``insert`` / ``delete`` / ``checkpoint``; positional
        arguments mirror the engine's scalar API (``sample`` additionally
        accepts the ``on_empty`` keyword, ``checkpoint`` the ``fsync`` and
        ``retain`` keywords).  Validation runs *here*, on the submitting
        thread — a malformed request raises immediately and never enters a
        batch.
        """
        if self._closed:
            raise GatewayClosedError("gateway is closed")  # fast path; re-checked at enqueue
        if op in ("count", "total_weight", "report"):
            (query,) = args
            payload = (self._coerce_query(query),)
            group_key = (op,)
        elif op == "sample":
            query, sample_size = args
            on_empty = kwargs.pop("on_empty", "empty")
            if on_empty not in ("empty", "raise"):
                raise ValueError(f"on_empty must be 'empty' or 'raise', got {on_empty!r}")
            sample_size = validate_sample_size(sample_size)
            payload = (self._coerce_query(query), sample_size, on_empty)
            group_key = (op, sample_size, on_empty)
        elif op == "insert":
            (interval,) = args
            payload = (self._coerce_interval(interval),)
            group_key = (op,)
        elif op == "delete":
            (global_id,) = args
            payload = (int(global_id),)
            group_key = (op,)
        elif op == "checkpoint":
            if not hasattr(self._engine, "save_snapshot"):
                raise ValueError(
                    f"engine {type(self._engine).__name__} does not support snapshots"
                )
            if len(args) > 1:
                raise TypeError(f"checkpoint takes at most one positional argument, got {len(args)}")
            directory = args[0] if args else None
            fsync = bool(kwargs.pop("fsync", True))
            retain = int(kwargs.pop("retain", 2))
            payload = (directory, fsync, retain)
            group_key = (op,)
        else:
            raise ValueError(
                f"unknown operation {op!r}; expected one of "
                f"{sorted(READ_OPS | WRITE_OPS | CONTROL_OPS)}"
            )
        if kwargs:
            raise TypeError(f"unexpected keyword arguments for {op!r}: {sorted(kwargs)}")
        request = _Request(op, payload, group_key)
        # Enqueue under the close lock: close() sets the flag and enqueues its
        # stop sentinel under the same lock, so a request can never land
        # *behind* the sentinel on a dispatcher that already drained and
        # exited — which would strand the future forever.
        with self._close_lock:
            if self._closed:
                raise GatewayClosedError("gateway is closed")
            if (
                self._max_queue_depth is not None
                and self._queue.qsize() >= self._max_queue_depth
            ):
                # Shed *before* enqueueing: the overloaded path must stay
                # O(1) and allocation-free so the gateway answers "try again
                # later" faster than it could ever answer the query.
                self._metrics.record_shed(op)
                raise GatewayOverloadError(
                    f"gateway overloaded: {self._queue.qsize()} requests queued "
                    f"(max_queue_depth={self._max_queue_depth})"
                )
            self._metrics.record_request(op)
            self._queue.put(request)
        return request.future

    def _await_result(self, op: str, future: Future, timeout: Optional[float]):
        """Wait out a blocking wrapper; cancel the request on wait-timeout.

        Without the cancel, a timed-out wrapper would leave its request
        queued: the dispatcher would still execute it and the outcome —
        including a *write* — would land invisibly after the caller already
        gave up.  Cancelling the future means a not-yet-started request is
        dropped at dispatch (``set_running_or_notify_cancel`` filters it out
        of its micro-batch); a request already mid-dispatch completes, which
        the re-raised error spells out.
        """
        try:
            return future.result(timeout)
        except TimeoutError:
            # Distinguish "the wait expired" from "the request itself failed
            # with a timeout-class error" (e.g. WorkerTimeoutError): a done
            # future carries the request's own outcome and must surface it.
            if future.done():
                if future.exception() is not None:
                    raise
                return future.result()
            cancelled = future.cancel()
            self._metrics.record_timeout(op)
            detail = (
                "request cancelled before dispatch"
                if cancelled
                else "request already dispatching; its result is discarded"
            )
            raise TimeoutError(
                f"{op} did not complete within {timeout}s ({detail})"
            ) from None

    # Blocking convenience wrappers -------------------------------------- #
    def count(self, query: QueryLike, timeout: Optional[float] = None) -> int:
        """``|q ∩ X|`` for one query (blocks until its micro-batch completes)."""
        return self._await_result("count", self.submit("count", query), timeout)

    def total_weight(self, query: QueryLike, timeout: Optional[float] = None) -> float:
        """Total weight of ``q ∩ X`` for one query (blocking)."""
        return self._await_result(
            "total_weight", self.submit("total_weight", query), timeout
        )

    def report(self, query: QueryLike, timeout: Optional[float] = None) -> np.ndarray:
        """Ids of the intervals overlapping one query (blocking)."""
        return self._await_result("report", self.submit("report", query), timeout)

    def sample(
        self,
        query: QueryLike,
        sample_size: int,
        on_empty: str = "empty",
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """``sample_size`` i.i.d. draws from one query's result set (blocking)."""
        return self._await_result(
            "sample", self.submit("sample", query, sample_size, on_empty=on_empty), timeout
        )

    def insert(
        self, interval: Interval | tuple[float, float], timeout: Optional[float] = None
    ) -> int:
        """Insert one interval; returns its global id (blocking)."""
        return self._await_result("insert", self.submit("insert", interval), timeout)

    def delete(self, global_id: int, timeout: Optional[float] = None) -> bool:
        """Delete one interval by global id; True when it was active (blocking)."""
        return self._await_result("delete", self.submit("delete", global_id), timeout)

    def checkpoint(
        self,
        directory=None,
        fsync: bool = True,
        retain: int = 2,
        timeout: Optional[float] = None,
    ) -> int:
        """Snapshot the engine on the dispatcher thread; return the new epoch.

        This is the only safe way to checkpoint an engine behind a *running*
        gateway: the checkpoint executes inside the dispatch loop, after the
        writes of its micro-batch and never concurrently with any other
        engine call, so a write can never land in the outgoing epoch's WAL
        while missing from the new snapshot.  Arguments mirror
        :meth:`ShardedEngine.save_snapshot` (blocking).
        """
        future = self.submit(
            "checkpoint",
            *(() if directory is None else (directory,)),
            fsync=fsync,
            retain=retain,
        )
        return self._await_result("checkpoint", future, timeout)

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce_query(query: QueryLike) -> tuple[float, float]:
        """Validate one query now so a bad one cannot poison a batch later."""
        try:
            ql, qr = FlatAIT.coerce_queries([query])
        except (InvalidQueryError, InvalidIntervalError):
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidQueryError(f"malformed query {query!r}") from exc
        return float(ql[0]), float(qr[0])

    @staticmethod
    def _coerce_interval(interval) -> tuple[float, float]:
        """Validate one to-be-inserted interval on the submitting thread."""
        if isinstance(interval, Interval):
            left, right = interval.left, interval.right
        else:
            try:
                left, right = interval
                left, right = float(left), float(right)
            except (TypeError, ValueError) as exc:
                raise InvalidIntervalError(
                    f"insert expects an Interval or a (left, right) pair, got {interval!r}"
                ) from exc
        validate_endpoints(left, right)
        return left, right

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            self._execute_batch(self._fill_batch(item))
        self._drain_all()

    def _fill_batch(self, first: _Request) -> list[_Request]:
        """Grow a micro-batch from ``first`` with whatever is already queued."""
        batch = [first]
        while len(batch) < self._max_batch_size:
            try:
                item = self._queue.get_nowait()
            except queue_module.Empty:
                break
            if item is _STOP:
                # Preserve shutdown: re-enqueue so the outer loop sees it
                # right after this batch completes.
                self._queue.put(_STOP)
                break
            batch.append(item)
        return batch

    def _drain_all(self) -> None:
        """Flush every queued request into final micro-batches (shutdown path)."""
        pending: list[_Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue_module.Empty:
                break
            if item is not _STOP:
                pending.append(item)
        for start in range(0, len(pending), self._max_batch_size):
            self._execute_batch(pending[start : start + self._max_batch_size])

    def process_pending(self) -> int:
        """Synchronously form and execute micro-batches from the current queue.

        Only meaningful on a paused gateway (``start=False``): batches are
        formed deterministically in arrival order, ``max_batch_size``
        requests at a time (there is no dispatcher to race against).
        Returns the number of requests processed.
        """
        if self._dispatcher is not None:
            raise RuntimeError(
                "process_pending is only available on a paused gateway (start=False)"
            )
        before = self._queue.qsize()
        self._drain_all()
        return before

    # ------------------------------------------------------------------ #
    # batch execution
    # ------------------------------------------------------------------ #
    def _execute_batch(self, batch: list[_Request]) -> None:
        batch = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if not batch:
            return

        # Writes first, checkpoints second, reads last: every read in the
        # micro-batch observes the same snapshot, which already contains the
        # batch's writes (the engine folds buffered writes in at its own
        # batch boundary), and a checkpoint folds in every write dispatched
        # before it.
        writes = [r for r in batch if r.op in WRITE_OPS]
        controls = [r for r in batch if r.op in CONTROL_OPS]
        reads = [r for r in batch if r.op in READ_OPS]

        groups: dict[tuple, list[_Request]] = {}
        for request in writes + controls + reads:
            groups.setdefault(request.group_key, []).append(request)
        self._metrics.record_batch(len(batch), groups=len(groups))

        for key in list(groups):
            if key[0] == "insert":
                self._run_group(groups[key], self._dispatch_inserts, self._scalar_insert)
            elif key[0] == "delete":
                self._run_group(groups[key], self._dispatch_deletes, self._scalar_delete)
        for key in list(groups):
            if key[0] == "checkpoint":
                self._dispatch_checkpoints(groups[key])
        for key, members in groups.items():
            if key[0] in WRITE_OPS or key[0] in CONTROL_OPS:
                continue
            if key[0] == "sample":

                def grouped(reqs, s=key[1], oe=key[2]):
                    self._dispatch_samples(reqs, s, oe)

                def scalar(req, s=key[1], oe=key[2]):
                    self._scalar_sample(req, s, oe)

            else:

                def grouped(reqs, op=key[0]):
                    self._dispatch_reads(reqs, op)

                def scalar(req, op=key[0]):
                    self._dispatch_reads([req], op)

            self._run_group(members, grouped, scalar)

    def _run_group(self, requests: list[_Request], grouped, scalar) -> None:
        """Dispatch one group; on failure, isolate the error per request."""
        try:
            grouped(requests)
        except Exception:
            # One request's failure must not poison its batch-mates: retry
            # each request alone so exceptions land only where they belong.
            self._metrics.record_fallback()
            for request in requests:
                if request.future.done():
                    continue
                try:
                    scalar(request)
                except Exception as exc:
                    self._finish(request, error=exc)

    def _finish(self, request: _Request, result=None, error: Exception | None = None) -> None:
        latency = time.perf_counter() - request.enqueued_at
        if error is not None:
            self._metrics.record_completion(request.op, latency, error=True)
            request.future.set_exception(error)
        else:
            self._metrics.record_completion(request.op, latency)
            request.future.set_result(result)

    # Read dispatch ------------------------------------------------------ #
    def _query_array(self, requests: list[_Request]) -> np.ndarray:
        out = np.empty((len(requests), 2), dtype=np.float64)
        for i, request in enumerate(requests):
            out[i, 0], out[i, 1] = request.payload[0]
        return out

    def _dispatch_reads(self, requests: list[_Request], op: str) -> None:
        queries = self._query_array(requests)
        if op == "count":
            values = self._engine.count_many(queries)
            for request, value in zip(requests, values):
                self._finish(request, int(value))
        elif op == "total_weight":
            values = self._engine.total_weight_many(queries)
            for request, value in zip(requests, values):
                self._finish(request, float(value))
        else:  # report
            rows = self._engine.report_many(queries)
            for request, row in zip(requests, rows):
                self._finish(request, row)

    def _dispatch_samples(
        self, requests: list[_Request], sample_size: int, on_empty: str
    ) -> None:
        rows = self._engine.sample_many(
            self._query_array(requests),
            sample_size,
            random_state=self._rng,
            on_empty=on_empty,
        )
        for request, row in zip(requests, rows):
            self._finish(request, row)

    def _scalar_sample(self, request: _Request, sample_size: int, on_empty: str) -> None:
        self._dispatch_samples([request], sample_size, on_empty)

    # Control dispatch --------------------------------------------------- #
    def _dispatch_checkpoints(self, requests: list[_Request]) -> None:
        """Run queued checkpoints sequentially; errors stay on their future."""
        for request in requests:
            directory, fsync, retain = request.payload
            try:
                epoch = self._engine.save_snapshot(directory, fsync=fsync, retain=retain)
            except Exception as exc:
                self._finish(request, error=exc)
            else:
                self._finish(request, int(epoch))

    # Write dispatch ----------------------------------------------------- #
    def _sync_writes(self) -> None:
        """Durability barrier: fsync the engine's write-ahead logs (if any).

        Runs after every write dispatch, *before* the write futures
        complete — under the WAL's ``"batch"`` fsync policy this is exactly
        what makes a completed write future an acknowledged-durable write.
        """
        sync = getattr(self._engine, "sync_wal", None)
        if sync is not None:
            sync()

    def _dispatch_inserts(self, requests: list[_Request]) -> None:
        lefts = [request.payload[0][0] for request in requests]
        rights = [request.payload[0][1] for request in requests]
        ids = self._engine.insert_many(lefts, rights)
        self._sync_writes()
        for request, new_id in zip(requests, ids):
            self._finish(request, int(new_id))

    def _scalar_insert(self, request: _Request) -> None:
        left, right = request.payload[0]
        new_id = int(self._engine.insert_many([left], [right])[0])
        self._sync_writes()
        self._finish(request, new_id)

    def _dispatch_deletes(self, requests: list[_Request]) -> None:
        flags = self._engine.delete_many([request.payload[0] for request in requests])
        self._sync_writes()
        for request, flag in zip(requests, flags):
            self._finish(request, bool(flag))

    def _scalar_delete(self, request: _Request) -> None:
        flag = bool(self._engine.delete_many([request.payload[0]])[0])
        self._sync_writes()
        self._finish(request, flag)
