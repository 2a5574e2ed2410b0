"""Where a shard op runs: inline in the owner process or on worker processes.

A :class:`~repro.service.engine.ShardedEngine` answers every batch query by
running the same per-shard op over all of its shards and merging the
results.  Where those per-shard calls run is a deployment decision, not a
correctness one.  There are two places:

* **inline** — :func:`repro.service.shm.run_inline`, a plain loop in the
  owner process over :meth:`ShardView.of_shard
  <repro.service.shm.ShardView.of_shard>` views.  Zero overhead; the
  engine's default (``executor=None`` / ``"serial"``) and the bit-identity
  reference.
* **workers** — :class:`ProcessExecutor`: long-lived worker *processes*
  that attach each shard's snapshot arrays once via
  ``multiprocessing.shared_memory`` and then receive only compact per-batch
  task descriptors (op name + the per-query payload rows their tiles
  cover).  A worker-bound batch is cut into shard x query-block tiles
  round-robined over all workers (the query scatter).  Under the default
  ``scatter="auto"`` a ``ProcessExecutor`` still answers a batch inline
  unless it is a large enough ``sample`` batch for the worker round trip to
  pay off.  See :mod:`repro.service.shm` for the segment layout and worker
  protocol, and ``docs/ARCHITECTURE.md`` for the measurements behind the
  ``auto`` rule.

Determinism note: no shard task draws from a random stream.  The engine
draws every sample's uniform up front and ships ranks (plus one integer
seed per query for tombstone redraws, see :mod:`repro.service.shm`), so
each query's answer is a function of its own payload rows and sampling
results are bit-identical in both places, under any tiling.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import queue as queue_module
import time
from typing import Optional

from ..core.errors import WorkerCrashError, WorkerTimeoutError
from .shm import (
    merge_block_results,
    publish_overlay,
    publish_shard,
    run_inline,
    slice_payload,
    worker_main,
)

__all__ = [
    "ProcessExecutor",
    "resolve_executor",
    "EXECUTOR_NAMES",
    "SCATTER_NAMES",
]

#: Executor names accepted by :func:`resolve_executor` (and therefore by the
#: ``executor=`` argument of :class:`ShardedEngine` and the service CLIs).
EXECUTOR_NAMES = ("serial", "process")

#: Scatter strategies accepted by :class:`ProcessExecutor`.
SCATTER_NAMES = ("query", "auto")

#: Smallest ``sample`` batch that ``scatter="auto"`` sends to the workers
#: (under the query scatter); smaller sample batches, and every count,
#: total-weight and report batch, run in the owner process.  64 queries is
#: where a 100-draw sample batch breaks even against the worker round trip;
#: counts stay cheaper inline up to ~1k queries and reports at every size
#: measured.  See "What ``auto`` does" in ``docs/ARCHITECTURE.md`` and the
#: ``batch`` rows of ``BENCH_parallel.json``.
AUTO_QUERY_THRESHOLD = 64

#: Respawns a worker gets in a row, each followed by a resend of the
#: interrupted message, before the executor raises :class:`WorkerCrashError`.
#: A reply resets the count.
MAX_RESPAWNS = 3


class _Worker:
    """Parent-side record of one worker process and its published shards."""

    __slots__ = ("process", "tasks", "results", "manifests", "seq", "respawns")

    def __init__(self, process, tasks, results) -> None:
        self.process = process
        self.tasks = tasks
        self.results = results
        #: key -> (base manifest, overlay manifest or None) *currently*
        #: served by this worker; replayed verbatim into a respawned worker.
        self.manifests: dict[str, tuple[dict, Optional[dict]]] = {}
        #: Sequence number of the last message sent; replies echo it.
        self.seq = 0
        #: Respawns since this worker last replied.
        self.respawns = 0


class _Published:
    """Parent-held segments of one shard: its base and its current overlay."""

    __slots__ = ("base_rebuilds", "version", "base", "overlay")

    def __init__(self, base_rebuilds: int, version: int, base, overlay) -> None:
        self.base_rebuilds = base_rebuilds
        self.version = version
        self.base = base
        self.overlay = overlay

    def unlink(self) -> None:
        self.base.unlink()
        if self.overlay is not None:
            self.overlay.unlink()


class ProcessExecutor:
    """Scatter per-shard query ops over long-lived worker processes.

    Workers are spawned lazily on the first worker-bound batch (one per CPU
    core, capped at ``max_workers``) with the ``spawn`` start method — safe
    regardless of what threads the parent runs (gateway dispatcher, WAL
    fsyncs).  Every worker attaches every shard's shared-memory segment once
    per published version (POSIX shm pages are shared, so N attachments cost
    one physical copy) and serves every later batch from those mappings, so
    steady-state batches ship only task descriptors.

    Each batch has one of two placements, counted in :attr:`placements`:

    * ``query`` — the query batch is cut into contiguous blocks
      (``block_size`` queries; default one block per worker) and the
      resulting shard x block tiles are round-robined over the workers, each
      executing the op over a payload slice.  Results are reassembled in
      submission order and are bit-identical to the inline loop: every op
      answers a query from that query's payload rows alone, so tiles are
      independent by construction.
    * ``inline`` — the batch runs in the owner process, the
      :func:`~repro.service.shm.run_inline` loop the engine runs without a
      ``ProcessExecutor``.  No worker, no publish.

    ``scatter="query"`` sends every non-empty batch to the workers.
    ``scatter="auto"`` (default) sends a batch to the workers only when it
    is a ``sample`` batch of at least :data:`AUTO_QUERY_THRESHOLD` queries,
    and runs every other batch inline: below that size the worker round trip
    costs more than it saves.  So a workload of small batches never spawns a
    worker or publishes a segment, and a write followed by small reads
    republishes nothing.  An empty batch always runs inline.

    Writes, overlay rebuilds and compactions mutate the owner's shards and
    stay on the owner process; the next worker-bound batch republishes (see
    :meth:`run_shard_op`).

    A ``ProcessExecutor`` is engine-affine: share one instance across engines
    only sequentially, never concurrently.  Crashed workers are respawned
    transparently: the parent keeps every current segment and manifest, and a
    replacement worker re-attaches before the interrupted message is resent
    with the same payload (ops are read-only and a ``sample`` payload carries
    its pre-drawn ranks, so a resent read returns what the first attempt
    would have).  This is the serving stack's only retry layer; the resends
    are counted in :attr:`resends`.  A worker that dies more than
    :data:`MAX_RESPAWNS` times in a row raises :class:`WorkerCrashError`; one
    that does not reply within ``op_timeout`` is killed and raises
    :class:`WorkerTimeoutError` (the next batch respawns it).

    Parameters
    ----------
    max_workers:
        Worker-process cap, at least 1; ``None`` (default) means the CPU
        count.
    op_timeout:
        Seconds (finite, positive) to wait for one worker reply before
        declaring the batch hung (a deadlocked-but-alive worker); generous by
        default because CI machines stall.
    scatter:
        ``"query"`` or ``"auto"`` (see above).
    block_size:
        Query-block width for the query scatter; defaults to an even split
        of the batch across workers.
    """

    kind = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        op_timeout: float = 120.0,
        scatter: str = "auto",
        block_size: int | None = None,
    ) -> None:
        if scatter not in SCATTER_NAMES:
            names = ", ".join(repr(name) for name in SCATTER_NAMES)
            raise ValueError(f"unknown scatter mode {scatter!r}: expected one of {names}")
        if block_size is not None and int(block_size) < 1:
            raise ValueError(f"block_size must be a positive integer, got {block_size!r}")
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError(f"max_workers must be a positive integer, got {max_workers!r}")
        op_timeout = float(op_timeout)
        if not (math.isfinite(op_timeout) and op_timeout > 0):
            raise ValueError(f"op_timeout must be finite and positive, got {op_timeout!r}")
        self._ctx = multiprocessing.get_context("spawn")
        self._max_workers = None if max_workers is None else int(max_workers)
        self._op_timeout = op_timeout
        self._scatter = scatter
        self._block_size = None if block_size is None else int(block_size)
        self._workers: list[_Worker] = []
        #: key -> the shard's parent-held base and overlay segments.
        self._published: dict[str, _Published] = {}
        self._placements = {"inline": 0, "query": 0}
        self._resends = 0
        self._closed = False

    def shutdown(self) -> None:
        """Stop every worker, release every shared-memory segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.process.is_alive():
                try:
                    worker.tasks.put((worker.seq + 1, "stop"))
                except (OSError, ValueError):  # queue already torn down
                    pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.tasks.close()
            worker.results.close()
        self._workers.clear()
        for published in self._published.values():
            published.unlink()
        self._published.clear()

    def __del__(self):  # pragma: no cover - gc-time best effort
        try:
            self.shutdown()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(workers={len(self._workers)}, scatter={self._scatter!r})"

    # -- introspection / test hooks ------------------------------------- #
    @property
    def scatter(self) -> str:
        """The configured scatter strategy (``query`` / ``auto``)."""
        return self._scatter

    @property
    def block_size(self) -> int | None:
        """Configured query-block width (``None`` = even split over workers)."""
        return self._block_size

    @property
    def num_workers(self) -> int:
        """Live worker-process count (0 before the first worker-bound batch)."""
        return len(self._workers)

    @property
    def placements(self) -> dict[str, int]:
        """Batches answered per placement: ``inline`` and ``query``."""
        return dict(self._placements)

    @property
    def resends(self) -> int:
        """Messages resent to a respawned worker after the first one died."""
        return self._resends

    def worker_pids(self) -> list[int]:
        """PIDs of the worker processes (test / ops introspection)."""
        return [worker.process.pid for worker in self._workers]

    def kill_worker(self, index: int = 0) -> None:
        """SIGKILL one worker (crash-recovery tests); the next scatter respawns it.

        Raises :class:`RuntimeError` when no worker has been spawned yet —
        under ``scatter="auto"`` that is every executor that has only seen
        batches it answered inline.
        """
        if not self._workers:
            raise RuntimeError(
                "ProcessExecutor has no worker to kill: workers start at the first "
                "worker-bound batch (pass scatter='query' to send every batch to the "
                "workers)"
            )
        worker = self._workers[index]
        worker.process.kill()
        worker.process.join(timeout=10.0)

    # -- scatter-gather -------------------------------------------------- #
    def run_shard_op(self, shards, op: str, payload: dict) -> list:
        """Run one named per-shard op over every shard, in shard order.

        An empty batch, and under ``scatter="auto"`` any batch that is not a
        ``sample`` batch of at least :data:`AUTO_QUERY_THRESHOLD` queries,
        runs inline, in the owner process.  A worker-bound batch first
        publishes to *every* worker any shard whose version differs from the
        last published one.  A shard is published as two segments: its base
        (:func:`~repro.service.shm.publish_shard`), re-exported only when a
        compaction rebuilt it, and its small overlay
        (:func:`~repro.service.shm.publish_overlay`), re-exported on every
        version bump — so a write republishes the overlay, not the shard.
        Superseded segments are unlinked once their replacements are
        attached.  The batch then runs under the query scatter.
        """
        if self._closed:
            raise RuntimeError("ProcessExecutor is shut down")
        shards = list(shards)
        nq = len(payload["ql"])
        if nq == 0 or (
            self._scatter == "auto" and (op != "sample" or nq < AUTO_QUERY_THRESHOLD)
        ):
            self._placements["inline"] += 1
            return run_inline(shards, op, payload)
        self._ensure_workers()

        keys = [f"shard-{id(shard):x}" for shard in shards]
        for shard, key in zip(shards, keys):
            entry = self._published.get(key)
            if entry is not None and entry.version == shard.version:
                continue
            keep_base = entry is not None and entry.base_rebuilds == shard.base_rebuilds
            base = entry.base if keep_base else publish_shard(shard)
            overlay = publish_overlay(shard)
            manifests = (base.manifest, overlay.manifest if overlay is not None else None)
            for worker in self._workers:
                self._request(worker, ("publish", key) + manifests)
                worker.manifests[key] = manifests
            if entry is not None:
                if not keep_base:
                    entry.base.unlink()
                if entry.overlay is not None:
                    entry.overlay.unlink()
            self._published[key] = _Published(shard.base_rebuilds, shard.version, base, overlay)

        self._placements["query"] += 1
        return self._run_query_scatter(keys, op, payload, nq)

    def _run_query_scatter(self, keys: list, op: str, payload: dict, nq: int) -> list:
        """Shard x query-block tiles, round-robined over the workers.

        The block width defaults to an even split of the batch across
        workers.  Each worker receives only the payload rows its tiles
        cover, with the tiles re-based onto them.  Per-shard tile results
        are reassembled in ascending tile order, which restores exactly the
        whole-batch result.
        """
        width = len(self._workers)
        block = self._block_size or -(-nq // width)
        starts = range(0, nq, block)
        tiles = [(k, start, min(start + block, nq)) for k in range(len(keys)) for start in starts]
        per_worker = [range(w, len(tiles), width) for w in range(width)]
        messages = {}
        for w, mine in enumerate(per_worker):
            if mine:
                low = min(tiles[i][1] for i in mine)
                high = max(tiles[i][2] for i in mine)
                rebased = [(keys[tiles[i][0]], tiles[i][1] - low, tiles[i][2] - low) for i in mine]
                messages[w] = ("op", op, slice_payload(payload, low, high), rebased)
        sent = {w: self._send(self._workers[w], message) for w, message in messages.items()}

        results: list = [None] * len(tiles)
        for w, message in messages.items():
            for i, result in zip(per_worker[w], self._await(self._workers[w], sent[w], message)):
                results[i] = result
        count = len(starts)
        return [
            merge_block_results(op, results[k * count : (k + 1) * count])
            for k in range(len(keys))
        ]

    # -- internals ------------------------------------------------------- #
    def _ensure_workers(self) -> None:
        if not self._workers:
            width = self._max_workers or os.cpu_count() or 1
            self._workers = [self._spawn() for _ in range(width)]

    def _spawn(self) -> _Worker:
        tasks = self._ctx.Queue()
        results = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main, args=(tasks, results), daemon=True
        )
        process.start()
        return _Worker(process, tasks, results)

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead worker in place and queue its current manifests.

        Raises :class:`WorkerCrashError` past :data:`MAX_RESPAWNS` respawns
        without a reply, and resets the count so a later batch tries again.
        """
        worker.respawns += 1
        if worker.respawns > MAX_RESPAWNS:
            worker.respawns = 0
            raise WorkerCrashError(
                f"shard worker died {MAX_RESPAWNS + 1} times in a row; if this happened "
                "at the first scatter, the usual cause is a __main__ module the spawned "
                "interpreter cannot re-import (run under an `if __name__ == '__main__':` "
                "guard, and not from stdin)"
            )
        worker.process.join(timeout=1.0)
        worker.tasks.close()
        worker.results.close()
        fresh = self._spawn()
        worker.process, worker.tasks, worker.results = (
            fresh.process,
            fresh.tasks,
            fresh.results,
        )
        # Not awaited: the worker handles its queue in order, so these land
        # before the next message, and their replies are older than its.
        for key, manifests in worker.manifests.items():
            self._post(worker, ("publish", key) + manifests)

    def _post(self, worker: _Worker, message: tuple) -> int:
        worker.seq += 1
        worker.tasks.put((worker.seq,) + message)
        return worker.seq

    def _send(self, worker: _Worker, message: tuple) -> int:
        """Send one message, respawning a dead worker first; return its sequence number."""
        if not worker.process.is_alive():
            self._respawn(worker)
        return self._post(worker, message)

    def _request(self, worker: _Worker, message: tuple):
        """Send one message and wait for its reply (used for publishes)."""
        return self._await(worker, self._send(worker, message), message)

    def _await(self, worker: _Worker, seq: int, message: tuple):
        """Collect the reply to message ``seq``; on worker death, respawn and resend.

        Replies older than ``seq`` are dropped: they answer messages whose
        wait was abandoned (a batch-mate raised first, or a timeout).
        Liveness-checked waiting, not sleeps: the queue is polled on a short
        timeout purely so a crashed worker is noticed promptly; a reply
        returns as soon as it arrives.  A worker that stays alive but silent
        past ``op_timeout`` is killed before :class:`WorkerTimeoutError` is
        raised, so it cannot answer late into a later batch.
        """
        deadline = time.monotonic() + self._op_timeout
        while True:
            try:
                reply_seq, status, value = worker.results.get(timeout=0.1)
            except queue_module.Empty:
                if not worker.process.is_alive():
                    self._respawn(worker)
                    self._resends += 1
                    seq = self._send(worker, message)
                    deadline = time.monotonic() + self._op_timeout
                elif time.monotonic() > deadline:
                    pid = worker.process.pid
                    worker.process.kill()
                    worker.process.join(timeout=10.0)
                    raise WorkerTimeoutError(
                        f"shard worker (pid {pid}) did not reply "
                        f"within {self._op_timeout:.0f}s"
                    )
                continue
            if reply_seq < seq:
                continue
            worker.respawns = 0
            if status == "error":
                raise RuntimeError(f"shard worker failed:\n{value}")
            return value


def resolve_executor(executor) -> tuple[Optional[ProcessExecutor], bool]:
    """Coerce the ``executor`` argument of :class:`ShardedEngine`.

    Returns ``(executor, owned)``.  ``None`` / ``"serial"`` resolve to
    ``(None, False)``: the engine runs every batch inline.  ``"process"``
    resolves to a fresh :class:`ProcessExecutor` the engine owns (and shuts
    down on close); a pre-built :class:`ProcessExecutor` is adopted, not
    owned.  Unknown names raise :class:`ValueError`; any other object raises
    :class:`TypeError`.
    """
    if executor is None or executor == "serial":
        return None, False
    if executor == "process":
        return ProcessExecutor(), True
    if isinstance(executor, str):
        names = ", ".join(repr(name) for name in EXECUTOR_NAMES)
        raise ValueError(f"unknown executor name {executor!r}: expected one of {names}")
    if isinstance(executor, ProcessExecutor):
        return executor, False
    raise TypeError(
        f"executor must be None, 'serial', 'process' or a ProcessExecutor, got {executor!r}"
    )
