"""Pluggable batch executors for scatter-gather over shards.

A :class:`~repro.service.engine.ShardedEngine` answers every batch query by
running the same per-shard function over all of its shards and merging the
results.  How those per-shard calls execute is a deployment decision, not a
correctness one, so it is factored out behind a tiny executor protocol: any
object with ``map(fn, items) -> list`` (order-preserving) works.

Three implementations ship with the library:

* :class:`SerialExecutor` — a plain loop.  Zero overhead, the right default
  for small batches and for debugging.
* :class:`ThreadedExecutor` — a ``concurrent.futures.ThreadPoolExecutor``
  wrapper.  The per-shard work is dominated by NumPy kernels that release the
  GIL, so threads give real parallelism on multi-core machines without any
  serialisation cost — but the Python-level dispatch around those kernels
  still contends on one GIL.
* :class:`ProcessExecutor` — long-lived worker *processes* that attach each
  shard's snapshot arrays once via ``multiprocessing.shared_memory`` and then
  receive only compact per-batch task descriptors (op name + query arrays +
  per-shard RNG seeds).  True multi-core execution for the whole per-shard
  code path, not just the kernels.  Two scatter strategies (the ``scatter``
  knob): partition the *data* (one worker per shard — cannot speed up
  counting, every shard still classifies every query) or partition the
  *query batch* (shard x query-block tiles round-robined over workers — the
  strategy that divides the actual counting work).  The default, ``auto``,
  answers a batch in the owner process unless it is a large enough
  ``sample`` batch for the worker round trip to pay off.  See
  :mod:`repro.service.shm` for the segment layout and worker protocol, and
  ``docs/ARCHITECTURE.md`` for the measurements behind the ``auto`` rule.

Determinism note: the engine never shares one RNG across concurrently
executing shard tasks — it derives one integer seed per shard up front
(:func:`repro.sampling.rng.spawn_seeds`) and each shard task builds its own
generator from it, so sampling results are bit-identical under every
executor, across process boundaries included.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional, TypeVar

from ..core.errors import WorkerTimeoutError
from .shm import (
    SEED_BLOCK,
    ShardView,
    merge_block_results,
    publish_overlay,
    publish_shard,
    run_shard_op,
    worker_main,
)

__all__ = [
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "EXECUTOR_NAMES",
    "SCATTER_NAMES",
]

T = TypeVar("T")
R = TypeVar("R")

#: Executor names accepted by :func:`resolve_executor` (and therefore by the
#: ``executor=`` argument of :class:`ShardedEngine` and the service CLIs).
EXECUTOR_NAMES = ("serial", "threads", "process")

#: Scatter strategies accepted by :class:`ProcessExecutor` (and by the
#: ``scatter=`` argument of :class:`ShardedEngine`).
SCATTER_NAMES = ("data", "query", "auto")

#: Smallest ``sample`` batch that ``scatter="auto"`` sends to the workers
#: (under the query scatter); smaller sample batches, and every count,
#: total-weight and report batch, run in the owner process.  64 queries is
#: where a 100-draw sample batch breaks even against the worker round trip;
#: counts stay cheaper inline up to ~1k queries and reports at every size
#: measured.  See "What ``auto`` does" in ``docs/ARCHITECTURE.md`` and the
#: ``batch`` rows of ``BENCH_parallel.json``.
AUTO_QUERY_THRESHOLD = 64


class SerialExecutor:
    """Run per-shard work as a plain in-process loop.

    Examples
    --------
    >>> SerialExecutor().map(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]
    """

    kind = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, in order."""
        return [fn(item) for item in items]

    def shutdown(self) -> None:
        """Nothing to release."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ThreadedExecutor:
    """Run per-shard work on a thread pool (NumPy kernels release the GIL).

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the ``ThreadPoolExecutor`` heuristic.  A value
        of ``min(num_shards, cores)`` is a good explicit choice.

    Examples
    --------
    >>> executor = ThreadedExecutor(max_workers=2)
    >>> executor.map(lambda x: x + 1, [1, 2, 3])
    [2, 3, 4]
    >>> executor.shutdown()
    """

    kind = "threads"

    def __init__(self, max_workers: int | None = None) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item concurrently; results keep item order."""
        return list(self._pool.map(fn, items))

    def shutdown(self) -> None:
        """Tear down the underlying thread pool."""
        self._pool.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ThreadedExecutor()"


class _Worker:
    """Parent-side record of one worker process and its published shards."""

    __slots__ = ("process", "tasks", "results", "manifests")

    def __init__(self, process, tasks, results) -> None:
        self.process = process
        self.tasks = tasks
        self.results = results
        #: key -> (base manifest, overlay manifest or None) *currently*
        #: served by this worker; replayed verbatim into a respawned worker.
        self.manifests: dict[str, tuple[dict, Optional[dict]]] = {}


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
    core, capped at ``max_workers`` — and additionally at the shard count
    when ``scatter="data"``, where extra workers could never be busy) with
    the ``spawn`` start method — safe regardless of what threads the parent
    runs (gateway dispatcher, WAL fsyncs).  Every worker attaches every
    shard's shared-memory segment once per published version (POSIX shm
    pages are shared, so N attachments cost one physical copy) and serves
    every later batch from those mappings, so steady-state batches ship
    only task descriptors.

    Each batch has one of three placements, counted in :attr:`placements`:

    * ``data`` — one task per shard, shard ``i`` always on worker
      ``i mod workers``.  Parallel over shards only: cannot speed up
      counting, because every shard classifies every query.
    * ``query`` — the query batch is cut into contiguous blocks
      (``block_size`` queries; default one block per worker) and the
      resulting shard x block tiles are round-robined over the workers, each
      executing the op over a payload slice.  Results are reassembled in
      submission order and are bit-identical to the serial executor:
      counting/reporting tiles are independent by construction, and sampling
      tiles are cut on the canonical :data:`repro.service.shm.SEED_BLOCK`
      boundaries its per-(shard, block) seed schedule is defined on.
    * ``inline`` — the batch runs in the owner process, the same
      :func:`~repro.service.shm.run_shard_op` loop over
      :meth:`ShardView.of_shard <repro.service.shm.ShardView.of_shard>` views
      that :class:`SerialExecutor` runs.  No worker, no publish.

    ``scatter="data"`` and ``scatter="query"`` send every batch to the
    workers.  ``scatter="auto"`` (default) sends a batch to the workers,
    under the query scatter, only when it is a ``sample`` batch of at least
    :data:`AUTO_QUERY_THRESHOLD` queries, and runs every other batch inline:
    below that size the worker round trip costs more than it saves.  So a
    workload of small batches never spawns a worker or publishes a segment,
    and a write followed by small reads republishes nothing.

    For the engine's *structural* work — shard construction, delta-log
    refreshes — :meth:`map` degrades to a serial in-process loop on purpose:
    writes mutate the owner's shards and must stay on the owner process (the
    next scatter then republishes, see :meth:`run_shard_op`).

    A ``ProcessExecutor`` is engine-affine: share one instance across engines
    only sequentially, never concurrently.  Crashed workers are respawned
    transparently: the parent keeps every current segment and manifest, and a
    replacement worker re-attaches before the interrupted batch (or tile) is
    retried (ops are read-only, so retries are safe).

    Parameters
    ----------
    max_workers:
        Worker-process cap; defaults to the CPU count.
    op_timeout:
        Seconds to wait for one worker reply before declaring the batch hung
        (a deadlocked-but-alive worker); generous by default because CI
        machines stall.
    scatter:
        ``"data"``, ``"query"`` or ``"auto"`` (see above).
    block_size:
        Query-block width for the query scatter; defaults to an even split
        of the batch across workers.  Sampling rounds it up to a multiple of
        :data:`repro.service.shm.SEED_BLOCK` to keep draws bit-identical.
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
        self._ctx = multiprocessing.get_context("spawn")
        self._max_workers = max_workers
        self._op_timeout = float(op_timeout)
        self._scatter = scatter
        self._block_size = None if block_size is None else int(block_size)
        self._workers: list[_Worker] = []
        #: key -> the shard's parent-held base and overlay segments.
        self._published: dict[str, _Published] = {}
        self._placements = {"inline": 0, "data": 0, "query": 0}
        self._closed = False

    # -- executor protocol ---------------------------------------------- #
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Structural fallback: apply ``fn`` in-process, in order.

        The engine sends its query ops through :meth:`run_shard_op`; only
        those read-only ops fan out to the workers.
        """
        return [fn(item) for item in items]

    def shutdown(self) -> None:
        """Stop every worker, release every shared-memory segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.process.is_alive():
                try:
                    worker.tasks.put(("stop",))
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
        """The configured scatter strategy (``data`` / ``query`` / ``auto``)."""
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
        """Batches answered per placement: ``inline``, ``data`` and ``query``."""
        return dict(self._placements)

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
                "worker-bound batch (pass scatter='data' or 'query' to send every "
                "batch to the workers)"
            )
        worker = self._workers[index]
        worker.process.kill()
        worker.process.join(timeout=10.0)

    # -- scatter-gather -------------------------------------------------- #
    def run_shard_op(self, shards, op: str, payload: dict) -> list:
        """Run one named per-shard op over every shard, in shard order.

        Under ``scatter="auto"`` a batch that is not a ``sample`` batch of at
        least :data:`AUTO_QUERY_THRESHOLD` queries runs inline, in the owner
        process.  A worker-bound batch first publishes to *every* worker any
        shard whose version differs from the last published one.  A shard is
        published as two segments: its base
        (:func:`~repro.service.shm.publish_shard`), re-exported only when a
        compaction rebuilt it, and its small overlay
        (:func:`~repro.service.shm.publish_overlay`), re-exported on every
        version bump — so a write republishes the overlay, not the shard.
        Superseded segments are unlinked once their replacements are
        attached.  The batch is then dispatched under the configured
        ``scatter`` strategy (``auto`` uses the query scatter).
        """
        if self._closed:
            raise RuntimeError("ProcessExecutor is shut down")
        shards = list(shards)
        nq = len(payload["ql"])
        mode = self._scatter
        if mode == "auto":
            if op != "sample" or nq < AUTO_QUERY_THRESHOLD:
                self._placements["inline"] += 1
                return [run_shard_op(op, ShardView.of_shard(shard), payload) for shard in shards]
            mode = "query"
        self._ensure_workers(len(shards))

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

        if mode == "query" and nq > 0:
            self._placements["query"] += 1
            return self._run_query_scatter(keys, op, payload, nq)
        self._placements["data"] += 1
        return self._run_data_scatter(keys, op, payload)

    def _run_data_scatter(self, keys: list, op: str, payload: dict) -> list:
        """One task per shard, shard ``i`` on worker ``i mod width``."""
        width = len(self._workers)
        per_worker: list[list[int]] = [[] for _ in range(width)]
        for index in range(len(keys)):
            per_worker[index % width].append(index)
        busy = [w for w in range(width) if per_worker[w]]
        for w in busy:
            self._send(
                self._workers[w], ("op", op, payload, [keys[i] for i in per_worker[w]])
            )

        results: list = [None] * len(keys)
        for w in busy:
            worker = self._workers[w]
            replay = ("op", op, payload, [keys[i] for i in per_worker[w]])
            rows = self._await(worker, resend=replay)
            for index, row in zip(per_worker[w], rows):
                results[index] = row
        return results

    def _run_query_scatter(self, keys: list, op: str, payload: dict, nq: int) -> list:
        """Shard x query-block tiles, round-robined over the workers.

        The block width defaults to an even split of the batch across
        workers; sampling rounds it up to the canonical ``SEED_BLOCK``
        multiple so every seed-block lands whole inside one tile (the
        bit-identity requirement of the blocked draw schedule).  Per-shard
        tile results are reassembled in ascending tile order, which restores
        exactly the whole-batch result.
        """
        width = len(self._workers)
        block = self._block_size or -(-nq // width)
        if op == "sample":
            block = -(-block // SEED_BLOCK) * SEED_BLOCK
        tiles = [
            (shard_index, start, min(start + block, nq))
            for shard_index in range(len(keys))
            for start in range(0, nq, block)
        ]
        per_worker: list[list[tuple]] = [[] for _ in range(width)]
        for position, tile in enumerate(tiles):
            per_worker[position % width].append(tile)
        busy = [w for w in range(width) if per_worker[w]]
        for w in busy:
            specs = [(keys[k], start, stop) for k, start, stop in per_worker[w]]
            self._send(self._workers[w], ("op", op, payload, specs))

        parts: list[list] = [[] for _ in keys]
        for w in busy:
            worker = self._workers[w]
            specs = [(keys[k], start, stop) for k, start, stop in per_worker[w]]
            replay = ("op", op, payload, specs)
            rows = self._await(worker, resend=replay)
            for (k, start, _stop), result in zip(per_worker[w], rows):
                parts[k].append((start, result))
        return [
            merge_block_results(op, sorted(shard_parts, key=lambda pair: pair[0]))
            for shard_parts in parts
        ]

    # -- internals ------------------------------------------------------- #
    def _ensure_workers(self, num_shards: int) -> None:
        if self._workers:
            return
        width = self._max_workers or os.cpu_count() or 1
        width = max(1, int(width))
        if self._scatter == "data":
            # Extra workers could never be busy under the data scatter; under
            # query/auto the query blocks keep them all fed regardless of K.
            width = min(width, int(num_shards) or 1)
        for _ in range(width):
            self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        tasks = self._ctx.Queue()
        results = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main, args=(tasks, results), daemon=True
        )
        process.start()
        return _Worker(process, tasks, results)

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead worker in place and replay its current manifests."""
        worker.process.join(timeout=1.0)
        worker.tasks.close()
        worker.results.close()
        fresh = self._spawn()
        worker.process, worker.tasks, worker.results = (
            fresh.process,
            fresh.tasks,
            fresh.results,
        )
        for key, manifests in worker.manifests.items():
            self._request(worker, ("publish", key) + manifests)

    def _send(self, worker: _Worker, message: tuple) -> None:
        if not worker.process.is_alive():
            self._respawn(worker)
        worker.tasks.put(message)

    def _request(self, worker: _Worker, message: tuple):
        """Send one message and wait for its reply (used for publishes)."""
        self._send(worker, message)
        return self._await(worker, resend=message)

    def _await(self, worker: _Worker, resend: Optional[tuple] = None):
        """Collect one reply; on worker death, respawn, replay, and retry.

        Liveness-checked waiting, not sleeps: the queue is polled on a short
        timeout purely so a crashed worker is noticed promptly; a successful
        reply returns as soon as it arrives.  Respawns are capped — a worker
        that cannot survive long enough to answer (e.g. an environment where
        the spawned interpreter cannot re-import the program) surfaces as an
        error instead of an endless crash/respawn loop.
        """
        deadline = time.monotonic() + self._op_timeout
        respawns = 0
        while True:
            try:
                status, value = worker.results.get(timeout=0.1)
            except queue_module.Empty:
                if not worker.process.is_alive():
                    respawns += 1
                    if resend is None or respawns > 3:
                        raise RuntimeError(
                            "shard worker died "
                            + (f"{respawns} times in a row" if resend else "during publish replay")
                            + "; if this happened at the first scatter, the usual cause "
                            "is a __main__ module the spawned interpreter cannot "
                            "re-import (run under an `if __name__ == '__main__':` "
                            "guard, and not from stdin)"
                        )
                    self._respawn(worker)
                    worker.tasks.put(resend)
                    deadline = time.monotonic() + self._op_timeout
                    continue
                if time.monotonic() > deadline:
                    raise WorkerTimeoutError(
                        f"shard worker (pid {worker.process.pid}) did not reply "
                        f"within {self._op_timeout:.0f}s"
                    )
                continue
            if status == "error":
                raise RuntimeError(f"shard worker failed:\n{value}")
            return value


def resolve_executor(executor, scatter: str | None = None) -> tuple[object, bool]:
    """Coerce the ``executor`` argument of :class:`ShardedEngine`.

    Accepts ``None`` / ``"serial"`` (a :class:`SerialExecutor`),
    ``"threads"`` (a fresh :class:`ThreadedExecutor`), ``"process"`` (a fresh
    :class:`ProcessExecutor`) or any object exposing an order-preserving
    ``map(fn, items)``.  Returns ``(executor, owned)`` where ``owned`` tells
    the engine whether it created the executor and is therefore responsible
    for shutting it down.  Unknown names raise :class:`ValueError`; objects
    without a ``map`` method raise :class:`TypeError`.

    ``scatter`` configures the process executor's scatter strategy and is
    only meaningful with ``executor="process"`` — pre-built executor objects
    carry their own configuration, and the in-process executors have no
    scatter choice to make — so any other combination raises
    :class:`ValueError`.
    """
    if scatter is not None and executor != "process":
        raise ValueError(
            f"scatter={scatter!r} requires executor='process' "
            f"(got executor={executor!r}); pre-built executors configure "
            "scatter at construction"
        )
    if executor is None or executor == "serial":
        return SerialExecutor(), True
    if executor == "threads":
        return ThreadedExecutor(), True
    if executor == "process":
        return ProcessExecutor(scatter=scatter or "auto"), True
    if isinstance(executor, str):
        names = ", ".join(repr(name) for name in EXECUTOR_NAMES)
        raise ValueError(f"unknown executor name {executor!r}: expected one of {names}")
    if callable(getattr(executor, "map", None)):
        return executor, False
    raise TypeError(
        "executor must be None, 'serial', 'threads', 'process' or an object "
        f"with a map(fn, items) method, got {executor!r}"
    )
