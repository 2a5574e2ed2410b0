"""Boundary spans around each layer's public entry points, kept in memory.

The traced run wraps, from outside the program, the calls into each layer:
the engine's batch API, the executor's ``run_shard_op`` and the module-level
``publish_shard`` it calls, ``Shard.refresh``, the WAL barrier
``sync_wal`` and the gateway's ``submit``.  Each call becomes a span (name,
start, end, parent span, request id); a layer's self time is its span
minus the time its child spans cover.  Spans stay in memory and are written
once, when the run ends.

``layer_report`` reduces the spans to the per-layer metrics.  The kernel
(``core.flat``) and in-process shard-op (``service.shm``) costs come from
replaying a sample of the executor payloads the run captured, after the
measured window, on the live shards.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from bisect import bisect_right
from collections import defaultdict

import numpy as np

_MISSING = object()

#: Executor payloads kept per run, and how many of them (evenly spaced over
#: the window) are replayed in-process.
CAPTURE_LIMIT = 4000
REPLAY_LIMIT = 48

#: Engine method serving each gateway operation.
SERVING_CALL = {
    "count": "engine.count_many",
    "sample": "engine.sample_many",
    "insert": "engine.insert_many",
    "delete": "engine.delete_many",
}


class Span:
    """One timed call: ``child`` accumulates the durations of nested spans."""

    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "child")

    def __init__(self, sid: int, name: str, start: float, parent, rid: int) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, gateway request records and executor payloads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``[op, args, submitted, done]`` per gateway request.
        self.requests: list[list] = []
        #: ``(span, op, payload)`` per executor call, up to ``CAPTURE_LIMIT``.
        self.captures: list[tuple[Span, str, dict]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: int | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        if rid is None:
            rid = parent.rid if parent is not None else sid
        span = Span(sid, name, time.perf_counter(), parent, rid)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`restore`)."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)
                if on_call is not None:
                    on_call(span, args)

        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def capture(self, span: Span, args: tuple) -> None:
        """``on_call`` hook for ``run_shard_op(shards, op, payload)``."""
        if len(self.captures) < CAPTURE_LIMIT:
            _shards, op, payload = args
            self.captures.append((span, op, payload))

    def watch_gateway(self, gateway) -> None:
        """Record submit and completion time of every gateway request."""
        original = gateway.submit
        requests = self.requests

        def submit(op, *args, **kwargs):
            record = [op, args, time.perf_counter(), None]
            future = original(op, *args, **kwargs)
            requests.append(record)
            future.add_done_callback(lambda _f: record.__setitem__(3, time.perf_counter()))
            return future

        self._undo.append((gateway, "submit", _MISSING))
        gateway.submit = submit

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def dump(self, path) -> None:
        """Write every span and gateway request to ``path`` as JSON."""
        spans = [
            [s.sid, s.name, s.start, s.end, s.parent.sid if s.parent else None, s.rid]
            for s in self.spans
        ]
        spans += [
            [None, f"gateway.{op}", submitted, done, None, index]
            for index, (op, _args, submitted, done) in enumerate(self.requests)
        ]
        document = {"fields": ["sid", "name", "start", "end", "parent", "rid"], "spans": spans}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def instrument(tracer: Tracer, engine, executor, gateway=None) -> None:
    """Wrap the public entry points of every layer the engine stack uses."""
    from repro.service import executor as executor_module
    from repro.service.shard import Shard

    for method in ("count_many", "sample_many", "refresh", "insert_many", "delete_many"):
        tracer.wrap(engine, method, f"engine.{method}")
    tracer.wrap(engine, "sync_wal", "persist.sync_wal")
    tracer.wrap(executor, "run_shard_op", "executor.run_shard_op", on_call=tracer.capture)
    tracer.wrap(executor_module, "publish_shard", "executor.publish_shard")
    tracer.wrap(Shard, "refresh", "shard.refresh")
    if gateway is not None:
        tracer.watch_gateway(gateway)


def respawns(before: list[int], after: list[int]) -> int:
    """Worker processes replaced between two ``worker_pids()`` readings."""
    return sum(a != b for a, b in zip(before, after)) + abs(len(after) - len(before))


def span_cost_s(trials: int = 20000) -> float:
    """Seconds one traced call adds to a plain call, measured now."""

    class Probe:
        def call(self):
            return None

    probe = Probe()
    plain = probe.call
    start = time.perf_counter()
    for _ in range(trials):
        plain()
    base = time.perf_counter() - start
    scratch = Tracer()
    scratch.wrap(probe, "call", "probe")
    traced = probe.call
    start = time.perf_counter()
    for _ in range(trials):
        traced()
    return max(0.0, (time.perf_counter() - start - base) / trials)


def _mean_ms(values) -> float:
    return 1e3 * float(np.mean(values)) if len(values) else 0.0


def _replay(captures, engine, sample_size: int):
    """Time a sample of captured executor ops in-process, shard by shard.

    Returns ``{op: [flat_s, shm_s, queries]}`` and, per replayed call, the
    in-process shm time (the serial replay of the same op).
    """
    from repro.service.shm import ShardView, run_shard_op

    if len(captures) > REPLAY_LIMIT:
        picks = np.linspace(0, len(captures) - 1, REPLAY_LIMIT).astype(int)
        captures = [captures[i] for i in picks]
    views = [ShardView.of_shard(shard) for shard in engine.shards]
    share = -(-sample_size // len(views))
    rng = np.random.default_rng(0)
    totals = {"count": [0.0, 0.0, 0], "sample": [0.0, 0.0, 0]}
    in_process = []
    for span, op, payload in captures:
        if op not in totals:
            continue
        batch = np.column_stack((payload["ql"], payload["qr"]))
        flat_s = shm_s = 0.0
        for view in views:
            t0 = time.perf_counter()
            run_shard_op(op, view, payload)
            t1 = time.perf_counter()
            if op == "count":
                view.snapshot.count_many(batch)
            else:
                view.snapshot.sample_many(batch, share, rng)
            t2 = time.perf_counter()
            shm_s += t1 - t0
            flat_s += t2 - t1
        entry = totals[op]
        entry[0] += flat_s
        entry[1] += shm_s
        entry[2] += batch.shape[0]
        in_process.append((span, shm_s))
    return totals, in_process


def layer_report(
    tracer: Tracer,
    engine,
    begin: float,
    finish: float,
    sample_size: int,
    respawns: int,
    span_cost: float,
) -> dict:
    """Reduce the spans of the window ``[begin, finish]`` to layer metrics."""
    window = [s for s in tracer.spans if s.start >= begin and s.end <= finish]
    named = defaultdict(list)
    for span in window:
        named[span.name].append(span)
    reads = named["engine.count_many"] + named["engine.sample_many"]
    ops = named["executor.run_shard_op"]
    publish_child = defaultdict(float)
    for span in named["executor.publish_shard"]:
        if span.parent is not None:
            publish_child[span.parent.sid] += span.duration
    captures = [c for c in tracer.captures if begin <= c[0].start and c[0].end <= finish]
    totals, in_process = _replay(captures, engine, sample_size)

    def per_1000(op: str, index: int) -> float:
        flat_s, shm_s, queries = totals[op]
        return 1e6 * (flat_s, shm_s)[index] / queries if queries else 0.0

    flat_sample = per_1000("sample", 0)
    writes = [r for r in tracer.requests if r[0] in ("insert", "delete") and r[2] >= begin]
    worked = [s for s in named["engine.refresh"] if s.child > 0]
    all_publishes = [s.duration for s in tracer.spans if s.name == "executor.publish_shard"]
    report = {
        "flat.count_ms": per_1000("count", 0),
        "flat.sample_ms": flat_sample,
        "shm.count_ms": per_1000("count", 1),
        "shm.sample_ms": per_1000("sample", 1),
        "shm.sample_over_flat": per_1000("sample", 1) / flat_sample if flat_sample else 0.0,
        "executor.calls": len(ops) / len(reads) if reads else 0.0,
        "executor.span_ms": _mean_ms([s.duration for s in ops]),
        "executor.overhead_ms": _mean_ms(
            [span.duration - publish_child[span.sid] - shm_s for span, shm_s in in_process]
        ),
        "executor.publishes": len(named["executor.publish_shard"]),
        "executor.publish_ms": _mean_ms(all_publishes),
        "executor.respawns": respawns,
        "engine.count_ms": _mean_ms([s.duration for s in named["engine.count_many"]]),
        "engine.sample_ms": _mean_ms([s.duration for s in named["engine.sample_many"]]),
        "engine.self_ms": _mean_ms([s.duration - s.child for s in reads]),
        "engine.refreshes": len(worked),
        "engine.refresh_ms": _mean_ms([s.duration for s in worked]),
        "shard.refresh_ms": _mean_ms([s.duration for s in named["shard.refresh"]]),
        "persist.sync_wal_ms": _mean_ms([s.duration for s in named["persist.sync_wal"]]),
        "persist.syncs_per_write": (
            len(named["persist.sync_wal"]) / len(writes) if writes else 0.0
        ),
        "trace.spans": len(window),
        "trace.overhead_pct": 100.0 * len(window) * span_cost / max(finish - begin, 1e-9),
    }
    if tracer.requests:
        report.update(gateway_waits(tracer, begin, finish))
    return report


def gateway_waits(tracer: Tracer, begin: float, finish: float) -> dict:
    """Queue wait per request: submit to the start of the engine call serving it.

    The serving call is the last engine call of the request's operation
    that ended before the request completed (the gateway completes a
    request's future right after the engine call that answered it).
    """
    calls = {}
    for op, name in SERVING_CALL.items():
        spans = sorted((s for s in tracer.spans if s.name == name), key=lambda s: s.end)
        calls[op] = ([s.end for s in spans], spans)
    waits = []
    for op, _args, submitted, done in tracer.requests:
        if done is None or submitted < begin or done > finish or op not in calls:
            continue
        ends, spans = calls[op]
        index = bisect_right(ends, done) - 1
        if index >= 0 and spans[index].start >= submitted:
            waits.append(spans[index].start - submitted)
    return {
        "gateway.queue_wait_p50_ms": 1e3 * float(np.percentile(waits, 50)) if waits else 0.0,
        "gateway.queue_wait_p99_ms": 1e3 * float(np.percentile(waits, 99)) if waits else 0.0,
        "gateway.matched_requests": len(waits),
    }
