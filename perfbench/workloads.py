"""The benchmark's three workloads.

Every workload drives the shipped stack -- ``ShardedEngine(num_shards=2)``
on a ``ProcessExecutor``, library defaults everywhere else -- from inputs
generated from the seed, measures for ``seconds``, checks every answer
against :class:`inputs.Oracle`, and returns an :class:`Outcome`.

* ``batch-read``: one caller, back-to-back 1000-query ``count_many`` and
  ``sample_many(s=100)`` batches over 1M intervals.  Kernels, shm shard
  ops, the executor's scatter and the engine's merge do the work.  It is
  not listed in ``BENCHMARK.json``: it keeps both CPUs busy, and on a
  shared 2-vCPU host its times follow the host's CPU speed, which drifts
  by 15-30% over tens of seconds (CPU time per call drifts with wall
  time), so ten runs spread by 0.12-0.18 of their median.  Run it by name
  to study the kernels.
* ``http-read``: a closed loop over 2 keep-alive connections from one
  asyncio thread into ``HttpFrontend`` -> ``RequestGateway`` -> engine over
  100k intervals, served by a child process (``server.py``).
* ``gateway-mixed``: an open loop from one thread into
  ``RequestGateway.submit`` with ~3% writes, on an engine restored with
  ``ShardedEngine.open`` from a checkpoint plus a 1,000-insert WAL tail.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import wait as wait_futures
from pathlib import Path

import numpy as np

import inputs
import spans
from httpclient import HttpConnection
from inputs import COUNT_SHARE, SAMPLE_SIZE, Oracle, bad_sample_rows, percentile

ROOT = Path(__file__).resolve().parent.parent

NUM_SHARDS = 2

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

BATCH_INTERVALS = 1_000_000
BATCH_QUERIES = 1000
#: Distinct query batches cycled through by batch-read.
BATCH_POOL = 8

SERVE_INTERVALS = 100_000
HTTP_CONNECTIONS = 2
#: Distinct queries generated per measured second of http-read (never reused).
HTTP_PLAN_PER_SECOND = 2000

#: Offered load of gateway-mixed, about a quarter of its write-limited
#: capacity on 2 vCPUs (each write costs a ~65 ms shard refresh plus a
#: ~25 ms republish).  At 100 req/s a 2x slowdown of the shared host left
#: too little headroom: the queue grew and read p50 rose 5-15x.
MIXED_RATE = 50.0
#: Every 33rd request is a write (~3%), alternating insert and delete:
#: evenly spaced so that runs differ only in which reads queue behind them.
MIXED_WRITE_EVERY = 33
WAL_TAIL_INSERTS = 1000
FINAL_CHECK_QUERIES = 1000

#: Percentile reported as ``read_tail_ms``: the highest one with at least
#: ten reads beyond it at the default run length.
TAIL_PERCENTILE = {"batch-read": 95.0, "http-read": 99.0, "gateway-mixed": 99.0}

#: End-to-end metrics (every workload reports all of them) and units.
END_TO_END = {
    "setup_s": "s",
    "read_qps": "1/s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "index_bytes_per_interval": "B",
}

#: Per-layer metrics every workload reports in its traced run, and units:
#: every time measured on all three workloads, and the counters (0 where the
#: workload does not use the layer).  Times of layers only some workloads
#: use (refresh, WAL sync, open, gateway queue wait, HTTP self time, client
#: lateness) are in the run's ``# detail`` line, since they would read 0 on
#: every run of the others.
PER_LAYER = {
    "flat.count_ms": "ms",
    "flat.sample_ms": "ms",
    "shm.count_ms": "ms",
    "shm.sample_ms": "ms",
    "shm.sample_over_flat": "ratio",
    "executor.calls": "count",
    "executor.span_ms": "ms",
    "executor.overhead_ms": "ms",
    "executor.publishes": "count",
    "executor.publish_ms": "ms",
    "executor.respawns": "count",
    "engine.count_ms": "ms",
    "engine.sample_ms": "ms",
    "engine.self_ms": "ms",
    "engine.refreshes": "count",
    "persist.syncs_per_write": "ratio",
    "persist.wal_bytes_per_write": "B",
    "gateway.mean_batch_size": "count",
    "gateway.fallbacks": "count",
    "gateway.shed": "count",
    "http.shed_429": "count",
    "http.deadline_504": "count",
    "http.retries": "count",
    "trace.overhead_pct": "%",
}


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.detail: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count, what: str) -> None:
        if count:
            self.failed += int(count)
            self.problems.append(f"{what}: {int(count)}")


def _close(engine, executor) -> None:
    try:
        if engine is not None:
            engine.close()
    finally:
        if executor is not None:
            executor.shutdown()


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


# ---------------------------------------------------------------------- #
# batch-read
# ---------------------------------------------------------------------- #
def batch_read(seed: int, seconds: float, traced: bool, work: Path, hygiene) -> Outcome:
    from repro import IntervalDataset
    from repro.service import ShardedEngine
    from repro.service.executor import ProcessExecutor

    rngs = inputs.streams(seed, ("data", "queries", "draws", "kinds"))
    lefts, rights = inputs.intervals(rngs["data"], BATCH_INTERVALS)
    oracle = Oracle(lefts, rights)
    pool = []
    for _ in range(BATCH_POOL):
        ql, qr = inputs.queries(rngs["queries"], BATCH_QUERIES)
        pool.append((np.column_stack((ql, qr)), ql, qr, oracle.count(ql, qr)))

    out = Outcome()
    tracer = spans.Tracer() if traced else None
    setup_s = []
    engine = executor = None
    try:
        for rep in range(SETUP_REPEATS):
            _close(engine, executor)
            engine = executor = None
            gc.collect()
            start = time.perf_counter()
            executor = ProcessExecutor()
            engine = ShardedEngine(
                IntervalDataset(lefts, rights), num_shards=NUM_SHARDS, executor=executor
            )
            if tracer is not None and rep == SETUP_REPEATS - 1:
                spans.instrument(tracer, engine, executor)
            first = engine.count_many(pool[0][0])
            setup_s.append(time.perf_counter() - start)
            out.fail(np.sum(first != pool[0][3]), "wrong set-up counts")
        index_bytes = engine.nbytes() / BATCH_INTERVALS
        pids = executor.worker_pids()

        draws, kinds = rngs["draws"], rngs["kinds"]
        times: dict[str, list[float]] = {"count": [], "sample": []}
        begin = time.perf_counter()
        deadline = begin + seconds
        call = 0
        while time.perf_counter() < deadline:
            batch, ql, qr, expected = pool[call % BATCH_POOL]
            if kinds.random() < COUNT_SHARE:
                t0 = time.perf_counter()
                got = engine.count_many(batch)
                times["count"].append(time.perf_counter() - t0)
                out.fail(np.sum(got != expected), "wrong counts")
            else:
                t0 = time.perf_counter()
                rows = engine.sample_many(batch, SAMPLE_SIZE, random_state=draws)
                times["sample"].append(time.perf_counter() - t0)
                out.fail(bad_sample_rows(oracle, rows, ql, qr, expected), "bad sample rows")
            out.attempted += BATCH_QUERIES
            call += 1
        finish = time.perf_counter()
        hygiene.note()
        respawns = spans.respawns(pids, executor.worker_pids())
        if tracer is not None:
            out.layers = spans.layer_report(
                tracer, engine, begin, finish, SAMPLE_SIZE, respawns, spans.span_cost_s()
            )
            tracer.restore()
            tracer.dump(work / "spans.json")
    finally:
        if tracer is not None:
            tracer.restore()
        _close(engine, executor)

    every = times["count"] + times["sample"]
    out.metrics = {
        "setup_s": _median(setup_s),
        "read_qps": BATCH_QUERIES * len(every) / sum(every),
        "read_p50_ms": 1e3 * _median(every),
        "read_tail_ms": 1e3 * percentile(every, TAIL_PERCENTILE["batch-read"]),
        "index_bytes_per_interval": index_bytes,
    }
    out.detail = {
        "intervals": BATCH_INTERVALS,
        "calls": {kind: len(values) for kind, values in times.items()},
        "count_p50_ms": 1e3 * _median(times["count"]),
        "sample_p50_ms": 1e3 * _median(times["sample"]),
        "count_qps": BATCH_QUERIES / _median(times["count"]),
        "sample_qps": BATCH_QUERIES / _median(times["sample"]),
        "setup_runs_s": setup_s,
        "executor.respawns": respawns,
    }
    return out


# ---------------------------------------------------------------------- #
# http-read
# ---------------------------------------------------------------------- #
class ServerProcess:
    """The http-read server child (``server.py``), driven over stdin/stdout."""

    def __init__(self, data_dir: Path, seed: int, traced: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
        )
        command = [
            sys.executable,
            str(Path(__file__).resolve().parent / "server.py"),
            "--inputs",
            str(data_dir),
            "--seed",
            str(seed),
            "--trace",
            str(int(traced)),
        ]
        # Own process group, so a failed run can kill the server's workers too.
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def ready(self, timeout: float = 120.0) -> tuple[str, int, float]:
        """Wait for the ``READY`` line; return ``(host, port, index bytes/interval)``."""
        timer = threading.Timer(timeout, self.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        parts = line.split()
        if len(parts) != 4 or parts[0] != "READY":
            raise RuntimeError(f"server did not start (said {line!r})")
        return parts[1], int(parts[2]), float(parts[3])

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self, report_path: Path | None = None, timeout: float = 60.0) -> dict | None:
        """Ask the server to drain and exit; return its report when asked for one."""
        self.send(f"STOP {report_path or '-'}")
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop in time") from None
        self.proc.stdin.close()
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with status {code}")
        return json.loads(report_path.read_text()) if report_path is not None else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(10)


async def _first_count(host: str, port: int, query: list[float]) -> tuple[int, dict]:
    connection = await HttpConnection.open(host, port)
    try:
        return await connection.request("POST", "/count", {"query": query})
    finally:
        await connection.close()


async def _closed_loop(host, port, server, ql, qr, is_count, seconds):
    """Two keep-alive connections, each sending its next request on reply."""
    connections = [await HttpConnection.open(host, port) for _ in range(HTTP_CONNECTIONS)]
    records: list[tuple[int, float, int, object]] = []
    cursor = 0
    server.send("BEGIN")
    begin = time.perf_counter()
    deadline = begin + seconds

    async def drive(connection: HttpConnection) -> None:
        nonlocal cursor
        while cursor < len(ql) and time.perf_counter() < deadline:
            i = cursor
            cursor += 1
            body = {"query": [float(ql[i]), float(qr[i])]}
            if is_count[i]:
                path = "/count"
            else:
                path = "/sample"
                body["sample_size"] = SAMPLE_SIZE
            t0 = time.perf_counter()
            status, payload = await connection.request("POST", path, body)
            records.append((i, time.perf_counter() - t0, status, payload.get("result")))

    await asyncio.gather(*(drive(connection) for connection in connections))
    finish = time.perf_counter()
    _status, stats = await connections[0].request("GET", "/stats")
    for connection in connections:
        await connection.close()
    return records, begin, finish, stats


def _gateway_stats(stats: dict) -> dict:
    """Counters from ``RequestGateway.stats()``."""
    return {
        "gateway.mean_batch_size": stats["batches"]["mean_size"],
        "gateway.fallbacks": stats["batches"]["fallbacks"],
        "gateway.shed": sum(stats["shed"].values()),
    }


def _serving_stats(stats: dict) -> dict:
    """Counters from ``GET /stats`` of the HTTP front end."""
    return {
        "http.shed_429": stats["frontend"]["shed_429"],
        "http.deadline_504": stats["frontend"]["deadline_504"],
        "http.retries": stats["frontend"]["retries_total"],
        **_gateway_stats(stats["gateway"]),
    }


def http_read(seed: int, seconds: float, traced: bool, work: Path, hygiene) -> Outcome:
    rngs = inputs.streams(seed, ("data", "queries", "kinds", "draws"))
    lefts, rights = inputs.intervals(rngs["data"], SERVE_INTERVALS)
    oracle = Oracle(lefts, rights)
    planned = int(HTTP_PLAN_PER_SECOND * seconds) + 1000
    ql, qr = inputs.queries(rngs["queries"], planned)
    expected = oracle.count(ql, qr)
    is_count = rngs["kinds"].random(planned) < COUNT_SHARE
    draw_seed = int(rngs["draws"].integers(2**62))
    data_dir = work / "http-inputs"
    data_dir.mkdir()
    np.save(data_dir / "lefts.npy", lefts)
    np.save(data_dir / "rights.npy", rights)

    out = Outcome()
    setup_s = []
    server = None
    report = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            start = time.perf_counter()
            server = ServerProcess(data_dir, draw_seed, traced)
            host, port, index_bytes = server.ready()
            # The probe query is outside the measured plan; its answer is checked.
            probe = [float(ql[-1]), float(qr[-1])]
            status, body = asyncio.run(_first_count(host, port, probe))
            setup_s.append(time.perf_counter() - start)
            out.fail(status != 200 or body.get("result") != int(expected[-1]), "wrong set-up count")
        records, begin, finish, stats = asyncio.run(
            _closed_loop(host, port, server, ql[:-1], qr[:-1], is_count, seconds)
        )
        hygiene.note()
        report = server.stop(work / "server-report.json" if traced else None)
        server = None
    finally:
        if server is not None:
            server.kill()

    latencies: dict[str, list[float]] = {"count": [], "sample": []}
    sampled, rows = [], []
    for i, latency, status, result in records:
        if status != 200:
            out.fail(1, f"HTTP {status}")
            continue
        if is_count[i]:
            latencies["count"].append(latency)
            out.fail(result != int(expected[i]), "wrong counts")
        else:
            latencies["sample"].append(latency)
            sampled.append(i)
            rows.append(result)
    if sampled:
        index = np.asarray(sampled)
        out.fail(
            bad_sample_rows(oracle, rows, ql[index], qr[index], expected[index]),
            "bad sample rows",
        )
    out.attempted = len(records)
    every = latencies["count"] + latencies["sample"]
    elapsed = finish - begin
    out.metrics = {
        "setup_s": _median(setup_s),
        "read_qps": len(every) / elapsed,
        "read_p50_ms": 1e3 * _median(every),
        "read_tail_ms": 1e3 * percentile(every, TAIL_PERCENTILE["http-read"]),
        "index_bytes_per_interval": index_bytes,
    }
    serving = _serving_stats(stats)
    out.detail = {
        "intervals": SERVE_INTERVALS,
        "requests": len(records),
        "http_rps": len(records) / elapsed,
        "count_p50_ms": 1e3 * _median(latencies["count"]),
        "sample_p50_ms": 1e3 * _median(latencies["sample"]),
        "setup_runs_s": setup_s,
        **serving,
    }
    if report is not None:
        out.layers = dict(report["layers"])
        out.layers.update(serving)
        served = {
            (op, query[0], query[1]): done - submitted
            for op, query, submitted, done in report["requests"]
        }
        http_self = []
        for i, latency, status, _result in records:
            key = ("count" if is_count[i] else "sample", float(ql[i]), float(qr[i]))
            if status == 200 and key in served:
                http_self.append(latency - served[key])
        out.layers["http.self_p50_ms"] = 1e3 * percentile(http_self, 50)
        out.layers["http.self_p99_ms"] = 1e3 * percentile(http_self, 99)
        out.layers["http.matched_requests"] = len(http_self)
    return out


# ---------------------------------------------------------------------- #
# gateway-mixed
# ---------------------------------------------------------------------- #
COUNT, SAMPLE, INSERT, DELETE = range(4)


def _wal_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("wal-*.log"))


def _prepare_checkpoint(directory: Path, lefts, rights, tail_lefts, tail_rights) -> None:
    """Untimed: checkpoint the base data, then journal the WAL tail inserts."""
    from repro import IntervalDataset
    from repro.service import ShardedEngine

    engine = ShardedEngine(IntervalDataset(lefts, rights), num_shards=NUM_SHARDS)
    try:
        engine.save_snapshot(directory)
        ids = [engine.insert_many(tail_lefts[i : i + 100], tail_rights[i : i + 100])
               for i in range(0, len(tail_lefts), 100)]
    finally:
        engine.close()
    expected = np.arange(len(lefts), len(lefts) + len(tail_lefts))
    if not np.array_equal(np.concatenate(ids), expected):
        raise RuntimeError("WAL tail inserts got unexpected ids")


def gateway_mixed(seed: int, seconds: float, traced: bool, work: Path, hygiene) -> Outcome:
    from repro.service import RequestGateway, ShardedEngine
    from repro.service.executor import ProcessExecutor

    rngs = inputs.streams(
        seed, ("data", "tail", "queries", "plan", "inserts", "victims", "draws", "final")
    )
    n = SERVE_INTERVALS
    lefts, rights = inputs.intervals(rngs["data"], n)
    tail_lefts, tail_rights = inputs.intervals(rngs["tail"], WAL_TAIL_INSERTS)
    start_lefts = np.concatenate((lefts, tail_lefts))
    start_rights = np.concatenate((rights, tail_rights))
    total = int(MIXED_RATE * seconds)
    ql, qr = inputs.queries(rngs["queries"], total)
    base_counts = Oracle(start_lefts, start_rights).count(ql, qr)
    kind = np.where(rngs["plan"].random(total) < COUNT_SHARE, COUNT, SAMPLE)
    writes_at = np.arange(MIXED_WRITE_EVERY // 2, total, MIXED_WRITE_EVERY)
    kind[writes_at[0::2]] = INSERT
    kind[writes_at[1::2]] = DELETE
    insert_lefts, insert_rights = inputs.intervals(rngs["inserts"], max(1, int(np.sum(kind == INSERT))))
    # Deletes remove WAL-tail inserts: acknowledged before the run, in seeded order.
    victims = n + rngs["victims"].permutation(WAL_TAIL_INSERTS)
    draw_seed = int(rngs["draws"].integers(2**62))
    directory = work / "engine"
    _prepare_checkpoint(directory, lefts, rights, tail_lefts, tail_rights)

    out = Outcome()
    tracer = spans.Tracer() if traced else None
    setup_s, open_s = [], []
    engine = executor = gateway = None
    probe = np.column_stack(inputs.queries(rngs["final"], 64))
    probe_expected = Oracle(start_lefts, start_rights).count(probe[:, 0], probe[:, 1])
    try:
        for rep in range(SETUP_REPEATS):
            _close(engine, executor)
            engine = executor = None
            gc.collect()
            start = time.perf_counter()
            executor = ProcessExecutor()
            opened = time.perf_counter()
            engine = ShardedEngine.open(directory, fsync="batch", executor=executor)
            open_s.append(time.perf_counter() - opened)
            if tracer is not None and rep == SETUP_REPEATS - 1:
                spans.instrument(tracer, engine, executor)
            # The first read replays the WAL tail (materialising the shard trees),
            # spawns the workers and publishes the shards.
            first = engine.count_many(probe)
            setup_s.append(time.perf_counter() - start)
            out.fail(np.sum(first != probe_expected), "wrong set-up counts")
        index_bytes = engine.nbytes() / engine.size
        pids = executor.worker_pids()
        gateway = RequestGateway(engine, random_state=draw_seed)
        if tracer is not None:
            tracer.watch_gateway(gateway)
        wal_before = _wal_bytes(directory)

        # Which planned insert / WAL-tail victim each write request carries.
        target = np.where(kind == INSERT, np.cumsum(kind == INSERT) - 1, -1)
        target = np.where(kind == DELETE, victims[np.cumsum(kind == DELETE) - 1], target)
        due = np.empty(total)
        submitted = np.empty(total)
        done = np.full(total, np.nan)
        futures: list = [None] * total

        def finisher(i: int):
            return lambda _future: done.__setitem__(i, time.perf_counter())

        begin = time.perf_counter()
        for i in range(total):
            due[i] = begin + i / MIXED_RATE
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted[i] = time.perf_counter()
            k = kind[i]
            try:
                if k == COUNT:
                    future = gateway.submit("count", (ql[i], qr[i]))
                elif k == SAMPLE:
                    future = gateway.submit("sample", (ql[i], qr[i]), SAMPLE_SIZE)
                elif k == INSERT:
                    future = gateway.submit(
                        "insert", (insert_lefts[target[i]], insert_rights[target[i]])
                    )
                else:
                    future = gateway.submit("delete", int(target[i]))
            except Exception as exc:  # a shed or refused request is a failure
                out.fail(1, f"submit {type(exc).__name__}")
                continue
            future.add_done_callback(finisher(i))
            futures[i] = future
        pending = [f for f in futures if f is not None]
        _finished, unfinished = wait_futures(pending, timeout=120)
        out.fail(len(unfinished), "requests not completed")
        finish = time.perf_counter()
        hygiene.note()
        respawns = spans.respawns(pids, executor.worker_pids())
        if tracer is not None:
            out.layers = spans.layer_report(
                tracer, engine, begin, finish, SAMPLE_SIZE, respawns, spans.span_cost_s()
            )
            tracer.restore()
            tracer.dump(work / "spans.json")
        stats = gateway.stats()
        gateway.close()
        gateway = None
        wal_after = _wal_bytes(directory)

        results: list = [None] * total
        ok = np.zeros(total, dtype=bool)
        for i, future in enumerate(futures):
            if future is None or not future.done():
                continue
            try:
                results[i] = future.result()
                ok[i] = True
            except Exception as exc:
                out.fail(1, f"request {type(exc).__name__}")
        out.attempted = total

        # Writes: inserts get fresh ids, every delete hits a live WAL-tail insert.
        ins_idx = np.flatnonzero((kind == INSERT) & ok)
        del_idx = np.flatnonzero((kind == DELETE) & ok)
        new_ids = np.array([results[i] for i in ins_idx], dtype=np.int64)
        out.fail(len(np.unique(new_ids)) != len(new_ids), "duplicate insert ids")
        out.fail(np.sum(new_ids < n + WAL_TAIL_INSERTS), "reused insert ids")
        out.fail(sum(results[i] is not True for i in del_idx), "deletes that missed")

        # Endpoints of every id ever assigned (NaN for ids never acknowledged).
        top = int(max(new_ids.max(initial=0) + 1, n + WAL_TAIL_INSERTS))
        id_lefts = np.full(top, np.nan)
        id_rights = np.full(top, np.nan)
        id_lefts[: n + WAL_TAIL_INSERTS] = start_lefts
        id_rights[: n + WAL_TAIL_INSERTS] = start_rights
        id_lefts[new_ids] = insert_lefts[target[ins_idx]]
        id_rights[new_ids] = insert_rights[target[ins_idx]]
        every_id = Oracle(id_lefts, id_rights)

        write_idx = np.flatnonzero(((kind == INSERT) | (kind == DELETE)) & ok)
        write_ids = np.array(
            [results[i] if kind[i] == INSERT else target[i] for i in write_idx], dtype=np.int64
        )
        out.fail(_check_mixed_reads(
            kind, ok, results, ql, qr, base_counts, submitted, done,
            write_idx, write_ids, every_id,
        ), "wrong reads")

        # Final state: the engine, and the directory reopened, agree with the oracle.
        alive = np.ones(top, dtype=bool)
        alive[n + WAL_TAIL_INSERTS :] = False
        alive[new_ids] = True
        alive[write_ids[kind[write_idx] == DELETE]] = False
        final_oracle = Oracle(id_lefts[alive], id_rights[alive])
        check = np.vstack((
            np.column_stack(inputs.queries(rngs["final"], FINAL_CHECK_QUERIES)),
            np.column_stack((id_lefts[write_ids], id_rights[write_ids])),
        ))
        want = final_oracle.count(check[:, 0], check[:, 1])
        out.fail(np.sum(engine.count_many(check) != want), "wrong final counts")
        out.attempted += len(check)
        _close(engine, executor)
        engine = executor = None
        reopened = ShardedEngine.open(directory)
        try:
            out.fail(np.sum(reopened.count_many(check) != want), "writes lost on reopen")
        finally:
            reopened.close()
        out.attempted += len(check)
    finally:
        if tracer is not None:
            tracer.restore()
        if gateway is not None:
            gateway.close()
        _close(engine, executor)

    latency = done - due
    reads = ok & ((kind == COUNT) | (kind == SAMPLE))
    writes = ok & ((kind == INSERT) | (kind == DELETE))
    lateness = submitted - due
    out.metrics = {
        "setup_s": _median(setup_s),
        "read_qps": int(reads.sum()) / (np.nanmax(done[reads]) - begin),
        "read_p50_ms": 1e3 * _median(latency[reads]),
        "read_tail_ms": 1e3 * percentile(latency[reads], TAIL_PERCENTILE["gateway-mixed"]),
        "index_bytes_per_interval": index_bytes,
    }
    out.detail = {
        "intervals": n + WAL_TAIL_INSERTS,
        "offered_rps": MIXED_RATE,
        "requests": total,
        "writes": int(writes.sum()),
        "write_p50_ms": 1e3 * percentile(latency[writes], 50),
        "write_p95_ms": 1e3 * percentile(latency[writes], 95),
        "count_p50_ms": 1e3 * _median(latency[ok & (kind == COUNT)]),
        "sample_p50_ms": 1e3 * _median(latency[ok & (kind == SAMPLE)]),
        "client.late_ms": 1e3 * percentile(lateness, 99),
        "client.late_max_ms": 1e3 * float(lateness.max()),
        "persist.open_s": _median(open_s),
        "persist.wal_bytes_per_write": (wal_after - wal_before) / max(1, int(writes.sum())),
        "setup_runs_s": setup_s,
        "executor.respawns": respawns,
        **_gateway_stats(stats),
    }
    if tracer is not None:
        for key in ("client.late_ms", "persist.open_s", "persist.wal_bytes_per_write"):
            out.layers[key] = out.detail[key]
        out.layers.update(_gateway_stats(stats))
    return out


def _check_mixed_reads(
    kind, ok, results, ql, qr, base_counts, submitted, done, write_idx, write_ids, every_id
) -> int:
    """Wrong reads of gateway-mixed, given which writes each read may see.

    A write acknowledged before a read was submitted is visible to it; a
    write submitted after the read completed is not; writes in between may
    or may not be.  A count must lie within the bounds this leaves, and a
    sample may hold only ids that overlap the query, excluding ids surely
    deleted and ids surely not yet inserted.
    """
    w_left = every_id.lefts[write_ids]
    w_right = every_id.rights[write_ids]
    is_insert = kind[write_idx] == INSERT
    w_submitted = submitted[write_idx]
    w_done = done[write_idx]
    wrong = 0
    for i in np.flatnonzero(ok & ((kind == COUNT) | (kind == SAMPLE))):
        surely = w_done < submitted[i]
        maybe = w_submitted < done[i]
        if kind[i] == COUNT:
            hit = (w_left <= qr[i]) & (w_right >= ql[i])
            low = base_counts[i] + np.sum(surely & is_insert & hit) - np.sum(
                maybe & ~is_insert & hit
            )
            high = base_counts[i] + np.sum(maybe & is_insert & hit) - np.sum(
                surely & ~is_insert & hit
            )
            wrong += not (low <= results[i] <= high)
            continue
        row = np.asarray(results[i], dtype=np.int64)
        gone = write_ids[surely & ~is_insert]
        unborn = write_ids[~maybe & is_insert]
        wrong += (
            len(row) != SAMPLE_SIZE
            or not every_id.rows_overlap(row[None, :], ql[i : i + 1], qr[i : i + 1])[0]
            or bool(np.isin(row, gone).any() or np.isin(row, unborn).any())
        )
    return wrong


WORKLOADS = {
    "batch-read": batch_read,
    "http-read": http_read,
    "gateway-mixed": gateway_mixed,
}
