"""Serving SLO — p99 latency and shed rate under open-loop overload, plus drain.

Not a table from the paper: this experiment measures the resilience
properties the :class:`~repro.service.server.HttpFrontend` exists for.  The
other serving experiments drive the engine *closed-loop* (each client waits
for its previous answer), which can never overload the server — offered load
self-regulates to capacity.  Real traffic does not wait: an **open-loop**
generator fires requests on a fixed arrival schedule regardless of how the
server is doing, which is the only way to observe saturation behaviour.

Three segments:

* **calibrate** — a short closed-loop burst estimates the server's service
  capacity (requests/second at 100% utilisation) on this machine;
* **load** — open-loop sweeps at fixed multiples of that capacity (past
  saturation by construction).  For each offered load we record the shed
  rate and client-side latency percentiles.  The gateway's bounded queue
  must convert the excess into fast, explicit 429 responses — the hard gate is
  that *every* request gets an explicit HTTP answer (no hangs, no resets)
  and every non-2xx answer is an expected overload/deadline status;
* **drain** — concurrent writers insert through the HTTP front end while a
  shard worker is SIGKILLed mid-service and the server is then gracefully
  closed.  The hard gate is exactly once durability: every acknowledged
  write survives into a recovered engine, and post-close requests are
  refused rather than silently dropped.

``scripts/bench.py serving_slo`` writes the same rows (sections ``load``
and ``drain``) to ``BENCH_serving.json``; ``scripts/check_bench.py`` gates
its hard invariants (``serving_shed_429``, ``serving_drain_no_loss``) at 1.0.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import time
from typing import Sequence

import numpy as np

from ..core.errors import GatewayClosedError
from ..datasets import generate_paper_dataset
from ..service import (
    HttpFrontend,
    ProcessExecutor,
    RequestGateway,
    ShardedEngine,
    http_request,
    http_request_async,
)
from .config import ExperimentConfig
from .harness import btc_workload, ledger_result
from .report import ExperimentResult

__all__ = [
    "run",
    "measure",
    "indicators",
    "LEDGER",
    "DEFAULTS",
    "SCHEMA",
    "calibrate_capacity",
    "measure_offered_load",
    "measure_drain",
    "serve_frontend",
    "ENGINE_SHARDS",
]

LEDGER = "serving"

#: Settable values of ``scripts/bench.py serving_slo`` and their defaults:
#: the load and drain dataset sizes, seconds per offered-load point, samples
#: per request, offered-load multiples of calibrated capacity (all past
#: saturation), the gateway intake bound (small on purpose: saturation
#: should surface as fast 429s, not as a deep queue), the per-request
#: deadline, and the drain's writer threads and acks per writer.
DEFAULTS = {
    "sizes": [100_000],
    "drain_size": 20_000,
    "duration": 3.0,
    "samples": 100,
    "multipliers": [1.5, 3.0],
    "max_queue_depth": 32,
    "deadline_ms": 2_000.0,
    "writers": 3,
    "min_acks": 8,
}

SCHEMA = {
    "load": {
        "n",
        "multiplier",
        "offered_rps",
        "sent",
        "ok",
        "shed",
        "shed_rate",
        "p50_ms",
        "p99_ms",
        "all_shed_429",
    },
    "drain": {"n", "writes_acked", "worker_killed", "no_acked_loss", "post_close_rejected"},
}

#: Shards behind the engine (kept fixed; shard scaling is service_throughput's job).
ENGINE_SHARDS = 2

#: Statuses an overloaded-but-healthy server may legitimately answer with.
_EXPECTED_STATUSES = frozenset({200, 429, 503, 504})

#: Client-side socket timeout headroom over the request deadline (seconds).
_CLIENT_TIMEOUT_SLACK_S = 10.0


def _percentile_ms(latencies: Sequence[float], q: float) -> float:
    if not latencies:
        return 0.0
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q) * 1e3)


def calibrate_capacity(
    host: str,
    port: int,
    query: tuple[float, float],
    sample_size: int,
    *,
    clients: int = 8,
    requests_per_client: int = 40,
    deadline_ms: float = 30_000.0,
) -> float:
    """Closed-loop capacity estimate: achieved requests/second at saturation.

    ``clients`` threads each fire ``requests_per_client`` back-to-back
    ``/sample`` requests; the aggregate rate approximates the service
    capacity that the open-loop sweep then deliberately exceeds.
    """
    body = {"query": list(query), "sample_size": sample_size, "deadline_ms": deadline_ms}
    barrier = threading.Barrier(clients + 1)

    def worker() -> None:
        barrier.wait()
        for _ in range(requests_per_client):
            status, _, _ = http_request(host, port, "POST", "/sample", body)
            assert status == 200, f"calibration request failed with {status}"

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    total = clients * requests_per_client
    return total / wall if wall > 0 else float("inf")


def measure_offered_load(
    host: str,
    port: int,
    queries: np.ndarray,
    offered_rps: float,
    duration_s: float,
    sample_size: int,
    *,
    deadline_ms: float = 2_000.0,
    max_connections: int = 256,
) -> dict:
    """Open-loop load segment: fire at ``offered_rps`` regardless of replies.

    Arrivals follow a fixed schedule (one request every ``1/offered_rps``
    seconds); each request runs as an independent task so a slow server
    cannot slow the generator down — the defining property of open-loop
    load.  ``max_connections`` bounds concurrent sockets (file descriptors),
    not the arrival schedule.  Returns one result row::

        {"offered_rps", "duration_s", "sent", "ok", "shed", "deadline",
         "unavailable", "other", "transport_errors", "shed_rate",
         "p50_ms", "p99_ms", "all_shed_429"}

    ``all_shed_429`` is the hard gate: True iff every request received an
    explicit HTTP response and every non-2xx response carried an expected
    overload/deadline status (429/503/504) — overload must never surface as
    a hang, a reset, or a surprise status.
    """
    total = max(1, int(offered_rps * duration_s))
    interval = 1.0 / offered_rps
    timeout = deadline_ms / 1e3 + _CLIENT_TIMEOUT_SLACK_S
    statuses: list[int] = []
    ok_latencies: list[float] = []
    transport_errors = 0

    async def one(query: tuple[float, float]) -> None:
        nonlocal transport_errors
        body = {
            "query": list(query),
            "sample_size": sample_size,
            "deadline_ms": deadline_ms,
        }
        started = time.perf_counter()
        try:
            status, _, _ = await http_request_async(
                host, port, "POST", "/sample", body, timeout=timeout
            )
        except (ConnectionError, OSError, TimeoutError, asyncio.TimeoutError):
            transport_errors += 1
            return
        if status == 200:
            ok_latencies.append(time.perf_counter() - started)
        statuses.append(status)

    async def generator() -> None:
        semaphore = asyncio.Semaphore(max_connections)

        async def bounded(query: tuple[float, float]) -> None:
            async with semaphore:
                await one(query)

        tasks = []
        start = time.perf_counter()
        for i in range(total):
            delay = start + i * interval - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            row = queries[i % queries.shape[0]]
            tasks.append(asyncio.ensure_future(bounded((float(row[0]), float(row[1])))))
        await asyncio.gather(*tasks)

    asyncio.run(generator())

    ok = statuses.count(200)
    shed = statuses.count(429)
    deadline = statuses.count(504)
    unavailable = statuses.count(503)
    other = len(statuses) - ok - shed - deadline - unavailable
    return {
        "offered_rps": round(float(offered_rps), 1),
        "duration_s": float(duration_s),
        "sent": total,
        "ok": ok,
        "shed": shed,
        "deadline": deadline,
        "unavailable": unavailable,
        "other": other,
        "transport_errors": transport_errors,
        "shed_rate": round(shed / total, 4),
        "p50_ms": round(_percentile_ms(ok_latencies, 50), 3),
        "p99_ms": round(_percentile_ms(ok_latencies, 99), 3),
        "all_shed_429": bool(
            transport_errors == 0
            and other == 0
            and len(statuses) == total
            and all(status in _EXPECTED_STATUSES for status in statuses)
        ),
    }


def measure_drain(
    dataset,
    directory: str,
    *,
    writers: int = 3,
    min_acks: int = 8,
    kill_worker: bool = True,
    deadline_ms: float = 30_000.0,
) -> dict:
    """Drain-under-fire segment: acked writes must survive a graceful close.

    Seeds ``directory`` with a snapshot, serves it through a process
    executor, and fires ``writers`` concurrent HTTP writer threads plus one
    monotone reader.  Once every writer has ``min_acks`` acknowledgements a
    shard worker is SIGKILLed mid-service (``kill_worker=True``); after
    ``2 * min_acks`` the front end is gracefully closed under fire.  The
    engine is then recovered serially and checked: exactly the acknowledged
    writes survive (``no_acked_loss``) and post-close requests are refused
    (``post_close_rejected``).
    """
    with ShardedEngine(dataset, num_shards=4) as seed_engine:
        seed_engine.save_snapshot(directory)

    # The query scatter sends every read to the workers, so the SIGKILL
    # below hits a live worker; under auto these small reads would run inline.
    executor = ProcessExecutor(max_workers=2, scatter="query")
    engine = ShardedEngine.open(directory, executor=executor)
    gateway = RequestGateway(engine)
    frontend = HttpFrontend(gateway, max_deadline_ms=deadline_ms)
    frontend.start_in_thread()
    host, port = frontend.address

    acked: list[list[int]] = [[] for _ in range(writers)]
    reads_monotone = True
    lock = threading.Lock()

    def writer(slot: int) -> None:
        rng = np.random.default_rng(5000 + slot)
        for _ in range(100_000):
            left = float(rng.uniform(0.0, 900.0))
            body = {"interval": [left, left + 3.0], "deadline_ms": deadline_ms}
            try:
                status, _, payload = http_request(host, port, "POST", "/insert", body)
            except (ConnectionError, OSError):
                return
            if status != 200:
                return
            acked[slot].append(int(payload["result"]))

    def reader() -> None:
        nonlocal reads_monotone
        last = 0
        body = {"query": [-1e9, 1e9], "deadline_ms": deadline_ms}
        for _ in range(100_000):
            try:
                status, _, payload = http_request(host, port, "POST", "/count", body)
            except (ConnectionError, OSError):
                return
            if status != 200:
                continue
            count = int(payload["result"])
            with lock:
                if count < last:
                    reads_monotone = False
                last = count

    def controller() -> None:
        while not all(len(ids) >= min_acks for ids in acked):
            time.sleep(0.002)
        if kill_worker:
            executor.kill_worker(0)
        while not all(len(ids) >= 2 * min_acks for ids in acked):
            time.sleep(0.002)
        frontend.close()

    threads = [
        threading.Thread(target=writer, args=(slot,), daemon=True)
        for slot in range(writers)
    ]
    threads.append(threading.Thread(target=reader, daemon=True))
    threads.append(threading.Thread(target=controller, daemon=True))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        post_close_rejected = False
        try:
            status, _, _ = http_request(
                host, port, "POST", "/count", {"query": [0.0, 1.0]}, timeout=5.0
            )
            post_close_rejected = status in (503, 429)
        except (ConnectionError, OSError):
            post_close_rejected = True
        try:
            gateway.submit("insert", (1.0, 2.0))
        except GatewayClosedError:
            pass
        else:
            post_close_rejected = False
    finally:
        engine.close()
        executor.shutdown()

    flat = [gid for ids in acked for gid in ids]
    unique = len(flat) == len(set(flat))
    with ShardedEngine.open(directory) as recovered:
        size_ok = recovered.size == len(dataset) + len(flat)
        surviving = set(int(g) for g in recovered.report_many([(-1e9, 1e9)])[0])
        all_present = set(flat) <= surviving

    return {
        "writers": writers,
        "writes_acked": len(flat),
        "worker_killed": bool(kill_worker),
        "reads_monotone": bool(reads_monotone),
        "no_acked_loss": bool(unique and size_ok and all_present),
        "post_close_rejected": bool(post_close_rejected),
    }


def serve_frontend(engine, max_queue_depth: int, deadline_ms: float) -> HttpFrontend:
    """Stand the serving stack up over ``engine``; returns a started front end."""
    gateway = RequestGateway(engine, max_queue_depth=max_queue_depth)
    frontend = HttpFrontend(
        gateway,
        default_deadline_ms=deadline_ms,
        max_deadline_ms=max(deadline_ms, 30_000.0),
    )
    frontend.start_in_thread()
    return frontend


def measure_load(n, duration, samples, multipliers, max_queue_depth, deadline_ms) -> list[dict]:
    """Calibrate capacity, then one open-loop row per offered-load multiple."""
    dataset, queries = btc_workload(n, 256)
    rows = []
    with ShardedEngine(dataset, num_shards=ENGINE_SHARDS) as engine:
        engine.refresh()
        frontend = serve_frontend(engine, max_queue_depth, deadline_ms)
        try:
            host, port = frontend.address
            probe = (float(queries[0, 0]), float(queries[0, 1]))
            capacity = calibrate_capacity(host, port, probe, samples)
            for multiplier in multipliers:
                row = measure_offered_load(
                    host,
                    port,
                    queries,
                    offered_rps=capacity * multiplier,
                    duration_s=duration,
                    sample_size=samples,
                    deadline_ms=deadline_ms,
                )
                rows.append({"n": n, "multiplier": multiplier} | row)
        finally:
            frontend.close()
    return rows


def measure(
    sizes,
    drain_size,
    duration,
    samples,
    multipliers,
    max_queue_depth,
    deadline_ms,
    writers,
    min_acks,
) -> dict:
    """The load sweep at every size, then one drain-under-fire segment."""
    load = [
        row
        for n in sizes
        for row in measure_load(n, duration, samples, multipliers, max_queue_depth, deadline_ms)
    ]
    dataset = generate_paper_dataset("btc", n=drain_size, random_state=3)
    with tempfile.TemporaryDirectory(prefix="repro-bench-drain-") as directory:
        drain = measure_drain(dataset, directory, writers=writers, min_acks=min_acks)
    return {"load": load, "drain": [{"n": drain_size} | drain]}


def indicators(payload: dict) -> dict[str, float]:
    """The hard shed and drain invariants, plus the advisory shed rate."""
    results = payload["results"]
    return {
        # Hard invariants rather than ratios.  Overload must surface as
        # explicit 429-class responses on every shed request (never a hang
        # or a reset), and a graceful drain under fire — including a
        # SIGKILLed shard worker — must keep every acknowledged write and
        # refuse post-close traffic.  1.0 or bust.
        "serving_shed_429": float(all(bool(row["all_shed_429"]) for row in results["load"])),
        "serving_drain_no_loss": float(
            all(
                bool(row["no_acked_loss"]) and bool(row["post_close_rejected"])
                for row in results["drain"]
            )
        ),
        # Advisory (wide-tolerance compare): the gateway queue must actually
        # shed past saturation.  The exact rate depends on how far the
        # open-loop sweep lands past this runner's capacity, so it gates only
        # against an order-of-magnitude collapse (e.g. shedding silently
        # disabled while the offered load still exceeds capacity).
        "serving_shed_rate": max(float(row["shed_rate"]) for row in results["load"]),
    }


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure p99 latency and shed rate past saturation, plus drain safety."""
    results = measure(
        **DEFAULTS
        | {
            "sizes": [config.dataset_size],
            "drain_size": min(config.dataset_size, DEFAULTS["drain_size"]),
            "samples": min(config.sample_size, 100),
        }
    )
    return ledger_result(
        "serving_slo",
        "Serving SLO: shed rate and p99 under open-loop overload, drain safety",
        results,
        notes=(
            "An open-loop generator fires /sample requests at fixed multiples "
            "of the closed-loop calibrated capacity against an HttpFrontend "
            f"with max_queue_depth={DEFAULTS['max_queue_depth']}.  Past "
            "saturation the gateway queue must shed with explicit 429s "
            "(all_shed_429).  The drain segment closes the server under "
            "concurrent writers and a SIGKILLed shard worker; acked writes "
            "must survive recovery."
        ),
    )
