"""Gateway latency — micro-batched dispatch vs one-query-per-call under load.

Not a table from the paper: this experiment measures the serving property the
:class:`~repro.service.gateway.RequestGateway` exists for.  ``C`` concurrent
closed-loop clients each issue independent single queries against one
:class:`~repro.service.ShardedEngine` and we record every request's
end-to-end latency, comparing two dispatch modes:

* **scalar** — the naive baseline: each client calls the engine directly,
  one query per call.  The engine's write path makes unsynchronised sharing
  unsafe, so calls are serialised with a lock — exactly what a careful
  caller would do without a gateway;
* **gateway** — clients submit through a :class:`RequestGateway`, which
  coalesces concurrent requests into micro-batches (whatever is queued when
  its dispatcher becomes free) and dispatches them through the engine's
  vectorised ``*_many`` APIs.

At ``C = 1`` the gateway can only add its thread hand-off to each request's
latency.  As ``C`` grows the scalar mode's per-call fixed cost serialises
(p95 grows roughly linearly with ``C``) while the gateway amortises it
across the whole micro-batch, so its p95 flattens.  The ``summary``
section holds the headline number per operation: scalar p95 over gateway
p95 at the peak client count.  ``scripts/bench.py gateway_latency`` writes
the same rows to ``BENCH_gateway.json``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from ..service import RequestGateway, ShardedEngine
from .config import ExperimentConfig
from .harness import btc_workload, ledger_result
from .report import ExperimentResult

__all__ = [
    "run",
    "measure",
    "indicators",
    "summarise",
    "measure_latency_profile",
    "measure_modes",
    "LEDGER",
    "DEFAULTS",
    "SCHEMA",
    "ENGINE_SHARDS",
]

LEDGER = "gateway"

#: Settable values of ``scripts/bench.py gateway_latency`` and their defaults:
#: requests per point (``queries``), samples per request, the client-count
#: sweep and the gateway's ``max_batch_size`` (``batch``).
DEFAULTS = {
    "sizes": [100_000],
    "queries": 1024,
    "samples": 100,
    "clients": [1, 4, 16, 64],
    "batch": 128,
}

SCHEMA = {
    "latency": {
        "n",
        "operation",
        "mode",
        "clients",
        "requests",
        "rps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
    },
    "summary": {"n", "operation", "clients", "scalar_p95_ms", "gateway_p95_ms", "p95_speedup"},
}

#: Shards behind the engine (kept fixed; shard scaling is service_throughput's job).
ENGINE_SHARDS = 2


def measure_latency_profile(
    issue: Callable[[tuple[float, float]], object],
    queries: np.ndarray,
    clients: int,
) -> dict:
    """Drive ``clients`` closed-loop threads through ``issue``; profile latency.

    ``queries`` is an ``(n, 2)`` array split contiguously across the
    clients; each client issues its slice sequentially, timing every call.
    Returns aggregate statistics over all per-request latencies:
    ``{"requests", "rps", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}``.
    """
    clients = max(1, int(clients))
    slices = np.array_split(np.arange(queries.shape[0]), clients)
    latencies = np.zeros(queries.shape[0], dtype=np.float64)
    barrier = threading.Barrier(clients + 1)

    def worker(rows: np.ndarray) -> None:
        barrier.wait()
        for i in rows:
            query = (float(queries[i, 0]), float(queries[i, 1]))
            started = time.perf_counter()
            issue(query)
            latencies[i] = time.perf_counter() - started

    threads = [
        threading.Thread(target=worker, args=(rows,), daemon=True) for rows in slices
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    requests = int(queries.shape[0])
    return {
        "requests": requests,
        "rps": requests / wall if wall > 0 else float("inf"),
        "mean_ms": float(latencies.mean() * 1e3),
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p95_ms": float(np.percentile(latencies, 95) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
    }


def measure_modes(
    engine,
    queries: np.ndarray,
    clients: int,
    sample_size: int,
    max_batch_size: int = 128,
) -> list[tuple[str, str, dict]]:
    """Profile both dispatch modes at one client count; the shared drive loop.

    Returns ``(operation, mode, profile)`` tuples — the scalar baseline
    (lock-serialised one-query-per-call) for each of ``count`` / ``sample``,
    then the gateway measurement of each.
    """
    lock = threading.Lock()

    def scalar_count(query):
        with lock:
            return engine.count_many([query])

    def scalar_sample(query):
        with lock:
            return engine.sample_many([query], sample_size, random_state=0)

    rows: list[tuple[str, str, dict]] = []
    for operation, issue in (("count", scalar_count), ("sample", scalar_sample)):
        rows.append((operation, "scalar", measure_latency_profile(issue, queries, clients)))
    with RequestGateway(engine, max_batch_size=max_batch_size) as gateway:

        def gateway_count(query):
            return gateway.count(query)

        def gateway_sample(query):
            return gateway.sample(query, sample_size)

        for operation, issue in (("count", gateway_count), ("sample", gateway_sample)):
            rows.append(
                (operation, "gateway", measure_latency_profile(issue, queries, clients))
            )
    return rows


def summarise(rows: list[dict]) -> list[dict]:
    """Per (n, operation): scalar p95 over gateway p95 at the peak client count."""
    summary = []
    for n in sorted({row["n"] for row in rows}):
        peak = max(row["clients"] for row in rows if row["n"] == n)
        for operation in sorted({row["operation"] for row in rows}):
            p95 = {
                row["mode"]: row["p95_ms"]
                for row in rows
                if (row["n"], row["operation"], row["clients"]) == (n, operation, peak)
            }
            summary.append(
                {
                    "n": n,
                    "operation": operation,
                    "clients": peak,
                    "scalar_p95_ms": p95["scalar"],
                    "gateway_p95_ms": p95["gateway"],
                    "p95_speedup": p95["scalar"] / p95["gateway"],
                }
            )
    return summary


def measure(sizes, queries, samples, clients, batch) -> dict:
    """Latency profile per (n, operation, mode, clients), plus the summary."""
    rows = []
    for n in sizes:
        dataset, query_array = btc_workload(n, queries)
        with ShardedEngine(dataset, num_shards=ENGINE_SHARDS) as engine:
            engine.refresh()
            for count in clients:
                for operation, mode, profile in measure_modes(
                    engine, query_array, count, samples, batch
                ):
                    rows.append(
                        {"n": n, "operation": operation, "mode": mode, "clients": count}
                        | profile
                    )
    return {"latency": rows, "summary": summarise(rows)}


def indicators(payload: dict) -> dict[str, float]:
    """The gateway's p95 advantage over scalar dispatch for ``sample`` traffic.

    Only the sample op gates: micro-batching must keep beating scalar
    dispatch on p95 wherever per-request work is non-trivial.  At smoke
    scale a count call is so cheap that the dispatcher hand-off dominates.
    """
    speedups = [
        float(row["p95_speedup"])
        for row in payload["results"]["summary"]
        if row["operation"] == "sample"
    ]
    return {"gateway_p95_speedup[sample]": max(speedups)}


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure request latency percentiles: gateway micro-batching vs scalar calls."""
    results = measure(
        **DEFAULTS
        | {
            "sizes": [config.dataset_size],
            "queries": config.query_count,
            "samples": min(config.sample_size, 100),
        }
    )
    return ledger_result(
        "gateway_latency",
        "Request latency under concurrent load: gateway vs scalar dispatch [ms]",
        results,
        notes=(
            "C closed-loop client threads issue single queries against one "
            f"ShardedEngine (K={ENGINE_SHARDS}).  scalar = lock-serialised "
            "one-query-per-call; gateway = RequestGateway micro-batching "
            "(a batch is whatever is queued when the dispatcher is free).  "
            "Latency is end-to-end per request, including queueing."
        ),
    )
