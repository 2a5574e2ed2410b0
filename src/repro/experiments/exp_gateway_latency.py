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
across the whole micro-batch, so its p95 flattens.
``scripts/bench_gateway.py`` runs the same measurement standalone and emits
``BENCH_gateway.json``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from ..service import RequestGateway, ShardedEngine
from .config import ExperimentConfig
from .harness import build_dataset, build_workload
from .report import ExperimentResult

__all__ = [
    "run",
    "measure_latency_profile",
    "measure_modes",
    "CLIENT_SWEEP",
    "ENGINE_SHARDS",
]

#: Concurrent closed-loop client counts measured by default.
CLIENT_SWEEP: tuple[int, ...] = (1, 8, 32)

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
    then the gateway measurement of each.  Used by :func:`run` and by
    ``scripts/bench_gateway.py`` so the committed ``BENCH_gateway.json``
    measures exactly what the registered experiment measures.
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


def _tile_queries(workload, total: int) -> np.ndarray:
    """Repeat the workload until it covers ``total`` requests."""
    base = np.asarray(list(workload), dtype=np.float64)
    reps = -(-total // base.shape[0])
    return np.tile(base, (reps, 1))[:total]


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure request latency percentiles: gateway micro-batching vs scalar calls."""
    result = ExperimentResult(
        experiment_id="gateway_latency",
        title="Request latency under concurrent load: gateway vs scalar dispatch [ms]",
        columns=[
            "dataset",
            "operation",
            "mode",
            "clients",
            "requests",
            "rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
        notes=(
            "C closed-loop client threads issue single queries against one "
            f"ShardedEngine (K={ENGINE_SHARDS}).  scalar = lock-serialised "
            "one-query-per-call; gateway = RequestGateway micro-batching "
            "(a batch is whatever is queued when the dispatcher is free).  "
            "Latency is end-to-end per request, including queueing."
        ),
    )
    sample_size = min(config.sample_size, 100)
    per_point = max(config.query_count, 64)

    for dataset_name in config.datasets:
        dataset = build_dataset(config, dataset_name)
        workload = build_workload(config, dataset, dataset_name)
        queries = _tile_queries(workload, per_point)
        with ShardedEngine(dataset, num_shards=ENGINE_SHARDS) as engine:
            engine.refresh()
            for clients in CLIENT_SWEEP:
                for operation, mode, profile in measure_modes(
                    engine, queries, clients, sample_size
                ):
                    result.add_row(
                        dataset=dataset_name,
                        operation=operation,
                        mode=mode,
                        clients=clients,
                        **profile,
                    )
    return result
