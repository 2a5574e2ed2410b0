"""Parallel scaling — process-executor scatter vs the serial loop.

Not a table from the paper: this experiment tracks the engineering headroom
of the process-parallel execution tier.  For each dataset it sweeps shard
counts K and batch sizes with the serial scatter loop and the
:class:`~repro.service.ProcessExecutor` under every scatter strategy
(``data`` — one worker per shard; ``query`` — shard x query-block tiles over
all workers; ``auto`` — the default, which answers a batch in the owner
process unless it is a ``sample`` batch of at least
:data:`~repro.service.executor.AUTO_QUERY_THRESHOLD` queries), measures
``count_many`` and ``sample_many`` throughput, and — the part that gates —
asserts that every process-executor answer is **bit-identical** to the
serial executor's at the same K and batch (``identical`` column; exact
array equality on counts and on sample draws under a fixed seed).

The batch-size axis is the measurement the ``auto`` rule comes from: at
small batches the worker round trip costs more than the work it moves, so
the ``data``/``query`` rows sit far below serial while ``auto`` tracks it.

Throughput expectations are hardware-honest.  ``count_many`` per shard is
two ``searchsorted`` passes, O(Q·log n): data sharding *splits the data*,
not the work (every shard still classifies every query against log(n/K)
levels), so even on a many-core box the data scatter's count speedup is
bounded by log n / log(n/K) — barely above 1.  The query scatter divides
the batch itself — per-worker work drops to O((Q/W)·K·log(n/K)) — and is
the strategy that can exceed 1x on count given real cores.  On a
single-core runner every worker-bound row pays IPC without any gain.  That
is why the committed baseline records ``cpu_count`` and why the scaling
ratios are advisory (compared under the regression gate's wide tolerance)
while ``identical`` is a hard 1.0 invariant.
"""

from __future__ import annotations

import numpy as np

from ..service import ProcessExecutor, ShardedEngine
from .config import ExperimentConfig
from .exp_service_throughput import measure_qps
from .harness import build_dataset, build_workload
from .report import ExperimentResult

__all__ = [
    "run",
    "PARALLEL_SHARD_SWEEP",
    "PARALLEL_BATCH_SWEEP",
    "PARALLEL_SCATTERS",
    "measure_engine",
    "results_identical",
    "sweep",
]

#: Shard counts swept by the parallel-scaling experiment.
PARALLEL_SHARD_SWEEP: tuple[int, ...] = (1, 2, 4)

#: Batch sizes (queries per ``count_many`` / ``sample_many`` call) swept at
#: every shard count; the workload is cycled when it has fewer queries.  The
#: sweep spans both sides of the ``auto`` rule: ``sample`` crosses its
#: threshold at 64, and 4096 is past where a ``count`` batch might pay for
#: the round trip on more cores.
PARALLEL_BATCH_SWEEP: tuple[int, ...] = (1, 16, 64, 256, 1024, 4096)

#: Process-executor scatter strategies swept beside the serial loop.
PARALLEL_SCATTERS: tuple[str, ...] = ("data", "query", "auto")

#: Fixed seed for the sample_many bit-identity check (same seed, same draws).
SAMPLE_SEED = 12345

#: Best-of-N repetitions grow for small batches until a measurement covers
#: about this many queries, so a one-query batch is not timed once.
_QUERIES_PER_MEASUREMENT = 1024


def measure_engine(engine, query_array, sample_size: int, repeats: int):
    """(count_qps, sample_qps, count_rows, sample_draws) for one engine.

    The first call of each operation runs un-timed: for the process executor
    it absorbs the one-off worker spawn + segment publish cost, so the timed
    passes measure steady-state scatter throughput (the quantity that should
    scale), not process start-up.
    """
    query_count = int(query_array.shape[0])
    counts = engine.count_many(query_array)
    count_qps = measure_qps(lambda: engine.count_many(query_array), query_count, repeats)
    draws = engine.sample_many(
        query_array, sample_size, random_state=np.random.default_rng(SAMPLE_SEED)
    )
    sample_qps = measure_qps(
        lambda: engine.sample_many(
            query_array, sample_size, random_state=np.random.default_rng(SAMPLE_SEED)
        ),
        query_count,
        repeats,
    )
    return count_qps, sample_qps, counts, draws


def results_identical(reference, candidate) -> bool:
    """True when two (counts, draws) pairs are bit-identical."""
    ref_counts, ref_draws = reference
    cand_counts, cand_draws = candidate
    if not np.array_equal(ref_counts, cand_counts):
        return False
    if len(ref_draws) != len(cand_draws):
        return False
    return all(np.array_equal(a, b) for a, b in zip(ref_draws, cand_draws))


def sweep(
    dataset,
    query_array: np.ndarray,
    sample_size: int,
    shard_counts=PARALLEL_SHARD_SWEEP,
    batches=PARALLEL_BATCH_SWEEP,
    repeats: int = 1,
) -> list[dict]:
    """Time serial and every process scatter per (K, batch); check bit-identity.

    Returns one dict per (shards, executor, scatter, batch, operation) with
    ``qps``, ``vs_serial_k1`` (relative to the serial K = first swept count
    at the same batch size) and ``identical`` (bit-identity against the
    serial engine at the same K and batch; always True on serial rows).
    One process executor serves every batch size of its (K, scatter), so
    its workers spawn at most once.
    """
    workloads = {batch: np.resize(query_array, (batch, 2)) for batch in batches}
    rows: list[dict] = []
    baselines: dict[tuple[str, int], float] = {}
    for shards in shard_counts:
        references: dict[int, tuple] = {}
        for scatter in (None,) + PARALLEL_SCATTERS:
            executor = (
                "serial"
                if scatter is None
                else ProcessExecutor(max_workers=max(shards, 2), scatter=scatter)
            )
            try:
                with ShardedEngine(dataset, num_shards=shards, executor=executor) as engine:
                    for batch, queries in workloads.items():
                        best_of = max(repeats, _QUERIES_PER_MEASUREMENT // batch)
                        count_qps, sample_qps, counts, draws = measure_engine(
                            engine, queries, sample_size, best_of
                        )
                        if scatter is None:
                            references[batch] = (counts, draws)
                        identical = results_identical(references[batch], (counts, draws))
                        for operation, qps in (("count", count_qps), ("sample", sample_qps)):
                            baselines.setdefault((operation, batch), qps)
                            base = baselines[(operation, batch)]
                            rows.append(
                                {
                                    "operation": operation,
                                    "shards": shards,
                                    "executor": "serial" if scatter is None else "process",
                                    "scatter": scatter,
                                    "batch": batch,
                                    "qps": qps,
                                    "vs_serial_k1": qps / base if base > 0 else float("inf"),
                                    "identical": identical,
                                }
                            )
            finally:
                if scatter is not None:
                    executor.shutdown()
    return rows


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure process-executor scaling and verify executor bit-identity."""
    result = ExperimentResult(
        experiment_id="parallel_scaling",
        title="Process-executor scaling vs the serial scatter loop [queries/sec]",
        columns=[
            "dataset",
            "operation",
            "shards",
            "executor",
            "scatter",
            "batch",
            "qps",
            "vs_serial_k1",
            "identical",
        ],
        notes=(
            "identical = bit-identity of the row's answers vs the serial "
            "executor at the same K and batch (hard invariant).  "
            "vs_serial_k1 = throughput relative to the serial K=1 engine at "
            "the same batch size (advisory; count_many work does not "
            "partition under the data scatter — the query scatter is the one "
            "that divides it — and on a single-core runner worker-bound rows "
            "pay IPC with no parallel gain).  scatter=auto answers every "
            "count batch and every sample batch below 64 queries in the "
            "owner process."
        ),
    )
    sample_size = min(config.sample_size, 100)
    for dataset_name in config.datasets:
        dataset = build_dataset(config, dataset_name)
        workload = build_workload(config, dataset, dataset_name)
        query_array = np.asarray(list(workload), dtype=np.float64)
        for row in sweep(dataset, query_array, sample_size, repeats=max(1, config.repeats)):
            result.add_row(dataset=dataset_name, **row)
    return result
