"""Parallel scaling — process-executor scatter vs the serial loop.

Not a table from the paper: this experiment tracks the engineering headroom
of the process-parallel execution tier.  For each dataset it sweeps shard
counts K and batch sizes with the serial (inline) loop and the
:class:`~repro.service.ProcessExecutor` under both scatter strategies
(``query`` — shard x query-block tiles over all workers; ``auto`` — the
default, which answers a batch in the owner process unless it is a
``sample`` batch of at least
:data:`~repro.service.executor.AUTO_QUERY_THRESHOLD` queries), measures
``count_many`` and ``sample_many`` throughput — every placement of one
(K, batch, operation) cell timed round-robin, reported as the median and
quartiles of its rounds — and — the part that gates —
asserts that every process-executor answer is **bit-identical** to the
serial executor's at the same K and batch (``identical`` column; exact
array equality on counts and on sample draws under a fixed seed).

The batch-size axis is the measurement the ``auto`` rule comes from: at
small batches the worker round trip costs more than the work it moves, so
the ``query`` rows sit far below serial while ``auto`` tracks it.

Throughput expectations are hardware-honest.  ``count_many`` per shard is
two ``searchsorted`` passes, O(Q·log n): sharding *splits the data*, not
the work (every shard still classifies every query against log(n/K)
levels).  The query scatter divides the batch itself — per-worker work
drops to O((Q/W)·K·log(n/K)) — and can exceed 1x on count given real
cores.  On a single-core runner every worker-bound row pays IPC without
any gain.  That is why the committed baseline records ``cpu_count`` and why
the scaling ratios are advisory (compared under the regression gate's wide
tolerance) while ``identical`` is a hard 1.0 invariant.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from ..service import ProcessExecutor, ShardedEngine
from .config import ExperimentConfig
from .harness import build_dataset, build_workload
from .report import ExperimentResult

__all__ = [
    "run",
    "PARALLEL_SHARD_SWEEP",
    "PARALLEL_BATCH_SWEEP",
    "PARALLEL_SCATTERS",
    "answers",
    "results_identical",
    "sweep",
    "time_round_robin",
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
PARALLEL_SCATTERS: tuple[str, ...] = ("query", "auto")

#: Fixed seed for the sample_many bit-identity check (same seed, same draws).
SAMPLE_SEED = 12345

#: Timed rounds grow for small batches until each placement's rounds cover
#: about this many queries, so a one-query batch is not timed once.
_QUERIES_PER_MEASUREMENT = 4096


def answers(engine, query_array, sample_size: int):
    """``(counts, draws)`` of one engine: the bit-identity evidence.

    For a process executor the first calls also absorb the one-off worker
    spawn and segment publish, so the timed rounds measure steady state.
    """
    counts = engine.count_many(query_array)
    draws = engine.sample_many(
        query_array, sample_size, random_state=np.random.default_rng(SAMPLE_SEED)
    )
    return counts, draws


def time_round_robin(calls: dict, rounds: int) -> dict:
    """Seconds per call of every entry of ``calls``, ``rounds`` times each.

    The calls take turns within each round, and the turn order rotates
    from round to round, so a change in machine load during the sweep hits
    every placement alike instead of whichever ran in that stretch.
    """
    keys = list(calls)
    times: dict = {key: [] for key in keys}
    for round_ in range(rounds):
        shift = round_ % len(keys)
        for key in keys[shift:] + keys[:shift]:
            start = time.perf_counter()
            calls[key]()
            times[key].append(time.perf_counter() - start)
    return times


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

    At each K the serial engine and one engine per scatter stay open side
    by side, and each (batch, operation) cell times them round-robin
    (:func:`time_round_robin`) for at least ``repeats`` rounds.  Returns one
    dict per (shards, executor, scatter, batch, operation) with the median
    ``qps`` and its quartiles ``qps_p25`` / ``qps_p75``, ``vs_serial_k1``
    (median relative to the serial K = first swept count at the same batch
    size) and ``identical`` (bit-identity against the serial engine at the
    same K and batch; always True on serial rows).
    """
    workloads = {batch: np.resize(query_array, (batch, 2)) for batch in batches}
    rows: list[dict] = []
    baselines: dict[tuple[str, int], float] = {}
    for shards in shard_counts:
        executors = {
            scatter: ProcessExecutor(max_workers=max(shards, 2), scatter=scatter)
            for scatter in PARALLEL_SCATTERS
        }
        engines = {None: ShardedEngine(dataset, num_shards=shards)}
        try:
            for scatter, executor in executors.items():
                engines[scatter] = ShardedEngine(dataset, num_shards=shards, executor=executor)
            for batch, queries in workloads.items():
                rounds = max(repeats, _QUERIES_PER_MEASUREMENT // batch)
                evidence = {
                    scatter: answers(engine, queries, sample_size)
                    for scatter, engine in engines.items()
                }
                ops = {
                    "count": lambda engine: engine.count_many(queries),
                    "sample": lambda engine: engine.sample_many(
                        queries, sample_size, random_state=np.random.default_rng(SAMPLE_SEED)
                    ),
                }
                for operation, op in ops.items():
                    times = time_round_robin(
                        {scatter: partial(op, engine) for scatter, engine in engines.items()},
                        rounds,
                    )
                    for scatter, seconds in times.items():
                        p25, median, p75 = np.percentile(batch / np.asarray(seconds), [25, 50, 75])
                        base = baselines.setdefault((operation, batch), median)
                        rows.append(
                            {
                                "operation": operation,
                                "shards": shards,
                                "executor": "serial" if scatter is None else "process",
                                "scatter": scatter,
                                "batch": batch,
                                "qps": float(median),
                                "qps_p25": float(p25),
                                "qps_p75": float(p75),
                                "vs_serial_k1": median / base if base > 0 else float("inf"),
                                "identical": results_identical(
                                    evidence[None], evidence[scatter]
                                ),
                            }
                        )
        finally:
            for engine in engines.values():
                engine.close()
            for executor in executors.values():
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
            "qps_p25",
            "qps_p75",
            "vs_serial_k1",
            "identical",
        ],
        notes=(
            "qps = median over round-robin rounds, with quartiles.  "
            "identical = bit-identity of the row's answers vs the serial "
            "executor at the same K and batch (hard invariant).  "
            "vs_serial_k1 = throughput relative to the serial K=1 engine at "
            "the same batch size (advisory; on a single-core runner "
            "worker-bound rows pay IPC with no parallel gain).  "
            "scatter=query sends every batch to the workers as shard x "
            "query-block tiles; scatter=auto answers every "
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
