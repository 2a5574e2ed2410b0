"""Update throughput — write-path scaling under mixed read/write traffic.

Companion to Table VII (``table7``): where that experiment reproduces the
paper's amortized *per-operation* update latencies (one-by-one vs pooled
insertion, deletion), this one tracks the reproduction's engineering write
path end-to-end.  Each measured round pushes a block of writes through the
:class:`~repro.service.ShardedEngine` bulk APIs (``insert_many`` /
``delete_many`` — balanced, so the dataset size stays steady) and then
answers one read batch, which forces the delta-log replay into each
shard's overlay at the batch boundary.  Sweeping the write
ratio and the shard count shows what sustained churn costs the serving
layer: how quickly read throughput degrades as writes are mixed in, and how
update isolation (only the owning shards rebuild an overlay) pays off with K.

``scripts/bench_updates.py`` runs the same measurement standalone — plus
bulk-vs-scalar insert microbenchmarks and a refresh-path check — and emits
``BENCH_updates.json`` so successive PRs can compare write-path curves.
"""

from __future__ import annotations

import time

import numpy as np

from ..service import ShardedEngine
from .config import ExperimentConfig
from .harness import build_dataset, build_workload
from .report import ExperimentResult

__all__ = ["run", "WRITE_RATIOS", "SHARD_SWEEP", "measure_mixed_round"]

#: Fraction of each round's operations that are writes (half inserts, half deletes).
WRITE_RATIOS: tuple[float, ...] = (0.0, 0.05, 0.2, 0.5)

#: Shard counts measured by default.
SHARD_SWEEP: tuple[int, ...] = (1, 2, 4)

#: Measured rounds per (shards, write_ratio) point.
ROUNDS = 3


def measure_mixed_round(
    engine: ShardedEngine,
    query_array: np.ndarray,
    write_count: int,
    rng: np.random.Generator,
    domain: tuple[float, float],
) -> tuple[float, int]:
    """One mixed round: ``write_count`` writes, then one read batch.

    Writes are balanced — ``write_count // 2`` bulk inserts and as many bulk
    deletes of previously inserted ids — so the engine's cardinality stays
    steady across rounds.  Returns ``(elapsed_seconds, writes_applied)``.
    """
    half = write_count // 2
    start = time.perf_counter()
    writes_applied = 0
    if half:
        lo, hi = domain
        lefts = rng.uniform(lo, hi, half)
        rights = lefts + rng.exponential((hi - lo) * 0.02, half)
        new_ids = engine.insert_many(lefts, rights)
        engine.delete_many(new_ids[rng.permutation(half)])
        writes_applied = 2 * half
    engine.count_many(query_array)
    return time.perf_counter() - start, writes_applied


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure mixed read/write throughput across write ratios and shard counts."""
    result = ExperimentResult(
        experiment_id="update_throughput",
        title="Mixed read/write throughput of the sharded write path [ops/sec]",
        columns=[
            "dataset",
            "shards",
            "write_ratio",
            "reads_per_sec",
            "writes_per_sec",
            "ops_per_sec",
        ],
        notes=(
            "Each round applies write_ratio * query_count balanced bulk writes "
            "(insert_many + delete_many) and then one count_many batch, which "
            "pays the delta-log replay and the overlay refresh. "
            "Expect reads/sec to fall as the write ratio grows; the write path "
            "keeps the fall graceful (bulk replay into a small overlay) "
            "instead of cliff-shaped (full per-batch re-flattens)."
        ),
    )
    for dataset_name in config.datasets:
        dataset = build_dataset(config, dataset_name)
        workload = build_workload(config, dataset, dataset_name)
        query_array = np.asarray(list(workload), dtype=np.float64)
        query_count = int(query_array.shape[0])
        domain = dataset.domain()

        for shards in SHARD_SWEEP:
            engine = ShardedEngine(dataset, num_shards=shards)
            engine.refresh()
            rng = np.random.default_rng(config.dataset_seed(dataset_name) + shards)
            for write_ratio in WRITE_RATIOS:
                write_count = int(round(write_ratio * query_count))
                elapsed = 0.0
                writes = 0
                for _ in range(ROUNDS):
                    round_elapsed, round_writes = measure_mixed_round(
                        engine, query_array, write_count, rng, domain
                    )
                    elapsed += round_elapsed
                    writes += round_writes
                reads = ROUNDS * query_count
                result.add_row(
                    dataset=dataset_name,
                    shards=shards,
                    write_ratio=write_ratio,
                    reads_per_sec=reads / elapsed if elapsed > 0 else float("inf"),
                    writes_per_sec=writes / elapsed if elapsed > 0 and writes else 0.0,
                    ops_per_sec=(reads + writes) / elapsed if elapsed > 0 else float("inf"),
                )
            engine.close()
    return result
