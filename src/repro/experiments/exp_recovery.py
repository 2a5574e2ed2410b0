"""Recovery — cold-start time from snapshots and WAL replay throughput.

The durability layer (``repro.persist``) claims two performance properties
worth tracking alongside the paper's tables:

* **Cold start**: reopening an engine from an epoch of checksummed,
  page-aligned, mmap-able snapshots must be far cheaper than rebuilding the
  shards from the raw endpoint arrays (the snapshot files *are* the
  FlatAIT columns, so loading is I/O-bound rather than sort-bound).
* **WAL replay**: recovering writes that landed after the last snapshot
  costs one sequential scan plus the normal overlay refresh; the replay
  rate bounds how much un-snapshotted history is tolerable.

Each measured point builds an engine, snapshots it, applies a burst of bulk
writes journaled to the WAL, then reopens the directory and verifies the
recovered engine answers ``count_many`` exactly like the original.

``scripts/bench_recovery.py`` runs the same measurement standalone — plus
the SIGKILL kill-and-recover harness — and emits ``BENCH_recovery.json``.
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np

from ..service import ShardedEngine
from .config import ExperimentConfig
from .harness import build_dataset, build_workload
from .report import ExperimentResult

__all__ = ["run", "SHARD_SWEEP", "measure_recovery_point"]

#: Shard counts measured by default.
SHARD_SWEEP: tuple[int, ...] = (1, 4)

#: Bulk writes journaled to the WAL between snapshot and reopen.
WAL_OPS = 2_000


def measure_recovery_point(
    dataset, query_array: np.ndarray, shards: int, seed: int, directory: str
) -> dict:
    """Snapshot, journal, kill (by closing), reopen; return the timings."""
    start = time.perf_counter()
    engine = ShardedEngine(dataset, num_shards=shards)
    engine.refresh()
    rebuild_s = time.perf_counter() - start

    start = time.perf_counter()
    engine.save_snapshot(directory)
    save_s = time.perf_counter() - start

    rng = np.random.default_rng(seed)
    lo, hi = dataset.domain()
    half = WAL_OPS // 2
    lefts = rng.uniform(lo, hi, half)
    rights = lefts + rng.exponential((hi - lo) * 0.02, half)
    new_ids = engine.insert_many(lefts, rights)
    engine.delete_many(new_ids[: half // 2])
    engine.sync_wal()
    want = engine.count_many(query_array)
    want_size = engine.size
    engine.close()

    start = time.perf_counter()
    restored = ShardedEngine.open(directory)
    # force the replayed deltas through the overlay refresh so the cost
    # of recovery is fully paid inside the measured window
    restored.refresh()
    open_s = time.perf_counter() - start
    consistent = bool(
        restored.size == want_size
        and np.array_equal(restored.count_many(query_array), want)
    )
    restored.close()

    wal_ops = half + half // 2
    return {
        "rebuild_s": rebuild_s,
        "save_s": save_s,
        "open_s": open_s,
        "speedup": rebuild_s / open_s if open_s > 0 else float("inf"),
        "wal_ops": wal_ops,
        "wal_ops_per_sec": wal_ops / open_s if open_s > 0 else float("inf"),
        "consistent": consistent,
    }


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure snapshot cold-start speedup and WAL replay throughput."""
    result = ExperimentResult(
        experiment_id="recovery",
        title="Recovery: snapshot cold start vs rebuild, WAL replay [seconds]",
        columns=[
            "dataset",
            "shards",
            "rebuild_s",
            "save_s",
            "open_s",
            "speedup",
            "wal_ops",
            "wal_ops_per_sec",
            "consistent",
        ],
        notes=(
            "rebuild_s constructs the sharded AIT engine from raw endpoint "
            "arrays; open_s restores the same state from the newest snapshot "
            "epoch plus a WAL replay of the post-snapshot writes (including "
            "the overlay refresh that folds them in). consistent is an "
            "exact count_many/size equality check against the pre-shutdown "
            "engine — it must always be True."
        ),
    )
    for dataset_name in config.datasets:
        dataset = build_dataset(config, dataset_name)
        workload = build_workload(config, dataset, dataset_name)
        query_array = np.asarray(list(workload), dtype=np.float64)
        for shards in SHARD_SWEEP:
            directory = tempfile.mkdtemp(prefix="repro-recovery-")
            try:
                point = measure_recovery_point(
                    dataset,
                    query_array,
                    shards,
                    config.dataset_seed(dataset_name) + shards,
                    directory,
                )
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            result.add_row(dataset=dataset_name, shards=shards, **point)
    return result
