"""Recovery — cold start from snapshots, WAL replay, and SIGKILL recovery.

The durability layer (``repro.persist``) makes two performance claims and
one behavioural one, measured in three sections on the book analogue:

* **cold_start** — time to answer the first query from nothing: rebuilding
  the sharded engine from the raw endpoint arrays vs reopening the
  page-aligned snapshot epoch written by ``save_snapshot`` (checksums
  verified, arrays mmap-ed).  Both are timed round-robin, best of
  ``repeats``, each call including the engine's close (no fsync: nothing was
  written).  The snapshot files *are* the FlatAIT columns, so a restart
  pays sequential I/O instead of comparison sorts;
* **wal_replay** — journal ``ops`` bulk writes after the snapshot, drop the
  engine, and time a reopen that replays the WAL chain through the overlay
  refresh; ``recovered_ok`` is an exact ``count_many``/size equality check
  against the pre-shutdown engine;
* **kill_recover** — the SIGKILL harness (:mod:`repro.persist.harness`): a
  child ingests acknowledged batches under ``fsync="always"``, dies mid
  stream, and the recovered engine must match an oracle prefix that
  contains every acknowledged batch.

``scripts/bench.py recovery`` writes the same rows to
``BENCH_recovery.json``.
"""

from __future__ import annotations

import tempfile

import numpy as np

from ..datasets import generate_paper_dataset, generate_queries
from ..persist.harness import run_kill_and_recover
from ..service import ShardedEngine
from .config import ExperimentConfig
from .harness import ledger_result, time_round_robin, time_seconds
from .report import ExperimentResult

__all__ = ["run", "measure", "indicators", "LEDGER", "DEFAULTS", "SCHEMA", "SHARD_SWEEP"]

LEDGER = "recovery"

#: Settable values of ``scripts/bench.py recovery`` and their defaults:
#: ``ops`` journaled writes for wal_replay, the kill_recover base size.
DEFAULTS = {"sizes": [1_000_000], "ops": 20_000, "kill_n": 10_000, "repeats": 3}

SCHEMA = {
    "cold_start": {
        "n",
        "shards",
        "rebuild_seconds",
        "save_seconds",
        "open_seconds",
        "speedup",
        "mmap",
        "verify",
    },
    "wal_replay": {"n", "ops", "replay_seconds", "ops_per_sec", "recovered_ok"},
    "kill_recover": {"n", "acknowledged", "recovered", "ok"},
}

#: Shard counts of the cold_start section.
SHARD_SWEEP: tuple[int, ...] = (1, 4)


def _book(n: int, seed: int):
    dataset = generate_paper_dataset("book", n=n, random_state=seed)
    queries = generate_queries(dataset, count=64, random_state=19)
    return dataset, np.asarray(list(queries), dtype=np.float64)


def measure_cold_start(n: int, repeats: int) -> list[dict]:
    """First-query latency: rebuild from raw arrays vs reopen the snapshot."""
    dataset, queries = _book(n, seed=5)
    rows = []
    for shards in SHARD_SWEEP:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cold-") as directory:
            with ShardedEngine(dataset, num_shards=shards) as engine:
                engine.refresh()
                _, save_seconds = time_seconds(lambda: engine.save_snapshot(directory))
                want = engine.count_many(queries)
            with ShardedEngine.open(directory, mmap=True, verify=True) as restored:
                if not np.array_equal(restored.count_many(queries), want):
                    raise AssertionError("reopened engine diverged from the original")

            def rebuild():
                with ShardedEngine(dataset, num_shards=shards) as engine:
                    engine.refresh()
                    engine.count_many(queries[:1])

            def reopen():
                with ShardedEngine.open(directory, mmap=True, verify=True) as restored:
                    restored.count_many(queries[:1])

            times = time_round_robin({"rebuild": rebuild, "open": reopen}, repeats)
        rebuild_seconds, open_seconds = min(times["rebuild"]), min(times["open"])
        rows.append(
            {
                "n": n,
                "shards": shards,
                "rebuild_seconds": rebuild_seconds,
                "save_seconds": save_seconds,
                "open_seconds": open_seconds,
                "speedup": rebuild_seconds / open_seconds,
                "mmap": True,
                "verify": True,
            }
        )
    return rows


def measure_wal_replay(n: int, ops: int) -> dict:
    """Reopen cost when ``ops`` journaled writes must be replayed on top."""
    dataset, queries = _book(n, seed=6)
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as directory:
        with ShardedEngine(dataset, num_shards=4) as engine:
            engine.refresh()
            engine.save_snapshot(directory)
            rng = np.random.default_rng(23)
            lo, hi = dataset.domain()
            half = ops // 2
            lefts = rng.uniform(lo, hi, half)
            new_ids = engine.insert_many(lefts, lefts + rng.exponential((hi - lo) * 0.02, half))
            engine.delete_many(new_ids[: ops - half])
            engine.sync_wal()
            want, want_size = engine.count_many(queries), engine.size

        def replay():
            restored = ShardedEngine.open(directory)
            restored.refresh()  # fold the replayed deltas inside the window
            return restored

        restored, replay_seconds = time_seconds(replay)
        with restored:
            recovered_ok = restored.size == want_size and bool(
                np.array_equal(restored.count_many(queries), want)
            )
    return {
        "n": n,
        "ops": ops,
        "replay_seconds": replay_seconds,
        "ops_per_sec": ops / replay_seconds,
        "recovered_ok": recovered_ok,
    }


def measure_kill_recover(n: int) -> dict:
    """SIGKILL mid-ingest: every acknowledged batch must be recovered."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-kill-") as directory:
        report = run_kill_and_recover(
            directory, base_n=n, seed=97, batch=16, kill_after_acks=6, num_shards=4
        )
    return {
        "n": n,
        "acknowledged": report["acked_ops"],
        "recovered": report["recovered_ops"],
        "ok": bool(report["ok"]),
    }


def measure(sizes, ops, kill_n, repeats) -> dict:
    """All three sections; cold_start and wal_replay at every size."""
    return {
        "cold_start": [row for n in sizes for row in measure_cold_start(n, repeats)],
        "wal_replay": [measure_wal_replay(n, ops) for n in sizes],
        "kill_recover": [measure_kill_recover(kill_n)],
    }


def indicators(payload: dict) -> dict[str, float]:
    """Cold-start speedup, plus the hard recovery_consistent invariant."""
    results = payload["results"]
    return {
        "cold_start_speedup": max(float(row["speedup"]) for row in results["cold_start"]),
        # Hard invariant rather than a ratio: recovery must reproduce the
        # pre-shutdown engine exactly, and a SIGKILLed ingest must keep
        # every acknowledged batch.
        "recovery_consistent": float(
            all(bool(row["recovered_ok"]) for row in results["wal_replay"])
            and all(bool(row["ok"]) for row in results["kill_recover"])
        ),
    }


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure snapshot cold-start speedup, WAL replay and SIGKILL recovery."""
    results = measure(
        sizes=[config.dataset_size],
        ops=config.update_count,
        kill_n=config.dataset_size,
        repeats=config.repeats,
    )
    return ledger_result(
        "recovery",
        "Recovery: snapshot cold start vs rebuild, WAL replay, SIGKILL [seconds]",
        results,
        notes=(
            "rebuild_seconds constructs the sharded engine from raw endpoint "
            "arrays; open_seconds restores it from the newest snapshot epoch; "
            "both include the first query.  recovered_ok and ok must always "
            "be True: recovery reproduces the pre-shutdown engine exactly and "
            "keeps every acknowledged write."
        ),
    )
