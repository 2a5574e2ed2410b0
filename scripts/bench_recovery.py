#!/usr/bin/env python
"""Measure the durability layer end-to-end and emit BENCH_recovery.json.

Usage::

    PYTHONPATH=src python scripts/bench_recovery.py [--out BENCH_recovery.json]

Three measurements:

* **cold_start** — time to answer the first query from a fresh process:
  rebuilding the sharded AIT engine from raw endpoint arrays vs reopening
  the page-aligned snapshot epoch written by ``save_snapshot`` (checksums
  verified, arrays mmap-ed).  The speedup column is the headline number of
  the durability layer: the snapshot files *are* the FlatAIT columns, so a
  restart pays sequential I/O instead of comparison sorts;
* **wal_replay** — journal ``--ops`` bulk writes after the snapshot, drop
  the engine, and time a reopen that replays the WAL chain through the
  overlay refresh; ``recovered_ok`` is an exact ``count_many``/size
  equality check against the pre-shutdown engine;
* **kill_recover** — the SIGKILL harness (``repro.persist.harness``): a
  child ingests acknowledged batches under ``fsync="always"``, dies mid
  stream, and the parent verifies the recovered engine matches an oracle
  prefix that contains every acknowledged batch.

The emitted payload is shape-validated before it is written, so a CI smoke
invocation at tiny sizes doubles as a schema regression test:

    {"config": {...}, "results": {"cold_start": [...], "wal_replay": [...],
      "kill_recover": [...]}}
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ShardedEngine, __version__  # noqa: E402
from repro.datasets import generate_paper_dataset, generate_queries  # noqa: E402
from repro.persist.harness import run_kill_and_recover  # noqa: E402

SHARD_SWEEP = (1, 4)


def _queries(dataset, count=64, seed=19):
    workload = generate_queries(dataset, count=count, random_state=seed)
    return np.asarray(list(workload), dtype=np.float64)


def bench_cold_start(n: int, repeats: int) -> list[dict]:
    """First-query latency: rebuild from raw arrays vs reopen the snapshot."""
    dataset = generate_paper_dataset("book", n=n, random_state=5)
    queries = _queries(dataset)
    rows = []
    for shards in SHARD_SWEEP:
        directory = tempfile.mkdtemp(prefix="repro-bench-cold-")
        try:
            rebuild_best = float("inf")
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                engine = ShardedEngine(dataset, num_shards=shards)
                engine.refresh()
                engine.count_many(queries[:1])
                rebuild_best = min(rebuild_best, time.perf_counter() - start)
                engine.close()

            engine = ShardedEngine(dataset, num_shards=shards)
            engine.refresh()
            start = time.perf_counter()
            engine.save_snapshot(directory)
            save_seconds = time.perf_counter() - start
            want = engine.count_many(queries)
            engine.close()

            open_best = float("inf")
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                restored = ShardedEngine.open(directory, mmap=True, verify=True)
                restored.count_many(queries[:1])
                open_best = min(open_best, time.perf_counter() - start)
                consistent = bool(np.array_equal(restored.count_many(queries), want))
                restored.close()
                assert consistent, "reopened engine diverged from the original"

            rows.append(
                {
                    "n": n,
                    "shards": shards,
                    "rebuild_seconds": rebuild_best,
                    "save_seconds": save_seconds,
                    "open_seconds": open_best,
                    "speedup": rebuild_best / open_best,
                    "mmap": True,
                    "verify": True,
                }
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return rows


def bench_wal_replay(n: int, ops: int) -> list[dict]:
    """Reopen cost when ``ops`` journaled writes must be replayed on top."""
    dataset = generate_paper_dataset("book", n=n, random_state=6)
    queries = _queries(dataset)
    rows = []
    directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        engine = ShardedEngine(dataset, num_shards=4)
        engine.refresh()
        engine.save_snapshot(directory)

        rng = np.random.default_rng(23)
        lo, hi = dataset.domain()
        half = ops // 2
        lefts = rng.uniform(lo, hi, half)
        rights = lefts + rng.exponential((hi - lo) * 0.02, half)
        new_ids = engine.insert_many(lefts, rights)
        engine.delete_many(new_ids[: ops - half])
        engine.sync_wal()
        want = engine.count_many(queries)
        want_size = engine.size
        engine.close()

        start = time.perf_counter()
        restored = ShardedEngine.open(directory)
        restored.refresh()  # fold the replayed deltas inside the window
        replay_seconds = time.perf_counter() - start
        recovered_ok = bool(
            restored.size == want_size
            and np.array_equal(restored.count_many(queries), want)
        )
        restored.close()

        rows.append(
            {
                "n": n,
                "ops": ops,
                "replay_seconds": replay_seconds,
                "ops_per_sec": ops / replay_seconds if replay_seconds > 0 else float("inf"),
                "recovered_ok": recovered_ok,
            }
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return rows


def bench_kill_recover(n: int) -> list[dict]:
    """SIGKILL mid-ingest: every acknowledged batch must be recovered."""
    directory = tempfile.mkdtemp(prefix="repro-bench-kill-")
    try:
        report = run_kill_and_recover(
            directory, base_n=n, seed=97, batch=16, kill_after_acks=6, num_shards=4
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return [
        {
            "n": n,
            "acknowledged": report["acked_ops"],
            "recovered": report["recovered_ops"],
            "ok": bool(report["ok"]),
        }
    ]


def validate_payload(payload: dict) -> None:
    """Fail fast when the payload drifts from the schema check_bench.py gates."""
    assert set(payload) == {"config", "results"}
    results = payload["results"]
    assert set(results) == {"cold_start", "wal_replay", "kill_recover"}
    for row in results["cold_start"]:
        assert {
            "n", "shards", "rebuild_seconds", "save_seconds", "open_seconds",
            "speedup", "mmap", "verify",
        } <= set(row)
    for row in results["wal_replay"]:
        assert {"n", "ops", "replay_seconds", "ops_per_sec", "recovered_ok"} <= set(row)
    for row in results["kill_recover"]:
        assert {"n", "acknowledged", "recovered", "ok"} <= set(row)
    assert results["cold_start"] and results["wal_replay"] and results["kill_recover"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000,
                        help="dataset size for cold_start / wal_replay")
    parser.add_argument("--ops", type=int, default=20_000,
                        help="journaled writes for the wal_replay section")
    parser.add_argument("--kill-n", type=int, default=10_000,
                        help="base dataset size for the kill_recover section")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_recovery.json")
    args = parser.parse_args(argv)

    print(f"cold_start: n={args.n} ...", flush=True)
    cold = bench_cold_start(args.n, args.repeats)
    for row in cold:
        print(
            f"  shards={row['shards']}: rebuild {row['rebuild_seconds']:.3f}s, "
            f"open {row['open_seconds']:.3f}s -> speedup {row['speedup']:.1f}x"
        )

    print(f"wal_replay: n={args.n} ops={args.ops} ...", flush=True)
    wal = bench_wal_replay(args.n, args.ops)
    for row in wal:
        print(
            f"  replay {row['replay_seconds']:.3f}s "
            f"({row['ops_per_sec']:.0f} ops/s), recovered_ok={row['recovered_ok']}"
        )

    print(f"kill_recover: n={args.kill_n} ...", flush=True)
    kill = bench_kill_recover(args.kill_n)
    for row in kill:
        print(f"  acked={row['acknowledged']} recovered={row['recovered']} ok={row['ok']}")

    payload = {
        "config": {
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "n": args.n,
            "ops": args.ops,
            "kill_n": args.kill_n,
            "repeats": args.repeats,
        },
        "results": {"cold_start": cold, "wal_replay": wal, "kill_recover": kill},
    }
    validate_payload(payload)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
