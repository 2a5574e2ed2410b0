#!/usr/bin/env python
"""Measure the write path end-to-end and emit BENCH_updates.json.

Usage::

    PYTHONPATH=src python scripts/bench_updates.py [--out BENCH_updates.json]

Three measurements per dataset size:

* **bulk_insert** — ``AIT.insert_many`` of n intervals into an empty tree vs
  a loop of scalar pooled inserts (the paper's Section III-D amortised path,
  one Python round-trip per interval).  The speedup column is the headline
  number of the write-path overhaul;
* **refresh** — replay a delta log of ``--ops`` balanced writes on an
  n-interval single-shard engine and check, via the shard's counters, that
  the writes landed in the shard's overlay rather than rebuilding its base
  (the script errors if a base rebuild ran while the log is small relative
  to the shard, or if the shard's node tree was materialised).  In the
  payload ``full_builds_delta`` counts base rebuilds and
  ``incremental_refreshes_delta`` overlay refreshes.  The time of a base
  rebuild (``Shard.compact``) is measured next to it for scale;
* **overlay** — the cost of a one-interval write (overlay refresh plus
  overlay republish) and of a small read batch, against the overlay's size,
  next to the cost of a compaction (base rebuild plus base republish) on
  the same shard.  ``break_even_work`` is the compaction's cost per base
  interval over the overlay's cost per entry: the value
  ``repro.service.shard.COMPACT_WORK`` is set from;
* **mixed** — the ``update_throughput`` experiment's mixed read/write rounds
  (write ratio x shard count), reusing the same measurement helper.  Each
  round deletes the ids it inserted before its reads refresh, so those
  writes cancel inside one refresh and leave no overlay: the rows measure
  the read path and the delta-log fold, not an overlay rebuild.

The emitted payload is shape-validated before it is written, so a CI smoke
invocation at tiny sizes doubles as a schema regression test:

    {"config": {...}, "results": {"bulk_insert": [...], "refresh": [...],
      "overlay": [...], "mixed": [...]}}
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AIT, IntervalDataset, ShardedEngine, __version__  # noqa: E402
from repro.datasets import generate_paper_dataset, generate_queries  # noqa: E402
from repro.experiments.exp_update_throughput import (  # noqa: E402
    WRITE_RATIOS,
    measure_mixed_round,
)
from repro.service.shm import publish_overlay, publish_shard  # noqa: E402

#: Overlay sizes swept by ``bench_overlay``, as fractions of the shard size.
OVERLAY_FRACTIONS = (1 / 1024, 1 / 256, 1 / 64, 1 / 16, 1 / 4)


def _empty_tree() -> AIT:
    """An AIT with zero active intervals (built from a one-row seed)."""
    tree = AIT(IntervalDataset.from_pairs([(0.0, 1.0)]))
    tree.delete(0)
    return tree


def bench_bulk_insert(n: int, repeats: int) -> dict:
    """insert_many of n intervals into an empty AIT vs a scalar pooled loop."""
    rng = np.random.default_rng(7)
    lefts = rng.uniform(0.0, 1000.0, n)
    rights = lefts + rng.exponential(20.0, n)

    bulk_best = float("inf")
    for _ in range(max(1, repeats)):
        tree = _empty_tree()
        start = time.perf_counter()
        tree.insert_many(lefts, rights)
        bulk_best = min(bulk_best, time.perf_counter() - start)
        assert tree.size == n

    pairs = list(zip(lefts.tolist(), rights.tolist()))
    scalar_best = float("inf")
    for _ in range(max(1, repeats)):
        tree = _empty_tree()
        start = time.perf_counter()
        for pair in pairs:
            tree.insert(pair)
        tree.flush_pool()
        scalar_best = min(scalar_best, time.perf_counter() - start)
        assert tree.size == n

    speedup = scalar_best / bulk_best if bulk_best > 0 else float("inf")
    print(
        f"n={n:>7} bulk_insert   insert_many {bulk_best * 1e3:9.1f} ms   "
        f"scalar loop {scalar_best * 1e3:9.1f} ms   {speedup:6.1f}x"
    )
    return {
        "n": n,
        "bulk_seconds": round(bulk_best, 4),
        "scalar_seconds": round(scalar_best, 4),
        "speedup": round(speedup, 2),
    }


def bench_refresh(n: int, ops: int) -> dict:
    """Replay an ops-long delta log on an n-interval shard; verify no base rebuild."""
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    engine = ShardedEngine(dataset, num_shards=1)
    engine.refresh()
    shard = engine.shards[0]
    rebuilds_before = shard.base_rebuilds
    version_before = shard.version

    rng = np.random.default_rng(11)
    half = max(1, ops // 2)
    lo, hi = dataset.domain()
    lefts = rng.uniform(lo, hi, half)
    rights = lefts + rng.exponential((hi - lo) * 0.02, half)
    engine.insert_many(lefts, rights)
    engine.delete_many(rng.choice(n, size=half, replace=False))
    start = time.perf_counter()
    engine.refresh()
    refresh_seconds = time.perf_counter() - start

    full_delta = shard.base_rebuilds - rebuilds_before
    incremental_delta = shard.version - version_before - full_delta
    # A delta log this small relative to the shard must land in the overlay,
    # NOT rebuild the base — the shard's base-rebuild counter is the check.
    if n >= 20 * ops and full_delta != 0:
        raise AssertionError(
            f"refresh of a {ops}-op delta log on a {n}-interval shard triggered "
            f"{full_delta} base rebuild(s); expected an overlay refresh"
        )

    start = time.perf_counter()
    shard.compact()
    full_rebuild_seconds = time.perf_counter() - start
    engine.close()
    print(
        f"n={n:>7} refresh       {ops} ops replayed in {refresh_seconds * 1e3:9.1f} ms   "
        f"(base rebuild alone: {full_rebuild_seconds * 1e3:.1f} ms, "
        f"base_rebuilds={full_delta})"
    )
    return {
        "n": n,
        "ops": ops,
        "full_builds_delta": int(full_delta),
        "incremental_refreshes_delta": int(incremental_delta),
        "refresh_seconds": round(refresh_seconds, 4),
        "full_rebuild_seconds": round(full_rebuild_seconds, 4),
    }


def _timed(fn, repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _publish_and_unlink(publish, shard) -> None:
    segment = publish(shard)
    if segment is not None:
        segment.unlink()


def bench_overlay(n: int, repeats: int) -> list[dict]:
    """Write and read cost against overlay size on one n-interval shard."""
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    engine = ShardedEngine(dataset, num_shards=1)
    engine.refresh()
    shard = engine.shards[0]
    lo, hi = dataset.domain()
    rng = np.random.default_rng(17)
    extent = (hi - lo) * 0.08
    query_lefts = rng.uniform(lo, hi - extent, 8)
    queries = np.column_stack((query_lefts, query_lefts + extent))
    victims = rng.permutation(n)
    used = 0
    base_times = []
    rows = []
    for fraction in OVERLAY_FRACTIONS:
        entries = max(2, int(n * fraction))
        # Start from a fresh base, then build an overlay of `entries` in one
        # refresh: half inserts, half tombstones, so the base keeps n intervals.
        start = time.perf_counter()
        shard.compact()
        _publish_and_unlink(publish_shard, shard)
        base_times.append(time.perf_counter() - start)
        half = entries // 2
        lefts = rng.uniform(lo, hi, entries - half)
        engine.insert_many(lefts, lefts + rng.exponential((hi - lo) * 0.002, lefts.shape[0]))
        engine.delete_many(victims[used : used + half])
        used += half
        engine.refresh()
        rebuilds = shard.base_rebuilds

        def one_write():
            left = float(rng.uniform(lo, hi))
            engine.insert_many([left], [left + 1.0])
            engine.refresh()

        refresh_seconds = _timed(one_write, repeats)
        publish_seconds = _timed(lambda: _publish_and_unlink(publish_overlay, shard), repeats)
        if shard.base_rebuilds != rebuilds:
            raise AssertionError(
                f"a one-interval write on an overlay of {entries} entries compacted "
                f"an {n}-interval shard; the sweep measures overlay refreshes"
            )
        count_seconds = _timed(lambda: engine.count_many(queries), 5 * repeats)
        sample_seconds = _timed(
            lambda: engine.sample_many(queries, 100, random_state=3), 5 * repeats
        )
        rows.append(
            {
                "n": n,
                "entries": entries,
                "refresh_seconds": round(refresh_seconds, 5),
                "publish_seconds": round(publish_seconds, 5),
                "count_seconds": round(count_seconds, 5),
                "sample_seconds": round(sample_seconds, 5),
            }
        )
    engine.close()
    base_seconds = float(np.median(base_times[1:]))  # the first compaction had no overlay
    per_entry = np.polyfit(
        [row["entries"] for row in rows],
        [row["refresh_seconds"] + row["publish_seconds"] for row in rows],
        1,
    )[0]
    break_even = (base_seconds / n) / per_entry if per_entry > 0 else float("inf")
    for row in rows:
        row["base_seconds"] = round(base_seconds, 4)
        row["break_even_work"] = round(break_even, 2)
        print(
            f"n={n:>7} overlay       {row['entries']:>6} entries  write "
            f"{(row['refresh_seconds'] + row['publish_seconds']) * 1e3:6.2f} ms   "
            f"count8 {row['count_seconds'] * 1e3:5.2f} ms   sample8 "
            f"{row['sample_seconds'] * 1e3:5.2f} ms"
        )
    print(
        f"n={n:>7} overlay       compaction {base_seconds * 1e3:.1f} ms  "
        f"({base_seconds / n * 1e6:.2f} us/interval vs {per_entry * 1e6:.2f} us/overlay entry: "
        f"break-even work {break_even:.2f} x n)"
    )
    return rows


def bench_mixed(n: int, query_count: int, shard_counts: list[int], rounds: int) -> list[dict]:
    """Mixed read/write rounds per (shards, write_ratio), like update_throughput."""
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    workload = generate_queries(dataset, count=query_count, extent_fraction=0.08, random_state=2)
    query_array = np.asarray(list(workload), dtype=np.float64)
    domain = dataset.domain()
    rows = []
    for shards in shard_counts:
        engine = ShardedEngine(dataset, num_shards=shards)
        engine.refresh()
        rng = np.random.default_rng(13 + shards)
        for write_ratio in WRITE_RATIOS:
            write_count = int(round(write_ratio * query_count))
            elapsed = 0.0
            writes = 0
            for _ in range(max(1, rounds)):
                round_elapsed, round_writes = measure_mixed_round(
                    engine, query_array, write_count, rng, domain
                )
                elapsed += round_elapsed
                writes += round_writes
            reads = max(1, rounds) * query_count
            row = {
                "n": n,
                "shards": shards,
                "write_ratio": write_ratio,
                "reads_per_sec": round(reads / elapsed, 1) if elapsed > 0 else 0.0,
                "writes_per_sec": round(writes / elapsed, 1) if elapsed > 0 and writes else 0.0,
                "ops_per_sec": round((reads + writes) / elapsed, 1) if elapsed > 0 else 0.0,
            }
            rows.append(row)
            print(
                f"n={n:>7} mixed         K={shards} ratio={write_ratio:<5}"
                f"  {row['reads_per_sec']:>10.0f} reads/s  {row['writes_per_sec']:>10.0f} writes/s"
            )
        engine.close()
    return rows


def validate_payload(payload: dict) -> None:
    """Assert the emitted JSON has the committed schema; raise on drift."""
    assert set(payload) == {"config", "results"}, "payload must have config + results"
    results = payload["results"]
    assert set(results) == {"bulk_insert", "refresh", "overlay", "mixed"}, (
        "unexpected result sections"
    )
    for row in results["bulk_insert"]:
        assert {"n", "bulk_seconds", "scalar_seconds", "speedup"} <= set(row)
    for row in results["refresh"]:
        assert {
            "n",
            "ops",
            "full_builds_delta",
            "incremental_refreshes_delta",
            "refresh_seconds",
            "full_rebuild_seconds",
        } <= set(row)
    for row in results["overlay"]:
        assert {
            "n",
            "entries",
            "refresh_seconds",
            "publish_seconds",
            "count_seconds",
            "sample_seconds",
            "base_seconds",
            "break_even_work",
        } <= set(row)
    for row in results["mixed"]:
        assert {"n", "shards", "write_ratio", "reads_per_sec", "ops_per_sec"} <= set(row)
    assert all(results[section] for section in results), (
        "every section must carry at least one row"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_updates.json",
        help="output JSON path (default: repo-root BENCH_updates.json)",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=[100_000], help="dataset sizes")
    parser.add_argument("--ops", type=int, default=1_000, help="delta-log length for refresh")
    parser.add_argument("--queries", type=int, default=1_000, help="queries per mixed round")
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4], help="shard counts for mixed rounds"
    )
    parser.add_argument("--rounds", type=int, default=3, help="mixed rounds per point")
    parser.add_argument("--repeats", type=int, default=2, help="best-of-N for bulk_insert")
    args = parser.parse_args(argv)

    bulk_rows = []
    refresh_rows = []
    overlay_rows = []
    mixed_rows = []
    for n in args.sizes:
        bulk_rows.append(bench_bulk_insert(n, args.repeats))
        refresh_rows.append(bench_refresh(n, args.ops))
        overlay_rows.extend(bench_overlay(n, max(3, args.repeats)))
        mixed_rows.extend(bench_mixed(n, args.queries, args.shards, args.rounds))

    payload = {
        "config": {
            "dataset": "btc (synthetic analogue)",
            "sizes": args.sizes,
            "ops": args.ops,
            "query_count": args.queries,
            "shard_counts": args.shards,
            "rounds": args.rounds,
            "repeats": args.repeats,
            "write_ratios": list(WRITE_RATIOS),
            "repro_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": {
            "bulk_insert": bulk_rows,
            "refresh": refresh_rows,
            "overlay": overlay_rows,
            "mixed": mixed_rows,
        },
    }
    validate_payload(payload)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
