"""Update throughput — the sharded write path end to end.

Companion to Table VII (``table7``): where that experiment reproduces the
paper's amortized *per-operation* update latencies, this one tracks the
reproduction's engineering write path.  Four sections per dataset size:

* **bulk_insert** — ``AIT.insert_many`` of n intervals into an empty tree
  vs a loop of scalar pooled inserts (the paper's Section III-D amortised
  path, one Python round-trip per interval);
* **refresh** — replay a delta log of ``ops`` balanced writes on an
  n-interval single-shard engine.  ``base_rebuilds_delta`` reads the
  shard's ``base_rebuilds`` counter and ``overlay_refreshes_delta`` the
  rest of its version delta; a log that is small relative to the shard
  must land in the overlay (the run errors otherwise).  The time of a
  base rebuild (``Shard.compact``) is measured next to it for scale;
* **overlay** — the median cost of a one-interval write (overlay refresh
  plus overlay republish) and of a small read batch, against the overlay's
  size, next to the cost of a compaction on the same shard.
  ``break_even_work`` is the compaction's cost per base interval over the
  overlay's cost per entry: the value ``repro.service.shard.COMPACT_WORK``
  is set from;
* **mixed** — rounds of balanced bulk writes followed by one read batch,
  which forces the delta-log replay at the batch boundary, per write ratio
  and shard count.  Each round deletes the ids it inserted, so those writes
  cancel inside one refresh: the rows measure the read path and the
  delta-log fold.

``scripts/bench.py update_throughput`` writes the same rows to
``BENCH_updates.json``.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import AIT, IntervalDataset
from ..datasets import generate_paper_dataset
from ..service import ShardedEngine
from ..service.shm import publish_overlay, publish_shard
from .config import ExperimentConfig
from .harness import btc_workload, ledger_result, time_round_robin, time_seconds
from .report import ExperimentResult

__all__ = ["run", "measure", "indicators", "LEDGER", "DEFAULTS", "SCHEMA", "WRITE_RATIOS"]

LEDGER = "updates"

#: Settable values of ``scripts/bench.py update_throughput`` and their defaults.
DEFAULTS = {
    "sizes": [100_000],
    "ops": 1_000,
    "queries": 1_000,
    "shards": [1, 2, 4],
    "rounds": 3,
    "repeats": 2,
}

SCHEMA = {
    "bulk_insert": {"n", "bulk_seconds", "scalar_seconds", "speedup"},
    "refresh": {
        "n",
        "ops",
        "base_rebuilds_delta",
        "overlay_refreshes_delta",
        "refresh_seconds",
        "full_rebuild_seconds",
    },
    "overlay": {
        "n",
        "entries",
        "refresh_seconds",
        "publish_seconds",
        "count_seconds",
        "sample_seconds",
        "base_seconds",
        "break_even_work",
    },
    "mixed": {"n", "shards", "write_ratio", "reads_per_sec", "ops_per_sec"},
}

#: Fraction of each mixed round's operations that are writes.
WRITE_RATIOS: tuple[float, ...] = (0.0, 0.05, 0.2, 0.5)

#: Overlay sizes swept by the overlay section, as fractions of the shard size.
OVERLAY_FRACTIONS = (1 / 1024, 1 / 256, 1 / 64, 1 / 16, 1 / 4)


def _empty_tree() -> AIT:
    """An AIT with zero active intervals (built from a one-row seed)."""
    tree = AIT(IntervalDataset.from_pairs([(0.0, 1.0)]))
    tree.delete(0)
    return tree


def measure_bulk_insert(n: int, repeats: int) -> dict:
    """insert_many of n intervals into an empty AIT vs a scalar pooled loop."""
    rng = np.random.default_rng(7)
    lefts = rng.uniform(0.0, 1000.0, n)
    rights = lefts + rng.exponential(20.0, n)
    pairs = list(zip(lefts.tolist(), rights.tolist()))

    def scalar():
        tree = _empty_tree()
        for pair in pairs:
            tree.insert(pair)
        tree.flush_pool()

    times = time_round_robin(
        {"bulk": lambda: _empty_tree().insert_many(lefts, rights), "scalar": scalar}, repeats
    )
    bulk, scalar_seconds = min(times["bulk"]), min(times["scalar"])
    return {
        "n": n,
        "bulk_seconds": bulk,
        "scalar_seconds": scalar_seconds,
        "speedup": scalar_seconds / bulk,
    }


def measure_refresh(n: int, ops: int) -> dict:
    """Replay an ops-long delta log on an n-interval shard; verify no base rebuild."""
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    engine = ShardedEngine(dataset, num_shards=1)
    engine.refresh()
    shard = engine.shards[0]
    rebuilds_before, version_before = shard.base_rebuilds, shard.version

    rng = np.random.default_rng(11)
    half = max(1, ops // 2)
    lo, hi = dataset.domain()
    lefts = rng.uniform(lo, hi, half)
    engine.insert_many(lefts, lefts + rng.exponential((hi - lo) * 0.02, half))
    engine.delete_many(rng.choice(n, size=half, replace=False))
    _, refresh_seconds = time_seconds(engine.refresh)

    rebuilds = shard.base_rebuilds - rebuilds_before
    if n >= 20 * ops and rebuilds != 0:
        raise AssertionError(
            f"refresh of a {ops}-op delta log on a {n}-interval shard triggered "
            f"{rebuilds} base rebuild(s); expected an overlay refresh"
        )
    _, full_rebuild_seconds = time_seconds(shard.compact)
    engine.close()
    return {
        "n": n,
        "ops": ops,
        "base_rebuilds_delta": int(rebuilds),
        "overlay_refreshes_delta": int(shard.version - version_before - rebuilds),
        "refresh_seconds": refresh_seconds,
        "full_rebuild_seconds": full_rebuild_seconds,
    }


def _publish_and_unlink(publish, shard) -> None:
    segment = publish(shard)
    if segment is not None:
        segment.unlink()


def measure_overlay(n: int, repeats: int) -> list[dict]:
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

    def rebase():
        shard.compact()
        _publish_and_unlink(publish_shard, shard)

    def one_write():
        left = float(rng.uniform(lo, hi))
        engine.insert_many([left], [left + 1.0])
        engine.refresh()

    for fraction in OVERLAY_FRACTIONS:
        entries = max(2, int(n * fraction))
        # Start from a fresh base, then build an overlay of `entries` in one
        # refresh: half inserts, half tombstones, so the base keeps n intervals.
        base_times.append(time_seconds(rebase)[1])
        half = entries // 2
        lefts = rng.uniform(lo, hi, entries - half)
        engine.insert_many(lefts, lefts + rng.exponential((hi - lo) * 0.002, lefts.shape[0]))
        engine.delete_many(victims[used : used + half])
        used += half
        engine.refresh()
        rebuilds = shard.base_rebuilds
        writes = time_round_robin(
            {"refresh": one_write, "publish": lambda: _publish_and_unlink(publish_overlay, shard)},
            repeats,
        )
        if shard.base_rebuilds != rebuilds:
            raise AssertionError(
                f"a one-interval write on an overlay of {entries} entries compacted "
                f"an {n}-interval shard; the sweep measures overlay refreshes"
            )
        reads = time_round_robin(
            {
                "count": lambda: engine.count_many(queries),
                "sample": lambda: engine.sample_many(queries, 100, random_state=3),
            },
            5 * repeats,
        )
        rows.append(
            {"n": n, "entries": entries}
            | {f"{key}_seconds": float(np.median(t)) for key, t in (writes | reads).items()}
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
        row["base_seconds"] = base_seconds
        row["break_even_work"] = break_even
    return rows


def measure_mixed_round(
    engine: ShardedEngine,
    query_array: np.ndarray,
    write_count: int,
    rng: np.random.Generator,
    domain: tuple[float, float],
) -> tuple[float, int]:
    """One mixed round: ``write_count`` balanced writes, then one read batch.

    Returns ``(elapsed_seconds, writes_applied)``.
    """
    half = write_count // 2
    start = time.perf_counter()
    if half:
        lo, hi = domain
        lefts = rng.uniform(lo, hi, half)
        new_ids = engine.insert_many(lefts, lefts + rng.exponential((hi - lo) * 0.02, half))
        engine.delete_many(new_ids[rng.permutation(half)])
    engine.count_many(query_array)
    return time.perf_counter() - start, 2 * half


def measure_mixed(n: int, queries: int, shard_counts, rounds: int) -> list[dict]:
    """Mixed read/write throughput per (shards, write_ratio)."""
    dataset, query_array = btc_workload(n, queries)
    domain = dataset.domain()
    rows = []
    for shards in shard_counts:
        engine = ShardedEngine(dataset, num_shards=shards)
        engine.refresh()
        rng = np.random.default_rng(13 + shards)
        for write_ratio in WRITE_RATIOS:
            write_count = int(round(write_ratio * queries))
            measured = [
                measure_mixed_round(engine, query_array, write_count, rng, domain)
                for _ in range(max(1, rounds))
            ]
            elapsed = sum(seconds for seconds, _ in measured)
            writes = sum(count for _, count in measured)
            reads = len(measured) * queries
            rows.append(
                {
                    "n": n,
                    "shards": shards,
                    "write_ratio": write_ratio,
                    "reads_per_sec": reads / elapsed,
                    "writes_per_sec": writes / elapsed,
                    "ops_per_sec": (reads + writes) / elapsed,
                }
            )
        engine.close()
    return rows


def measure(sizes, ops, queries, shards, rounds, repeats) -> dict:
    """All four sections per dataset size."""
    results: dict = {"bulk_insert": [], "refresh": [], "overlay": [], "mixed": []}
    for n in sizes:
        results["bulk_insert"].append(measure_bulk_insert(n, repeats))
        results["refresh"].append(measure_refresh(n, ops))
        results["overlay"].extend(measure_overlay(n, max(3, repeats)))
        results["mixed"].extend(measure_mixed(n, queries, shards, rounds))
    return results


def indicators(payload: dict) -> dict[str, float]:
    """Bulk-insert speedup, plus the hard refresh_incremental invariant."""
    results = payload["results"]
    out = {"bulk_insert_speedup": max(float(row["speedup"]) for row in results["bulk_insert"])}
    # Hard invariant rather than a ratio: a delta log that is small relative
    # to the shard must land in its overlay, with no base rebuild.
    for row in results["refresh"]:
        if row["n"] >= 20 * row["ops"]:
            out["refresh_incremental"] = 1.0 if row["base_rebuilds_delta"] == 0 else 0.0
    return out


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure the write path: bulk insert, refresh, overlay cost, mixed rounds."""
    results = measure(
        **DEFAULTS
        | {
            "sizes": [config.dataset_size],
            "ops": config.update_count,
            "queries": config.query_count,
            "repeats": config.repeats,
        }
    )
    return ledger_result(
        "update_throughput",
        "Write path of the sharded engine [seconds, ops/sec]",
        results,
        notes=(
            "mixed: each round applies write_ratio * query_count balanced bulk "
            "writes and then one count_many batch, which pays the delta-log "
            "replay.  Expect reads/sec to fall as the write ratio grows; the "
            "write path keeps the fall graceful (bulk replay into a small "
            "overlay) instead of cliff-shaped."
        ),
    )
