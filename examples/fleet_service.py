"""A live fleet-analytics service on the ShardedEngine (the serving layer).

A delivery platform tracks courier shifts as intervals (shift start → shift
end, seconds since midnight).  An analytics dashboard fires *batches* of
range queries — "how many couriers were on shift during [t1, t2]?", "sample
200 of them for a fairness audit" — while dispatch keeps inserting new
shifts and cancelling others.  This is exactly the workload the paper's
independent range sampling is built for, served here by
``repro.service.ShardedEngine``:

* the dataset is partitioned across 4 shards, each holding its own
  ``FlatAIT`` snapshot;
* dashboard batches scatter-gather across the shards (counts merge by
  summation; samples are allocated by a multinomial over per-shard overlap
  counts, so the merged draws are exactly i.i.d. uniform);
* dispatch writes land in per-shard delta logs and become visible at the
  next batch boundary — snapshots refresh lazily and are never swapped
  mid-batch.

Run with::

    PYTHONPATH=src python examples/fleet_service.py
"""

from __future__ import annotations

import numpy as np

from repro import AIT, IntervalDataset
from repro.service import ShardedEngine

DAY = 86_400.0
FLEET = 30_000
NEW_SHIFTS = 500
CANCELLED = 300


def build_fleet(rng: np.random.Generator) -> IntervalDataset:
    """Shifts with morning / evening peaks, 2-8 hours long."""
    peak = rng.choice([8 * 3600.0, 17 * 3600.0], size=FLEET)
    starts = np.clip(rng.normal(peak, 2 * 3600.0), 0.0, DAY - 3600.0)
    lengths = rng.uniform(2 * 3600.0, 8 * 3600.0, FLEET)
    return IntervalDataset(starts, np.minimum(starts + lengths, DAY))


def main() -> None:
    rng = np.random.default_rng(7)
    shifts = build_fleet(rng)

    with ShardedEngine(shifts, num_shards=4, policy="round_robin") as engine:
        print(f"service up: {engine!r}")
        print(f"shard sizes: {engine.shard_sizes()}, snapshot versions {engine.versions()}")

        # --- dashboard batch 1: hourly on-shift counts ------------------- #
        hours = [(h * 3600.0, (h + 1) * 3600.0) for h in range(24)]
        counts = engine.count_many(hours)
        busiest = int(np.argmax(counts))
        print(f"\nhourly on-shift counts (peak at {busiest}:00 with {counts[busiest]} couriers):")
        print("  " + " ".join(f"{int(c) // 1000:2d}k" for c in counts))

        # The sharded answer must equal the unsharded engine exactly.
        reference = AIT(shifts).flat()
        assert np.array_equal(counts, reference.count_many(hours))

        # --- fairness audit: sample working couriers at noon ------------- #
        noon = (12 * 3600.0, 13 * 3600.0)
        audit = engine.sample(noon, 200, random_state=1)
        print(f"\naudit sample at noon: {len(audit)} draws, "
              f"{len(set(audit.tolist()))} distinct couriers")

        # --- live updates: dispatch inserts and cancellations ------------ #
        versions_before = engine.versions()
        new_ids = []
        for _ in range(NEW_SHIFTS):
            start = float(rng.uniform(10 * 3600.0, 14 * 3600.0))
            new_ids.append(engine.insert((start, start + 4 * 3600.0)))
        for victim in rng.choice(FLEET, size=CANCELLED, replace=False):
            engine.delete(int(victim))
        print(f"\ndispatch: +{NEW_SHIFTS} shifts, -{CANCELLED} cancellations "
              f"({engine.pending_ops()} ops buffered, versions still {engine.versions()})")

        # The next batch observes all buffered writes: snapshots refresh at
        # the batch boundary, never mid-batch.
        counts_after = engine.count_many(hours)
        print(f"noon count {counts[12]} -> {counts_after[12]} "
              f"(versions now {engine.versions()}, {engine.pending_ops()} ops pending)")
        assert engine.pending_ops() == 0
        assert any(a > b for a, b in zip(engine.versions(), versions_before))

        # New shifts are sampleable immediately after the boundary.
        audit_after = engine.sample(noon, 5000, random_state=2)
        fresh = set(audit_after.tolist()) & set(new_ids)
        print(f"audit resample: {len(fresh)} of the new shifts already in the draw")
        assert engine.size == FLEET + NEW_SHIFTS - CANCELLED

    print("\nservice shut down cleanly")


if __name__ == "__main__":
    main()
