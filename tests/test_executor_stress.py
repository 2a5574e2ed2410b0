"""Concurrency + durability stress for the process-parallel execution tier.

Two properties of ISSUE 7's acceptance bar:

* **Batch-boundary consistency under concurrency** — a ``RequestGateway``
  serving an engine backed by a ``ProcessExecutor`` under N concurrent
  writer and reader threads never shows a torn state: every read reflects
  a batch-boundary snapshot, so with an insert-only workload each reader's
  successive counts are monotone non-decreasing and bounded by the total
  write volume, and after all writers are joined the final count is exact.

* **Acknowledged => recovered across worker death** — ``checkpoint()``
  through the running gateway, SIGKILL of a shard worker, more
  acknowledged writes, close, then ``ShardedEngine.open`` must recover
  every acknowledged write (snapshot epoch + WAL replay), bit-identical
  to a serial engine that applied the same op stream.

All synchronisation is structural (barriers, blocking futures, joins) —
no sleeps-as-sync, so the tests are deterministic and run at full speed.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import ShardedEngine
from repro.service import ProcessExecutor, RequestGateway

DOMAIN = (-1.0, 2000.0)  # strictly wider than any fixture dataset


@pytest.fixture
def dataset(make_random_dataset):
    return make_random_dataset(n=500, seed=41)


def _run_threads(workers):
    """Start all workers behind a barrier, join them, re-raise any failure."""
    barrier = threading.Barrier(len(workers))
    errors = []

    def wrap(fn):
        def run():
            barrier.wait()
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestConcurrentGateway:
    N_WRITERS = 3
    N_READERS = 3
    WRITES_EACH = 10
    READS_EACH = 12

    def test_insert_only_counts_are_monotone_and_exact(self, dataset):
        base = len(dataset)
        total = self.N_WRITERS * self.WRITES_EACH
        executor = ProcessExecutor(max_workers=2, scatter="query")
        engine = ShardedEngine(dataset, num_shards=4, executor=executor)
        acked_ids: list[list[int]] = [[] for _ in range(self.N_WRITERS)]
        seen_counts: list[list[int]] = [[] for _ in range(self.N_READERS)]
        try:
            with RequestGateway(engine) as gateway:

                def writer(slot: int):
                    rng = np.random.default_rng(1000 + slot)
                    for _ in range(self.WRITES_EACH):
                        left = float(rng.uniform(0.0, 900.0))
                        gid = gateway.insert((left, left + 5.0), timeout=60)
                        acked_ids[slot].append(gid)

                def reader(slot: int):
                    for _ in range(self.READS_EACH):
                        seen_counts[slot].append(gateway.count(DOMAIN, timeout=60))

                _run_threads(
                    [lambda s=i: writer(s) for i in range(self.N_WRITERS)]
                    + [lambda s=i: reader(s) for i in range(self.N_READERS)]
                )
                final = gateway.count(DOMAIN, timeout=60)
                stats = gateway.stats()
        finally:
            engine.close()
            executor.shutdown()

        # every acknowledged insert got a unique global id
        flat = [gid for ids in acked_ids for gid in ids]
        assert len(set(flat)) == total
        # batch-boundary snapshots: insert-only => monotone counts per reader
        for counts in seen_counts:
            assert counts == sorted(counts)
            assert all(base <= c <= base + total for c in counts)
        # after joins every acknowledged write is visible
        assert final == base + total
        assert stats["engine"]["executor"] == "process"
        assert stats["engine"]["placements"]["inline"] == 0
        assert stats["engine"]["placements"]["query"] > 0
        assert stats["errors"] == {}

    def test_mixed_writes_settle_to_exact_count(self, dataset):
        """Writers insert then delete their own acked ids; the ledger balances."""
        base = len(dataset)
        executor = ProcessExecutor(max_workers=2, scatter="query")
        engine = ShardedEngine(dataset, num_shards=4, executor=executor)
        kept: list[int] = []
        lock = threading.Lock()
        try:
            with RequestGateway(engine) as gateway:

                def churner(slot: int):
                    rng = np.random.default_rng(2000 + slot)
                    for round_index in range(6):
                        left = float(rng.uniform(0.0, 900.0))
                        gid = gateway.insert((left, left + 2.0), timeout=60)
                        if round_index % 2 == 0:
                            # deleting an acknowledged insert must succeed
                            assert gateway.delete(gid, timeout=60) is True
                        else:
                            with lock:
                                kept.append(gid)

                def reader(slot: int):
                    for _ in range(8):
                        count = gateway.count(DOMAIN, timeout=60)
                        assert base - 1 <= count <= base + 4 * 6
                        sampled = gateway.sample(DOMAIN, 8, timeout=60)
                        assert sampled.shape == (8,)

                _run_threads(
                    [lambda s=i: churner(s) for i in range(4)]
                    + [lambda s=i: reader(s) for i in range(2)]
                )
                final = gateway.count(DOMAIN, timeout=60)
                surviving = gateway.report(DOMAIN, timeout=60)
        finally:
            engine.close()
            executor.shutdown()

        assert final == base + len(kept)
        assert set(kept) <= set(int(g) for g in surviving)


class TestQueryScatterGateway:
    """The concurrency invariants hold under the query-parallel scatter too.

    ``block_size=7`` forces multi-tile batches whose tiles interleave across
    both workers while writers bump snapshot versions concurrently — the
    republish-to-all-workers protocol must keep every tile on a
    batch-boundary snapshot.
    """

    def test_churn_under_query_scatter_settles_exact(self, dataset):
        base = len(dataset)
        executor = ProcessExecutor(max_workers=2, scatter="query", block_size=7)
        engine = ShardedEngine(dataset, num_shards=4, executor=executor)
        kept: list[int] = []
        lock = threading.Lock()
        try:
            with RequestGateway(engine) as gateway:

                def churner(slot: int):
                    rng = np.random.default_rng(3000 + slot)
                    for round_index in range(6):
                        left = float(rng.uniform(0.0, 900.0))
                        gid = gateway.insert((left, left + 2.0), timeout=60)
                        if round_index % 2 == 0:
                            assert gateway.delete(gid, timeout=60) is True
                        else:
                            with lock:
                                kept.append(gid)

                def reader(slot: int):
                    for _ in range(8):
                        count = gateway.count(DOMAIN, timeout=60)
                        assert base - 1 <= count <= base + 4 * 6
                        sampled = gateway.sample(DOMAIN, 8, timeout=60)
                        assert sampled.shape == (8,)

                _run_threads(
                    [lambda s=i: churner(s) for i in range(4)]
                    + [lambda s=i: reader(s) for i in range(2)]
                )
                final = gateway.count(DOMAIN, timeout=60)
                surviving = gateway.report(DOMAIN, timeout=60)
                stats = gateway.stats()
        finally:
            engine.close()
            executor.shutdown()

        assert final == base + len(kept)
        assert set(kept) <= set(int(g) for g in surviving)
        assert stats["engine"]["executor"] == "process"
        assert stats["engine"]["scatter"] == "query"
        assert stats["engine"]["placements"]["query"] > 0
        assert stats["errors"] == {}


class TestCheckpointKillRecover:
    def test_no_acknowledged_write_lost(self, tmp_path, dataset):
        directory = str(tmp_path / "stress")
        # seed the directory with a checkpointed base engine
        with ShardedEngine(dataset, num_shards=4) as seed_engine:
            seed_engine.save_snapshot(directory)

        rng = np.random.default_rng(99)
        batch_a = [(float(l), float(l) + 3.0) for l in rng.uniform(0.0, 900.0, 20)]
        batch_b = [(float(l), float(l) + 3.0) for l in rng.uniform(0.0, 900.0, 20)]

        executor = ProcessExecutor(max_workers=2, scatter="query")
        engine = ShardedEngine.open(directory, executor=executor)
        acked: list[int] = []
        try:
            with RequestGateway(engine) as gateway:
                for interval in batch_a:
                    acked.append(gateway.insert(interval, timeout=60))
                count_after_a = gateway.count(DOMAIN, timeout=60)
                assert count_after_a == len(dataset) + len(batch_a)
                # checkpoint through the gateway (dispatcher-serialised) ...
                epoch = gateway.checkpoint(timeout=120)
                assert epoch == 2
                # ... then murder a shard worker mid-service ...
                executor.kill_worker(0)
                # ... and keep writing: these land in the post-epoch WAL
                for interval in batch_b:
                    acked.append(gateway.insert(interval, timeout=60))
                assert gateway.count(DOMAIN, timeout=60) == len(dataset) + len(acked)
        finally:
            engine.close()
            executor.shutdown()

        # recover on a plain serial engine and verify against a serial oracle
        with ShardedEngine.open(directory) as recovered:
            oracle = ShardedEngine(dataset, num_shards=4)
            oracle.insert_many(
                np.array([l for l, _ in batch_a + batch_b]),
                np.array([r for _, r in batch_a + batch_b]),
            )
            assert recovered.size == oracle.size
            queries = [(0.0, 500.0), (250.0, 750.0), DOMAIN]
            assert np.array_equal(
                recovered.count_many(queries), oracle.count_many(queries)
            )
            surviving = set(int(g) for g in recovered.report_many([DOMAIN])[0])
            assert set(acked) <= surviving
            oracle.close()


class TestDrainUnderFire:
    """ISSUE 10's drain contract: close() under concurrent writers + a
    SIGKILLed worker loses no acked write and rejects post-close submits."""

    N_WRITERS = 3
    MIN_ACKS_BEFORE_DRAIN = 5

    def test_close_under_fire_loses_no_acked_write(self, tmp_path, dataset):
        from repro.core.errors import GatewayClosedError

        directory = str(tmp_path / "drainfire")
        with ShardedEngine(dataset, num_shards=4) as seed_engine:
            seed_engine.save_snapshot(directory)

        executor = ProcessExecutor(max_workers=2, scatter="query")
        engine = ShardedEngine.open(directory, executor=executor)
        gateway = RequestGateway(engine)
        acked: list[list[int]] = [[] for _ in range(self.N_WRITERS)]
        closed_observed: list[str] = []
        lock = threading.Lock()

        def writer(slot: int):
            rng = np.random.default_rng(4000 + slot)
            for _ in range(100_000):
                left = float(rng.uniform(0.0, 900.0))
                try:
                    gid = gateway.insert((left, left + 3.0), timeout=60)
                except GatewayClosedError:
                    with lock:
                        closed_observed.append(f"writer-{slot}")
                    return
                acked[slot].append(gid)
            raise AssertionError("gateway never closed under fire")

        def reader():
            base = len(dataset)
            last = base
            for _ in range(100_000):
                try:
                    count = gateway.count(DOMAIN, timeout=60)
                except GatewayClosedError:
                    with lock:
                        closed_observed.append("reader")
                    return
                # insert-only workload: batch-boundary snapshots stay monotone
                # even while a worker is being SIGKILLed and respawned
                assert count >= last
                last = count
            raise AssertionError("gateway never closed under fire")

        def controller():
            # wait for real fire, murder a shard worker mid-service, keep the
            # fire burning a moment, then drain
            while not all(len(ids) >= self.MIN_ACKS_BEFORE_DRAIN for ids in acked):
                time.sleep(0.002)
            executor.kill_worker(0)
            while not all(len(ids) >= 2 * self.MIN_ACKS_BEFORE_DRAIN for ids in acked):
                time.sleep(0.002)
            gateway.close()

        try:
            _run_threads(
                [lambda s=i: writer(s) for i in range(self.N_WRITERS)]
                + [reader, controller]
            )
            # every client that outlived the drain saw the pinned close error
            assert sorted(closed_observed) == sorted(
                [f"writer-{i}" for i in range(self.N_WRITERS)] + ["reader"]
            )
            with pytest.raises(GatewayClosedError, match=r"gateway is closed"):
                gateway.submit("insert", (1.0, 2.0))
        finally:
            engine.close()
            executor.shutdown()

        # recover on a serial engine: acknowledged => durable, exactly once
        flat = [gid for ids in acked for gid in ids]
        assert len(flat) == len(set(flat))
        with ShardedEngine.open(directory) as recovered:
            assert recovered.size == len(dataset) + len(flat)
            surviving = set(int(g) for g in recovered.report_many([DOMAIN])[0])
            assert set(flat) <= surviving
