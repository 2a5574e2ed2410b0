"""Tests for the RequestGateway: correctness, batching semantics, edge cases.

The micro-batching contract under test:

* results are identical to direct engine calls (count/report/total_weight)
  and distribution-correct for sampling;
* writes drained into a micro-batch apply before the batch's reads and
  never split a read group;
* one request's failure never poisons its batch-mates;
* shutdown flushes pending futures instead of dropping them.

Deterministic batching tests use a *paused* gateway (``start=False`` +
``process_pending``) or a running gateway over an engine gated on a
``threading.Event``, so batch formation does not race the dispatcher;
concurrency tests use a running gateway with many client threads.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import AIT, IntervalDataset
from repro.baselines import ExhaustiveScan
from repro.core.errors import (
    EmptyResultError,
    GatewayClosedError,
    InvalidIntervalError,
    InvalidQueryError,
)
from repro.service import GatewayMetrics, RequestGateway, ShardedEngine


@pytest.fixture
def dataset() -> IntervalDataset:
    rng = np.random.default_rng(5)
    lefts = rng.uniform(0.0, 1000.0, 400)
    rights = lefts + rng.exponential(25.0, 400)
    return IntervalDataset(lefts, rights)


@pytest.fixture
def engine(dataset):
    with ShardedEngine(dataset, num_shards=2) as eng:
        eng.refresh()
        yield eng


@pytest.fixture
def oracle(dataset) -> AIT:
    return AIT(dataset)


QUERIES = [(q * 37.0 % 950.0, q * 37.0 % 950.0 + 40.0) for q in range(25)]


class _GatedEngine:
    """Delegate to ``inner``; block ``method`` until ``release`` is set.

    ``entered`` is set once the dispatcher is inside the gated call, so a
    test knows the first batch is running and later submits must queue.
    """

    def __init__(self, inner, method: str):
        self._inner = inner
        self._method = method
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != self._method:
            return attr

        def gated(*args, **kwargs):
            self.entered.set()
            assert self.release.wait(30), "gate never released"
            return attr(*args, **kwargs)

        return gated


def _wait_closed(gateway: RequestGateway) -> None:
    """Spin until ``close()`` (on another thread) has enqueued its stop."""
    deadline = time.monotonic() + 10.0
    while gateway.is_running:
        assert time.monotonic() < deadline, "gateway.close() did not start"
        time.sleep(0.005)


class TestCorrectness:
    def test_results_match_direct_engine_calls(self, engine, oracle):
        with RequestGateway(engine, max_batch_size=8) as gateway:
            for query in QUERIES:
                assert gateway.count(query, timeout=10) == oracle.count(query)
            got = gateway.report(QUERIES[0], timeout=10)
            assert sorted(got.tolist()) == sorted(oracle.report(QUERIES[0]).tolist())
            assert gateway.total_weight(QUERIES[0], timeout=10) == pytest.approx(
                float(oracle.count(QUERIES[0]))
            )

    def test_sample_draws_come_from_result_set(self, engine, oracle):
        query = QUERIES[3]
        member_ids = set(oracle.report(query).tolist())
        with RequestGateway(engine) as gateway:
            row = gateway.sample(query, 64, timeout=10)
        assert len(row) == 64
        assert set(row.tolist()) <= member_ids

    def test_concurrent_clients_get_correct_answers(self, engine, oracle):
        expected = {query: oracle.count(query) for query in QUERIES}
        results: dict[int, list[int]] = {}
        with RequestGateway(engine, max_batch_size=16) as gateway:

            def client(worker: int) -> None:
                results[worker] = [gateway.count(query, timeout=30) for query in QUERIES]

            threads = [threading.Thread(target=client, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = gateway.stats()
        assert all(values == [expected[q] for q in QUERIES] for values in results.values())
        # 8 clients x 25 queries coalesce: requests that arrive while one
        # batch runs form the next.
        assert stats["batches"]["dispatched"] < 8 * len(QUERIES)
        assert stats["requests"]["count"] == 8 * len(QUERIES)

    def test_writes_become_visible_to_later_reads(self, engine, oracle):
        probe = (200.0, 210.0)
        with RequestGateway(engine) as gateway:
            before = gateway.count(probe, timeout=10)
            assert before == oracle.count(probe)
            new_id = gateway.insert((0.0, 999.0), timeout=10)
            assert gateway.count(probe, timeout=10) == before + 1
            assert gateway.delete(new_id, timeout=10) is True
            assert gateway.delete(new_id, timeout=10) is False
            assert gateway.count(probe, timeout=10) == before


class TestBatchingSemantics:
    def test_idle_gateway_dispatches_nothing(self, engine):
        """An idle gateway dispatches nothing and stays healthy."""
        with RequestGateway(engine) as gateway:
            deadline = threading.Event()
            deadline.wait(0.05)  # the dispatcher blocks on an empty queue
            assert gateway.is_running
            assert gateway.stats()["batches"]["dispatched"] == 0
            # ... and it still serves normally afterwards.
            assert gateway.count((0.0, 1000.0), timeout=10) > 0
            assert gateway.stats()["batches"]["dispatched"] == 1

    def test_requests_queued_behind_a_running_batch_form_the_next(self, dataset, engine):
        """Natural batching: no timer, the backlog at dispatch time is the batch."""
        gated = _GatedEngine(engine, "count_many")
        scan = ExhaustiveScan(dataset)
        with RequestGateway(gated, max_batch_size=64) as gateway:
            first = gateway.submit("count", QUERIES[0])
            assert gated.entered.wait(30)  # batch one is inside the engine
            queued = [gateway.submit("count", query) for query in QUERIES[1:11]]
            assert gateway.queue_depth == 10
            gated.release.set()
            answers = [future.result(timeout=30) for future in [first, *queued]]
            batches = gateway.stats()["batches"]
        assert answers == [scan.count(query) for query in QUERIES[:11]]
        # one singleton batch, then one batch holding all ten queued requests
        assert batches["dispatched"] == 2
        assert batches["size_histogram"] == {"1": 1, "9-16": 1}

    def test_max_batch_size_one_degenerates_to_scalar_dispatch(self, engine, oracle):
        gateway = RequestGateway(engine, max_batch_size=1, start=False)
        futures = [gateway.submit("count", query) for query in QUERIES[:6]]
        gateway.process_pending()
        assert [f.result(0) for f in futures] == [oracle.count(q) for q in QUERIES[:6]]
        histogram = gateway.stats()["batches"]["size_histogram"]
        assert histogram == {"1": 6}  # every dispatch was a singleton batch
        gateway.close()

    def test_writes_never_split_a_read_micro_batch(self, engine, oracle):
        """Interleaved writes coalesce with reads: one batch, one read group."""
        probe = (100.0, 150.0)
        before = oracle.count(probe)
        gateway = RequestGateway(engine, max_batch_size=64, start=False)
        read_1 = gateway.submit("count", probe)
        gateway.submit("insert", (0.0, 1000.0))
        read_2 = gateway.submit("count", probe)
        gateway.submit("insert", (0.0, 1000.0))
        read_3 = gateway.submit("count", probe)
        gateway.process_pending()

        # All five requests were dispatched as ONE micro-batch ...
        stats = gateway.stats()
        assert stats["batches"]["dispatched"] == 1
        assert stats["batches"]["size_histogram"] == {"5-8": 1}
        # ... so every read observed the same snapshot: both writes applied
        # at the batch boundary, regardless of arrival interleaving.
        assert read_1.result(0) == read_2.result(0) == read_3.result(0) == before + 2
        gateway.close()

    def test_exception_in_one_request_does_not_poison_batch_mates(self, engine):
        """A raising sample request fails alone; same-group mates still succeed."""
        empty_query = (5000.0, 5001.0)  # beyond the domain: q ∩ X = ∅
        live_query = (0.0, 1000.0)
        gateway = RequestGateway(engine, max_batch_size=64, start=False)
        good_1 = gateway.submit("sample", live_query, 8, on_empty="raise")
        bad = gateway.submit("sample", empty_query, 8, on_empty="raise")
        good_2 = gateway.submit("sample", live_query, 8, on_empty="raise")
        gateway.process_pending()

        assert len(good_1.result(0)) == 8
        assert len(good_2.result(0)) == 8
        with pytest.raises(EmptyResultError):
            bad.result(0)
        stats = gateway.stats()
        assert stats["batches"]["fallbacks"] == 1
        assert stats["errors"] == {"sample": 1}
        gateway.close()

    def test_clean_shutdown_completes_pending_futures(self, engine, oracle):
        expected = oracle.count(QUERIES[0])
        gated = _GatedEngine(engine, "count_many")
        gateway = RequestGateway(gated, max_batch_size=4)
        futures = [gateway.submit("count", QUERIES[0])]
        assert gated.entered.wait(30)
        # 49 more queue up behind the blocked batch; close() lands after them
        futures += [gateway.submit("count", QUERIES[0]) for _ in range(49)]
        closer = threading.Thread(target=gateway.close)
        closer.start()
        _wait_closed(gateway)
        assert not any(future.done() for future in futures)
        gated.release.set()
        closer.join(30)
        # close() must flush, not cancel: every future done.
        assert not closer.is_alive()
        assert all(future.done() for future in futures)
        assert [future.result(0) for future in futures] == [expected] * 50
        with pytest.raises(RuntimeError):
            gateway.submit("count", QUERIES[0])

    def test_cancelled_future_is_skipped_without_breaking_the_batch(self, engine, oracle):
        gateway = RequestGateway(engine, max_batch_size=64, start=False)
        cancelled = gateway.submit("count", QUERIES[0])
        kept = gateway.submit("count", QUERIES[1])
        assert cancelled.cancel()
        gateway.process_pending()
        assert kept.result(0) == oracle.count(QUERIES[1])
        assert cancelled.cancelled()
        gateway.close()


class TestValidationAndLifecycle:
    def test_malformed_requests_fail_at_submit_time(self, engine):
        with RequestGateway(engine) as gateway:
            with pytest.raises((InvalidQueryError, InvalidIntervalError)):
                gateway.submit("count", (10.0, 2.0))  # left > right
            with pytest.raises((InvalidQueryError, InvalidIntervalError)):
                gateway.submit("insert", (float("nan"), 1.0))
            with pytest.raises(InvalidQueryError):
                gateway.submit("sample", (0.0, 1.0), -3)
            with pytest.raises(ValueError):
                gateway.submit("increment", (0.0, 1.0))
            with pytest.raises(ValueError):
                gateway.submit("sample", (0.0, 1.0), 4, on_empty="explode")
            # The gateway still works after rejecting garbage.
            assert gateway.count((0.0, 1000.0), timeout=10) > 0

    def test_constructor_validation(self, engine):
        with pytest.raises(ValueError):
            RequestGateway(engine, max_batch_size=0)

    def test_process_pending_requires_paused_gateway(self, engine):
        with RequestGateway(engine) as gateway:
            with pytest.raises(RuntimeError):
                gateway.process_pending()

    def test_close_is_idempotent(self, engine):
        gateway = RequestGateway(engine)
        gateway.close()
        gateway.close()
        assert not gateway.is_running

    def test_external_metrics_object_is_used(self, engine):
        metrics = GatewayMetrics()
        with RequestGateway(engine, metrics=metrics) as gateway:
            gateway.count((0.0, 1000.0), timeout=10)
        assert metrics.snapshot()["requests"] == {"count": 1}

    def test_stats_shape(self, engine):
        with RequestGateway(engine) as gateway:
            gateway.count((0.0, 500.0), timeout=10)
            gateway.sample((0.0, 500.0), 4, timeout=10)
            stats = gateway.stats()
        assert set(stats) == {
            "requests",
            "completions",
            "errors",
            "timed_out",
            "shed",
            "batches",
            "latency_ms",
            "queue",
            "engine",
        }
        assert stats["queue"] == {"depth": 0, "max_queue_depth": 256}
        assert stats["engine"]["executor"] == "serial"
        assert stats["engine"]["num_shards"] >= 1
        assert stats["engine"]["placements"] is None
        assert stats["engine"]["resends"] == 0
        assert stats["completions"] == {"count": 1, "sample": 1}
        for op in ("count", "sample"):
            summary = stats["latency_ms"][op]
            assert summary["count"] == 1
            assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
            assert summary["max_ms"] > 0


class TestCloseDurability:
    """Lifecycle contract added with the durability layer (v1.4)."""

    def test_submit_after_close_raises_gateway_closed(self, engine):
        gateway = RequestGateway(engine)
        gateway.close()
        with pytest.raises(GatewayClosedError, match=r"gateway is closed"):
            gateway.submit("count", (0.0, 10.0))
        # pre-1.4 callers caught RuntimeError; the new type must still match
        with pytest.raises(RuntimeError):
            gateway.count((0.0, 10.0), timeout=1)

    def test_close_during_concurrent_submits_never_drops_futures(self, engine):
        gateway = RequestGateway(engine)
        futures, rejected = [], []

        def client(base):
            for i in range(20):
                try:
                    futures.append(gateway.submit("insert", (base + i, base + i + 1.0)))
                except GatewayClosedError:
                    rejected.append(i)
                    return

        threads = [threading.Thread(target=client, args=(k * 100.0,)) for k in range(4)]
        for t in threads:
            t.start()
        gateway.close()
        for t in threads:
            t.join()
        # every accepted future resolved (no hangs, no drops); rejects raised cleanly
        ids = [f.result(timeout=5) for f in futures]
        assert len(ids) == len(set(ids))

    def test_close_with_inflight_writes_is_durable(self, dataset, tmp_path):
        """Writes acknowledged before close() survive a reopen (WAL ordering)."""
        directory = str(tmp_path / "gateway-close")
        engine = ShardedEngine(dataset, num_shards=2)
        engine.refresh()
        engine.save_snapshot(directory)
        # the first insert blocks inside the engine, the rest queue behind
        # it, and close() itself drains them
        gated = _GatedEngine(engine, "insert_many")
        gateway = RequestGateway(gated, max_batch_size=4)
        futures = [gateway.submit("insert", (0.0, 1.0))]
        assert gated.entered.wait(30)
        futures += [
            gateway.submit("insert", (float(i), float(i) + 1.0)) for i in range(1, 24)
        ]
        closer = threading.Thread(target=gateway.close)
        closer.start()
        _wait_closed(gateway)
        gated.release.set()
        closer.join(30)
        assert not closer.is_alive()
        ids = [f.result(timeout=0) for f in futures]
        assert len(set(ids)) == 24
        engine.close()

        with ShardedEngine.open(directory) as restored:
            assert restored.size == len(dataset) + 24
            for global_id in ids:
                assert restored.shard_of(int(global_id)) in (0, 1)


class TestCheckpoint:
    """gateway.checkpoint(): snapshots taken on the dispatcher thread.

    Calling engine.save_snapshot from another thread while the gateway is
    dispatching can lose a write (journaled to the outgoing epoch's WAL,
    missing from the new snapshot); the checkpoint op closes that hole by
    running inside the dispatch loop, serialised with every write.
    """

    def test_checkpoint_round_trips_through_reopen(self, dataset, tmp_path):
        directory = str(tmp_path / "ckpt")
        with ShardedEngine(dataset, num_shards=2) as engine:
            with RequestGateway(engine) as gateway:
                before = gateway.insert((1.0, 2.0), timeout=10)
                epoch = gateway.checkpoint(directory, timeout=30)
                assert epoch == 1
                after = gateway.insert((3.0, 4.0), timeout=10)
                want = gateway.count((0.0, 2000.0), timeout=10)
        with ShardedEngine.open(directory) as restored:
            # the pre-checkpoint write came from the snapshot, the
            # post-checkpoint one from the epoch-1 WAL replay
            assert restored.count((0.0, 2000.0)) == want
            assert restored.delete(before) and restored.delete(after)

    def test_checkpoint_concurrent_with_writers_loses_nothing(self, dataset, tmp_path):
        directory = str(tmp_path / "ckpt-race")
        acknowledged: list[int] = []
        lock = threading.Lock()
        with ShardedEngine(dataset, num_shards=2) as engine:
            with RequestGateway(engine, max_batch_size=8) as gateway:

                def writer(base: float) -> None:
                    for i in range(30):
                        new_id = gateway.insert((base + i, base + i + 5.0), timeout=30)
                        with lock:
                            acknowledged.append(new_id)

                threads = [
                    threading.Thread(target=writer, args=(k * 100.0,)) for k in range(4)
                ]
                for t in threads:
                    t.start()
                for _ in range(3):  # checkpoints interleave with live writes
                    gateway.checkpoint(directory, timeout=60)
                for t in threads:
                    t.join()
                gateway.checkpoint(directory, timeout=60)
        assert len(acknowledged) == 120
        with ShardedEngine.open(directory) as restored:
            # every acknowledged insert is present and owned by a real shard
            assert restored.delete_many(acknowledged).all()

    def test_checkpoint_requires_snapshot_capable_engine(self, dataset):
        tree = AIT(dataset)  # batch API but no save_snapshot
        with RequestGateway(tree, start=False) as gateway:
            with pytest.raises(ValueError, match=r"snapshot"):
                gateway.submit("checkpoint")

    def test_checkpoint_error_lands_on_its_future_only(self, engine):
        # engine not attached to a directory and none given -> ValueError,
        # delivered on the checkpoint future; batch-mates are unaffected
        with RequestGateway(engine) as gateway:
            bad = gateway.submit("checkpoint")
            good = gateway.submit("count", (0.0, 10.0))
            with pytest.raises(ValueError, match=r"not attached"):
                bad.result(timeout=10)
            assert isinstance(good.result(timeout=10), int)


class TestBoundedIntake:
    """The v1.8 overload contract: submit sheds fast once the queue is full."""

    def test_submit_sheds_past_max_queue_depth(self, engine):
        from repro import GatewayOverloadError

        gateway = RequestGateway(engine, max_queue_depth=3, start=False)
        for _ in range(3):
            gateway.submit("count", (0.0, 10.0))
        with pytest.raises(GatewayOverloadError, match=r"max_queue_depth=3"):
            gateway.submit("count", (0.0, 10.0))
        stats = gateway.stats()
        assert stats["shed"] == {"count": 1}
        assert stats["queue"] == {"depth": 3, "max_queue_depth": 3}
        # draining the queue re-opens the intake
        assert gateway.process_pending() == 3
        future = gateway.submit("count", (0.0, 10.0))
        gateway.process_pending()
        assert isinstance(future.result(timeout=10), int)
        gateway.close()

    def test_shed_request_never_entered_the_queue(self, engine):
        from repro import GatewayOverloadError

        gateway = RequestGateway(engine, max_queue_depth=1, start=False)
        gateway.submit("count", (0.0, 10.0))
        with pytest.raises(GatewayOverloadError):
            gateway.submit("insert", (1.0, 2.0))
        stats = gateway.stats()
        # the shed insert was not recorded as a request and will never run
        assert stats["requests"] == {"count": 1}
        assert gateway.process_pending() == 1
        gateway.close()

    @pytest.mark.parametrize("depth", [0, None])
    def test_constructor_validation(self, engine, depth):
        # The queue is the only intake bound: there is no unbounded mode.
        with pytest.raises(ValueError, match=r"max_queue_depth must be an integer >= 1"):
            RequestGateway(engine, max_queue_depth=depth)


class TestTimeoutSemantics:
    """The v1.8 wrapper-timeout contract: cancel what has not started."""

    def test_wrapper_timeout_cancels_unstarted_request(self, engine):
        gateway = RequestGateway(engine, start=False)
        with pytest.raises(TimeoutError, match=r"cancelled before dispatch"):
            gateway.count((0.0, 10.0), timeout=0.05)
        stats = gateway.stats()
        assert stats["timed_out"] == {"count": 1}
        # the cancelled request is dropped at dispatch, not executed late
        assert gateway.process_pending() == 1
        assert gateway.stats()["completions"] == {}
        gateway.close()

    def test_timed_out_write_does_not_apply_invisibly(self, engine):
        before = engine.size
        gateway = RequestGateway(engine, start=False)
        with pytest.raises(TimeoutError, match=r"cancelled before dispatch"):
            gateway.insert((500.0, 510.0), timeout=0.05)
        gateway.process_pending()
        gateway.close()
        assert engine.size == before  # the write never landed

    def test_wrapper_timeout_does_not_mask_worker_timeout(self, engine):
        from repro import WorkerTimeoutError

        class _TimeoutingEngine:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def count_many(self, queries):
                raise WorkerTimeoutError("shard worker (pid 7) did not reply within 5s")

        with RequestGateway(_TimeoutingEngine(engine)) as gateway:
            # the request's own timeout-class error must surface, not be
            # rewritten into a wrapper wait-timeout
            with pytest.raises(WorkerTimeoutError, match=r"did not reply within"):
                gateway.count((0.0, 10.0), timeout=30)
