"""Contract tests for the public exception hierarchy.

Every validation error exported from ``repro.core.errors`` is exercised here:
one parametrised case per raise site, asserting both the exception *type* and
the *message* so error-handling code downstream can rely on them.  The
hierarchy tests pin the dual-inheritance contract (each domain error also
derives from the matching builtin) that lets callers catch either the repro
type or the builtin they already handle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AIT,
    EmptyDatasetError,
    EmptyResultError,
    FlatAIT,
    GatewayClosedError,
    GatewayOverloadError,
    Interval,
    IntervalDataset,
    InvalidIntervalError,
    InvalidQueryError,
    InvalidWeightError,
    PersistenceError,
    ReproError,
    RequestGateway,
    ShardedEngine,
    SnapshotCorruptError,
    StructureStateError,
    UnsupportedOperationError,
    WALCorruptError,
    WorkerCrashError,
    WorkerFailureError,
    WorkerTimeoutError,
)
from repro.core.query import coerce_query, coerce_query_batch, validate_sample_size
from repro.service import EXECUTOR_NAMES, resolve_executor


def _dataset(n: int = 8) -> IntervalDataset:
    lefts = np.arange(n, dtype=np.float64)
    return IntervalDataset(lefts, lefts + 2.0)


# --------------------------------------------------------------------------- #
# hierarchy
# --------------------------------------------------------------------------- #
class TestHierarchy:
    @pytest.mark.parametrize(
        ("exc_type", "builtin"),
        [
            (InvalidIntervalError, ValueError),
            (InvalidQueryError, ValueError),
            (InvalidWeightError, ValueError),
            (EmptyDatasetError, ValueError),
            (EmptyResultError, LookupError),
            (StructureStateError, RuntimeError),
            (UnsupportedOperationError, NotImplementedError),
            (GatewayClosedError, RuntimeError),
            (GatewayOverloadError, RuntimeError),
            (WorkerTimeoutError, TimeoutError),
            (WorkerCrashError, RuntimeError),
            (PersistenceError, OSError),
            (SnapshotCorruptError, OSError),
            (WALCorruptError, OSError),
        ],
    )
    def test_dual_inheritance(self, exc_type, builtin):
        assert issubclass(exc_type, ReproError)
        assert issubclass(exc_type, builtin)

    def test_gateway_closed_is_structure_state(self):
        # Pre-1.4 callers caught StructureStateError/RuntimeError on a closed
        # gateway; GatewayClosedError must remain catchable that way.
        assert issubclass(GatewayClosedError, StructureStateError)

    def test_gateway_overload_is_structure_state(self):
        # Overload shedding (v1.8) rides the same hierarchy: callers that
        # already catch StructureStateError keep working under load shedding.
        assert issubclass(GatewayOverloadError, StructureStateError)

    def test_worker_timeout_is_builtin_timeout(self):
        # Pre-1.8 the executor op-timeout raised a bare TimeoutError; the
        # typed WorkerTimeoutError must remain catchable the old way.
        assert issubclass(WorkerTimeoutError, TimeoutError)

    def test_worker_errors_share_one_base(self):
        # The front end feeds exactly WorkerFailureError to its breaker.
        assert issubclass(WorkerTimeoutError, WorkerFailureError)
        assert issubclass(WorkerCrashError, WorkerFailureError)

    def test_persistence_errors_refine_persistence_error(self):
        assert issubclass(SnapshotCorruptError, PersistenceError)
        assert issubclass(WALCorruptError, PersistenceError)


# --------------------------------------------------------------------------- #
# query validation (coerce_query / coerce_query_batch / validate_sample_size)
# --------------------------------------------------------------------------- #
class TestQueryValidation:
    @pytest.mark.parametrize(
        ("query", "match"),
        [
            ((5.0, 1.0), r"left endpoint must not exceed right endpoint"),
            ((float("nan"), 1.0), r"endpoints must be finite"),
            ((0.0, float("inf")), r"endpoints must be finite"),
            (("a", "b"), r"endpoints must be numbers"),
            (object(), r"must be an Interval or a \(left, right\) pair"),
            ((1.0, 2.0, 3.0), r"must be an Interval or a \(left, right\) pair"),
        ],
    )
    def test_coerce_query(self, query, match):
        with pytest.raises(InvalidQueryError, match=match):
            coerce_query(query)

    def test_coerce_query_batch_bad_dtype(self):
        bad = np.array([["a", "b"]], dtype=object)
        with pytest.raises(InvalidQueryError, match=r"numeric endpoints, got dtype"):
            coerce_query_batch(bad)

    def test_coerce_query_batch_inverted_row_reports_detail(self):
        batch = np.array([[0.0, 1.0], [9.0, 2.0]])
        with pytest.raises(InvalidQueryError, match=r"must not exceed right endpoint"):
            coerce_query_batch(batch)

    @pytest.mark.parametrize(
        ("size", "match"),
        [
            (-1, r"must be non-negative"),
            (1.5, r"must be an integer"),
            ("three", r"must be an integer"),
        ],
    )
    def test_validate_sample_size(self, size, match):
        with pytest.raises(InvalidQueryError, match=match):
            validate_sample_size(size)


# --------------------------------------------------------------------------- #
# interval / dataset construction
# --------------------------------------------------------------------------- #
class TestIntervalValidation:
    def test_interval_inverted(self):
        with pytest.raises(InvalidIntervalError, match=r"must not exceed right endpoint"):
            Interval(2.0, 1.0)

    def test_interval_nonfinite(self):
        with pytest.raises(InvalidIntervalError, match=r"must be finite"):
            Interval(float("nan"), 1.0)

    def test_interval_negative_weight(self):
        with pytest.raises(InvalidWeightError, match=r"finite and non-negative"):
            Interval(0.0, 1.0, weight=-1.0)

    @pytest.mark.parametrize(
        ("lefts", "rights", "weights", "exc_type", "match"),
        [
            ([1.0, 2.0], [3.0], None, InvalidIntervalError, r"equal length"),
            ([[1.0]], [[2.0]], None, InvalidIntervalError, r"one-dimensional"),
            ([2.0], [1.0], None, InvalidIntervalError, r"left endpoint 2.0 > right endpoint"),
            ([float("nan")], [1.0], None, InvalidIntervalError, r"must be finite"),
            ([0.0], [1.0], [1.0, 2.0], InvalidWeightError, r"same length as the endpoints"),
            ([0.0], [1.0], [-1.0], InvalidWeightError, r"finite and non-negative"),
            ([0.0], [1.0], [float("inf")], InvalidWeightError, r"finite and non-negative"),
            ([0.0] * 4, [1.0] * 4, [1e308] * 4, InvalidWeightError, r"finite sum"),
        ],
    )
    def test_dataset_construction(self, lefts, rights, weights, exc_type, match):
        with pytest.raises(exc_type, match=match):
            IntervalDataset(lefts, rights, weights=weights)

    def test_flat_columns_reject_an_overflowing_weight_total(self):
        # Each weight is finite; their float64 sum is not.
        with pytest.raises(InvalidWeightError, match=r"finite sum, got a sum of inf over 4"):
            FlatAIT.from_arrays([0.0] * 4, [1.0] * 4, weights=[1e308] * 4)

    def test_empty_dataset_domain(self):
        with pytest.raises(EmptyDatasetError, match=r"domain\(\) of an empty dataset"):
            IntervalDataset([], []).domain()

    def test_empty_dataset_index_build(self):
        with pytest.raises(EmptyDatasetError, match=r"non-empty"):
            AIT(IntervalDataset([], []))


# --------------------------------------------------------------------------- #
# tree update validation
# --------------------------------------------------------------------------- #
class TestTreeUpdateValidation:
    def test_insert_malformed(self):
        tree = AIT(_dataset())
        with pytest.raises(InvalidIntervalError, match=r"insert expects an Interval"):
            tree.insert(object())

    def test_insert_inverted(self):
        tree = AIT(_dataset())
        with pytest.raises(InvalidIntervalError, match=r"must not exceed right endpoint"):
            tree.insert((5.0, 1.0))

    def test_insert_many_ragged(self):
        tree = AIT(_dataset())
        with pytest.raises(InvalidIntervalError, match=r"equally long columns"):
            tree.insert_many([0.0], [1.0, 2.0])

    def test_insert_many_nonfinite(self):
        tree = AIT(_dataset())
        with pytest.raises(InvalidIntervalError, match=r"must be finite.*at position 1"):
            tree.insert_many([0.0, float("nan")], [1.0, 2.0])


# --------------------------------------------------------------------------- #
# engine / gateway state errors
# --------------------------------------------------------------------------- #
class TestServiceStateErrors:
    def test_weighted_engine_rejects_insert(self):
        data = IntervalDataset([0.0, 1.0], [2.0, 3.0], weights=[1.0, 2.0])
        engine = ShardedEngine(data, num_shards=2)
        try:
            with pytest.raises(StructureStateError, match=r"weighted engines are static"):
                engine.insert_many([0.0], [1.0])
            with pytest.raises(StructureStateError, match=r"weighted engines are static"):
                engine.delete_many([0])
        finally:
            engine.close()

    def test_shard_of_unknown_id(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        try:
            with pytest.raises(KeyError, match=r"never assigned"):
                engine.shard_of(10**9)
        finally:
            engine.close()

    def test_sample_many_empty_result_raises(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        try:
            with pytest.raises(EmptyResultError, match=r"matched no intervals"):
                engine.sample_many(
                    np.array([[1e6, 1e6 + 1.0]]), 4, on_empty="raise", random_state=0
                )
        finally:
            engine.close()

    def test_gateway_submit_after_close(self):
        with ShardedEngine(_dataset(), num_shards=2) as engine:
            gateway = RequestGateway(engine)
            gateway.close()
            with pytest.raises(GatewayClosedError, match=r"gateway is closed"):
                gateway.submit("count", (0.0, 5.0))

    def test_gateway_malformed_query(self):
        with ShardedEngine(_dataset(), num_shards=2) as engine:
            with RequestGateway(engine) as gateway:
                with pytest.raises(InvalidQueryError, match=r"Interval or a \(left, right\) pair"):
                    gateway.submit("count", object())

    def test_gateway_submit_when_overloaded(self):
        with ShardedEngine(_dataset(), num_shards=2) as engine:
            gateway = RequestGateway(engine, max_queue_depth=2, start=False)
            gateway.submit("count", (0.0, 5.0))
            gateway.submit("count", (0.0, 5.0))
            with pytest.raises(
                GatewayOverloadError,
                match=r"gateway overloaded: 2 requests queued \(max_queue_depth=2\)",
            ):
                gateway.submit("count", (0.0, 5.0))
            gateway.close()

    def test_worker_op_timeout(self):
        """The executor's op-timeout raise site: typed error, pinned message."""
        import queue as queue_module

        from repro.service import ProcessExecutor
        from repro.service.executor import _Worker

        class _StubProcess:
            pid = 4242
            killed = False

            def is_alive(self):
                return not self.killed

            def kill(self):
                self.killed = True

            def join(self, timeout=None):
                pass

        class _StubQueue:
            def get(self, timeout=None):
                raise queue_module.Empty

        executor = ProcessExecutor(op_timeout=0.01)
        worker = _Worker(_StubProcess(), _StubQueue(), _StubQueue())
        try:
            with pytest.raises(
                WorkerTimeoutError,
                match=r"shard worker \(pid 4242\) did not reply within 0s",
            ):
                executor._await(worker, 1, ("op",))
            # killed, so a late reply can never reach a later batch
            assert worker.process.killed
        finally:
            executor._workers.clear()
            executor.shutdown()

    def test_worker_respawn_cap(self):
        """The executor's respawn-cap raise site: typed error, pinned message."""
        import queue as queue_module

        from repro.service import ProcessExecutor
        from repro.service.executor import MAX_RESPAWNS, _Worker

        class _DeadProcess:
            pid = 4242

            def is_alive(self):
                return False

            def join(self, timeout=None):
                pass

        class _StubQueue:
            def get(self, timeout=None):
                raise queue_module.Empty

            def put(self, item):
                pass

            def close(self):
                pass

        spawned = []

        def spawn():
            spawned.append(_Worker(_DeadProcess(), _StubQueue(), _StubQueue()))
            return spawned[-1]

        executor = ProcessExecutor()
        executor._spawn = spawn
        worker = _Worker(_DeadProcess(), _StubQueue(), _StubQueue())
        try:
            with pytest.raises(
                WorkerCrashError,
                match=rf"shard worker died {MAX_RESPAWNS + 1} times in a row",
            ):
                executor._await(worker, 1, ("op",))
            assert len(spawned) == MAX_RESPAWNS
            assert worker.respawns == 0  # the next batch gets a fresh budget
        finally:
            executor._workers.clear()
            executor.shutdown()

    def test_kill_worker_without_a_worker(self):
        """Under auto, small reads never spawn a worker; killing one is an error."""
        from repro.service import ProcessExecutor

        with ShardedEngine(_dataset(), num_shards=2, executor="process") as engine:
            engine.count_many([(0.0, 5.0)])
            with pytest.raises(RuntimeError, match=r"ProcessExecutor has no worker to kill"):
                engine._executor.kill_worker(0)
        with pytest.raises(RuntimeError, match=r"no worker to kill"):
            ProcessExecutor(scatter="query").kill_worker(0)


# --------------------------------------------------------------------------- #
# executor resolution (resolve_executor)
# --------------------------------------------------------------------------- #
class _MapOnly:
    """An object with ``map(fn, items)``: no longer an executor."""

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestExecutorResolution:
    def test_executor_names(self):
        assert EXECUTOR_NAMES == ("serial", "process")

    @pytest.mark.parametrize("name", [None, "serial"])
    def test_serial_resolves_to_inline(self, name):
        assert resolve_executor(name) == (None, False)

    def test_process_name_resolves_to_an_owned_executor(self):
        from repro.service import ProcessExecutor

        executor, owned = resolve_executor("process")
        try:
            assert owned is True
            assert isinstance(executor, ProcessExecutor)
            assert executor.kind == "process"
        finally:
            executor.shutdown()

    @pytest.mark.parametrize("name", ["processes", "thread", "threads", "fork", ""])
    def test_unknown_name_raises_value_error(self, name):
        with pytest.raises(
            ValueError,
            match=r"unknown executor name .*: expected one of 'serial', 'process'",
        ):
            resolve_executor(name)

    @pytest.mark.parametrize("executor", [object(), _MapOnly()], ids=["object", "map-object"])
    def test_non_executor_object_raises_type_error(self, executor):
        with pytest.raises(
            TypeError, match=r"executor must be None, 'serial', 'process' or a ProcessExecutor"
        ):
            resolve_executor(executor)

    def test_process_executor_object_is_adopted_not_owned(self):
        from repro.service import ProcessExecutor

        custom = ProcessExecutor()
        try:
            executor, owned = resolve_executor(custom)
            assert executor is custom
            assert owned is False
        finally:
            custom.shutdown()

    def test_engine_surfaces_unknown_executor_name(self):
        with pytest.raises(ValueError, match=r"unknown executor name 'procces'"):
            ShardedEngine(_dataset(), num_shards=2, executor="procces")

    @pytest.mark.parametrize("mode", ["queries", "shard", "data", ""])
    def test_unknown_scatter_mode_raises_value_error(self, mode):
        from repro.service import ProcessExecutor

        with pytest.raises(
            ValueError,
            match=r"unknown scatter mode .*: expected one of 'query', 'auto'",
        ):
            ProcessExecutor(scatter=mode)

    @pytest.mark.parametrize("block_size", [0, -3])
    def test_non_positive_block_size_raises_value_error(self, block_size):
        from repro.service import ProcessExecutor

        with pytest.raises(ValueError, match=r"block_size must be a positive integer"):
            ProcessExecutor(scatter="query", block_size=block_size)

    @pytest.mark.parametrize("max_workers", [0, -3])
    def test_non_positive_max_workers_raises_value_error(self, max_workers):
        from repro.service import ProcessExecutor

        with pytest.raises(ValueError, match=r"max_workers must be a positive integer"):
            ProcessExecutor(max_workers=max_workers)

    @pytest.mark.parametrize("op_timeout", [0, -1, float("nan"), float("inf")])
    def test_bad_op_timeout_raises_value_error(self, op_timeout):
        from repro.service import ProcessExecutor

        with pytest.raises(ValueError, match=r"op_timeout must be finite and positive"):
            ProcessExecutor(op_timeout=op_timeout)
