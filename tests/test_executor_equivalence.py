"""Cross-executor equivalence: inline and process placements are bit-identical.

The acceptance bar is that moving the scatter step off the owner process is
*observationally invisible*: for the same dataset, the same queries and the
same seed, the serial (inline) engine and a ``ProcessExecutor`` under both
``scatter="auto"`` and ``scatter="query"`` produce bit-identical
``count_many`` / ``total_weight_many`` / ``report_many`` rows and identical
``sample_many`` draws — including after ``insert_many`` / ``delete_many``
and the snapshot refresh that republishes shared segments.  Both places run
the same module-level op implementations
(:data:`repro.service.shm.SHARD_OPS`), so equality here is an end-to-end
check of the shared-memory pack/attach round-trip and of the
publish-on-version-bump protocol, not a tautology.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import ShardedEngine
from repro.service import ProcessExecutor

SHARD_COUNTS = (1, 2, 4, 8)
#: The equivalence matrix: the inline reference, then the process executor
#: under each scatter.  ``process`` uses the query scatter, which sends every
#: batch to the workers; ``process-auto`` answers these small batches inline.
EXECUTORS = ("serial", "process", "process-auto")
PROCESS_SETUPS = ("process", "process-auto")


def _make_engine(dataset, num_shards, executor):
    if executor in PROCESS_SETUPS:
        # An explicit two-worker pool exercises multi-worker routing (the
        # round-robin tile->worker assignment) even on single-core CI boxes,
        # where cpu_count would collapse the pool to one worker.
        scatter = "auto" if executor == "process-auto" else "query"
        return ShardedEngine(
            dataset,
            num_shards=num_shards,
            executor=ProcessExecutor(max_workers=2, scatter=scatter),
        )
    return ShardedEngine(dataset, num_shards=num_shards, executor=executor)


def _close(engine):
    # A caller-supplied ProcessExecutor is not owned by the engine: shut it
    # down explicitly so worker processes and shared segments never outlive
    # the test.
    executor = engine._executor
    engine.close()
    if isinstance(executor, ProcessExecutor):
        executor.shutdown()


@pytest.fixture
def dataset(make_random_dataset):
    return make_random_dataset(n=600, seed=31)


@pytest.fixture
def weighted(make_random_dataset):
    return make_random_dataset(n=400, seed=32, weighted=True)


@pytest.fixture
def queries(dataset, make_queries):
    batch = []
    for extent in (0.02, 0.1, 0.5):
        batch.extend(make_queries(dataset, count=8, extent=extent, seed=int(extent * 1000)))
    lo, hi = dataset.domain()
    batch.append((lo - 1.0, hi + 1.0))   # full-domain query
    batch.append((hi + 5.0, hi + 6.0))   # empty query
    return batch


def _read_all(engine, queries, seed):
    """One deterministic read of every query op, as comparable plain arrays."""
    counts = engine.count_many(queries)
    weights = engine.total_weight_many(queries)
    reports = engine.report_many(queries)
    draws = engine.sample_many(queries, 16, random_state=np.random.default_rng(seed))
    return counts, weights, reports, draws


def _assert_identical(got, expected):
    counts, weights, reports, draws = got
    exp_counts, exp_weights, exp_reports, exp_draws = expected
    assert np.array_equal(counts, exp_counts)
    assert counts.dtype == exp_counts.dtype
    # Bitwise float equality, deliberately: the per-shard reduction order is
    # fixed (shard-major sum), so even float64 weights must match exactly.
    assert np.array_equal(weights, exp_weights)
    assert len(reports) == len(exp_reports)
    for row, exp_row in zip(reports, exp_reports):
        assert np.array_equal(row, exp_row)
    assert len(draws) == len(exp_draws)
    for row, exp_row in zip(draws, exp_draws):
        assert np.array_equal(row, exp_row)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_executors_bit_identical_static(dataset, queries, num_shards):
    serial = _make_engine(dataset, num_shards, "serial")
    try:
        expected = _read_all(serial, queries, seed=901)
    finally:
        _close(serial)
    assert serial.executor_kind == "serial"
    for name in PROCESS_SETUPS:
        engine = _make_engine(dataset, num_shards, name)
        try:
            assert engine.executor_kind == "process"
            _assert_identical(_read_all(engine, queries, seed=901), expected)
        finally:
            _close(engine)


@pytest.mark.parametrize("num_shards", (2, 4))
def test_executors_bit_identical_weighted(weighted, make_queries, num_shards):
    batch = make_queries(weighted, count=20, extent=0.1, seed=9)
    serial = _make_engine(weighted, num_shards, "serial")
    try:
        assert serial.is_weighted
        expected = _read_all(serial, batch, seed=77)
    finally:
        _close(serial)
    for name in PROCESS_SETUPS:
        engine = _make_engine(weighted, num_shards, name)
        try:
            _assert_identical(_read_all(engine, batch, seed=77), expected)
        finally:
            _close(engine)


@pytest.mark.parametrize("num_shards", (1, 4))
def test_executors_bit_identical_after_updates(dataset, queries, num_shards):
    """Writes + refresh republish shared segments; reads must stay identical.

    The write schedule is identical on every engine (same trial RNG seed), so
    after each round the engines hold the same logical dataset and every read
    must agree bit-for-bit with the serial reference — this is the randomized
    seeded-trials form of the acceptance criterion.
    """
    engines = {name: _make_engine(dataset, num_shards, name) for name in EXECUTORS}
    try:
        for round_seed in (101, 202, 303):
            trial = np.random.default_rng(round_seed)
            lo, hi = dataset.domain()
            lefts = trial.uniform(lo, hi, 12)
            rights = lefts + trial.exponential((hi - lo) / 40.0, 12)
            victims = trial.integers(0, len(dataset), 5)

            new_ids = {}
            for name, engine in engines.items():
                new_ids[name] = engine.insert_many(lefts, rights)
                engine.delete_many(victims)
                engine.refresh()
            # Global id assignment is part of the observable contract.
            for name in PROCESS_SETUPS:
                assert np.array_equal(new_ids[name], new_ids["serial"])

            expected = _read_all(engines["serial"], queries, seed=round_seed)
            for name in PROCESS_SETUPS:
                _assert_identical(_read_all(engines[name], queries, seed=round_seed), expected)
    finally:
        for engine in engines.values():
            _close(engine)


@pytest.mark.parametrize("num_shards", (1, 2, 4))
@pytest.mark.parametrize("block_size", (1, 7, None))
def test_query_scatter_bit_identical(dataset, queries, num_shards, block_size):
    """The query-parallel scatter matches serial for every tiling of the batch.

    ``block_size=None`` is the even-split default; 1 and 7 force tile cuts at
    every position and at an odd stride, with no rounding of the tiles.
    """
    serial = _make_engine(dataset, num_shards, "serial")
    try:
        expected = _read_all(serial, queries, seed=511)
    finally:
        _close(serial)
    executor = ProcessExecutor(max_workers=2, scatter="query", block_size=block_size)
    engine = ShardedEngine(dataset, num_shards=num_shards, executor=executor)
    try:
        assert engine.scatter == "query"
        _assert_identical(_read_all(engine, queries, seed=511), expected)
    finally:
        _close(engine)


def test_query_scatter_bit_identical_weighted(weighted, make_queries):
    """Weighted sampling under query tiling: draws still match serial exactly."""
    batch = make_queries(weighted, count=33, extent=0.1, seed=12)
    serial = _make_engine(weighted, 4, "serial")
    try:
        expected = _read_all(serial, batch, seed=88)
    finally:
        _close(serial)
    executor = ProcessExecutor(max_workers=2, scatter="query", block_size=7)
    engine = ShardedEngine(weighted, num_shards=4, executor=executor)
    try:
        _assert_identical(_read_all(engine, batch, seed=88), expected)
    finally:
        _close(engine)


def test_query_scatter_bit_identical_after_updates(dataset, queries):
    """Version bumps republish to every worker; query tiles stay identical."""
    executor = ProcessExecutor(max_workers=2, scatter="query", block_size=7)
    serial = _make_engine(dataset, 2, "serial")
    engine = ShardedEngine(dataset, num_shards=2, executor=executor)
    try:
        for round_seed in (404, 505):
            trial = np.random.default_rng(round_seed)
            lo, hi = dataset.domain()
            lefts = trial.uniform(lo, hi, 12)
            rights = lefts + trial.exponential((hi - lo) / 40.0, 12)
            victims = trial.integers(0, len(dataset), 5)
            for eng in (serial, engine):
                eng.insert_many(lefts, rights)
                eng.delete_many(victims)
                eng.refresh()
            expected = _read_all(serial, queries, seed=round_seed)
            _assert_identical(_read_all(engine, queries, seed=round_seed), expected)
    finally:
        _close(serial)
        _close(engine)


def test_query_scatter_survives_worker_death_mid_block_schedule(dataset, queries):
    """A worker dies holding half the tiles; respawn replays and re-answers.

    With ``block_size=1`` every query is its own tile, so the killed worker
    owned tiles interleaved through the whole batch — the respawn must replay
    every segment manifest (each worker serves all shards under the query
    scatter) and the reassembly must still restore submission order.
    """
    executor = ProcessExecutor(max_workers=2, scatter="query", block_size=1)
    engine = ShardedEngine(dataset, num_shards=4, executor=executor)
    try:
        expected = engine.count_many(queries)
        draws = engine.sample_many(queries, 16, random_state=np.random.default_rng(3))
        before = executor.worker_pids()
        executor.kill_worker(0)
        assert np.array_equal(engine.count_many(queries), expected)
        again = engine.sample_many(queries, 16, random_state=np.random.default_rng(3))
        for row, exp_row in zip(again, draws):
            assert np.array_equal(row, exp_row)
        after = executor.worker_pids()
        assert after[0] != before[0]       # a fresh process took slot 0
        assert after[1:] == before[1:]     # the survivor kept serving
    finally:
        engine.close()
        executor.shutdown()


def _psm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created (Linux)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # no /dev/shm: nothing to compare
        return set()


def _read_op(engine, op, batch, seed):
    if op == "count":
        return engine.count_many(batch)
    if op == "total_weight":
        return engine.total_weight_many(batch)
    if op == "report":
        return engine.report_many(batch)
    return engine.sample_many(batch, 16, random_state=np.random.default_rng(seed))


def _assert_rows_identical(got, expected):
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        return
    assert len(got) == len(expected)
    for row, exp_row in zip(got, expected):
        assert np.array_equal(row, exp_row)


@pytest.mark.parametrize("weighted_data", (False, True), ids=("unweighted", "weighted"))
@pytest.mark.parametrize("op", ("count", "total_weight", "report", "sample"))
def test_auto_scatter_matches_serial_on_both_sides_of_threshold(
    dataset, weighted, make_queries, op, weighted_data
):
    """``scatter="auto"`` places a batch by op and size; both sides match serial.

    Below :data:`AUTO_QUERY_THRESHOLD` every op runs inline: no worker is
    spawned and no segment is published.  At and above it only ``sample``
    goes to the workers (under the query scatter); its count pre-pass and
    every other op still run inline.
    """
    from repro.service.executor import AUTO_QUERY_THRESHOLD

    data = weighted if weighted_data else dataset
    small = make_queries(data, count=AUTO_QUERY_THRESHOLD - 1, extent=0.05, seed=21)
    large = make_queries(data, count=AUTO_QUERY_THRESHOLD, extent=0.05, seed=22)
    serial = _make_engine(data, 2, "serial")
    executor = ProcessExecutor(max_workers=2, scatter="auto")
    engine = ShardedEngine(data, num_shards=2, executor=executor)
    segments = _psm_segments()
    try:
        assert engine.scatter == "auto"
        _assert_rows_identical(
            _read_op(engine, op, small, seed=61), _read_op(serial, op, small, seed=61)
        )
        scatters = 2 if op == "sample" else 1  # sample scatters a count pass first
        assert executor.placements == {"inline": scatters, "query": 0}
        assert executor.num_workers == 0
        assert _psm_segments() == segments

        _assert_rows_identical(
            _read_op(engine, op, large, seed=62), _read_op(serial, op, large, seed=62)
        )
        if op == "sample":
            assert executor.placements == {"inline": 3, "query": 1}
            assert executor.num_workers == 2
            assert len(_psm_segments() - segments) >= 2  # one base per shard
        else:
            assert executor.placements == {"inline": 2, "query": 0}
            assert executor.num_workers == 0
            assert _psm_segments() == segments
        assert engine.placements == executor.placements
    finally:
        _close(serial)
        _close(engine)
    assert _psm_segments() <= segments


def test_auto_scatter_small_reads_after_writes_publish_nothing(
    dataset, queries, make_queries, monkeypatch
):
    """Writes followed by small reads republish nothing; the next big sample
    batch republishes the overlay (not the base) and serves no stale segment."""
    from repro.service import executor as executor_module
    from repro.service.executor import AUTO_QUERY_THRESHOLD

    published = []
    for name in ("publish_shard", "publish_overlay"):
        original = getattr(executor_module, name)
        monkeypatch.setattr(
            executor_module,
            name,
            lambda shard, _name=name, _fn=original: published.append(_name) or _fn(shard),
        )

    large = make_queries(dataset, count=AUTO_QUERY_THRESHOLD + 9, extent=0.05, seed=23)
    serial = _make_engine(dataset, 2, "serial")
    executor = ProcessExecutor(max_workers=2, scatter="auto")
    engine = ShardedEngine(dataset, num_shards=2, executor=executor)
    try:
        _assert_rows_identical(
            _read_op(engine, "sample", large, seed=71), _read_op(serial, "sample", large, seed=71)
        )
        assert published.count("publish_shard") == 2
        del published[:]

        for round_seed in (808, 909):
            trial = np.random.default_rng(round_seed)
            lo, hi = dataset.domain()
            lefts = trial.uniform(lo, hi, 12)
            rights = lefts + trial.exponential((hi - lo) / 40.0, 12)
            victims = trial.integers(0, len(dataset), 5)
            for eng in (serial, engine):
                eng.insert_many(lefts, rights)
                eng.delete_many(victims)
            # Every small read runs inline on the refreshed shards.
            _assert_identical(
                _read_all(engine, queries, seed=round_seed),
                _read_all(serial, queries, seed=round_seed),
            )
        assert published == []

        _assert_rows_identical(
            _read_op(engine, "sample", large, seed=72), _read_op(serial, "sample", large, seed=72)
        )
        assert sorted(published) == ["publish_overlay", "publish_overlay"]
        assert executor.placements["query"] == 2
    finally:
        _close(serial)
        _close(engine)


def test_process_executor_survives_worker_death(dataset, queries):
    """A killed worker respawns, replays its segment manifests and re-answers."""
    executor = ProcessExecutor(max_workers=2, scatter="query")
    engine = ShardedEngine(dataset, num_shards=4, executor=executor)
    try:
        expected = engine.count_many(queries)
        before = executor.worker_pids()
        executor.kill_worker(0)
        assert np.array_equal(engine.count_many(queries), expected)
        after = executor.worker_pids()
        assert after[0] != before[0]       # a fresh process took slot 0
        assert after[1:] == before[1:]     # the survivor kept serving
    finally:
        engine.close()
        executor.shutdown()


def test_empty_batches_run_inline_under_query_scatter(dataset):
    """A 0-query batch spawns no worker and publishes nothing, even under ``query``."""
    executor = ProcessExecutor(max_workers=2, scatter="query")
    engine = ShardedEngine(dataset, num_shards=2, executor=executor)
    segments = _psm_segments()
    try:
        assert engine.count_many([]).shape == (0,)
        assert engine.total_weight_many([]).shape == (0,)
        assert engine.report_many([]) == []
        assert engine.sample_many([], 8, random_state=1) == []
        assert executor.num_workers == 0
        assert executor.placements["query"] == 0
        assert _psm_segments() == segments
    finally:
        _close(engine)


def test_sample_draws_match_across_seeds(dataset):
    """Same seed => same draws; different seed => (almost surely) different."""
    queries = [(100.0, 400.0)]
    serial = _make_engine(dataset, 4, "serial")
    process = _make_engine(dataset, 4, "process")
    try:
        a = serial.sample_many(queries, 64, random_state=np.random.default_rng(5))[0]
        b = process.sample_many(queries, 64, random_state=np.random.default_rng(5))[0]
        c = process.sample_many(queries, 64, random_state=np.random.default_rng(6))[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(b, c)
    finally:
        _close(serial)
        _close(process)


def _captured_sample_payload(engine, queries, seed):
    """The ``sample`` payload ``engine.sample_many`` hands to its shards."""
    captured = []
    scatter = engine._scatter

    def spy(op, payload):
        if op == "sample":
            captured.append(payload)
        return scatter(op, payload)

    engine._scatter = spy
    try:
        engine.sample_many(queries, 16, random_state=np.random.default_rng(seed))
    finally:
        del engine._scatter
    (payload,) = captured
    return payload


def _overlaid_engine(dataset, queries):
    """Two shards with overlays: inserts, and deletes that tombstone 30% and
    70% of two queries' base overlap (the rejection and report paths)."""
    engine = ShardedEngine(dataset, num_shards=2)
    trial = np.random.default_rng(44)
    for query, share in ((queries[0], 0.3), (queries[9], 0.7)):
        overlap = engine.report(query)
        engine.delete_many(trial.choice(overlap, int(share * overlap.shape[0]), replace=False))
    lo, hi = dataset.domain()
    lefts = trial.uniform(lo, hi, 20)
    engine.insert_many(lefts, lefts + (hi - lo) / 50.0)
    engine.refresh()
    return engine


@pytest.mark.parametrize("kind", ("base", "weighted", "overlaid"))
def test_shm_sample_tiles_concatenate_to_the_whole_batch(dataset, weighted, queries, kind):
    """Any cut of a sample payload into query tiles reproduces the whole batch.

    Runs the shard op in-process over :func:`slice_payload` cuts of 1, 7 and
    13 queries: concatenating the tiles' results must equal the whole-batch
    result on every shard, including an overlaid shard whose tombstones
    force hashed redraws.
    """
    from repro.service.shm import ShardView, run_shard_op, slice_payload

    if kind == "weighted":
        engine = ShardedEngine(weighted, num_shards=3)
    elif kind == "overlaid":
        engine = _overlaid_engine(dataset, queries)
        assert all(shard.overlay is not None for shard in engine.shards)
    else:
        engine = ShardedEngine(dataset, num_shards=3)
    with engine:
        payload = _captured_sample_payload(engine, queries, seed=29)
        nq = payload["ql"].shape[0]
        for shard in engine.shards:
            view = ShardView.of_shard(shard)
            whole = run_shard_op("sample", view, payload)
            assert (whole >= 0).all()
            for cut in (1, 7, 13):
                tiles = [
                    run_shard_op("sample", view, slice_payload(payload, start, start + cut))
                    for start in range(0, nq, cut)
                ]
                assert np.array_equal(np.concatenate(tiles), whole)
