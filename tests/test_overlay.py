"""Base + overlay shards: differential checks against the exhaustive oracle.

Every shard serves an immutable base snapshot plus an overlay (a delta index
over the inserts since the last compaction and tombstones for deleted base
ids).  These tests drive seeded random interleavings of writes, reads,
checkpoints and reopens through every executor and scatter, and check each
answer against :class:`repro.baselines.ExhaustiveScan` over the live set.
They also gate the sampler's exactness on the two tombstone paths
(rejection, and report-and-filter past 50%) and its termination on stale
allocations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import IntervalDataset, ShardedEngine
from repro.baselines import ExhaustiveScan
from repro.core.flat import FlatAIT
from repro.service import ProcessExecutor
from repro.service import shm
from repro.service.shard import COMPACT_WORK
from repro.service.shm import ShardView, run_shard_op
from repro.stats import chi_square_uniformity

DOMAIN = 1000.0

#: Executor set-ups: (name, executor factory or name).
SETUPS = {
    "serial": lambda: "serial",
    "process-query": lambda: ProcessExecutor(max_workers=2, scatter="query", block_size=5),
    "process-query-split": lambda: ProcessExecutor(max_workers=2, scatter="query"),
}


class Oracle:
    """Every interval ever assigned, by global id, and which are live."""

    def __init__(self, lefts: np.ndarray, rights: np.ndarray) -> None:
        self.lefts = np.asarray(lefts, dtype=np.float64).copy()
        self.rights = np.asarray(rights, dtype=np.float64).copy()
        self.alive = np.ones(self.lefts.shape[0], dtype=bool)

    def insert(self, ids, lefts, rights) -> None:
        assert ids.tolist() == list(range(self.lefts.shape[0], self.lefts.shape[0] + len(ids)))
        self.lefts = np.concatenate((self.lefts, lefts))
        self.rights = np.concatenate((self.rights, rights))
        self.alive = np.concatenate((self.alive, np.ones(len(ids), dtype=bool)))

    def delete(self, ids) -> np.ndarray:
        flags = []
        for g in ids:
            ok = 0 <= g < self.alive.shape[0] and bool(self.alive[g])
            if ok:
                self.alive[g] = False
            flags.append(ok)
        return np.asarray(flags)

    def overlapping(self, query) -> np.ndarray:
        """Global ids of the live intervals overlapping ``query`` (via the exhaustive scan)."""
        live = np.flatnonzero(self.alive)
        if live.shape[0] == 0:
            return live
        scan = ExhaustiveScan(IntervalDataset(self.lefts[live], self.rights[live]))
        return live[scan.report(query)]


def _queries(rng, count: int = 24) -> list[tuple[float, float]]:
    lefts = rng.uniform(-20.0, DOMAIN, count)
    return [(float(l), float(l + w)) for l, w in zip(lefts, rng.exponential(60.0, count))]


def _check(engine, oracle: Oracle, queries, seed: int) -> None:
    expected = [oracle.overlapping(q) for q in queries]
    counts = engine.count_many(queries)
    assert counts.tolist() == [len(e) for e in expected]
    assert engine.total_weight_many(queries).tolist() == [float(len(e)) for e in expected]
    for row, want in zip(engine.report_many(queries), expected):
        assert sorted(row.tolist()) == want.tolist()
    draws = engine.sample_many(queries, 12, random_state=seed)
    for row, want in zip(draws, expected):
        if want.shape[0] == 0:
            assert row.shape[0] == 0
        else:
            assert row.shape[0] == 12
            assert np.isin(row, want).all()
    assert engine.size == int(oracle.alive.sum())


def _open(directory, setup):
    return ShardedEngine.open(directory, executor=SETUPS[setup]())


def _close(engine) -> None:
    executor = engine._executor
    engine.close()
    if isinstance(executor, ProcessExecutor):
        executor.shutdown()


def _base_dataset(rng, n: int):
    lefts = rng.uniform(0.0, DOMAIN, n)
    return lefts, lefts + rng.exponential(DOMAIN / 60.0, n)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_random_interleavings_match_exhaustive_oracle(setup, tmp_path):
    rng = np.random.default_rng(20)
    lefts, rights = _base_dataset(rng, 1500)
    oracle = Oracle(lefts, rights)
    engine = ShardedEngine(
        IntervalDataset(lefts, rights), num_shards=3, executor=SETUPS[setup]()
    )
    queries = _queries(rng)
    directory = tmp_path / "engine"
    rebuilt = False
    try:
        for step in range(28):
            action = step % 7
            if action in (0, 3):
                k = int(rng.integers(1, 80))
                new_l = rng.uniform(0.0, DOMAIN, k)
                new_r = new_l + rng.exponential(DOMAIN / 60.0, k)
                oracle.insert(engine.insert_many(new_l, new_r), new_l, new_r)
            elif action in (1, 4):
                top = oracle.alive.shape[0]
                victims = np.concatenate(
                    (
                        rng.integers(0, 1500, 15),  # base ids (some already gone)
                        rng.integers(1500, max(top, 1501), 15),  # overlay ids
                        [top + 5, -3],  # unknown ids
                    )
                )
                victims = np.concatenate((victims, victims[:4]))  # double deletes
                expected = oracle.delete(victims.tolist())
                assert engine.delete_many(victims).tolist() == expected.tolist()
            elif action == 5:
                engine.save_snapshot(directory)
                assert all(shard.overlay is None for shard in engine.shards)
            elif action == 6:
                _close(engine)
                engine = _open(directory, setup)
            _check(engine, oracle, queries, seed=step)
            rebuilt = rebuilt or any(shard.base_rebuilds for shard in engine.shards)
        assert rebuilt
    finally:
        _close(engine)


def _single_shard(n: int = 2000, seed: int = 3):
    rng = np.random.default_rng(seed)
    lefts, rights = _base_dataset(rng, n)
    oracle = Oracle(lefts, rights)
    return ShardedEngine(IntervalDataset(lefts, rights), num_shards=1), oracle, rng


def test_query_with_every_base_overlap_tombstoned():
    engine, oracle, rng = _single_shard()
    query = (400.0, 430.0)
    doomed = oracle.overlapping(query)
    assert doomed.shape[0] > 0
    assert engine.delete_many(doomed).all()
    oracle.delete(doomed.tolist())
    assert engine.count(query) == 0
    assert engine.report(query).shape[0] == 0
    assert engine.sample(query, 20, random_state=1).shape[0] == 0
    new_ids = engine.insert_many([410.0, 415.0], [412.0, 460.0])
    oracle.insert(new_ids, np.array([410.0, 415.0]), np.array([412.0, 460.0]))
    _check(engine, oracle, [query, (0.0, DOMAIN)], seed=2)
    row = engine.sample(query, 50, random_state=3)
    assert set(row.tolist()) == set(new_ids.tolist())
    assert engine.shards[0].base_rebuilds == 0


def test_deleting_every_overlay_insert_empties_the_delta():
    engine, oracle, rng = _single_shard()
    queries = _queries(rng)
    before = engine.count_many(queries)
    new_l = rng.uniform(0.0, DOMAIN, 40)
    new_r = new_l + 10.0
    ids = engine.insert_many(new_l, new_r)
    engine.refresh()
    assert engine.shards[0].overlay.delta is not None
    assert engine.delete_many(ids).all()
    engine.refresh()
    assert engine.shards[0].overlay is None
    assert engine.count_many(queries).tolist() == before.tolist()
    assert engine.shards[0].base_rebuilds == 0


def _overlay_entries(shard) -> int:
    overlay = shard.overlay
    return 0 if overlay is None else overlay.delta_map.shape[0] + overlay.tombstones.shape[0]


def test_crossing_the_compaction_threshold_rebuilds_the_base():
    engine, oracle, rng = _single_shard(n=2000)
    queries = _queries(rng)
    shard = engine.shards[0]
    published = shard.snapshot
    work = 0
    for _ in range(3):
        new_l = rng.uniform(0.0, DOMAIN, 60)
        new_r = new_l + rng.exponential(15.0, 60)
        oracle.insert(engine.insert_many(new_l, new_r), new_l, new_r)
        victims = rng.integers(0, 2000, 20)
        oracle.delete(victims.tolist())
        engine.delete_many(victims)
        _check(engine, oracle, queries, seed=1)
        work += _overlay_entries(shard)
    assert shard.base_rebuilds == 0 and shard.snapshot is published
    # One-interval writes: every refresh rebuilds the whole overlay, so the
    # summed overlay work crosses COMPACT_WORK x base size after about
    # sqrt(2 * COMPACT_WORK * n) writes, and the compaction runs on exactly
    # the refresh that crosses it.
    limit = COMPACT_WORK * shard.base_size
    writes = 0
    while shard.base_rebuilds == 0:
        crossing = work + _overlay_entries(shard) + 1 > limit
        left = float(rng.uniform(0.0, DOMAIN))
        oracle.insert(engine.insert_many([left], [left + 3.0]), [left], [left + 3.0])
        engine.count_many(queries)
        work += _overlay_entries(shard)
        assert shard.base_rebuilds == int(crossing)
        writes += 1
        assert writes <= 2 * int(np.sqrt(2 * limit))
    assert shard.overlay is None and shard.snapshot is not published
    _check(engine, oracle, queries, seed=2)
    # The new base keeps serving deletes of ids that came from the old overlay.
    last = oracle.alive.shape[0] - 1
    oracle.delete([last, 5])
    engine.delete_many([last, 5])
    _check(engine, oracle, queries, seed=3)


def test_a_failed_overlay_build_keeps_the_delta_log_for_a_retry(monkeypatch):
    engine, oracle, rng = _single_shard()
    queries = _queries(rng)
    shard = engine.shards[0]
    state = (shard.version, shard.size, shard.overlay)

    def fail(*args, **kwargs):
        raise MemoryError("simulated")

    with monkeypatch.context() as patch:
        patch.setattr(FlatAIT, "from_arrays", fail)
        ids = engine.insert_many([100.0, 200.0], [150.0, 260.0])
        engine.delete_many([7])
        with pytest.raises(MemoryError):
            shard.refresh()
        assert (shard.version, shard.size, shard.overlay) == state
        assert shard.pending_ops == 3
    oracle.insert(ids, np.array([100.0, 200.0]), np.array([150.0, 260.0]))
    oracle.delete([7])
    _check(engine, oracle, queries, seed=5)
    assert shard.pending_ops == 0 and shard.overlay is not None


def test_reopen_replays_a_wal_tail_of_inserts_and_deletes(tmp_path):
    rng = np.random.default_rng(9)
    lefts, rights = _base_dataset(rng, 900)
    oracle = Oracle(lefts, rights)
    engine = ShardedEngine(IntervalDataset(lefts, rights), num_shards=2)
    queries = _queries(rng)
    engine.save_snapshot(tmp_path)
    new_l = rng.uniform(0.0, DOMAIN, 50)
    new_r = new_l + rng.exponential(20.0, 50)
    ids = engine.insert_many(new_l, new_r)
    oracle.insert(ids, new_l, new_r)
    victims = np.concatenate((ids[::3], np.arange(0, 900, 17)))
    assert engine.delete_many(victims).all()
    oracle.delete(victims.tolist())
    engine.close()  # no checkpoint: the writes live only in the WAL tail

    reopened = ShardedEngine.open(tmp_path)
    try:
        _check(reopened, oracle, queries, seed=4)
        assert all(shard.base_rebuilds == 0 for shard in reopened.shards)
        assert all(shard.overlay is not None for shard in reopened.shards)
    finally:
        reopened.close()


def test_checkpoint_of_a_fully_deleted_shard_round_trips(tmp_path):
    lefts = np.array([0.0, 10.0, 20.0, 30.0])
    engine = ShardedEngine(IntervalDataset(lefts, lefts + 5.0), num_shards=2)
    assert engine.delete_many([0, 2]).all()  # every interval of shard 0
    engine.save_snapshot(tmp_path)
    assert engine.count((0.0, 40.0)) == 2
    engine.close()
    reopened = ShardedEngine.open(tmp_path)
    try:
        assert reopened.count((0.0, 40.0)) == 2
        new_id = reopened.insert((1.0, 2.0))
        assert sorted(reopened.report((0.0, 40.0)).tolist()) == [1, 3, new_id]
        reopened.save_snapshot()
        assert reopened.shards[0].overlay is None
        assert reopened.report((0.0, 5.0)).tolist() == [new_id]
    finally:
        reopened.close()


# ---------------------------------------------------------------------- #
# sampling exactness under tombstones
# ---------------------------------------------------------------------- #
def _tombstoned_query_shard(fraction: float, seed: int):
    """A one-shard engine where ``fraction`` of a query's base overlap is deleted
    and a few overlay inserts overlap the query too."""
    engine, oracle, rng = _single_shard(n=2000, seed=seed)
    query = (300.0, 380.0)
    overlap = oracle.overlapping(query)
    doomed = rng.choice(overlap, size=int(round(fraction * overlap.shape[0])), replace=False)
    assert engine.delete_many(doomed).all()
    oracle.delete(doomed.tolist())
    new_l = rng.uniform(300.0, 380.0, 12)
    oracle.insert(engine.insert_many(new_l, new_l + 1.0), new_l, new_l + 1.0)
    engine.refresh()
    shard = engine.shards[0]
    assert shard.base_rebuilds == 0 and shard.overlay.delta is not None
    tombs = shard.overlay.tomb_count(np.array([query[0]]), np.array([query[1]]))[0]
    base = shard.snapshot.count(query)
    return engine, oracle, query, tombs / base


@pytest.mark.parametrize(
    "fraction, path",
    [(0.3, "rejection"), (0.7, "report-and-filter")],
)
def test_sampling_stays_uniform_under_tombstones(fraction, path):
    engine, oracle, query, tomb_share = _tombstoned_query_shard(fraction, seed=11)
    if path == "rejection":
        assert 0.2 < tomb_share <= 0.5
    else:
        assert tomb_share > 0.5
    population = oracle.overlapping(query)
    draws = np.concatenate(engine.sample_many([query] * 60, 100, random_state=5))
    assert np.isin(draws, population).all()
    fit = chi_square_uniformity(draws.tolist(), population.tolist())
    assert not fit.rejects_uniformity(alpha=1e-4)


def test_rejection_cap_falls_back_to_report_and_filter(monkeypatch):
    monkeypatch.setattr(shm, "MAX_REJECTION_ROUNDS", 0)
    engine, oracle, query, _ = _tombstoned_query_shard(0.3, seed=12)
    population = oracle.overlapping(query)
    draws = np.concatenate(engine.sample_many([query] * 60, 100, random_state=6))
    fit = chi_square_uniformity(draws.tolist(), population.tolist())
    assert not fit.rejects_uniformity(alpha=1e-4)


def test_stale_sample_allocation_terminates():
    """A payload allocated before further deletes returns, never spins.

    This is what replaying captured executor payloads after a run does: the
    allocation may ask a shard for draws it can no longer answer.
    """
    engine, oracle, rng = _single_shard()
    query = (500.0, 520.0)
    overlap = oracle.overlapping(query)
    payload = {
        "ql": np.array([query[0], query[0]]),
        "qr": np.array([query[1], query[1]]),
        "alloc": np.array([[40], [40]]),
        "seeds": [17],
    }
    half = overlap.shape[0] // 2
    for victims in (overlap[: half // 2], overlap[: half + 1], overlap):
        engine.delete_many(victims)
        engine.refresh()
        view = ShardView.of_shard(engine.shards[0])
        selected, counts, rows = run_shard_op("sample", view, payload)
        live = set(oracle.overlapping(query).tolist()) - set(victims.tolist())
        for row in rows:
            assert set(row.tolist()) <= live
            assert row.shape[0] == (40 if live else 0)
