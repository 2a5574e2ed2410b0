"""End-to-end durability tests: engine snapshots, WAL replay, epoch fallback."""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pytest

from repro import IntervalDataset, ShardedEngine, SnapshotCorruptError
from repro.persist import DeltaLog, flip_byte, load_arrays, save_arrays, snapshot_epochs, truncate_file
from repro.persist.snapshot import read_header
from repro.persist.wal import HEADER_SIZE as WAL_HEADER_SIZE


def _queries(count=40, seed=2, domain=1000.0, extent=60.0):
    rng = np.random.default_rng(seed)
    lefts = rng.uniform(0.0, domain - extent, count)
    return np.stack((lefts, lefts + extent), axis=1)


def _engine(dataset, tmp_path=None, **kwargs):
    engine = ShardedEngine(dataset, num_shards=kwargs.pop("num_shards", 4), **kwargs)
    engine.refresh()
    return engine


@pytest.fixture
def dataset(make_random_dataset) -> IntervalDataset:
    return make_random_dataset(800, seed=21)


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("policy", ["round_robin", "range"])
    def test_reopen_matches_original(self, tmp_path, dataset, policy):
        directory = str(tmp_path / "snap")
        queries = _queries()
        with _engine(dataset, policy=policy) as engine:
            want_counts = engine.count_many(queries)
            want_size = engine.size
            epoch = engine.save_snapshot(directory)
            assert epoch == 1
            assert engine.snapshot_dir == directory and engine.snapshot_epoch == 1

        with ShardedEngine.open(directory) as restored:
            assert restored.size == want_size
            assert restored.policy == policy
            np.testing.assert_array_equal(restored.count_many(queries), want_counts)
            ids = restored.sample_many(queries[:3], 32, random_state=7)
            assert all(len(s) == 32 for s in ids)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_mmap_and_eager_loads_agree(self, tmp_path, dataset, mmap):
        directory = str(tmp_path / "snap")
        queries = _queries()
        with _engine(dataset) as engine:
            engine.save_snapshot(directory)
            want = engine.count_many(queries)
        with ShardedEngine.open(directory, mmap=mmap) as restored:
            np.testing.assert_array_equal(restored.count_many(queries), want)

    def test_weighted_engine_round_trip(self, tmp_path, make_random_dataset):
        data = make_random_dataset(500, seed=13, weighted=True)
        directory = str(tmp_path / "wsnap")
        queries = _queries()
        with _engine(data, num_shards=3) as engine:
            engine.save_snapshot(directory)
            want = engine.total_weight_many(queries)
        with ShardedEngine.open(directory) as restored:
            assert restored.is_weighted
            np.testing.assert_allclose(restored.total_weight_many(queries), want)

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises((SnapshotCorruptError, FileNotFoundError)):
            ShardedEngine.open(str(tmp_path / "nowhere"))


class TestWALReplay:
    def test_writes_after_snapshot_survive_reopen(self, tmp_path, dataset):
        directory = str(tmp_path / "wal")
        queries = _queries()

        with _engine(dataset) as engine:
            engine.save_snapshot(directory)
            rng = np.random.default_rng(31)
            lefts = rng.uniform(0.0, 900.0, 120)
            rights = lefts + rng.exponential(30.0, 120)
            new_ids = engine.insert_many(lefts, rights)
            victims = np.concatenate((new_ids[:10], np.arange(5, dtype=np.int64)))
            engine.delete_many(victims)
            engine.sync_wal()
            want_counts = engine.count_many(queries)
            want_size = engine.size

        # no snapshot after the writes: they must come back via WAL replay
        with ShardedEngine.open(directory) as restored:
            assert restored.size == want_size
            np.testing.assert_array_equal(restored.count_many(queries), want_counts)
            # deleted ids stay deleted; surviving new ids are queryable
            assert restored.delete_many(victims).sum() == 0
            assert restored.shard_of(int(new_ids[-1])) >= 0

    def test_wal_records_hit_disk_before_refresh(self, tmp_path, dataset):
        directory = str(tmp_path / "ack")
        with _engine(dataset) as engine:
            engine.save_snapshot(directory)
            engine.insert_many([100.0, 200.0], [110.0, 210.0])
            engine.sync_wal()
            # the batch is journaled on disk even though refresh() never ran
            logged = 0
            for shard in engine._shards:
                _, records, _ = DeltaLog.scan(shard.wal.path)
                logged += sum(len(r[1]) for r in records if r[0] == "insert_many")
            assert logged == 2

    def test_reopened_engine_continues_id_assignment(self, tmp_path, dataset):
        directory = str(tmp_path / "ids")
        with _engine(dataset) as engine:
            engine.save_snapshot(directory)
            first = engine.insert_many([1.0], [2.0])
            engine.sync_wal()
        with ShardedEngine.open(directory) as restored:
            second = restored.insert_many([3.0], [4.0])
            assert int(second[0]) == int(first[0]) + 1
            # round-robin invariant: cursor tracks the id counter
            assert restored._rr_cursor == int(restored._next_global) % restored.num_shards

    def test_snapshot_rotates_and_truncates_wal(self, tmp_path, dataset):
        directory = str(tmp_path / "rot")
        with _engine(dataset) as engine:
            engine.save_snapshot(directory)
            engine.insert_many([1.0, 2.0], [3.0, 4.0])
            engine.sync_wal()
            before = sum(
                len(DeltaLog.scan(s.wal.path)[1]) for s in engine._shards
            )
            assert before >= 1
            second = engine.save_snapshot(directory)
            assert second == 2
            # rotated epoch-2 logs start empty: the snapshot folded the writes
            after = sum(len(DeltaLog.scan(s.wal.path)[1]) for s in engine._shards)
            assert after == 0
            assert all(s.wal.epoch == 2 for s in engine._shards)

    def test_old_epochs_garbage_collected(self, tmp_path, dataset):
        directory = str(tmp_path / "gc")
        with _engine(dataset) as engine:
            for _ in range(4):
                engine.insert_many([1.0], [2.0])
                engine.save_snapshot(directory, retain=2)
            assert snapshot_epochs(directory) == [3, 4]
            names = os.listdir(directory)
            assert not any(name.startswith("shard-0-1.") for name in names)


class TestRecoveredOwnerGaps:
    def test_torn_shard_wal_leaves_unknown_ids_not_garbage(self, tmp_path, dataset):
        """One shard's torn WAL tail must not poison the owner map (REVIEW
        issue: np.empty growth left garbage shard indices in the id gap, so
        a later delete routed to a random — or out-of-range — shard)."""
        directory = str(tmp_path / "gaps")
        with _engine(dataset, num_shards=2) as engine:
            engine.save_snapshot(directory)
            lefts = np.linspace(1.0, 10.0, 10)
            new_ids = engine.insert_many(lefts, lefts + 5.0)
            engine.sync_wal()
            owners = {int(g): engine.shard_of(int(g)) for g in new_ids}
            want_size = engine.size

        # shard 0 loses its whole epoch-1 log body; shard 1's survives, so
        # the recovered id space has gaps below its own top.
        truncate_file(os.path.join(directory, "wal-1-shard0.log"), WAL_HEADER_SIZE)
        lost = [g for g, owner in owners.items() if owner == 0]
        kept = [g for g, owner in owners.items() if owner == 1]
        assert lost and kept  # round-robin routed the batch to both shards

        with ShardedEngine.open(directory) as restored:
            assert restored.size == want_size - len(lost)
            # lost ids are *unknown*: delete reports False instead of
            # raising IndexError or deleting from the wrong shard ...
            assert restored.delete_many(lost).sum() == 0
            for g in lost:
                with pytest.raises(KeyError):
                    restored.shard_of(g)
            # ... while the surviving ids stay fully addressable.
            assert all(restored.shard_of(g) == 1 for g in kept)
            assert restored.delete_many(kept).all()


def _mangle_header_dtype(path: str) -> None:
    """Corrupt a dtype string inside a snapshot header, keeping the header
    CRC valid — the corruption surfaces as a parse error, not a checksum
    failure."""
    with open(path, "r+b") as handle:
        magic, header_len, _ = struct.unpack("<8sII", handle.read(16))
        header = handle.read(header_len)
        assert b'"<i8"' in header
        header = header.replace(b'"<i8"', b'"@#!"', 1)
        handle.seek(0)
        handle.write(struct.pack("<8sII", magic, header_len, zlib.crc32(header) & 0xFFFFFFFF))
        handle.write(header)


def _invert_row(arrays):
    arrays["col_lefts"][5] = arrays["col_rights"][5] + 1.0


def _nan_endpoint(arrays):
    arrays["col_rights"][5] = np.nan


def _short_id_map(arrays):
    arrays["global_ids"] = arrays["global_ids"][:-1]


def _dead_slot_out_of_range(arrays):
    arrays["deleted"] = np.array([arrays["col_lefts"].shape[0]], dtype=np.int64)


def _negative_weight(arrays):
    arrays["col_weights"][3] = -1.0


#: Shard-file rewrites that keep every checksum valid but describe columns
#: no engine could have saved.
_BAD_SHARD_ARRAYS = {
    "inverted_row": _invert_row,
    "nan_endpoint": _nan_endpoint,
    "short_id_map": _short_id_map,
    "dead_slot_out_of_range": _dead_slot_out_of_range,
}


def _rewrite_shard(path, corrupt):
    """Re-save a shard file with one corruption; its checksums stay valid."""
    arrays, meta = load_arrays(path, mmap=False)
    arrays = {name: np.array(array) for name, array in arrays.items()}
    corrupt(arrays)
    save_arrays(path, arrays, meta=meta)


class TestEpochFallback:
    def test_crc_valid_but_unparseable_header_falls_back(self, tmp_path, dataset):
        """A corrupt-but-CRC-valid header field raises np.dtype's TypeError /
        ValueError, not SnapshotCorruptError; the per-epoch fallback loop
        must treat that as "epoch unusable", not abort recovery (REVIEW)."""
        directory = str(tmp_path / "parse")
        with _engine(dataset) as engine:
            engine.save_snapshot(directory)              # epoch 1
            engine.insert_many([10.0], [20.0])           # -> wal-1
            engine.save_snapshot(directory)              # epoch 2
            want_size = engine.size
        _mangle_header_dtype(os.path.join(directory, "engine-2.state"))
        with ShardedEngine.open(directory) as restored:  # falls back to epoch 1
            assert restored.size == want_size
    def test_corrupt_newest_epoch_falls_back_and_replays(self, tmp_path, dataset):
        directory = str(tmp_path / "fb")
        queries = _queries()
        with _engine(dataset) as engine:
            engine.save_snapshot(directory)                      # epoch 1
            engine.insert_many([10.0, 20.0], [15.0, 25.0])       # -> wal-1
            engine.save_snapshot(directory)                      # epoch 2
            engine.insert_many([30.0], [35.0])                   # -> wal-2
            engine.sync_wal()
            want_counts = engine.count_many(queries)
            want_size = engine.size

        # corrupt one shard snapshot of the newest epoch
        victim = os.path.join(directory, "shard-0-2.snap")
        _, data_start = read_header(victim)
        flip_byte(victim, data_start + 3)

        # recovery falls back to epoch 1 and replays wal-1 + wal-2
        with ShardedEngine.open(directory) as restored:
            assert restored.size == want_size
            np.testing.assert_array_equal(restored.count_many(queries), want_counts)

    @pytest.mark.parametrize("corruption", sorted(_BAD_SHARD_ARRAYS))
    def test_checksum_valid_bad_shard_columns_fall_back(self, tmp_path, dataset, corruption):
        """A shard file whose checksums pass but whose columns no engine
        could have saved is rejected: recovery falls back an epoch."""
        directory = str(tmp_path / "cols")
        queries = _queries()
        everything = np.array([[-1e9, 1e9]])
        with _engine(dataset) as engine:
            engine.save_snapshot(directory)                      # epoch 1
            engine.insert_many([10.0, 20.0], [15.0, 25.0])       # -> wal-1
            engine.save_snapshot(directory)                      # epoch 2
            want_counts = engine.count_many(queries)
            want_size = engine.size
            want_ids = np.sort(engine.report_many(everything)[0])
        _rewrite_shard(os.path.join(directory, "shard-0-2.snap"), _BAD_SHARD_ARRAYS[corruption])
        with ShardedEngine.open(directory) as restored:  # epoch 1 + wal-1
            restored.refresh()
            assert restored.size == sum(restored.shard_sizes()) == want_size
            np.testing.assert_array_equal(restored.count_many(queries), want_counts)
            np.testing.assert_array_equal(np.sort(restored.report_many(everything)[0]), want_ids)
            lefts, rights, _ = restored.shards[0].columns
            assert np.isfinite(rights).all() and (lefts <= rights).all()

    def test_checksum_valid_inverted_row_without_fallback_fails_to_open(
        self, tmp_path, dataset
    ):
        directory = str(tmp_path / "cols1")
        with _engine(dataset) as engine:
            engine.save_snapshot(directory, retain=1)
        _rewrite_shard(os.path.join(directory, "shard-0-1.snap"), _invert_row)
        with pytest.raises(SnapshotCorruptError, match=r"no epoch passed validation"):
            ShardedEngine.open(directory)

    def test_checksum_valid_negative_weight_falls_back(self, tmp_path, make_random_dataset):
        data = make_random_dataset(500, seed=13, weighted=True)
        directory = str(tmp_path / "wcols")
        queries = _queries()
        with _engine(data, num_shards=3) as engine:
            engine.save_snapshot(directory)                      # epoch 1
            engine.save_snapshot(directory)                      # epoch 2
            want = engine.total_weight_many(queries)
        _rewrite_shard(os.path.join(directory, "shard-1-2.snap"), _negative_weight)
        with ShardedEngine.open(directory) as restored:
            np.testing.assert_allclose(restored.total_weight_many(queries), want)
            assert (restored.shards[1].columns[2] >= 0).all()

    def test_corrupt_manifest_falls_back(self, tmp_path, dataset):
        directory = str(tmp_path / "fbm")
        with _engine(dataset) as engine:
            engine.save_snapshot(directory)
            engine.save_snapshot(directory)
            want_size = engine.size
        manifest = os.path.join(directory, "MANIFEST-2.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        with ShardedEngine.open(directory) as restored:
            assert restored.size == want_size

    def test_all_epochs_corrupt_raises(self, tmp_path, dataset):
        directory = str(tmp_path / "dead")
        with _engine(dataset) as engine:
            engine.save_snapshot(directory, retain=1)
        for name in os.listdir(directory):
            if name.startswith("shard-"):
                path = os.path.join(directory, name)
                _, data_start = read_header(path)
                flip_byte(path, data_start + 1)
        with pytest.raises(SnapshotCorruptError, match=r"no epoch passed validation"):
            ShardedEngine.open(directory)
