"""Tests for the write-ahead DeltaLog and the fault-injection utilities."""

from __future__ import annotations

import os

import numpy as np
import pytest

import zlib

from repro import WALCorruptError
import importlib

from repro.persist import CHECKSUM_ALGORITHM, DeltaLog, FaultInjector, FaultyFile, WriteFault, flip_byte, truncate_file
from repro.persist import wal as wal_module

# the package re-exports the checksum *function*, shadowing the submodule name
checksum_module = importlib.import_module("repro.persist.checksum")
from repro.persist.wal import HEADER_SIZE, wal_epoch


def _write_batches(path, fsync="none", epoch=0):
    log = DeltaLog(path, fsync=fsync, epoch=epoch)
    log.append_insert([0, 1, 2], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    log.append_delete([1])
    log.append_insert([3], [10.0], [20.0])
    log.close()


class TestRecordRoundTrip:
    def test_scan_returns_appended_records(self, tmp_path):
        path = str(tmp_path / "a.log")
        _write_batches(path, epoch=7)
        epoch, records, valid = DeltaLog.scan(path)
        assert epoch == 7
        assert valid == os.path.getsize(path)
        kinds = [r[0] for r in records]
        assert kinds == ["insert_many", "delete_many", "insert_many"]
        ids, lefts, rights = records[0][1], records[0][2], records[0][3]
        np.testing.assert_array_equal(ids, [0, 1, 2])
        np.testing.assert_array_equal(lefts, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(rights, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(records[1][1], [1])

    def test_wal_epoch_helper(self, tmp_path):
        path = str(tmp_path / "e.log")
        _write_batches(path, epoch=12)
        assert wal_epoch(path) == 12

    def test_missing_or_empty_file_scans_clean(self, tmp_path):
        missing = str(tmp_path / "missing.log")
        assert DeltaLog.scan(missing) == (0, [], 0)
        empty = str(tmp_path / "empty.log")
        open(empty, "wb").close()
        assert DeltaLog.scan(empty) == (0, [], 0)

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = str(tmp_path / "reopen.log")
        _write_batches(path, epoch=3)
        log = DeltaLog(path, fsync="none", epoch=3, create=False)
        log.append_delete([0, 2])
        log.close()
        _, records, _ = DeltaLog.scan(path)
        assert len(records) == 4 and records[-1][0] == "delete_many"

    @pytest.mark.parametrize("policy", ["always", "batch", "none"])
    def test_fsync_policies_accepted(self, tmp_path, policy):
        path = str(tmp_path / f"{policy}.log")
        log = DeltaLog(path, fsync=policy)
        log.append_insert([0], [0.0], [1.0])
        log.sync()
        log.close()
        _, records, _ = DeltaLog.scan(path)
        assert len(records) == 1

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"fsync"):
            DeltaLog(str(tmp_path / "bad.log"), fsync="sometimes")

    def test_close_is_idempotent(self, tmp_path):
        log = DeltaLog(str(tmp_path / "c.log"))
        log.close()
        log.close()


class TestCleanLogSync:
    """``sync`` fsyncs only logs that took appends since their last sync."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_clean_log_skips_fsync(self, tmp_path, fsyncs):
        log = DeltaLog(str(tmp_path / "w.log"), fsync="batch")
        created = len(fsyncs)  # the header is synced at creation
        log.sync()
        assert len(fsyncs) == created
        log.append_delete([1])
        log.sync()
        log.sync()
        assert len(fsyncs) == created + 1
        log.close()
        assert len(fsyncs) == created + 1

    def test_always_policy_syncs_once_per_append(self, tmp_path, fsyncs):
        log = DeltaLog(str(tmp_path / "w.log"), fsync="always")
        created = len(fsyncs)
        log.append_delete([1])
        log.sync()
        log.close()
        assert len(fsyncs) == created + 1

    def test_reopened_log_syncs_once(self, tmp_path, fsyncs):
        path = str(tmp_path / "w.log")
        DeltaLog(path, fsync="none").append_delete([1])
        log = DeltaLog(path, fsync="batch", create=False)
        log.sync()
        log.sync()
        assert len(fsyncs) == 1
        log.close()

    def test_one_gateway_write_on_four_shards_costs_one_fsync(self, tmp_path, monkeypatch):
        from repro import IntervalDataset, ShardedEngine
        from repro.service import RequestGateway

        lefts = np.arange(40, dtype=np.float64)
        engine = ShardedEngine(IntervalDataset(lefts, lefts + 2.0), num_shards=4)
        engine.save_snapshot(tmp_path)
        gateway = RequestGateway(engine)
        try:
            calls = []
            real = os.fsync
            monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
            assert gateway.submit("insert", (3.0, 4.0)).result(timeout=30) == 40
            assert len(calls) == 1
            calls.clear()
            assert gateway.submit("count", (3.0, 4.0)).result(timeout=30) == 5
            assert calls == []
        finally:
            gateway.close()
            engine.close()


class TestTornTails:
    def test_truncated_record_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "torn.log")
        _write_batches(path)
        truncate_file(path, os.path.getsize(path) - 5)
        _, records, valid = DeltaLog.scan(path)
        assert len(records) == 2  # last record torn away
        assert valid < os.path.getsize(path)

    def test_bit_flip_in_tail_record_is_dropped(self, tmp_path):
        path = str(tmp_path / "flip.log")
        _write_batches(path)
        flip_byte(path, os.path.getsize(path) - 3)
        _, records, _ = DeltaLog.scan(path)
        assert len(records) == 2

    def test_corruption_mid_log_drops_suffix(self, tmp_path):
        path = str(tmp_path / "mid.log")
        _write_batches(path)
        flip_byte(path, HEADER_SIZE + 10)  # inside the first record body
        _, records, _ = DeltaLog.scan(path)
        assert records == []

    def test_recover_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "rec.log")
        _write_batches(path, epoch=4)
        torn_size = os.path.getsize(path) - 5
        truncate_file(path, torn_size)
        log, records = DeltaLog.recover(path, fsync="none", epoch=4)
        assert len(records) == 2
        # the torn suffix was physically removed so appends resume cleanly
        log.append_delete([9])
        log.close()
        _, records2, valid = DeltaLog.scan(path)
        assert [r[0] for r in records2] == ["insert_many", "delete_many", "delete_many"]
        assert valid == os.path.getsize(path)

    def test_corrupt_header_raises(self, tmp_path):
        path = str(tmp_path / "hdr.log")
        _write_batches(path)
        flip_byte(path, 2)  # inside the magic
        with pytest.raises(WALCorruptError):
            DeltaLog.scan(path)


def _adler(data, value: int = 0) -> int:
    """A stand-in 'foreign' checksum algorithm, guaranteed != crc32/crc32c."""
    return zlib.adler32(bytes(data)) & 0xFFFFFFFF


@pytest.fixture
def foreign_algorithm(monkeypatch):
    """Register 'adler32' and make it the preferred write-time algorithm."""
    monkeypatch.setitem(checksum_module._ALGORITHMS, "adler32", _adler)
    monkeypatch.setattr(wal_module, "CHECKSUM_ALGORITHM", "adler32")
    return "adler32"


class TestChecksumAlgorithm:
    """The WAL header records the record-checksum algorithm (REVIEW issue:
    without it, a log written under crc32c and scanned under crc32 — or vice
    versa — failed every record check and was silently truncated as an
    all-torn tail, destroying acknowledged writes)."""

    def test_header_records_runtime_algorithm(self, tmp_path):
        path = str(tmp_path / "alg.log")
        log = DeltaLog(path, fsync="none")
        assert log.checksum_algorithm == CHECKSUM_ALGORITHM
        log.close()

    def test_scan_verifies_with_header_algorithm_not_runtime_preference(
        self, tmp_path, monkeypatch, foreign_algorithm
    ):
        path = str(tmp_path / "cross.log")
        _write_batches(path, epoch=5)  # written with adler32 digests
        # Flip the runtime preference back: a reader that trusted its own
        # preferred algorithm would now fail every record and report a fully
        # torn log; header-driven resolution must still see all 3 records.
        monkeypatch.setattr(wal_module, "CHECKSUM_ALGORITHM", "crc32")
        epoch, records, valid = DeltaLog.scan(path)
        assert epoch == 5
        assert len(records) == 3
        assert valid == os.path.getsize(path)

    def test_reopen_keeps_the_file_algorithm_for_new_appends(
        self, tmp_path, monkeypatch, foreign_algorithm
    ):
        path = str(tmp_path / "mix.log")
        _write_batches(path, epoch=2)
        monkeypatch.setattr(wal_module, "CHECKSUM_ALGORITHM", "crc32")
        log = DeltaLog(path, fsync="none", create=False)
        assert log.checksum_algorithm == "adler32"  # file wins, not runtime
        log.append_delete([7])
        log.close()
        _, records, valid = DeltaLog.scan(path)
        assert len(records) == 4 and valid == os.path.getsize(path)

    def test_unresolvable_algorithm_raises_instead_of_truncating(
        self, tmp_path, monkeypatch, foreign_algorithm
    ):
        path = str(tmp_path / "lost.log")
        _write_batches(path, epoch=1)
        size = os.path.getsize(path)
        # Simulate reading the log on a host without the writer's algorithm.
        monkeypatch.delitem(checksum_module._ALGORITHMS, "adler32")
        with pytest.raises(WALCorruptError, match=r"cannot verify"):
            DeltaLog.scan(path)
        with pytest.raises(WALCorruptError, match=r"cannot verify"):
            DeltaLog.recover(path, fsync="none", epoch=1)
        # recover must not have "repaired" the file by truncating it
        assert os.path.getsize(path) == size


class TestFaultInjection:
    def test_faulty_file_partial_write(self, tmp_path):
        path = str(tmp_path / "partial.bin")
        handle = FaultyFile(open(path, "wb"), fail_write_at=10)
        handle.write(b"01234")
        with pytest.raises(WriteFault):
            handle.write(b"56789ABCDEF")
        handle.close()
        # the failing write persisted only the prefix up to the fault point
        assert os.path.getsize(path) == 10

    def test_faulty_file_torn_write(self, tmp_path):
        path = str(tmp_path / "tear.bin")
        handle = FaultyFile(open(path, "wb"), torn_after=7)
        handle.write(b"0123456789")  # silently torn after 7 bytes
        handle.close()
        assert os.path.getsize(path) == 7

    def test_fault_injector_matches_by_name(self, tmp_path):
        injector = FaultInjector(torn_after=4, match="wal")
        wal_path = str(tmp_path / "x.wal")
        other_path = str(tmp_path / "other.bin")
        with injector(wal_path, "wb") as handle:
            handle.write(b"ABCDEFGH")
        with injector(other_path, "wb") as handle:
            handle.write(b"ABCDEFGH")
        assert os.path.getsize(wal_path) == 4
        assert os.path.getsize(other_path) == 8

    def test_torn_wal_write_recovers_prefix(self, tmp_path):
        """End-to-end: a torn append is invisible after recovery."""
        path = str(tmp_path / "torn_append.log")
        log = DeltaLog(path, fsync="none", epoch=1)
        log.append_insert([0, 1], [0.0, 1.0], [2.0, 3.0])
        log.close()
        good_size = os.path.getsize(path)

        # re-open through a fault injector that tears the next append
        injector = FaultInjector(torn_after=6, match="torn_append")
        log = DeltaLog(path, fsync="none", epoch=1, create=False, opener=injector)
        log.append_delete([0])
        log.close(sync=False)

        _, records, valid = DeltaLog.scan(path)
        assert len(records) == 1 and records[0][0] == "insert_many"
        assert valid == good_size
