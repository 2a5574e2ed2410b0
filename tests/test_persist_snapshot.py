"""Tests for the versioned snapshot container and FlatAIT save/load."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import AIT, AWIT, FlatAIT, SnapshotCorruptError
from repro.persist import CHECKSUM_ALGORITHM, flip_byte, load_arrays, save_arrays, truncate_file
from repro.persist.snapshot import FORMAT_VERSION, PAGE_SIZE, read_header


def _sample_arrays():
    rng = np.random.default_rng(11)
    return {
        "ints": rng.integers(0, 1 << 40, 257, dtype=np.int64),
        "floats": rng.normal(size=1023),
        "bytes": rng.integers(0, 256, 33, dtype=np.uint8),
        "empty": np.empty(0, dtype=np.float64),
    }


class TestContainer:
    def test_round_trip_eager_and_mmap(self, tmp_path):
        path = tmp_path / "arrays.snap"
        save_arrays(path, _sample_arrays(), meta={"kind": "test", "answer": 42})
        for mmap in (False, True):
            arrays, meta = load_arrays(path, mmap=mmap)
            assert meta["kind"] == "test" and meta["answer"] == 42
            for name, expected in _sample_arrays().items():
                got = arrays[name]
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "ro.snap"
        save_arrays(path, _sample_arrays())
        for mmap in (False, True):
            arrays, _ = load_arrays(path, mmap=mmap)
            for name, arr in arrays.items():
                if arr.size:
                    with pytest.raises((ValueError, TypeError)):
                        arr[0] = 0

    def test_none_values_are_skipped(self, tmp_path):
        path = tmp_path / "none.snap"
        save_arrays(path, {"a": np.arange(4), "b": None})
        arrays, _ = load_arrays(path)
        assert set(arrays) == {"a"}

    def test_header_is_page_aligned(self, tmp_path):
        path = tmp_path / "align.snap"
        save_arrays(path, _sample_arrays())
        header, data_start = read_header(path)
        assert data_start >= 16
        assert header["format_version"] == FORMAT_VERSION
        assert header["checksum_algorithm"] == CHECKSUM_ALGORITHM
        # every segment offset is page-aligned relative to the data start
        for entry in header["arrays"]:
            assert entry["offset"] % PAGE_SIZE == 0

    def test_bit_flip_in_payload_detected(self, tmp_path):
        path = tmp_path / "flip.snap"
        save_arrays(path, _sample_arrays())
        _, data_start = read_header(path)
        flip_byte(path, data_start + 17)
        with pytest.raises(SnapshotCorruptError, match=r"checksum"):
            load_arrays(path, mmap=False)
        # verification can be skipped explicitly (e.g. benchmarking mmap cost)
        arrays, _ = load_arrays(path, verify=False)
        assert "ints" in arrays

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "magic.snap"
        save_arrays(path, _sample_arrays())
        flip_byte(path, 0)
        with pytest.raises(SnapshotCorruptError):
            load_arrays(path)

    def test_corrupt_header_json_detected(self, tmp_path):
        path = tmp_path / "header.snap"
        save_arrays(path, _sample_arrays())
        flip_byte(path, 20)  # inside the JSON header
        with pytest.raises(SnapshotCorruptError):
            load_arrays(path)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "trunc.snap"
        save_arrays(path, _sample_arrays())
        truncate_file(path, os.path.getsize(path) - 64)
        with pytest.raises(SnapshotCorruptError):
            load_arrays(path, mmap=False)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "atomic.snap"
        save_arrays(path, _sample_arrays())
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


class TestFlatSaveLoad:
    @pytest.fixture
    def flat(self, make_random_dataset) -> FlatAIT:
        return AIT(make_random_dataset(600, seed=3)).flat()

    def test_round_trip_bit_identical(self, tmp_path, flat):
        path = tmp_path / "flat.snap"
        flat.save(path)
        for mmap in (False, True):
            loaded = FlatAIT.load(path, mmap=mmap)
            assert flat.arrays_equal(loaded)
            assert loaded.node_count == flat.node_count

    def test_loaded_flat_answers_queries(self, tmp_path, flat, make_random_dataset):
        path = tmp_path / "flat.snap"
        flat.save(path)
        loaded = FlatAIT.load(path)
        rng = np.random.default_rng(8)
        lefts = rng.uniform(0.0, 900.0, 40)
        queries = np.stack((lefts, lefts + 60.0), axis=1)
        np.testing.assert_array_equal(loaded.count_many(queries), flat.count_many(queries))
        got = loaded.sample_many(queries[:4], 16, random_state=5)
        want = flat.sample_many(queries[:4], 16, random_state=5)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_weighted_round_trip(self, tmp_path, make_random_dataset):
        data = make_random_dataset(400, seed=9, weighted=True)
        flat = AWIT(data).flat()
        path = tmp_path / "awit.snap"
        flat.save(path)
        loaded = FlatAIT.load(path)
        assert flat.arrays_equal(loaded)
        assert loaded.is_weighted

    def test_corrupt_flat_snapshot_raises(self, tmp_path, flat):
        path = tmp_path / "bad.snap"
        flat.save(path)
        _, data_start = read_header(path)
        flip_byte(path, data_start + 5)
        with pytest.raises(SnapshotCorruptError):
            FlatAIT.load(path, mmap=False)
