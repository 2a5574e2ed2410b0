"""Snapshot format 2 still opens and answers as it did when it was written.

The fixtures under ``tests/data/format2`` were written at v1.15.0, the last
release whose ``FlatAIT`` stored both subtree lists of every node (see
``tests/format2_fixture.py``).  The pinned digests cover counts, reports,
total weights and fixed-seed samples, printed by the fixture script at that
version.  Formats 2 and 3 share array names with different meanings, so
the reader must dispatch on the header's format version, never on which
arrays a file holds.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from format1_fixture import engine_digest, flat_digest, flat_source, open_digest
from format2_fixture import ENGINES, FLAT_FILE
from repro import FlatAIT, ShardedEngine
from repro.core.errors import SnapshotCorruptError
from repro.persist.snapshot import FORMAT_VERSION, flat_from_arrays, load_arrays, read_header

FIXTURES = Path(__file__).parent / "data" / "format2"

#: Digests printed by ``tests/format2_fixture.py`` at v1.15.0.
PINNED = {
    "unweighted": "f97131611384c255",
    "weighted": "3a5da48062878115",
    FLAT_FILE: "e59b3fdda761b111",
}


def shard_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("shard-*.snap"))


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("name", ENGINES)
def test_format2_checkpoint_opens_and_answers_as_written(tmp_path, name, executor):
    directory = tmp_path / name
    # Opening recovers the WAL in place: work on a copy of the fixture.
    shutil.copytree(FIXTURES / name, directory)
    assert read_header(directory / "shard-0-1.snap")[0]["format_version"] == 2
    assert open_digest(directory, executor) == PINNED[name]


@pytest.mark.parametrize("mmap", [True, False])
def test_format2_flat_file_loads_as_a_fresh_build(mmap):
    loaded = FlatAIT.load(FIXTURES / FLAT_FILE, mmap=mmap)
    assert flat_digest(loaded) == PINNED[FLAT_FILE]
    lefts, rights, ids, weights = flat_source()
    assert loaded.arrays_equal(FlatAIT.from_arrays(lefts, rights, ids=ids, weights=weights))


@pytest.mark.parametrize("name", ENGINES)
def test_format2_checkpoint_resaves_smaller_as_format3(tmp_path, name):
    old = tmp_path / "old"
    shutil.copytree(FIXTURES / name, old)
    new = tmp_path / "new"
    with ShardedEngine.open(old) as engine:
        assert engine_digest(engine) == PINNED[name]
        # The checkpoint folds any WAL tail into new bases, which moves
        # fixed-seed draws; the reopened engine must answer like this one.
        epoch = engine.save_snapshot(new)
        want = engine_digest(engine)
    assert read_header(new / f"shard-0-{epoch}.snap")[0]["format_version"] == FORMAT_VERSION == 3
    assert shard_bytes(new) < shard_bytes(old)
    for executor in ("serial", "process"):
        assert open_digest(new, executor) == want


def test_format2_flat_file_resaves_smaller_as_format3(tmp_path):
    loaded = FlatAIT.load(FIXTURES / FLAT_FILE)
    path = tmp_path / FLAT_FILE
    loaded.save(path)
    assert path.stat().st_size < (FIXTURES / FLAT_FILE).stat().st_size
    reloaded = FlatAIT.load(path)
    assert reloaded.arrays_equal(loaded)
    assert flat_digest(reloaded) == PINNED[FLAT_FILE]


def test_decoding_follows_the_header_version():
    arrays, meta = load_arrays(FIXTURES / FLAT_FILE)
    assert meta["format_version"] == 2
    for version in (0, 4, None):
        with pytest.raises(SnapshotCorruptError):
            flat_from_arrays(arrays, True, version)
    converted = flat_from_arrays(arrays, True, 2)
    # The converted root keeps no subtree list; format 2 stored two.
    assert int(converted._sub_len[0]) == 0 < int(arrays["sub_len"][0])


def test_shard_file_must_match_its_manifest_version(tmp_path):
    # A format-2 shard read as format 3 would answer wrongly without an
    # error; a manifest claiming the wrong version must fail the epoch.
    directory = tmp_path / "weighted"
    shutil.copytree(FIXTURES / "weighted", directory)
    manifest = directory / "MANIFEST-1.json"
    content = json.loads(manifest.read_text())
    content["format_version"] = 3
    manifest.write_text(json.dumps(content))
    with pytest.raises(SnapshotCorruptError, match="does not match its manifest"):
        ShardedEngine.open(directory)
