"""Snapshot format 1 still opens and answers as it did when it was written.

The fixtures under ``tests/data/format1`` were written at v1.13.0, the last
release whose ``FlatAIT`` stored an endpoint, an id and a rank key per list
entry (see ``tests/format1_fixture.py``).  The pinned digests cover counts,
reports, total weights and fixed-seed samples, printed by the fixture
script at that version.  A save in the current format (3) and an open must
reproduce the same answers too.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from format1_fixture import (
    ENGINES,
    FLAT_FILE,
    columns,
    engine_digest,
    flat_digest,
    flat_source,
    open_digest,
)
from repro import FlatAIT, IntervalDataset, ShardedEngine
from repro.persist.snapshot import FORMAT_VERSION, read_header

FIXTURES = Path(__file__).parent / "data" / "format1"

#: Digests printed by ``tests/format1_fixture.py`` at v1.13.0.
PINNED = {
    "unweighted": "f97131611384c255",
    "weighted": "3a5da48062878115",
    FLAT_FILE: "e59b3fdda761b111",
}


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("name", ENGINES)
def test_format1_checkpoint_opens_and_answers_as_written(tmp_path, name, executor):
    directory = tmp_path / name
    # Opening recovers the WAL in place: work on a copy of the fixture.
    shutil.copytree(FIXTURES / name, directory)
    assert read_header(directory / "shard-0-1.snap")[0]["format_version"] == 1
    assert open_digest(directory, executor) == PINNED[name]


@pytest.mark.parametrize("mmap", [True, False])
def test_format1_flat_file_loads_as_a_fresh_build(mmap):
    loaded = FlatAIT.load(FIXTURES / FLAT_FILE, mmap=mmap)
    assert flat_digest(loaded) == PINNED[FLAT_FILE]
    lefts, rights, ids, weights = flat_source()
    assert loaded.arrays_equal(FlatAIT.from_arrays(lefts, rights, ids=ids, weights=weights))


def test_format1_checkpoint_resaves_as_format3(tmp_path):
    old = tmp_path / "old"
    shutil.copytree(FIXTURES / "unweighted", old)
    new = tmp_path / "new"
    with ShardedEngine.open(old) as engine:
        assert engine_digest(engine) == PINNED["unweighted"]
        # The checkpoint folds the WAL tail into new bases, which moves
        # fixed-seed draws; the reopened engine must answer like this one.
        epoch = engine.save_snapshot(new)
        want = engine_digest(engine)
    saved = new / f"shard-0-{epoch}.snap"
    header = read_header(saved)[0]
    assert header["format_version"] == FORMAT_VERSION == 3
    assert "flat.all_keys" in {entry["name"] for entry in header["arrays"]}
    assert saved.stat().st_size < (old / "shard-0-1.snap").stat().st_size
    assert open_digest(new, "serial") == want


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_format3_save_open_round_trip(tmp_path, weighted):
    lefts, rights, weights = columns(7, 400, weighted)
    directory = tmp_path / "ckpt"
    with ShardedEngine(IntervalDataset(lefts, rights, weights), num_shards=2) as engine:
        engine.save_snapshot(directory)
        if not weighted:
            engine.insert_many(*columns(8, 30, False)[:2])
            engine.delete_many(np.arange(3, 430, 11))
        want = engine_digest(engine)
    assert read_header(directory / "shard-0-1.snap")[0]["format_version"] == 3
    for executor in ("serial", "process"):
        assert open_digest(directory, executor) == want
