"""The format-1 checkpoint fixtures under ``tests/data/format1`` and their digests.

Snapshot format 1 stored every list entry of a ``FlatAIT`` as an endpoint, an
id and a rank key; format 2 stores one position key.  The committed fixtures
were written by this module with the package at v1.13.0, the last release
that wrote format 1::

    PYTHONPATH=src python tests/format1_fixture.py tests/data/format1

It prints the digests that ``tests/test_persist_format1.py`` pins.  Run at a
later version it writes the current format instead, so regenerating the
fixtures would no longer test compatibility.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

from repro import FlatAIT, IntervalDataset, ShardedEngine
from repro.service import ProcessExecutor

#: Fixture directories: a K = 2 engine with a WAL tail of inserts and deletes,
#: and a K = 2 weighted engine (weighted engines take no writes).
ENGINES = ("unweighted", "weighted")
#: A standalone ``FlatAIT.save`` file over tied endpoints with sparse ids.
FLAT_FILE = "flat.snap"


def columns(seed: int, n: int, weighted: bool):
    """Endpoints with heavy ties and a few point intervals."""
    rng = np.random.default_rng(seed)
    lefts = rng.integers(0, 400, n).astype(np.float64)
    rights = lefts + rng.integers(0, 40, n)
    rights[::9] = lefts[::9]
    weights = rng.uniform(0.5, 4.0, n) if weighted else None
    return lefts, rights, weights


def queries() -> np.ndarray:
    rng = np.random.default_rng(3)
    ql = rng.integers(-10, 420, 24).astype(np.float64)
    return np.column_stack([ql, ql + rng.integers(0, 60, 24)])


def engine_digest(engine: ShardedEngine) -> str:
    """SHA-256 prefix of counts, reports, total weights and fixed-seed samples."""
    qs = queries()
    h = hashlib.sha256()
    h.update(np.asarray(engine.count_many(qs)).tobytes())
    for chunk in engine.report_many(qs):
        h.update(np.sort(np.asarray(chunk)).tobytes() + b"|")
    h.update(np.asarray(engine.total_weight_many(qs)).tobytes())
    for chunk in engine.sample_many(qs, 13, random_state=np.random.default_rng(5)):
        h.update(np.asarray(chunk).tobytes() + b"|")
    return h.hexdigest()[:16]


def open_digest(directory, executor: str) -> str:
    """Open a checkpoint on one executor (``"serial"`` or ``"process"``) and digest it."""
    pool = ProcessExecutor(max_workers=2, scatter="query") if executor == "process" else None
    try:
        with ShardedEngine.open(directory, executor=pool) as engine:
            digest = engine_digest(engine)
            if pool is not None:
                # The query scatter sent the reads to the workers, which
                # attached the converted snapshots from shared memory.
                assert engine.placements["query"] > 0
            return digest
    finally:
        if pool is not None:
            pool.shutdown()


def flat_digest(flat: FlatAIT) -> str:
    """SHA-256 prefix of a snapshot's answers, in pool order, and samples."""
    qs = queries()
    h = hashlib.sha256()
    h.update(np.asarray(flat.count_many(qs)).tobytes())
    for chunk in flat.report_many(qs):
        h.update(np.asarray(chunk).tobytes() + b"|")
    h.update(np.asarray(flat.total_weight_many(qs)).tobytes())
    for chunk in flat.sample_many(qs, 13, random_state=np.random.default_rng(5)):
        h.update(np.asarray(chunk).tobytes() + b"|")
    return h.hexdigest()[:16]


def flat_source():
    """Columns and sparse ids of the standalone snapshot."""
    lefts, rights, weights = columns(9, 150, weighted=True)
    ids = np.arange(150, dtype=np.int64) * 1_000_003 + 10**12
    return lefts, rights, ids, weights


def write(directory: str) -> dict:
    """Write every fixture under ``directory``; return the digests to pin."""
    os.makedirs(directory, exist_ok=True)
    digests = {}
    for name in ENGINES:
        weighted = name == "weighted"
        lefts, rights, weights = columns(1 if weighted else 2, 300, weighted)
        engine = ShardedEngine(IntervalDataset(lefts, rights, weights), num_shards=2)
        if not weighted:
            # Writes folded into the checkpoint, then a WAL tail after it.
            engine.delete_many(np.arange(0, 300, 17))
            engine.insert_many(*columns(3, 20, False)[:2])
        engine.save_snapshot(os.path.join(directory, name))
        if not weighted:
            engine.insert_many(*columns(4, 25, False)[:2])
            engine.delete_many(np.arange(5, 320, 23))
            engine.refresh()
        digests[name] = engine_digest(engine)
        engine.close()
    lefts, rights, ids, weights = flat_source()
    flat = FlatAIT.from_arrays(lefts, rights, ids=ids, weights=weights)
    flat.save(os.path.join(directory, FLAT_FILE))
    digests[FLAT_FILE] = flat_digest(flat)
    return digests


if __name__ == "__main__":
    for key, value in write(sys.argv[1]).items():
        print(f"{key}: {value}")
