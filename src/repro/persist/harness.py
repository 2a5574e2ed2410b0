"""Kill-and-recover harness: SIGKILL a durable ingest, reopen, verify.

The strongest claim the durability layer makes is behavioural, not
structural: *every write acknowledged under ``fsync="always"`` before a hard
kill is present, bit-for-bit, in the reopened engine*.  This module turns
that claim into a runnable check shared by the pytest suite
(``tests/test_recovery_kill.py``) and the ``recovery`` experiment's
``kill_recover`` section (``scripts/bench.py recovery``, a CI smoke step):

* :func:`ingest_child_main` is the victim process: it opens the snapshot
  directory with ``fsync="always"``, applies a *deterministic* op stream
  (seeded inserts with interleaved deletes) in small batches, and prints
  ``ACK <ops>`` after each batch — by construction every acked op's WAL
  record has been fsynced.  It runs until killed.
* :func:`run_kill_and_recover` is the orchestrator: prepare a base engine
  and snapshot directory, spawn the child, ``SIGKILL`` it after a number of
  acks, reopen the directory, and verify against an **oracle**.

Because the op stream is a pure function of the seed, the parent can
regenerate any prefix of it.  The kill may land between a batch's fsync and
its ACK line, so the recovered engine holds some prefix of length
``L ∈ [acked, acked + batch]`` — the verifier builds an oracle engine for
each candidate ``L`` in that window and requires that **some** candidate
matches ``count_many`` bit-for-bit (and that ``L >= acked``: nothing
acknowledged was lost).  A chi-square uniformity check on ``sample_many``
draws from the recovered engine completes the statistical half of the
contract.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np

from ..core.dataset import IntervalDataset
from ..stats.uniformity import chi_square_uniformity

__all__ = ["deterministic_ops", "ingest_child_main", "run_kill_and_recover"]

#: Fraction of ops that are deletes (of a previously inserted id).
_DELETE_EVERY = 4


def make_base_dataset(n: int, seed: int, domain: float = 1e6) -> IntervalDataset:
    """The deterministic base dataset shared by victim, oracle and verifier."""
    rng = np.random.default_rng(seed)
    lefts = rng.uniform(0.0, domain, size=n)
    lengths = rng.exponential(domain / 100.0, size=n)
    return IntervalDataset(lefts, lefts + lengths)


def deterministic_ops(seed: int, count: int, base_n: int, domain: float = 1e6) -> list:
    """The first ``count`` ops of the seeded stream.

    Returns ``("insert", left, right)`` / ``("delete", global_id)`` tuples.
    Global ids are assigned sequentially from ``base_n`` by the engine, so
    the stream can reference its own earlier inserts deterministically;
    every op is a pure function of ``(seed, position)``.
    """
    rng = np.random.default_rng(seed + 1)
    ops: list = []
    inserted: list[int] = []
    deleted = 0
    next_global = base_n
    for position in range(count):
        if position % _DELETE_EVERY == _DELETE_EVERY - 1 and len(inserted) > deleted:
            victim = inserted[deleted]
            deleted += 1
            ops.append(("delete", victim))
            # Keep the RNG stream aligned regardless of op kind.
            rng.uniform(0.0, domain, size=2)
        else:
            left = float(rng.uniform(0.0, domain))
            length = float(rng.uniform(0.0, domain / 100.0))
            ops.append(("insert", left, left + length))
            inserted.append(next_global)
            next_global += 1
    return ops


def apply_ops(engine, ops: list) -> None:
    """Apply a prefix of the deterministic stream through the engine API."""
    for op in ops:
        if op[0] == "insert":
            engine.insert_many([op[1]], [op[2]])
        else:
            engine.delete_many([op[1]])


def ingest_child_main(argv: list[str]) -> int:
    """Victim process entry point: durable ingest forever, ACK per batch.

    ``argv``: ``<snapshot_dir> <seed> <base_n> <batch>``.  Invoked as
    ``python -m repro.persist.harness ...``.
    """
    from ..service.engine import ShardedEngine

    directory, seed, base_n, batch = (
        argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    )
    engine = ShardedEngine.open(directory, fsync="always")
    ops_done = 0
    while True:
        ops = deterministic_ops(seed, ops_done + batch, base_n)[ops_done:]
        apply_ops(engine, ops)
        ops_done += batch
        # fsync="always" means every record above is already on disk: this
        # ACK is the acknowledgement the parent holds us to after SIGKILL.
        sys.stdout.write(f"ACK {ops_done}\n")
        sys.stdout.flush()


def _query_workload(seed: int, count: int, domain: float = 1e6) -> np.ndarray:
    rng = np.random.default_rng(seed + 2)
    lefts = rng.uniform(0.0, domain, size=count)
    widths = rng.uniform(0.0, domain / 10.0, size=count)
    return np.stack((lefts, lefts + widths), axis=1)


def run_kill_and_recover(
    directory,
    base_n: int = 10_000,
    seed: int = 42,
    batch: int = 8,
    kill_after_acks: int = 6,
    num_shards: int = 4,
    query_count: int = 64,
    sample_size: int = 64,
    timeout: float = 120.0,
) -> dict:
    """Run the full SIGKILL-mid-ingest scenario; return a verification report.

    Raises ``AssertionError`` with a specific message when any part of the
    acknowledged => recovered contract fails.
    """
    from ..service.engine import ShardedEngine

    directory = os.fspath(directory)
    dataset = make_base_dataset(base_n, seed)
    base_engine = ShardedEngine(dataset, num_shards=num_shards)
    base_engine.save_snapshot(directory)
    base_engine.close()

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.persist.harness",
         directory, str(seed), str(base_n), str(batch)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    acked_ops = 0
    deadline = time.monotonic() + timeout
    try:
        while acked_ops < kill_after_acks * batch:
            if time.monotonic() > deadline:
                raise AssertionError("ingest child produced no ACKs before timeout")
            line = child.stdout.readline()
            if not line:
                stderr = child.stderr.read()
                raise AssertionError(f"ingest child exited early: {stderr[-2000:]}")
            if line.startswith("ACK "):
                acked_ops = int(line.split()[1])
    finally:
        if child.poll() is None:
            os.kill(child.pid, signal.SIGKILL)
        child.wait()
        child.stdout.close()
        child.stderr.close()

    recovered = ShardedEngine.open(directory, fsync="none")
    try:
        queries = _query_workload(seed, query_count)
        recovered_counts = recovered.count_many(queries)

        # The kill can land between a batch's fsync and its ACK, so the
        # durable prefix is some L in [acked, acked + batch].  Exactly one
        # candidate oracle must match bit-for-bit.
        matched_prefix = None
        for prefix in range(acked_ops, acked_ops + batch + 1):
            oracle = ShardedEngine(dataset, num_shards=num_shards)
            apply_ops(oracle, deterministic_ops(seed, prefix, base_n))
            oracle_counts = oracle.count_many(queries)
            size_matches = oracle.size == recovered.size
            oracle.close()
            if size_matches and np.array_equal(oracle_counts, recovered_counts):
                matched_prefix = prefix
                break
        if matched_prefix is None:
            raise AssertionError(
                f"recovered engine matches no durable prefix in "
                f"[{acked_ops}, {acked_ops + batch}] of the op stream"
            )

        # Statistical half: sample_many over the recovered engine must draw
        # uniformly from each query's true result set.
        sample_ok = True
        worst_p = 1.0
        for row in range(min(4, query_count)):
            population = recovered.report_many(queries[row : row + 1])[0]
            if population.shape[0] < 2:
                continue
            draws = np.concatenate(
                [
                    recovered.sample_many(
                        queries[row : row + 1], sample_size, random_state=seed + trial
                    )[0]
                    for trial in range(8)
                ]
            )
            fit = chi_square_uniformity(draws, population)
            worst_p = min(worst_p, fit.p_value)
            if fit.rejects_uniformity(alpha=1e-6):
                sample_ok = False
        if not sample_ok:
            raise AssertionError(
                f"recovered sample_many failed the chi-square uniformity check "
                f"(worst p={worst_p:.2e})"
            )
    finally:
        recovered.close()

    return {
        "base_n": base_n,
        "acked_ops": acked_ops,
        "recovered_ops": matched_prefix,
        "recovered_size": int(recovered.size),
        "sample_worst_p": float(worst_p),
        "ok": True,
    }


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    raise SystemExit(ingest_child_main(sys.argv[1:]))
