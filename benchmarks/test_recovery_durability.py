"""Benchmark for the recovery experiment: cold start and WAL replay."""

from __future__ import annotations

import tempfile
import time

import pytest

# Wall-clock-shape assertions: excluded from the CI tier-1 job and
# auto-rerun on failure (see benchmarks/conftest.py) because a loaded
# runner can invert any timing comparison.
pytestmark = pytest.mark.timing

from bench_utils import print_result
from repro import ShardedEngine
from repro.experiments import run_experiment


def test_recovery_cold_start_and_replay(benchmark, bench_config, bench_dataset, tmp_path):
    """Regenerate the recovery table and benchmark the snapshot reopen."""
    result = run_experiment("recovery", bench_config)
    print_result(result)

    for row in result.rows:
        if row["section"] == "wal_replay":
            # hard invariant at any size: recovery reproduces the engine exactly
            assert row["recovered_ok"] is True
            # replay throughput is finite and positive whenever ops were journaled
            assert row["ops_per_sec"] > 0
        if row["section"] == "kill_recover":
            assert row["ok"] is True

    # The cold-start claim on its own: reopening an epoch with an empty WAL
    # must beat rebuilding the engine from the raw arrays.
    with tempfile.TemporaryDirectory(prefix="repro-bench-reopen-") as directory:
        start = time.perf_counter()
        engine = ShardedEngine(bench_dataset, num_shards=4)
        engine.refresh()
        engine.count((0.0, 1.0))
        rebuild_s = time.perf_counter() - start
        engine.save_snapshot(directory)
        engine.close()

        def reopen():
            restored = ShardedEngine.open(directory)
            restored.count((0.0, 1.0))
            restored.close()

        start = time.perf_counter()
        reopen()
        open_s = time.perf_counter() - start
        assert open_s < rebuild_s, (open_s, rebuild_s)

        benchmark(reopen)
