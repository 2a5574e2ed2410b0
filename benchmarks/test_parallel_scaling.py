"""Benchmark for the parallel_scaling experiment: process vs serial scatter.

The hard property — process answers bit-identical to the serial executor at
every measured K — is asserted unconditionally.  The wall-clock assertions
are deliberately loose (they catch an order-of-magnitude collapse such as a
republish-every-batch bug, not single-core IPC overhead, which the committed
``BENCH_parallel.json`` records honestly via ``config.cpu_count``) and ride
the ``timing`` rerun policy of ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import pytest

# Wall-clock-shape assertions: excluded from the CI tier-1 job and
# auto-rerun on failure (see benchmarks/conftest.py) because a loaded
# runner can invert any timing comparison.
pytestmark = pytest.mark.timing

from bench_utils import print_result
from repro.experiments import run_experiment


def test_parallel_scaling_bit_identity_and_floor(bench_config):
    """Regenerate the parallel-scaling table; gate on executor bit-identity."""
    config = bench_config.with_overrides(
        datasets=("btc",), query_count=64, sample_size=50, repeats=1
    )
    result = run_experiment("parallel_scaling", config)
    print_result(result)

    assert result.rows, "parallel_scaling produced no rows"
    # Hard invariant, independent of load: every row's answers matched the
    # serial executor at the same shard count, bit for bit.
    assert all(bool(row["identical"]) for row in result.rows)
    assert all(row["qps"] > 0 for row in result.rows)
    # Loose wall-clock floor: a warm process scatter must stay within 50x of
    # the serial loop.  Real overhead at smoke scale is ~2-10x on one core;
    # only a pathological regression (e.g. respawning or republishing every
    # batch) can breach 50x.  Checked for every scatter at the largest batch,
    # and for the query scatter at 64-query batches, where a per-batch cost
    # is spread over the fewest queries that still do real work.
    by_key = {
        (row["operation"], row["shards"], row["executor"], row["scatter"], row["batch"]): row[
            "qps"
        ]
        for row in result.rows
    }
    largest = max(row["batch"] for row in result.rows)
    for operation in ("count", "sample"):
        for shards in (1, 2, 4):
            for scatter, batch in (
                ("data", largest),
                ("query", largest),
                ("auto", largest),
                ("query", 64),
            ):
                serial = by_key[(operation, shards, "serial", None, batch)]
                process = by_key[(operation, shards, "process", scatter, batch)]
                assert process > serial / 50.0, (operation, shards, scatter, batch)


def test_parallel_scaling_benchmark(benchmark, bench_dataset, bench_queries):
    """Micro-benchmark one warm process-executor count_many batch."""
    import numpy as np

    from repro import ShardedEngine
    from repro.service import ProcessExecutor

    query_array = np.asarray(list(bench_queries), dtype=np.float64)
    executor = ProcessExecutor(max_workers=2, scatter="data")
    try:
        with ShardedEngine(bench_dataset, num_shards=2, executor=executor) as engine:
            engine.count_many(query_array)  # spawn + publish outside the timed region
            benchmark(lambda: engine.count_many(query_array))
    finally:
        executor.shutdown()
