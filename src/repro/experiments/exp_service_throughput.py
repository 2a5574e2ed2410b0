"""Service throughput — shard-count scaling of the ShardedEngine.

Not a table from the paper: like ``throughput``, this experiment tracks the
engineering headroom of the reproduction's serving layer.  It builds a
:class:`~repro.service.ShardedEngine` at several shard counts over the btc
analogue, answers one batch workload per operation (count / report /
sample), and reports queries/second next to the unsharded ``FlatAIT``
baseline (``shards = 0`` row) plus the relative throughput.  The engines
of one operation are timed round-robin.

Every shard count runs the serial (inline) scatter-gather loop, which
isolates pure partitioning overhead; process-executor scaling is the
``parallel_scaling`` experiment.  Expect the curves to sit below the
baseline and fall as K grows: scatter-gather re-pays the batch's fixed
vectorisation overhead once per shard.  On one node the sharded engine
buys update isolation, not batch throughput.  ``scripts/bench.py
service_throughput`` writes the same rows to ``BENCH_service.json``.
"""

from __future__ import annotations

from contextlib import ExitStack
from functools import partial

from ..core import AIT
from ..service import ShardedEngine
from .config import ExperimentConfig
from .harness import btc_workload, ledger_result, time_round_robin
from .report import ExperimentResult

__all__ = ["run", "measure", "indicators", "LEDGER", "DEFAULTS", "SCHEMA"]

LEDGER = "service"

#: Settable values of ``scripts/bench.py service_throughput`` and their defaults.
DEFAULTS = {
    "sizes": [100_000],
    "queries": 1_000,
    "samples": 100,
    "shards": [1, 2, 4, 8],
    "repeats": 3,
}

SCHEMA = {None: {"n", "operation", "shards", "executor", "qps", "vs_unsharded"}}


def measure(sizes, queries, samples, shards, repeats) -> list[dict]:
    """Best-of-``repeats`` batch throughput per (n, operation, shard count)."""
    operations = {
        "count": lambda engine, q: engine.count_many(q),
        "report": lambda engine, q: engine.report_many(q),
        "sample": lambda engine, q: engine.sample_many(q, samples, random_state=0),
    }
    rows = []
    for n in sizes:
        dataset, query_array = btc_workload(n, queries)
        with ExitStack() as stack:
            engines = {0: AIT(dataset).flat()}
            for k in shards:
                engines[k] = stack.enter_context(ShardedEngine(dataset, num_shards=k))
                engines[k].refresh()
            for operation, op in operations.items():
                times = time_round_robin(
                    {k: partial(op, engine, query_array) for k, engine in engines.items()},
                    repeats,
                )
                qps = {k: queries / min(seconds) for k, seconds in times.items()}
                rows.extend(
                    {
                        "n": n,
                        "operation": operation,
                        "shards": k,
                        "executor": "serial" if k else "none",
                        "qps": qps[k],
                        "vs_unsharded": qps[k] / qps[0],
                    }
                    for k in engines
                )
    return rows


def indicators(payload: dict) -> dict[str, float]:
    """Best sharded-over-unsharded throughput ratio per operation."""
    out: dict[str, float] = {}
    for row in payload["results"]:
        if row["shards"] == 0:
            continue
        key = f"vs_unsharded[{row['operation']}]"
        out[key] = max(out.get(key, 0.0), float(row["vs_unsharded"]))
    return out


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure batch throughput of the sharded service vs the unsharded engine."""
    rows = measure(
        **DEFAULTS
        | {
            "sizes": [config.dataset_size],
            "queries": config.query_count,
            "samples": min(config.sample_size, 100),
            "repeats": config.repeats,
        }
    )
    return ledger_result(
        "service_throughput",
        "Sharded service throughput vs shard count [queries/sec]",
        rows,
        notes=(
            "Baseline (shards=0) = the unsharded FlatAIT batch engine; other "
            "rows = ShardedEngine scatter-gather at K shards with the serial "
            "loop.  Results are exactly equal (count/report) "
            "or distribution-identical (sample) across all rows."
        ),
    )
