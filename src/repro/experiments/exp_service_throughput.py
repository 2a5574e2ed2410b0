"""Service throughput — shard-count scaling of the ShardedEngine.

Not a table from the paper: like ``throughput``, this experiment tracks the
engineering headroom of the reproduction's serving layer.  It builds a
:class:`~repro.service.ShardedEngine` at several shard counts over each
dataset, answers one batch workload per operation (count / report / sample),
and reports queries/second next to the unsharded ``FlatAIT`` baseline
(``shards = 0`` row) plus the relative throughput.

Every shard count runs the serial (inline) scatter-gather loop, which
isolates pure partitioning overhead/benefit; process-executor scaling is the
``parallel_scaling`` experiment.  ``scripts/bench_service.py`` runs the
same measurement standalone and emits ``BENCH_service.json`` so successive
PRs can compare scaling curves.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..core import AIT, AWIT
from ..service import ShardedEngine
from .config import ExperimentConfig
from .harness import build_dataset, build_workload
from .report import ExperimentResult

__all__ = ["run", "measure_qps", "SHARD_SWEEP"]

#: Shard counts measured by default (0 = the unsharded FlatAIT baseline).
SHARD_SWEEP: tuple[int, ...] = (1, 2, 4)


def measure_qps(fn: Callable[[], object], query_count: int, repeats: int = 1) -> float:
    """Best-of-N throughput of ``fn`` in queries/second."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return query_count / best if best > 0 else float("inf")


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure batch throughput of the sharded service vs the unsharded engine."""
    result = ExperimentResult(
        experiment_id="service_throughput",
        title="Sharded service throughput vs shard count [queries/sec]",
        columns=["dataset", "operation", "shards", "executor", "qps", "vs_unsharded"],
        notes=(
            "Baseline (shards=0) = the unsharded FlatAIT batch engine; other "
            "rows = ShardedEngine scatter-gather at K shards with the serial "
            "loop.  Results are exactly equal (count/report) "
            "or distribution-identical (sample) across all rows."
        ),
    )
    repeats = max(1, config.repeats)
    sample_size = min(config.sample_size, 100)
    for dataset_name in config.datasets:
        dataset = build_dataset(config, dataset_name)
        workload = build_workload(config, dataset, dataset_name)
        query_array = np.asarray(list(workload), dtype=np.float64)
        query_count = int(query_array.shape[0])

        tree = AWIT(dataset) if dataset.is_weighted else AIT(dataset)
        flat = tree.flat()
        operations = {
            "count": lambda engine: engine.count_many(query_array),
            "report": lambda engine: engine.report_many(query_array),
            "sample": lambda engine: engine.sample_many(
                query_array, sample_size, random_state=0
            ),
        }

        baselines: dict[str, float] = {}
        for operation, run_batch in operations.items():
            qps = measure_qps(lambda: run_batch(flat), query_count, repeats)
            baselines[operation] = qps
            result.add_row(
                dataset=dataset_name,
                operation=operation,
                shards=0,
                executor="none",
                qps=qps,
                vs_unsharded=1.0,
            )

        for shards in SHARD_SWEEP:
            with ShardedEngine(dataset, num_shards=shards) as engine:
                engine.refresh()
                for operation, run_batch in operations.items():
                    qps = measure_qps(lambda: run_batch(engine), query_count, repeats)
                    result.add_row(
                        dataset=dataset_name,
                        operation=operation,
                        shards=shards,
                        executor="serial",
                        qps=qps,
                        vs_unsharded=qps / baselines[operation]
                        if baselines[operation] > 0
                        else float("inf"),
                    )
    return result
