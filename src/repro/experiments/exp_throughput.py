"""Throughput — batched (FlatAIT) vs scalar query execution.

Not a table from the paper: this experiment tracks the engineering headroom
of the reproduction itself.  The paper's complexity results fix the *asymptotic*
query cost; what dominates wall-clock time in Python is per-query interpreter
dispatch.  The flat batch engine (:class:`~repro.core.flat.FlatAIT`) amortises
that dispatch across a whole query batch, and this experiment measures the
resulting throughput (queries/second) for counting, reporting and sampling
on the btc analogue, alongside the scalar-loop baseline and the speedup
factor.  Sampling is measured at every requested sample size because the
speedup is s-dependent: at small s the batch engine amortises per-query
dispatch; at large s both paths are dominated by per-draw array work.

``scripts/bench.py throughput`` writes the same rows to
``BENCH_throughput.json``.
"""

from __future__ import annotations

from functools import partial

from ..core import AIT
from ..sampling.rng import resolve_rng
from .config import ExperimentConfig
from .harness import btc_workload, ledger_result, time_round_robin
from .report import ExperimentResult

__all__ = ["run", "measure", "indicators", "LEDGER", "DEFAULTS", "SCHEMA"]

LEDGER = "throughput"

#: Settable values of ``scripts/bench.py throughput`` and their defaults.
DEFAULTS = {"sizes": [10_000, 100_000], "queries": 1_000, "samples": [100, 1_000], "repeats": 3}

SCHEMA = {None: {"n", "operation", "sample_size", "scalar_qps", "batch_qps", "speedup"}}


def measure(sizes, queries, samples, repeats) -> list[dict]:
    """Best-of-``repeats`` scalar and batch throughput per (n, operation, s)."""
    rows = []
    for n in sizes:
        dataset, query_array = btc_workload(n, queries)
        scalar_queries = [tuple(query) for query in query_array.tolist()]
        tree = AIT(dataset)
        tree.flat()  # snapshot once; both paths then query a warm structure

        def scalar_sample(s):
            # One Generator per invocation, created outside the per-query
            # loop so its construction is not charged to the scalar side.
            rng = resolve_rng(0)
            return [tree.sample(q, s, random_state=rng) for q in scalar_queries]

        operations = [
            ("count", None, lambda: [tree.count(q) for q in scalar_queries],
             partial(tree.count_many, query_array)),
            ("report", None, lambda: [tree.report(q) for q in scalar_queries],
             partial(tree.report_many, query_array)),
        ] + [
            ("sample", s, partial(scalar_sample, s),
             partial(tree.sample_many, query_array, s, random_state=0))
            for s in samples
        ]
        for operation, s, scalar_fn, batch_fn in operations:
            times = time_round_robin({"scalar": scalar_fn, "batch": batch_fn}, repeats)
            scalar_qps = queries / min(times["scalar"])
            batch_qps = queries / min(times["batch"])
            rows.append(
                {
                    "n": n,
                    "operation": operation,
                    "sample_size": s,
                    "scalar_qps": scalar_qps,
                    "batch_qps": batch_qps,
                    "speedup": batch_qps / scalar_qps,
                }
            )
    return rows


def indicators(payload: dict) -> dict[str, float]:
    """Batch-over-scalar speedup per operation (best row)."""
    out: dict[str, float] = {}
    for row in payload["results"]:
        key = f"batch_speedup[{row['operation']}]"
        out[key] = max(out.get(key, 0.0), float(row["speedup"]))
    return out


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure scalar vs batch throughput of the AIT per operation."""
    rows = measure([config.dataset_size], config.query_count, [config.sample_size], config.repeats)
    return ledger_result(
        "throughput",
        "Batch vs scalar query throughput [queries/sec]",
        rows,
        notes=(
            "Scalar = one Python call per query on the pointer-based AIT; "
            "batch = count_many/report_many/sample_many on the flat "
            "structure-of-arrays engine.  The speedup is pure constant-factor "
            "(identical asymptotics and identical results)."
        ),
    )
