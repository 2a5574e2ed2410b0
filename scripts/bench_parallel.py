#!/usr/bin/env python
"""Measure process-executor scaling and emit BENCH_parallel.json.

Usage::

    PYTHONPATH=src python scripts/bench_parallel.py [--out BENCH_parallel.json]

For each dataset size the script sweeps shard counts K and batch sizes
with the serial (inline) loop and the :class:`~repro.service.ProcessExecutor`
under both scatter strategies — ``scatter="query"`` (shard x query-block
tiles over all workers) and ``scatter="auto"`` (the default: inline in the
owner process unless the batch is a ``sample`` batch of at least 64
queries) — times ``count_many`` and ``sample_many`` on the same workload,
and records queries/second per (n, operation, shards, executor, scatter,
batch) plus two derived columns:

* ``vs_serial_k1``      — throughput relative to the serial K=1 engine at
  the same batch size;
* ``results_identical`` — **hard invariant**: the process executor's
  answers are bit-identical (exact array equality on counts and on
  fixed-seed sample draws) to the serial executor's at the same K and
  batch, under both scatter strategies.

The batch-size axis is where the ``auto`` rule comes from: the batch size
at which a worker-bound row first beats the serial row is the break-even
of the worker round trip.

Numbers are hardware-honest: ``config.cpu_count`` records the cores the
sweep actually had.  ``count_many`` per shard is two ``searchsorted``
passes — sharding splits the data, not the O(Q·log n) work; the query
scatter divides the batch itself and is the row that can exceed 1x on
count given real cores.  On a single-core runner every worker-bound row
pays IPC with no parallel gain, which is why the regression gate treats the
scaling ratios as advisory (wide tolerance) and gates hard only on
``results_identical``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import __version__  # noqa: E402
from repro.datasets import generate_paper_dataset, generate_queries  # noqa: E402
from repro.experiments.exp_parallel_scaling import (  # noqa: E402
    PARALLEL_BATCH_SWEEP,
    sweep,
)


def bench_one(
    n: int,
    query_count: int,
    sample_size: int,
    shard_counts: list[int],
    batches: list[int],
    repeats: int,
) -> list[dict]:
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    workload = generate_queries(dataset, count=query_count, extent_fraction=0.08, random_state=2)
    query_array = np.asarray(list(workload), dtype=np.float64)

    rows = []
    for row in sweep(dataset, query_array, sample_size, shard_counts, batches, repeats):
        rows.append(
            {
                "n": n,
                "operation": row["operation"],
                "shards": row["shards"],
                "executor": row["executor"],
                "scatter": row["scatter"],
                "batch": row["batch"],
                "qps": round(row["qps"], 1),
                "vs_serial_k1": round(row["vs_serial_k1"], 3),
                "results_identical": bool(row["identical"]),
            }
        )
        label = row["executor"] if row["scatter"] is None else f"process/{row['scatter']}"
        print(
            f"n={n:>7} {row['operation']:<7} K={row['shards']} {label:<14}"
            f" batch={row['batch']:>5} {row['qps']:>12.0f} q/s"
            f"   {row['vs_serial_k1']:5.2f}x serial-K1   identical={row['identical']}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_parallel.json",
        help="output JSON path (default: repo-root BENCH_parallel.json)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[100_000], help="dataset sizes"
    )
    parser.add_argument(
        "--queries", type=int, default=1_000, help="query workload (cycled to fill a batch)"
    )
    parser.add_argument("--samples", type=int, default=100, help="samples per query")
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4], help="shard counts to sweep"
    )
    parser.add_argument(
        "--batches",
        type=int,
        nargs="+",
        default=list(PARALLEL_BATCH_SWEEP),
        help="queries per count_many / sample_many call",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing repetitions")
    args = parser.parse_args(argv)

    results = []
    for n in args.sizes:
        results.extend(
            bench_one(n, args.queries, args.samples, args.shards, args.batches, args.repeats)
        )

    payload = {
        "config": {
            "dataset": "btc (synthetic analogue)",
            "sizes": args.sizes,
            "query_count": args.queries,
            "extent_fraction": 0.08,
            "sample_size": args.samples,
            "shard_counts": args.shards,
            "batches": args.batches,
            "repeats": args.repeats,
            "cpu_count": os.cpu_count(),
            "repro_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
