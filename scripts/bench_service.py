#!/usr/bin/env python
"""Measure ShardedEngine shard-count scaling and emit BENCH_service.json.

Usage::

    PYTHONPATH=src python scripts/bench_service.py [--out BENCH_service.json]

For each dataset size the script builds the unsharded ``FlatAIT`` baseline
and a :class:`~repro.service.ShardedEngine` at every requested shard count
(serial executor), then times the three batch operations
(``count_many`` / ``report_many`` / ``sample_many``) over the same query
workload.  The JSON output records queries/second per (n, operation, shards,
executor) so successive PRs have shard-scaling curves to compare against:

    {"config": {...}, "results": [{"n": ..., "operation": "sample",
      "shards": 4, "executor": "serial", "qps": ..., "vs_unsharded": ...}, ...]}

``shards = 0`` rows are the unsharded baseline.  Expect the curves to sit
*below* the baseline and fall as K grows: scatter-gather re-pays the batch's
fixed vectorisation overhead once per shard, and every shard classifies
every query.  That is the honest trade: on one node the sharded engine buys
update isolation (a write re-snapshots one shard, not the world) and a
scale-out architecture, not batch throughput — the curves quantify the price, and a PR that narrows the
gap has improved the serving layer.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AIT, ShardedEngine, __version__  # noqa: E402
from repro.datasets import generate_paper_dataset, generate_queries  # noqa: E402
from repro.experiments.exp_service_throughput import measure_qps  # noqa: E402


def bench_one(
    n: int, query_count: int, sample_size: int, shard_counts: list[int], repeats: int
) -> list[dict]:
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    workload = generate_queries(dataset, count=query_count, extent_fraction=0.08, random_state=2)
    query_array = np.asarray(list(workload), dtype=np.float64)

    flat = AIT(dataset).flat()
    operations = {
        "count": lambda engine: engine.count_many(query_array),
        "report": lambda engine: engine.report_many(query_array),
        "sample": lambda engine: engine.sample_many(query_array, sample_size, random_state=0),
    }

    rows = []
    baselines = {}
    for operation, run_batch in operations.items():
        qps = measure_qps(lambda: run_batch(flat), query_count, repeats)
        baselines[operation] = qps
        rows.append(
            {
                "n": n,
                "operation": operation,
                "shards": 0,
                "executor": "none",
                "qps": round(qps, 1),
                "vs_unsharded": 1.0,
            }
        )
        print(f"n={n:>7} {operation:<7} unsharded            {qps:>12.0f} q/s")

    for shards in shard_counts:
        with ShardedEngine(dataset, num_shards=shards) as engine:
            engine.refresh()
            for operation, run_batch in operations.items():
                qps = measure_qps(lambda: run_batch(engine), query_count, repeats)
                ratio = qps / baselines[operation] if baselines[operation] > 0 else float("inf")
                rows.append(
                    {
                        "n": n,
                        "operation": operation,
                        "shards": shards,
                        "executor": "serial",
                        "qps": round(qps, 1),
                        "vs_unsharded": round(ratio, 3),
                    }
                )
                print(
                    f"n={n:>7} {operation:<7} K={shards} serial"
                    f"     {qps:>12.0f} q/s   {ratio:5.2f}x baseline"
                )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_service.json",
        help="output JSON path (default: repo-root BENCH_service.json)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[100_000], help="dataset sizes"
    )
    parser.add_argument("--queries", type=int, default=1_000, help="queries per measurement")
    parser.add_argument("--samples", type=int, default=100, help="samples per query")
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4, 8], help="shard counts to sweep"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing repetitions")
    args = parser.parse_args(argv)

    results = []
    for n in args.sizes:
        results.extend(bench_one(n, args.queries, args.samples, args.shards, args.repeats))

    payload = {
        "config": {
            "dataset": "btc (synthetic analogue)",
            "sizes": args.sizes,
            "query_count": args.queries,
            "extent_fraction": 0.08,
            "sample_size": args.samples,
            "shard_counts": args.shards,
            "repeats": args.repeats,
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
