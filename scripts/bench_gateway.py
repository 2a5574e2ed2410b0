#!/usr/bin/env python
"""Measure gateway micro-batching latency under load; emit BENCH_gateway.json.

Usage::

    PYTHONPATH=src python scripts/bench_gateway.py [--out BENCH_gateway.json]

For each dataset size the script builds a 2-shard
:class:`~repro.service.ShardedEngine` and drives it with ``C`` concurrent
closed-loop client threads issuing single ``count`` and ``sample`` requests,
in two dispatch modes:

* **scalar** — the naive one-query-per-call baseline, lock-serialised (the
  engine's write path makes unsynchronised sharing unsafe);
* **gateway** — a :class:`~repro.service.RequestGateway` coalescing the
  concurrent requests into micro-batches: a batch is whatever is queued
  when the dispatcher becomes free, up to ``--batch`` requests.

Every request's end-to-end latency is recorded client-side; the JSON output
carries p50/p95/p99 per (n, operation, mode, clients) plus a ``summary``
section with the headline number — the p95 ratio of scalar over gateway at
the highest client count.  The expected shape: scalar p95 grows ~linearly
with C (per-call fixed cost serialises), gateway p95 flattens (one
micro-batch pays the fixed cost once for every caller queued behind the
previous one), so the ratio rises with offered load.

The payload is shape-validated before it is written, so a CI smoke
invocation at tiny sizes doubles as a schema regression test.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ShardedEngine, __version__  # noqa: E402
from repro.datasets import generate_paper_dataset, generate_queries  # noqa: E402
from repro.experiments.exp_gateway_latency import (  # noqa: E402
    ENGINE_SHARDS,
    measure_modes,
)


def bench_one(
    n: int,
    requests: int,
    sample_size: int,
    client_counts: list[int],
    max_batch_size: int,
) -> list[dict]:
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    workload = generate_queries(dataset, count=requests, extent_fraction=0.08, random_state=2)
    queries = np.asarray(list(workload), dtype=np.float64)

    rows: list[dict] = []
    with ShardedEngine(dataset, num_shards=ENGINE_SHARDS) as engine:
        engine.refresh()
        for clients in client_counts:
            # The drive loop is shared with the registered gateway_latency
            # experiment, so the committed baseline measures the same thing.
            for operation, mode, profile in measure_modes(
                engine, queries, clients, sample_size, max_batch_size
            ):
                rows.append(_row(n, operation, mode, clients, profile))
    return rows


def _row(n: int, operation: str, mode: str, clients: int, profile: dict) -> dict:
    row = {
        "n": n,
        "operation": operation,
        "mode": mode,
        "clients": clients,
        "requests": profile["requests"],
        "rps": round(profile["rps"], 1),
        "p50_ms": round(profile["p50_ms"], 3),
        "p95_ms": round(profile["p95_ms"], 3),
        "p99_ms": round(profile["p99_ms"], 3),
    }
    print(
        f"n={n:>7} {operation:<7} {mode:<8} C={clients:<3}"
        f"  p50={row['p50_ms']:>8.3f}ms  p95={row['p95_ms']:>8.3f}ms  "
        f"rps={row['rps']:>10.0f}"
    )
    return row


def summarise(rows: list[dict]) -> list[dict]:
    """Per (n, operation): scalar p95 over gateway p95 at the peak client count."""
    summary: list[dict] = []
    for n in sorted({row["n"] for row in rows}):
        peak = max(row["clients"] for row in rows if row["n"] == n)
        for operation in sorted({row["operation"] for row in rows}):
            at_peak = [
                row
                for row in rows
                if row["n"] == n and row["operation"] == operation and row["clients"] == peak
            ]
            scalar_p95 = min(row["p95_ms"] for row in at_peak if row["mode"] == "scalar")
            gateway_p95 = min(row["p95_ms"] for row in at_peak if row["mode"] == "gateway")
            ratio = scalar_p95 / gateway_p95 if gateway_p95 > 0 else float("inf")
            summary.append(
                {
                    "n": n,
                    "operation": operation,
                    "clients": peak,
                    "scalar_p95_ms": scalar_p95,
                    "gateway_p95_ms": gateway_p95,
                    "p95_speedup": round(ratio, 3),
                }
            )
            print(
                f"n={n:>7} {operation:<7} @C={peak}: scalar p95 {scalar_p95:.3f}ms "
                f"vs gateway p95 {gateway_p95:.3f}ms -> {ratio:.2f}x"
            )
    return summary


def validate_payload(payload: dict) -> None:
    """Assert the emitted JSON has the committed schema; raise on drift."""
    assert set(payload) == {"config", "results", "summary"}, (
        "payload must have config + results + summary"
    )
    assert payload["results"], "results must carry at least one row"
    for row in payload["results"]:
        assert {
            "n",
            "operation",
            "mode",
            "clients",
            "requests",
            "rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        } <= set(row)
        assert row["mode"] in ("scalar", "gateway")
        assert row["operation"] in ("count", "sample")
    assert payload["summary"], "summary must carry at least one row"
    for row in payload["summary"]:
        assert {
            "n",
            "operation",
            "clients",
            "scalar_p95_ms",
            "gateway_p95_ms",
            "p95_speedup",
        } <= set(row)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_gateway.json",
        help="output JSON path (default: repo-root BENCH_gateway.json)",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=[100_000], help="dataset sizes")
    parser.add_argument(
        "--requests", type=int, default=1024, help="requests per measurement point"
    )
    parser.add_argument("--samples", type=int, default=100, help="samples per sample request")
    parser.add_argument(
        "--clients", type=int, nargs="+", default=[1, 4, 16, 64], help="client counts to sweep"
    )
    parser.add_argument(
        "--batch", type=int, default=128, help="gateway max_batch_size"
    )
    args = parser.parse_args(argv)

    results: list[dict] = []
    for n in args.sizes:
        results.extend(
            bench_one(n, args.requests, args.samples, args.clients, args.batch)
        )
    print()
    summary = summarise(results)

    payload = {
        "config": {
            "dataset": "btc (synthetic analogue)",
            "sizes": args.sizes,
            "requests": args.requests,
            "extent_fraction": 0.08,
            "sample_size": args.samples,
            "client_counts": args.clients,
            "max_batch_size": args.batch,
            "engine_shards": ENGINE_SHARDS,
            "repro_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": results,
        "summary": summary,
    }
    validate_payload(payload)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
