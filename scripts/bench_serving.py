#!/usr/bin/env python
"""Measure serving SLO under open-loop overload; emit BENCH_serving.json.

Usage::

    PYTHONPATH=src python scripts/bench_serving.py [--out BENCH_serving.json]

The script stands up the full serving stack — ShardedEngine behind a
RequestGateway (bounded intake queue) behind an
:class:`~repro.service.HttpFrontend` — and measures the resilience properties the front end commits to:

* **load** — a closed-loop burst calibrates the server's capacity, then an
  **open-loop** generator (fixed arrival schedule, independent of server
  progress) offers fixed multiples of that capacity, all past saturation.
  Each row records shed rate and client-side p50/p99.  Hard invariant:
  every request gets an explicit HTTP response and every non-2xx response
  is an expected overload/deadline status (``all_shed_429``) — overload
  must never surface as a hang or a reset;
* **drain** — concurrent HTTP writers insert while a shard worker is
  SIGKILLed mid-service, then the server closes gracefully under fire.
  Hard invariant: every acknowledged write survives into a recovered
  engine and post-close requests are refused (``no_acked_loss``,
  ``post_close_rejected``).

The drive loops are shared with the registered ``serving_slo`` experiment
(:mod:`repro.experiments.exp_serving_slo`), so the committed baseline
measures exactly what ``repro-experiments run serving_slo`` measures.
``scripts/check_bench.py`` gates the hard invariants at exactly 1.0.

The payload is shape-validated before it is written, so a CI smoke
invocation at tiny sizes doubles as a schema regression test.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ShardedEngine, __version__  # noqa: E402
from repro.datasets import generate_paper_dataset, generate_queries  # noqa: E402
from repro.experiments.exp_serving_slo import (  # noqa: E402
    ENGINE_SHARDS,
    MAX_QUEUE_DEPTH,
    OFFERED_MULTIPLIERS,
    calibrate_capacity,
    measure_drain,
    measure_offered_load,
    serve_frontend,
)


def bench_load(
    n: int,
    duration_s: float,
    sample_size: int,
    multipliers: list[float],
    max_queue_depth: int,
    deadline_ms: float,
) -> list[dict]:
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    workload = generate_queries(dataset, count=256, extent_fraction=0.08, random_state=2)
    queries = np.asarray(list(workload), dtype=np.float64)

    rows: list[dict] = []
    with ShardedEngine(dataset, num_shards=ENGINE_SHARDS) as engine:
        engine.refresh()
        frontend = serve_frontend(engine, max_queue_depth, deadline_ms)
        try:
            host, port = frontend.address
            probe = (float(queries[0, 0]), float(queries[0, 1]))
            capacity = calibrate_capacity(host, port, probe, sample_size)
            print(f"n={n:>7} calibrated capacity ~{capacity:.0f} req/s")
            for multiplier in multipliers:
                row = measure_offered_load(
                    host,
                    port,
                    queries,
                    offered_rps=capacity * multiplier,
                    duration_s=duration_s,
                    sample_size=sample_size,
                    deadline_ms=deadline_ms,
                )
                row = {"n": n, "multiplier": multiplier, **row}
                rows.append(row)
                print(
                    f"n={n:>7} offered={row['offered_rps']:>8.0f}rps ({multiplier:g}x)"
                    f"  ok={row['ok']:<6} shed={row['shed']:<6}"
                    f"  shed_rate={row['shed_rate']:.3f}"
                    f"  p50={row['p50_ms']:.1f}ms p99={row['p99_ms']:.1f}ms"
                    f"  all_shed_429={row['all_shed_429']}"
                )
        finally:
            frontend.close()
    return rows


def bench_drain(n: int, writers: int, min_acks: int) -> list[dict]:
    dataset = generate_paper_dataset("btc", n=n, random_state=3)
    with tempfile.TemporaryDirectory(prefix="repro-bench-drain-") as directory:
        row = measure_drain(dataset, directory, writers=writers, min_acks=min_acks)
    row = {"n": n, **row}
    print(
        f"n={n:>7} drain: acked={row['writes_acked']} "
        f"worker_killed={row['worker_killed']} no_acked_loss={row['no_acked_loss']} "
        f"post_close_rejected={row['post_close_rejected']}"
    )
    return [row]


def validate_payload(payload: dict) -> None:
    """Assert the emitted JSON has the committed schema; raise on drift."""
    assert set(payload) == {"config", "results"}, "payload must have config + results"
    assert set(payload["results"]) == {"load", "drain"}
    assert payload["results"]["load"], "load must carry at least one row"
    for row in payload["results"]["load"]:
        assert {
            "n",
            "multiplier",
            "offered_rps",
            "sent",
            "ok",
            "shed",
            "shed_rate",
            "p50_ms",
            "p99_ms",
            "all_shed_429",
        } <= set(row)
        assert row["sent"] == row["ok"] + row["shed"] + row["deadline"] + row[
            "unavailable"
        ] + row["other"] + row["transport_errors"]
    assert payload["results"]["drain"], "drain must carry at least one row"
    for row in payload["results"]["drain"]:
        assert {
            "n",
            "writes_acked",
            "worker_killed",
            "no_acked_loss",
            "post_close_rejected",
        } <= set(row)
        assert row["writes_acked"] > 0, "drain must acknowledge writes before closing"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serving.json",
        help="output JSON path (default: repo-root BENCH_serving.json)",
    )
    parser.add_argument("--size", type=int, default=100_000, help="dataset size (load)")
    parser.add_argument(
        "--drain-size", type=int, default=20_000, help="dataset size (drain segment)"
    )
    parser.add_argument(
        "--duration", type=float, default=3.0, help="seconds per offered-load point"
    )
    parser.add_argument("--samples", type=int, default=100, help="samples per request")
    parser.add_argument(
        "--multipliers",
        type=float,
        nargs="+",
        default=list(OFFERED_MULTIPLIERS),
        help="offered-load multiples of calibrated capacity (past saturation)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=MAX_QUEUE_DEPTH,
        help="gateway intake bound (requests queued before 429s)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=2_000.0, help="per-request deadline"
    )
    parser.add_argument("--writers", type=int, default=3, help="drain writer threads")
    parser.add_argument(
        "--min-acks", type=int, default=8, help="acks per writer before kill/drain"
    )
    args = parser.parse_args(argv)

    load_rows = bench_load(
        args.size,
        args.duration,
        args.samples,
        args.multipliers,
        args.max_queue_depth,
        args.deadline_ms,
    )
    print()
    drain_rows = bench_drain(args.drain_size, args.writers, args.min_acks)

    payload = {
        "config": {
            "dataset": "btc (synthetic analogue)",
            "size": args.size,
            "drain_size": args.drain_size,
            "duration_s": args.duration,
            "sample_size": args.samples,
            "multipliers": args.multipliers,
            "max_queue_depth": args.max_queue_depth,
            "deadline_ms": args.deadline_ms,
            "writers": args.writers,
            "min_acks": args.min_acks,
            "engine_shards": ENGINE_SHARDS,
            "repro_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": {"load": load_rows, "drain": drain_rows},
    }
    validate_payload(payload)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
