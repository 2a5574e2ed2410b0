#!/usr/bin/env python
"""Measure full-build performance end-to-end and emit BENCH_build.json.

Usage::

    PYTHONPATH=src python scripts/bench_build.py [--out BENCH_build.json]

Two measurements:

* **full_build** — producing a queryable ``FlatAIT`` over n intervals via the
  two full-build routes: *tree* (``AIT(build_backend="tree")`` + the
  ``from_tree`` flatten — the legacy pipeline) vs *columnar*
  (``FlatAIT.from_arrays`` straight from the endpoint arrays, no Python node
  tree).  Runs on every paper-analogue dataset at every ``--sizes`` point;
  the two engines are verified bit-identical per cell (``arrays_equal``),
  and ``bytes_per_interval`` records ``FlatAIT.nbytes()`` per interval.
  The headline acceptance number is the *max* speedup at the largest size —
  the tree route pays Python-level work per node, so datasets building many
  nodes (taxi) gain the most;
* **weighted_build** — the same comparison for the weighted AWIT layout
  (weight-prefix pools included), at ``--weighted-sizes``, with its own
  ``bytes_per_interval``.

The emitted payload is shape-validated before it is written, so a CI smoke
invocation at tiny sizes doubles as a schema regression test:

    {"config": {...}, "results": {"full_build": [...], "weighted_build": [...]}}
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AIT, AWIT, __version__  # noqa: E402
from repro.core.flat import FlatAIT  # noqa: E402
from repro.datasets import generate_paper_dataset  # noqa: E402

#: Datasets swept by the full_build section (paper Table III order).
DATASETS = ("book", "btc", "renfe", "taxi")


def _best(fn, repeats: int) -> tuple[float, object]:
    """Best-of-N timing with one untimed warm-up run.

    The warm-up absorbs first-touch page-allocation cost (pool-sized arrays
    are hundreds of MB at 1M intervals), which otherwise dominates whichever
    route happens to run first and makes cells order-dependent.
    """
    result = fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        del result
        gc.collect()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _snapshots_equal(columnar: FlatAIT, tree: FlatAIT) -> bool:
    return columnar.arrays_equal(tree)


def bench_full_build(dataset_name: str, n: int, repeats: int) -> dict:
    """Tree-route vs columnar-route full build of one FlatAIT."""
    dataset = generate_paper_dataset(dataset_name, n=n, random_state=1)

    def tree_route():
        return AIT(dataset, build_backend="tree").flat()

    def columnar_route():
        return FlatAIT.from_arrays(dataset.lefts, dataset.rights)

    columnar_seconds, columnar_flat = _best(columnar_route, repeats)
    tree_seconds, tree_flat = _best(tree_route, repeats)
    equal = _snapshots_equal(columnar_flat, tree_flat)
    if not equal:
        raise AssertionError(
            f"from_arrays diverged from from_tree on {dataset_name} n={n}"
        )
    speedup = tree_seconds / columnar_seconds if columnar_seconds > 0 else float("inf")
    print(
        f"{dataset_name:>6} n={n:>8} full_build    tree {tree_seconds:8.2f} s   "
        f"columnar {columnar_seconds:8.2f} s   {speedup:6.1f}x"
    )
    return {
        "dataset": dataset_name,
        "n": n,
        "tree_seconds": round(tree_seconds, 4),
        "columnar_seconds": round(columnar_seconds, 4),
        "speedup": round(speedup, 2),
        "arrays_equal": bool(equal),
        "bytes_per_interval": round(columnar_flat.nbytes() / n, 2),
    }


def bench_weighted_build(n: int, repeats: int) -> dict:
    """Tree vs columnar full build of the weighted (AWIT) layout."""
    dataset = generate_paper_dataset("btc", n=n, weighted=True, random_state=1)

    def tree_route():
        return AWIT(dataset, build_backend="tree").flat()

    def columnar_route():
        return FlatAIT.from_arrays(dataset.lefts, dataset.rights, weights=dataset.weights)

    columnar_seconds, columnar_flat = _best(columnar_route, repeats)
    tree_seconds, tree_flat = _best(tree_route, repeats)
    if not _snapshots_equal(columnar_flat, tree_flat):
        raise AssertionError(f"weighted from_arrays diverged from from_tree at n={n}")
    speedup = tree_seconds / columnar_seconds if columnar_seconds > 0 else float("inf")
    print(
        f"   btc n={n:>8} weighted      tree {tree_seconds:8.2f} s   "
        f"columnar {columnar_seconds:8.2f} s   {speedup:6.1f}x"
    )
    return {
        "n": n,
        "tree_seconds": round(tree_seconds, 4),
        "columnar_seconds": round(columnar_seconds, 4),
        "speedup": round(speedup, 2),
        "bytes_per_interval": round(columnar_flat.nbytes() / n, 2),
    }


def validate_payload(payload: dict) -> None:
    """Assert the emitted JSON has the committed schema; raise on drift."""
    assert set(payload) == {"config", "results"}, "payload must have config + results"
    results = payload["results"]
    assert set(results) == {"full_build", "weighted_build"}, "unexpected result sections"
    for row in results["full_build"]:
        assert {
            "dataset",
            "n",
            "tree_seconds",
            "columnar_seconds",
            "speedup",
            "arrays_equal",
            "bytes_per_interval",
        } <= set(row)
    for row in results["weighted_build"]:
        assert {"n", "tree_seconds", "columnar_seconds", "speedup", "bytes_per_interval"} <= set(
            row
        )
    assert results["full_build"] and results["weighted_build"], (
        "every section must carry at least one row"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_build.json",
        help="output JSON path (default: repo-root BENCH_build.json)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1_000_000], help="full_build dataset sizes"
    )
    parser.add_argument(
        "--weighted-sizes",
        type=int,
        nargs="+",
        default=[200_000],
        help="weighted_build dataset sizes",
    )
    parser.add_argument("--repeats", type=int, default=2, help="best-of-N per cell")
    args = parser.parse_args(argv)

    full_rows = []
    for n in args.sizes:
        for dataset_name in DATASETS:
            full_rows.append(bench_full_build(dataset_name, n, args.repeats))
    weighted_rows = [bench_weighted_build(n, args.repeats) for n in args.weighted_sizes]

    payload = {
        "config": {
            "datasets": list(DATASETS),
            "sizes": args.sizes,
            "weighted_sizes": args.weighted_sizes,
            "repeats": args.repeats,
            "repro_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": {
            "full_build": full_rows,
            "weighted_build": weighted_rows,
        },
    }
    validate_payload(payload)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
