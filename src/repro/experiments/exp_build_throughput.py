"""Build throughput — treeless columnar vs tree-walk full builds (extends Table III).

The paper's Table III reports index-construction time; this repo-specific
experiment isolates the *full-build route* of the ``FlatAIT`` execution
engine on the same synthetic dataset analogues:

* **tree** — the legacy pipeline: build the recursive :class:`~repro.AIT`
  node tree (``build_backend="tree"``), then serialise it with
  :meth:`~repro.core.flat.FlatAIT.from_tree`;
* **columnar** — the treeless builder
  :meth:`~repro.core.flat.FlatAIT.from_arrays`, which partitions the raw
  endpoint arrays level-synchronously and never allocates a Python node.

Both routes must produce bit-identical engines (``arrays_equal``; the run
errors otherwise), so the speedup column is a pure constant-factor
comparison of the two builders; ``bytes_per_interval`` records
``FlatAIT.nbytes()`` per interval.  The ``full_build`` section runs every
dataset at every size, and ``weighted_build`` runs the weighted (AWIT)
layout on the btc analogue.  ``scripts/bench.py build_throughput`` writes
the same rows to ``BENCH_build.json``.
"""

from __future__ import annotations

from ..core import AIT, AWIT
from ..core.flat import FlatAIT
from ..datasets import generate_paper_dataset
from .config import DEFAULT_DATASETS, ExperimentConfig
from .harness import ledger_result, time_round_robin
from .report import ExperimentResult

__all__ = ["PAPER_REFERENCE", "run", "measure", "indicators", "LEDGER", "DEFAULTS", "SCHEMA"]

LEDGER = "build"

#: Settable values of ``scripts/bench.py build_throughput`` and their defaults.
DEFAULTS = {"sizes": [1_000_000], "weighted_sizes": [200_000], "repeats": 2}

_ROW = {"dataset", "n", "tree_seconds", "columnar_seconds", "speedup", "bytes_per_interval"}
SCHEMA = {"full_build": _ROW | {"arrays_equal"}, "weighted_build": _ROW}

#: Table III's AIT row (seconds, C++ at full scale) — the closest published
#: reference point for full-build cost of this index family.
PAPER_REFERENCE = [
    {"algorithm": "AIT (Table III)", "book": 3.02, "btc": 7.00, "renfe": 103.52, "taxi": 274.02},
]


def measure_cell(dataset_name: str, n: int, repeats: int, weighted: bool = False) -> dict:
    """Best-of-``repeats`` tree-route vs columnar-route build of one FlatAIT."""
    dataset = generate_paper_dataset(dataset_name, n=n, weighted=weighted, random_state=1)
    tree_type = AWIT if weighted else AIT
    weights = dataset.weights if weighted else None
    routes = {
        "tree": lambda: tree_type(dataset, build_backend="tree").flat(),
        "columnar": lambda: FlatAIT.from_arrays(dataset.lefts, dataset.rights, weights=weights),
    }
    columnar = routes["columnar"]()
    if not columnar.arrays_equal(routes["tree"]()):
        raise AssertionError(f"from_arrays diverged from from_tree on {dataset_name} n={n}")
    times = time_round_robin(routes, repeats)
    tree_seconds, columnar_seconds = min(times["tree"]), min(times["columnar"])
    return {
        "dataset": dataset_name,
        "n": n,
        "tree_seconds": tree_seconds,
        "columnar_seconds": columnar_seconds,
        "speedup": tree_seconds / columnar_seconds,
        "arrays_equal": True,
        "bytes_per_interval": columnar.nbytes() / n,
    }


def measure(sizes, weighted_sizes, repeats, datasets=DEFAULT_DATASETS) -> dict:
    """Both sections: every dataset at every size, then the weighted layout."""
    return {
        "full_build": [measure_cell(name, n, repeats) for n in sizes for name in datasets],
        "weighted_build": [
            measure_cell("btc", n, repeats, weighted=True) for n in weighted_sizes
        ],
    }


def indicators(payload: dict) -> dict[str, float]:
    """Columnar-over-tree speedups, plus the hard builders_bit_identical invariant."""
    results = payload["results"]
    return {
        "columnar_build_speedup": max(float(row["speedup"]) for row in results["full_build"]),
        "columnar_weighted_speedup": max(
            float(row["speedup"]) for row in results["weighted_build"]
        ),
        # Hard invariant rather than a ratio: the two build routes must stay
        # bit-identical on every measured cell.
        "builders_bit_identical": float(
            all(bool(row["arrays_equal"]) for row in results["full_build"])
        ),
    }


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure full-build time of both backends per (dataset, size) point."""
    sizes = [max(2, int(round(config.dataset_size * f))) for f in config.dataset_size_fractions]
    results = measure(sizes, [config.dataset_size], config.repeats, config.datasets)
    return ledger_result(
        "build_throughput",
        "Full-build time: treeless columnar vs tree-walk [sec]",
        results,
        notes=(
            "tree = AIT(build_backend='tree') + FlatAIT.from_tree; columnar = "
            "FlatAIT.from_arrays on the raw endpoint columns.  Outputs are "
            "asserted bit-identical, so speedup is a pure builder comparison; "
            "it grows with n because the tree route pays Python-level work "
            "per node while the columnar route pays one vectorised pass per "
            "tree level."
        ),
        paper_reference=PAPER_REFERENCE,
    )
