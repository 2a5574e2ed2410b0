"""Table IV — memory usage of every index, non-weighted case.

Besides regenerating the table, the run asserts the repo's memory-accounting
invariants: ``AIT.memory_bytes`` must expose the capacity-vs-live column
split exactly, and ``FlatAIT.nbytes`` one key per kept list entry — so the
numbers reported here (and by ``ShardedEngine.nbytes``) are mutually
consistent rather than ad-hoc sums.

Every row reports one structure's own ``memory_bytes``.  The AIT row is the
pointer tree of :mod:`repro.core.ait`, which keeps both subtree lists of
every node as the paper describes; the ``FlatAIT`` snapshot that the
service engine serves keeps one subtree list per non-root node and is not
part of any row.
"""

from __future__ import annotations

from ..core import AIT, FlatAIT
from .config import ExperimentConfig
from .grid import run_grid
from .harness import NON_WEIGHTED_ALGORITHMS, build_dataset
from .report import ExperimentResult

__all__ = ["PAPER_REFERENCE", "run"]

#: Table IV of the paper (GB, at full dataset scale).
PAPER_REFERENCE = [
    {"algorithm": "Interval tree", "book": 0.17, "btc": 0.22, "renfe": 2.26, "taxi": 6.27},
    {"algorithm": "HINT^m", "book": 0.10, "btc": 0.06, "renfe": 0.53, "taxi": 1.29},
    {"algorithm": "KDS", "book": 0.29, "btc": 0.32, "renfe": 4.84, "taxi": 13.34},
    {"algorithm": "AIT", "book": 0.30, "btc": 0.78, "renfe": 8.12, "taxi": 29.88},
    {"algorithm": "AIT-V", "book": 0.03, "btc": 0.05, "renfe": 0.66, "taxi": 1.73},
]


def _assert_accounting_invariants(config: ExperimentConfig) -> None:
    """Cross-check the AIT / FlatAIT memory accounting on one dataset.

    * capacity vs live: ``memory_bytes(include_capacity=True)`` exceeds the
      live-only figure by exactly the columnar slack — three float64 columns
      of ``column_capacity - len(columns)`` rows;
    * list pools: ``FlatAIT.nbytes()`` is the node arrays, the root's two
      sorted endpoint columns and two id columns (32 B per interval), one
      8-byte position key per entry of every node's two stab lists and one
      per entry of each non-root node's one kept subtree list — nothing
      else.  (A weighted snapshot adds one 8-byte prefix per key and the
      root columns' two prefixes; Table IV is unweighted.)
    """
    dataset = build_dataset(config, config.datasets[0])
    tree = AIT(dataset, build_backend="tree")
    # Force column slack so the capacity split is non-trivial.
    tree.insert_many([1.0], [2.0])
    with_capacity = tree.memory_bytes(include_capacity=True)
    live_only = tree.memory_bytes(include_capacity=False)
    slack_rows = tree.column_capacity - (len(dataset) + 1)
    assert slack_rows > 0, "capacity doubling should have left slack rows"
    assert with_capacity - live_only == slack_rows * 3 * 8, (
        "memory_bytes capacity/live split must equal the columnar slack exactly"
    )
    flat = tree.flat()
    nodes = list(tree.iter_nodes())
    stab = sum(int(node.stab_ids_by_left.shape[0]) for node in nodes)
    kept = sum(int(node.subtree_ids_by_left.shape[0]) for node in nodes if node is not tree.root)
    node_bytes = sum(int(getattr(flat, attr).nbytes) for _, attr in FlatAIT.CORE_FIELDS[:7])
    assert flat.nbytes() == node_bytes + 4 * 8 * (len(dataset) + 1) + 8 * (2 * stab + kept), (
        "nbytes must be the node arrays, the root columns and ids, and one key per "
        "stab entry and per kept subtree entry"
    )


def run(config: ExperimentConfig) -> ExperimentResult:
    """Measure structure memory (MB at the configured scale) for every competitor."""
    _assert_accounting_invariants(config)
    cells = run_grid(config, NON_WEIGHTED_ALGORITHMS, weighted=False)
    result = ExperimentResult(
        experiment_id="table4",
        title="Memory usage [MB at configured scale] (non-weighted case)",
        columns=["algorithm", *config.datasets],
        paper_reference=PAPER_REFERENCE,
        notes=(
            "Paper reference is in GB at full cardinality; measured values are MB at "
            "config.dataset_size.  Each row is one structure's memory_bytes; the AIT row "
            "is the pointer tree (core/ait.py), which keeps both subtree lists per node "
            "as in the paper, not the served FlatAIT snapshot (one subtree list per "
            "non-root node).  Expected shape: AIT uses the most memory (O(n log n) "
            "lists), AIT-V roughly an order of magnitude less (O(n))."
        ),
    )
    for algorithm in NON_WEIGHTED_ALGORITHMS:
        row = {"algorithm": algorithm}
        for cell in cells:
            if cell.algorithm == algorithm:
                row[cell.dataset] = cell.memory_bytes / 1e6
        result.add_row(**row)
    return result
