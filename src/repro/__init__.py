"""repro — Independent Range Sampling on Interval Data (ICDE 2024) reproduction.

The package implements the paper's data structures (AIT, AIT-V, AWIT), every
competitor used in its evaluation (Edelsbrunner interval tree, HINT^m, KDS,
kd-tree), synthetic analogues of the evaluation datasets, statistical
validation utilities and a harness that regenerates every table and figure of
the paper's experimental section.

Quickstart
----------
>>> from repro import AIT, IntervalDataset
>>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30)])
>>> tree = AIT(data)
>>> tree.count((4, 12))
2
>>> len(tree.sample((4, 12), 3, random_state=7))
3
"""

from .core import (
    AIT,
    AITV,
    AWIT,
    AITNode,
    EmptyDatasetError,
    EmptyResultError,
    FlatAIT,
    GatewayClosedError,
    GatewayOverloadError,
    Interval,
    IntervalDataset,
    IntervalIndex,
    InvalidIntervalError,
    InvalidQueryError,
    InvalidWeightError,
    ListKind,
    NodeRecord,
    PersistenceError,
    ReproError,
    SamplingIndex,
    SnapshotCorruptError,
    StructureStateError,
    UnsupportedOperationError,
    WALCorruptError,
    WorkerCrashError,
    WorkerFailureError,
    WorkerTimeoutError,
)
from .persist import DeltaLog
from .sampling import AliasTable, CumulativeSampler
from .service import RequestGateway, ShardedEngine

__version__ = "1.16.0"

__all__ = [
    "AIT",
    "AITV",
    "AWIT",
    "AITNode",
    "AliasTable",
    "CumulativeSampler",
    "DeltaLog",
    "FlatAIT",
    "Interval",
    "IntervalDataset",
    "IntervalIndex",
    "SamplingIndex",
    "RequestGateway",
    "ShardedEngine",
    "ListKind",
    "NodeRecord",
    "ReproError",
    "InvalidIntervalError",
    "InvalidQueryError",
    "InvalidWeightError",
    "EmptyDatasetError",
    "EmptyResultError",
    "StructureStateError",
    "UnsupportedOperationError",
    "GatewayClosedError",
    "GatewayOverloadError",
    "WorkerCrashError",
    "WorkerFailureError",
    "WorkerTimeoutError",
    "PersistenceError",
    "SnapshotCorruptError",
    "WALCorruptError",
    "__version__",
]
