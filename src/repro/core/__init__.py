"""Core data structures: intervals, datasets, and the AIT / AIT-V / AWIT indexes."""

from .ait import AIT
from .ait_v import AITV
from .awit import AWIT
from .base import IntervalIndex, SamplingIndex
from .dataset import IntervalDataset
from .flat import FlatAIT
from .errors import (
    EmptyDatasetError,
    EmptyResultError,
    GatewayClosedError,
    GatewayOverloadError,
    InvalidIntervalError,
    InvalidQueryError,
    InvalidWeightError,
    PersistenceError,
    ReproError,
    SnapshotCorruptError,
    StructureStateError,
    UnsupportedOperationError,
    WALCorruptError,
    WorkerCrashError,
    WorkerFailureError,
    WorkerTimeoutError,
)
from .interval import Interval
from .node import AITNode
from .query import coerce_query, coerce_query_batch, validate_sample_size
from .records import ListKind, NodeRecord

__all__ = [
    "AIT",
    "AITV",
    "AWIT",
    "AITNode",
    "FlatAIT",
    "Interval",
    "IntervalDataset",
    "IntervalIndex",
    "SamplingIndex",
    "ListKind",
    "NodeRecord",
    "coerce_query",
    "coerce_query_batch",
    "validate_sample_size",
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
]
