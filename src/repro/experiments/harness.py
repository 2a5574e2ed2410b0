"""Measurement harness shared by every experiment module.

The paper's evaluation splits query time into a *candidate computation* phase
(``q ∩ X`` for the search-based algorithms, the node-record set ``R`` for the
AIT family, the canonical cover for KDS) and a *sampling* phase.  The harness
mirrors that split: it times the candidate phase directly, times the full
end-to-end sampling call, and reports the difference as the sampling phase.

Algorithms are wrapped in small :class:`AlgorithmAdapter` objects so all
experiments can iterate over them uniformly.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..baselines import HINT, KDS, IntervalTree, KDTreeIndex
from ..core import AIT, AITV, AWIT, IntervalDataset
from ..datasets import QueryWorkload, generate_paper_dataset, generate_queries
from ..sampling.rng import resolve_rng
from .config import ExperimentConfig
from .report import ExperimentResult

__all__ = [
    "AlgorithmAdapter",
    "QueryTimings",
    "NON_WEIGHTED_ALGORITHMS",
    "WEIGHTED_ALGORITHMS",
    "COUNTING_ALGORITHMS",
    "make_adapters",
    "build_dataset",
    "build_workload",
    "time_seconds",
    "measure_build",
    "measure_query_timings",
    "measure_counting",
    "time_round_robin",
    "btc_workload",
    "ledger_result",
    "validate_payload",
    "PROVENANCE_KEYS",
]


@dataclass(frozen=True, slots=True)
class AlgorithmAdapter:
    """Uniform wrapper around one algorithm for the experiment harness."""

    name: str
    display_name: str
    build: Callable[[IntervalDataset], Any]
    candidate: Callable[[Any, tuple[float, float]], Any]
    sample: Callable[[Any, tuple[float, float], int, np.random.Generator], np.ndarray]
    #: Optional memory probe overriding the default ``memory_bytes()`` walk —
    #: adapters whose build is deliberately treeless use it to avoid
    #: materialising structure just to be measured.
    memory: Callable[[Any], int] | None = None


@dataclass(frozen=True, slots=True)
class QueryTimings:
    """Average per-query timings in microseconds."""

    candidate_us: float
    sampling_us: float

    @property
    def total_us(self) -> float:
        """Average end-to-end query time (candidate + sampling)."""
        return self.candidate_us + self.sampling_us


# ---------------------------------------------------------------------- #
# algorithm registry
# ---------------------------------------------------------------------- #
def _adapter_interval_tree(weighted: bool) -> AlgorithmAdapter:
    return AlgorithmAdapter(
        name="interval_tree",
        display_name="Interval tree",
        build=lambda ds: IntervalTree(ds, weighted=weighted),
        candidate=lambda index, q: index.report(q),
        sample=lambda index, q, s, rng: index.sample(q, s, random_state=rng),
    )


def _adapter_hint(weighted: bool) -> AlgorithmAdapter:
    return AlgorithmAdapter(
        name="hint",
        display_name="HINT^m",
        build=lambda ds: HINT(ds, weighted=weighted),
        candidate=lambda index, q: index.report(q),
        sample=lambda index, q, s, rng: index.sample(q, s, random_state=rng),
    )


def _adapter_kds(weighted: bool) -> AlgorithmAdapter:
    return AlgorithmAdapter(
        name="kds",
        display_name="KDS",
        build=lambda ds: KDS(ds, weighted=weighted),
        candidate=lambda index, q: index.canonical_cover(q),
        sample=lambda index, q, s, rng: index.sample(q, s, random_state=rng),
    )


def _adapter_ait() -> AlgorithmAdapter:
    # Paper-faithful measurement: the AIT rows of Tables III-VII time the
    # eager node-tree build, so the lazy columnar backend is pinned off here
    # (the treeless route gets its own "ait_columnar" adapter below).
    return AlgorithmAdapter(
        name="ait",
        display_name="AIT",
        build=lambda ds: AIT(ds, build_backend="tree"),
        candidate=lambda index, q: index.collect_records(q),
        sample=lambda index, q, s, rng: index.sample(q, s, random_state=rng),
    )


def _adapter_ait_columnar() -> AlgorithmAdapter:
    # The treeless columnar build route: constructing the flat engine
    # directly from the endpoint columns is the whole index build, and the
    # flat scalar fast paths answer the query phases without ever
    # materialising a Python node tree.
    def build(ds: IntervalDataset):
        index = AIT(ds, build_backend="columnar")
        index.flat()
        return index

    return AlgorithmAdapter(
        name="ait_columnar",
        display_name="AIT (columnar build)",
        build=build,
        candidate=lambda index, q: index.flat().collect_ranges(q),
        sample=lambda index, q, s, rng: index.flat().sample(q, s, random_state=rng),
        # Honest treeless footprint: columns + flat snapshot, without forcing
        # the node materialisation the default memory_bytes() would trigger.
        memory=lambda index: index.memory_bytes(materialise=False) + index.flat().nbytes(),
    )


def _adapter_ait_v() -> AlgorithmAdapter:
    return AlgorithmAdapter(
        name="ait_v",
        display_name="AIT-V",
        build=lambda ds: AITV(ds, build_backend="tree"),
        candidate=lambda index, q: index.virtual_tree.collect_records(q),
        sample=lambda index, q, s, rng: index.sample(q, s, random_state=rng),
    )


def _adapter_awit() -> AlgorithmAdapter:
    return AlgorithmAdapter(
        name="awit",
        display_name="AWIT",
        build=lambda ds: AWIT(ds, build_backend="tree"),
        candidate=lambda index, q: index.collect_records(q),
        sample=lambda index, q, s, rng: index.sample(q, s, random_state=rng),
    )


def _adapter_kdtree() -> AlgorithmAdapter:
    return AlgorithmAdapter(
        name="kdtree",
        display_name="kd-tree",
        build=KDTreeIndex,
        candidate=lambda index, q: index.canonical_cover(q),
        sample=lambda index, q, s, rng: np.empty(0, dtype=np.int64),
    )


#: Algorithms evaluated in the non-weighted experiments (Section V-B order).
NON_WEIGHTED_ALGORITHMS: tuple[str, ...] = ("interval_tree", "hint", "kds", "ait", "ait_v")

#: Algorithms evaluated in the weighted experiments (Section V-C order).
WEIGHTED_ALGORITHMS: tuple[str, ...] = ("interval_tree", "hint", "kds", "awit")

#: Algorithms evaluated in the range-counting experiment (Table X order).
COUNTING_ALGORITHMS: tuple[str, ...] = ("ait", "hint", "kdtree")


def make_adapters(
    names: Sequence[str] = NON_WEIGHTED_ALGORITHMS, weighted: bool = False
) -> list[AlgorithmAdapter]:
    """Instantiate adapters for the requested algorithm names."""
    factory = {
        "interval_tree": lambda: _adapter_interval_tree(weighted),
        "hint": lambda: _adapter_hint(weighted),
        "kds": lambda: _adapter_kds(weighted),
        "ait": _adapter_ait,
        "ait_columnar": _adapter_ait_columnar,
        "ait_v": _adapter_ait_v,
        "awit": _adapter_awit,
        "kdtree": _adapter_kdtree,
    }
    adapters = []
    for name in names:
        if name not in factory:
            raise KeyError(f"unknown algorithm {name!r}; expected one of {sorted(factory)}")
        adapters.append(factory[name]())
    return adapters


# ---------------------------------------------------------------------- #
# dataset / workload construction
# ---------------------------------------------------------------------- #
def build_dataset(
    config: ExperimentConfig, dataset_name: str, weighted: bool = False, size: int | None = None
) -> IntervalDataset:
    """Generate the synthetic analogue of one paper dataset under ``config``."""
    return generate_paper_dataset(
        dataset_name,
        n=size if size is not None else config.dataset_size,
        weighted=weighted,
        random_state=config.dataset_seed(dataset_name),
    )


def build_workload(
    config: ExperimentConfig,
    dataset: IntervalDataset,
    dataset_name: str,
    extent_fraction: float | None = None,
    count: int | None = None,
) -> QueryWorkload:
    """Generate the query workload for one dataset under ``config``."""
    return generate_queries(
        dataset,
        count=count if count is not None else config.query_count,
        extent_fraction=extent_fraction if extent_fraction is not None else config.extent_fraction,
        random_state=config.query_seed(dataset_name),
    )


# ---------------------------------------------------------------------- #
# timing
# ---------------------------------------------------------------------- #
def time_round_robin(calls: dict, rounds: int) -> dict:
    """Seconds per call of every entry of ``calls``, ``rounds`` times each.

    One untimed round runs first, so first-touch costs (page faults, lazy
    snapshots, worker spawns, segment publishes) stay out of the timings.
    The calls then take turns within each round, and the turn order rotates
    from round to round, so a change in machine load during the sweep hits
    every entry alike instead of whichever ran in that stretch.
    """
    keys = list(calls)
    for key in keys:
        calls[key]()
    gc.collect()
    times: dict = {key: [] for key in keys}
    for round_ in range(max(1, rounds)):
        shift = round_ % len(keys)
        for key in keys[shift:] + keys[:shift]:
            start = time.perf_counter()
            calls[key]()
            times[key].append(time.perf_counter() - start)
    return times


def time_seconds(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` once and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed


def measure_build(adapter: AlgorithmAdapter, dataset: IntervalDataset) -> tuple[Any, float]:
    """Build the adapter's index over ``dataset`` and return ``(index, seconds)``."""
    return time_seconds(lambda: adapter.build(dataset))


def measure_query_timings(
    adapter: AlgorithmAdapter,
    index: Any,
    workload: QueryWorkload | Sequence[tuple[float, float]],
    sample_size: int,
    seed: int = 0,
) -> QueryTimings:
    """Average candidate / sampling time per query, in microseconds.

    The candidate phase is timed directly; the sampling phase is the
    end-to-end sampling call minus the candidate time (the sampling call
    internally recomputes the candidate, matching how the paper reports the
    two phases separately while their sum is the total query time).
    """
    rng = resolve_rng(seed)
    queries = list(workload)
    if queries:
        # One untimed warm-up query so cold caches do not skew the first point
        # of a sweep (the paper's workloads are long enough to amortise this).
        adapter.candidate(index, queries[0])
        adapter.sample(index, queries[0], sample_size, rng)
    candidate_total = 0.0
    end_to_end_total = 0.0
    for query in queries:
        start = time.perf_counter()
        adapter.candidate(index, query)
        candidate_total += time.perf_counter() - start

        start = time.perf_counter()
        adapter.sample(index, query, sample_size, rng)
        end_to_end_total += time.perf_counter() - start

    query_count = max(1, len(queries))
    candidate_us = candidate_total / query_count * 1e6
    sampling_us = max(end_to_end_total - candidate_total, 0.0) / query_count * 1e6
    return QueryTimings(candidate_us, sampling_us)


def measure_counting(
    index: Any, workload: QueryWorkload | Sequence[tuple[float, float]]
) -> float:
    """Average range-counting time per query in microseconds (Table X)."""
    queries = list(workload)
    start = time.perf_counter()
    for query in queries:
        index.count(query)
    elapsed = time.perf_counter() - start
    return elapsed / max(1, len(queries)) * 1e6


# ---------------------------------------------------------------------- #
# ledger experiments (the BENCH_*.json families)
# ---------------------------------------------------------------------- #
#: Keys every ledger payload's ``config`` records besides its settable values.
PROVENANCE_KEYS: tuple[str, ...] = ("repro_version", "python", "numpy", "cpu_count")


def btc_workload(n: int, count: int) -> tuple[IntervalDataset, np.ndarray]:
    """The ledgers' read workload: ``n`` btc-analogue intervals and ``count``
    queries at 8% extent, as an ``(count, 2)`` array (fixed seeds 1 and 2)."""
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    workload = generate_queries(dataset, count=count, extent_fraction=0.08, random_state=2)
    return dataset, np.asarray(list(workload), dtype=np.float64)


def ledger_result(
    experiment_id: str,
    title: str,
    results: list | dict,
    notes: str = "",
    paper_reference: list | None = None,
) -> ExperimentResult:
    """Render a ledger's rows as a table; rows of a section lead with its name."""
    sections = results if isinstance(results, dict) else {None: results}
    rows = [
        row if name is None else {"section": name, **row}
        for name, section_rows in sections.items()
        for row in section_rows
    ]
    columns = list(dict.fromkeys(key for row in rows for key in row))
    return ExperimentResult(experiment_id, title, columns, rows, paper_reference, notes)


def validate_payload(name: str, payload: dict, ledger) -> list[str]:
    """Failures of ``payload`` against a ledger experiment's schema.

    ``ledger`` is the experiment module: ``ledger.SCHEMA`` maps each results
    section to its required row fields (``None``: ``results`` is one row
    list), and the run's ``config`` must record every settable value
    (``ledger.DEFAULTS``) plus :data:`PROVENANCE_KEYS`.  Returns ``[]`` when
    the payload conforms.
    """
    if not isinstance(payload, dict) or set(payload) != {"config", "results"}:
        keys = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
        return [f"{name}: top-level keys {keys} != ['config', 'results']"]
    failures = []
    missing = {*PROVENANCE_KEYS, *ledger.DEFAULTS} - set(payload["config"])
    if missing:
        failures.append(f"{name}[config]: missing keys {sorted(missing)}")
    results = payload["results"]
    for section, required in ledger.SCHEMA.items():
        rows = results if section is None else isinstance(results, dict) and results.get(section)
        label = name if section is None else f"{name}[{section}]"
        if not isinstance(rows, list) or not rows:
            failures.append(f"{label}: must carry a non-empty row list")
            continue
        for index, row in enumerate(rows):
            if required - set(row):
                missing = sorted(required - set(row))
                failures.append(f"{label} row {index}: missing fields {missing}")
                break
    return failures
