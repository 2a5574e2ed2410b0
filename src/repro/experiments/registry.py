"""Registry mapping paper table/figure identifiers to experiment modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .config import ExperimentConfig
from .report import ExperimentResult
from . import (
    exp_build_throughput,
    exp_gateway_latency,
    exp_parallel_scaling,
    exp_recovery,
    exp_service_throughput,
    exp_serving_slo,
    exp_throughput,
    exp_update_throughput,
    exp_fig5_scaling,
    exp_fig6_extent,
    exp_fig7_samples,
    exp_fig8_scaling,
    exp_fig9_weighted_extent,
    exp_fig10_weighted_scaling,
    exp_table1_complexity,
    exp_table2_datasets,
    exp_table3_preprocessing,
    exp_table4_memory,
    exp_table5_candidate,
    exp_table6_sampling,
    exp_table7_updates,
    exp_table8_awit_build,
    exp_table9_weighted_sampling,
    exp_table10_counting,
)

__all__ = [
    "ExperimentEntry",
    "EXPERIMENTS",
    "LEDGERS",
    "list_experiments",
    "run_experiment",
    "run_all",
]


@dataclass(frozen=True, slots=True)
class ExperimentEntry:
    """One registered experiment (one paper table or figure)."""

    experiment_id: str
    title: str
    runner: Callable[[ExperimentConfig], ExperimentResult]


EXPERIMENTS: dict[str, ExperimentEntry] = {
    "table1": ExperimentEntry("table1", "Complexity comparison (empirical growth check)", exp_table1_complexity.run),
    "table2": ExperimentEntry("table2", "Dataset statistics", exp_table2_datasets.run),
    "table3": ExperimentEntry("table3", "Pre-processing time (non-weighted)", exp_table3_preprocessing.run),
    "table4": ExperimentEntry("table4", "Memory usage (non-weighted)", exp_table4_memory.run),
    "fig5": ExperimentEntry("fig5", "AIT / AIT-V build time and memory vs dataset size", exp_fig5_scaling.run),
    "table5": ExperimentEntry("table5", "Candidate computation time", exp_table5_candidate.run),
    "table6": ExperimentEntry("table6", "Sampling time (non-weighted)", exp_table6_sampling.run),
    "fig6": ExperimentEntry("fig6", "Running time vs query extent (non-weighted)", exp_fig6_extent.run),
    "fig7": ExperimentEntry("fig7", "Running time vs sample size (non-weighted)", exp_fig7_samples.run),
    "fig8": ExperimentEntry("fig8", "Running time vs dataset size (non-weighted)", exp_fig8_scaling.run),
    "table7": ExperimentEntry("table7", "Amortized update time of AIT", exp_table7_updates.run),
    "table8": ExperimentEntry("table8", "AWIT pre-processing time and memory", exp_table8_awit_build.run),
    "table9": ExperimentEntry("table9", "Sampling time (weighted)", exp_table9_weighted_sampling.run),
    "fig9": ExperimentEntry("fig9", "Running time vs query extent (weighted)", exp_fig9_weighted_extent.run),
    "fig10": ExperimentEntry("fig10", "Running time vs dataset size (weighted)", exp_fig10_weighted_scaling.run),
    "table10": ExperimentEntry("table10", "Range counting time", exp_table10_counting.run),
    "throughput": ExperimentEntry(
        "throughput", "Batch vs scalar query throughput (FlatAIT engine)", exp_throughput.run
    ),
    "service_throughput": ExperimentEntry(
        "service_throughput",
        "Sharded service throughput vs shard count (ShardedEngine)",
        exp_service_throughput.run,
    ),
    "update_throughput": ExperimentEntry(
        "update_throughput",
        "Mixed read/write throughput vs write ratio and shard count (write path)",
        exp_update_throughput.run,
    ),
    "gateway_latency": ExperimentEntry(
        "gateway_latency",
        "Request latency under concurrent load: gateway micro-batching vs scalar calls",
        exp_gateway_latency.run,
    ),
    "build_throughput": ExperimentEntry(
        "build_throughput",
        "Full-build time: treeless columnar builder vs tree walk (extends Table III)",
        exp_build_throughput.run,
    ),
    "recovery": ExperimentEntry(
        "recovery",
        "Recovery: snapshot cold start vs rebuild, WAL replay throughput",
        exp_recovery.run,
    ),
    "parallel_scaling": ExperimentEntry(
        "parallel_scaling",
        "Process-executor scaling vs the serial scatter loop (bit-identity gated)",
        exp_parallel_scaling.run,
    ),
    "serving_slo": ExperimentEntry(
        "serving_slo",
        "Serving SLO: shed rate and p99 under open-loop overload, drain safety",
        exp_serving_slo.run,
    ),
}


#: The experiments whose rows ``scripts/bench.py <id>`` writes to a committed
#: ``BENCH_<module.LEDGER>.json``.  Each module carries its settable values
#: (``DEFAULTS``), its row schema (``SCHEMA``), its one measurement loop
#: (``measure``) and its regression indicators (``indicators``).
LEDGERS = {
    "throughput": exp_throughput,
    "service_throughput": exp_service_throughput,
    "update_throughput": exp_update_throughput,
    "gateway_latency": exp_gateway_latency,
    "build_throughput": exp_build_throughput,
    "recovery": exp_recovery,
    "parallel_scaling": exp_parallel_scaling,
    "serving_slo": exp_serving_slo,
}


def list_experiments() -> list[str]:
    """Registered experiment identifiers in paper order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run the experiment with the given paper table/figure identifier."""
    key = experiment_id.strip().lower()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; expected one of {list_experiments()}")
    return EXPERIMENTS[key].runner(config if config is not None else ExperimentConfig.default())


def run_all(config: ExperimentConfig | None = None) -> list[ExperimentResult]:
    """Run every registered experiment and return the results in paper order."""
    config = config if config is not None else ExperimentConfig.default()
    return [entry.runner(config) for entry in EXPERIMENTS.values()]
