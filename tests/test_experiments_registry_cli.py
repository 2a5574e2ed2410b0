"""Tests for the experiment registry (coverage of every paper table/figure) and the CLI."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, ExperimentConfig, list_experiments, run_experiment
from repro.experiments.cli import build_parser, main

TINY = ExperimentConfig.smoke().with_overrides(
    datasets=("btc",),
    dataset_size=2500,
    query_count=4,
    sample_size=60,
    update_count=15,
    extent_sweep=(0.05, 0.2),
    sample_size_sweep=(20, 60),
    dataset_size_fractions=(0.5, 1.0),
)

#: Every table and figure of the paper's evaluation section must be registered.
PAPER_IDS = {
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
    "table9", "table10", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
}

#: Repo-specific experiments registered alongside the paper's tables/figures.
EXTRA_IDS = {
    "throughput",
    "service_throughput",
    "update_throughput",
    "gateway_latency",
    "build_throughput",
    "recovery",
    "parallel_scaling",
    "kernel_throughput",
    "serving_slo",
}

EXPECTED_IDS = PAPER_IDS | EXTRA_IDS


class TestRegistry:
    def test_every_paper_table_and_figure_is_registered(self):
        assert set(list_experiments()) == EXPECTED_IDS

    def test_entries_have_titles(self):
        assert all(entry.title for entry in EXPERIMENTS.values())

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99", TINY)

    @pytest.mark.parametrize("experiment_id", ["table2", "table5", "table10"])
    def test_representative_experiments_run_end_to_end(self, experiment_id):
        result = run_experiment(experiment_id, TINY)
        assert result.experiment_id == experiment_id
        assert result.rows
        assert result.paper_reference  # every experiment carries the published values
        assert "btc" in result.columns or any("btc" in str(row.values()) for row in result.rows)

    def test_service_throughput_experiment_runs_end_to_end(self):
        result = run_experiment("service_throughput", TINY)
        assert result.experiment_id == "service_throughput"
        shard_counts = {row["shards"] for row in result.rows}
        assert 0 in shard_counts and len(shard_counts) >= 2  # baseline + sweep
        assert {row["executor"] for row in result.rows} >= {"none", "serial", "threads"}
        assert all(row["qps"] > 0 for row in result.rows)

    def test_update_throughput_experiment_runs_end_to_end(self):
        result = run_experiment("update_throughput", TINY)
        assert result.experiment_id == "update_throughput"
        ratios = {row["write_ratio"] for row in result.rows}
        assert 0.0 in ratios and len(ratios) >= 2  # read-only baseline + sweep
        assert {row["shards"] for row in result.rows} >= {1, 2}
        assert all(row["reads_per_sec"] > 0 for row in result.rows)
        read_only = [row for row in result.rows if row["write_ratio"] == 0.0]
        assert all(row["writes_per_sec"] == 0.0 for row in read_only)

    def test_gateway_latency_experiment_runs_end_to_end(self):
        result = run_experiment("gateway_latency", TINY)
        assert result.experiment_id == "gateway_latency"
        modes = {row["mode"] for row in result.rows}
        assert modes == {"scalar", "gateway"}
        assert {row["operation"] for row in result.rows} == {"count", "sample"}
        assert len({row["clients"] for row in result.rows}) >= 2
        assert all(row["requests"] > 0 and row["rps"] > 0 for row in result.rows)
        # Percentiles must be ordered within every row (p50 <= p95 <= p99).
        for row in result.rows:
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        # One gateway row per (operation, clients): there is no window axis.
        gateway_rows = [row for row in result.rows if row["mode"] == "gateway"]
        assert len(gateway_rows) == len({(r["operation"], r["clients"]) for r in gateway_rows})
        assert all("window_ms" not in row for row in result.rows)

    def test_build_throughput_experiment_runs_end_to_end(self):
        result = run_experiment("build_throughput", TINY)
        assert result.experiment_id == "build_throughput"
        assert {row["dataset"] for row in result.rows} == {"btc"}
        assert {row["n"] for row in result.rows} == {1250, 2500}
        for row in result.rows:
            # Outputs are asserted bit-identical inside the experiment, so a
            # returned row is itself evidence the two builders agreed.
            assert row["tree_seconds"] > 0 and row["columnar_seconds"] > 0
            assert row["speedup"] > 0

    def test_recovery_experiment_runs_end_to_end(self):
        result = run_experiment("recovery", TINY)
        assert result.experiment_id == "recovery"
        assert {row["shards"] for row in result.rows} == {1, 4}
        for row in result.rows:
            # Recovery must reproduce the pre-shutdown engine exactly; the
            # timing columns are only required to be well-formed at tiny sizes.
            assert row["consistent"] is True
            assert row["rebuild_s"] > 0 and row["open_s"] > 0
            assert row["wal_ops"] > 0 and row["wal_ops_per_sec"] > 0

    def test_update_experiment_shows_batch_speedup(self):
        result = run_experiment("table7", TINY)
        insertion = result.row_by(operation="Insertion")["btc"]
        batch = result.row_by(operation="Batch insertion")["btc"]
        assert batch <= insertion

    def test_counting_experiment_favours_ait(self):
        result = run_experiment("table10", TINY)
        ait = result.row_by(algorithm="ait")["btc"]
        hint = result.row_by(algorithm="hint")["btc"]
        assert ait < hint


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["table5"])
        assert args.experiment == "table5"
        assert args.preset == "default"

    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == EXPECTED_IDS

    def test_no_arguments_lists_experiments(self, capsys):
        assert main([]) == 0
        assert "table5" in capsys.readouterr().out

    def test_run_single_experiment_with_overrides(self, capsys, tmp_path):
        code = main([
            "table2",
            "--preset", "smoke",
            "--dataset-size", "1500",
            "--queries", "3",
            "--samples", "20",
            "--seed", "1",
            "--datasets", "btc",
            "--csv-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert (tmp_path / "table2.csv").exists()

    def test_invalid_experiment_id_raises(self):
        with pytest.raises(KeyError):
            main(["tableXYZ", "--preset", "smoke"])
