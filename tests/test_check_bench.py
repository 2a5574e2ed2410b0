"""The committed ledgers against the gate in ``scripts/check_bench.py``.

Every ``BENCH_*.json`` at the repo root must validate against the schema of
the ledger experiment that writes it, and every hard invariant it carries
must read 1.0.  The gate must not pass by omission: a missing candidate, an
indicator absent from a candidate, a ledger experiment without a committed
file and a payload without its provenance each fail.  ``scripts/bench.py``
writes a payload that passes the same validation.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_bench", REPO_ROOT / "scripts" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)

COMMITTED = sorted(check_bench.FAMILIES)

#: (file, hard indicator, section, row field, value that breaks the invariant).
HARD_INVARIANTS = [
    ("BENCH_build.json", "builders_bit_identical", "full_build", "arrays_equal", False),
    ("BENCH_updates.json", "refresh_incremental", "refresh", "base_rebuilds_delta", 1),
    ("BENCH_recovery.json", "recovery_consistent", "wal_replay", "recovered_ok", False),
    ("BENCH_recovery.json", "recovery_consistent", "kill_recover", "ok", False),
    ("BENCH_parallel.json", "process_bit_identical", None, "results_identical", False),
    ("BENCH_serving.json", "serving_shed_429", "load", "all_shed_429", False),
    ("BENCH_serving.json", "serving_drain_no_loss", "drain", "no_acked_loss", False),
]


def _payload(name: str) -> dict:
    return json.loads((REPO_ROOT / name).read_text())


def _write(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_every_ledger_experiment_has_one_committed_file():
    assert len(COMMITTED) == 8
    assert sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json")) == COMMITTED


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_payload_validates(name):
    assert check_bench.validate_file(REPO_ROOT / name) == []


def test_committed_payloads_share_one_version():
    versions = {_payload(name)["config"]["repro_version"] for name in COMMITTED}
    assert len(versions) == 1


@pytest.mark.parametrize(("name", "indicator"), sorted({(n, i) for n, i, *_ in HARD_INVARIANTS}))
def test_committed_payload_meets_its_hard_gate(name, indicator):
    assert check_bench.FAMILIES[name].indicators(_payload(name))[indicator] == 1.0


@pytest.mark.parametrize(("name", "indicator", "section", "field", "broken"), HARD_INVARIANTS)
def test_one_flipped_row_fails_compare(tmp_path, name, indicator, section, field, broken):
    payload = _payload(name)
    rows = payload["results"] if section is None else payload["results"][section]
    rows[-1][field] = broken
    candidate = _write(tmp_path, name, payload)
    failures = check_bench.compare_files(REPO_ROOT / name, candidate, tolerance=10.0)
    assert any(indicator in failure for failure in failures), failures


def test_missing_candidate_fails(tmp_path):
    baseline = REPO_ROOT / "BENCH_serving.json"
    assert check_bench.compare_files(baseline, tmp_path / "bench_serving.json", 10.0) == [
        f"BENCH_serving.json: no candidate at {tmp_path / 'bench_serving.json'}"
    ]
    assert check_bench.main(["compare-all", "--candidate-dir", str(tmp_path)]) == 1


def test_missing_hard_indicator_fails(tmp_path):
    # A delta log as long as the shard is no test of the overlay path, so
    # the candidate carries no refresh_incremental indicator at all.
    payload = _payload("BENCH_updates.json")
    for row in payload["results"]["refresh"]:
        row["ops"] = row["n"]
    candidate = _write(tmp_path, "BENCH_updates.json", payload)
    failures = check_bench.compare_files(REPO_ROOT / "BENCH_updates.json", candidate, 10.0)
    assert failures == [
        f"BENCH_updates.json: refresh_incremental is absent from the candidate {candidate}"
    ]


def test_file_without_a_ledger_experiment_fails(tmp_path):
    path = _write(tmp_path, "BENCH_layers.json", _payload("BENCH_serving.json"))
    assert check_bench.validate_file(path) == [
        "BENCH_layers.json: no ledger experiment writes this file (no schema registered)"
    ]


def test_ledger_experiment_without_a_committed_file_fails():
    present = [REPO_ROOT / name for name in COMMITTED if name != "BENCH_gateway.json"]
    assert check_bench.missing_ledgers(present) == [
        "BENCH_gateway.json: no committed file for ledger experiment 'gateway_latency'"
    ]


@pytest.mark.parametrize("key", ["repro_version", "python", "numpy", "cpu_count"])
def test_payload_without_provenance_fails(tmp_path, key):
    payload = _payload("BENCH_recovery.json")
    del payload["config"][key]
    path = _write(tmp_path, "BENCH_recovery.json", payload)
    assert check_bench.validate_file(path) == [
        f"BENCH_recovery.json[config]: missing keys ['{key}']"
    ]


def test_serving_payload_without_the_queue_bound_fails(tmp_path):
    payload = _payload("BENCH_serving.json")
    payload["config"]["max_pending"] = payload["config"].pop("max_queue_depth")
    path = _write(tmp_path, "BENCH_serving.json", payload)
    assert check_bench.validate_file(path) == [
        "BENCH_serving.json[config]: missing keys ['max_queue_depth']"
    ]


def test_renamed_refresh_field_fails(tmp_path):
    payload = _payload("BENCH_updates.json")
    for row in payload["results"]["refresh"]:
        row["full_builds_delta"] = row.pop("base_rebuilds_delta")
    path = _write(tmp_path, "BENCH_updates.json", payload)
    assert check_bench.validate_file(path) == [
        "BENCH_updates.json[refresh] row 0: missing fields ['base_rebuilds_delta']"
    ]


def test_bench_script_writes_a_valid_payload(tmp_path):
    out = tmp_path / "BENCH_throughput.json"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    command = [
        sys.executable,
        str(REPO_ROOT / "scripts" / "bench.py"),
        "throughput",
        "--sizes", "500",
        "--queries", "20",
        "--samples", "10",
        "--repeats", "1",
        "--out", str(out),
    ]  # fmt: skip
    subprocess.run(command, check=True, env=env, capture_output=True, timeout=120)
    assert check_bench.validate_file(out) == []
    payload = json.loads(out.read_text())
    assert payload["config"]["sizes"] == [500] and payload["config"]["samples"] == [10]
    assert {row["operation"] for row in payload["results"]} == {"count", "report", "sample"}
