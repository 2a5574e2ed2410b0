#!/usr/bin/env python
"""Bench-regression gate: schema-validate BENCH_*.json and compare runs.

Usage::

    python scripts/check_bench.py validate [FILES...]
    python scripts/check_bench.py compare --baseline BENCH_x.json --candidate /tmp/bench_x.json
    python scripts/check_bench.py compare-all --candidate-dir /tmp [--tolerance 10]

``validate`` checks every committed benchmark payload (all ``BENCH_*.json``
at the repo root by default) against the schema its emitting script commits
to — top-level shape, required row fields, non-empty sections.  A bench
script that drifts its payload shape fails CI here instead of silently
rotting the committed baselines.

``compare`` guards against *order-of-magnitude* performance regressions
without flaking on CI noise.  Raw throughput numbers are not comparable
between a laptop full-scale run and a CI smoke run at tiny sizes, so the
comparison only looks at **dimensionless indicators** — speedup ratios that
measure a *design property* rather than the hardware:

* ``BENCH_throughput.json`` — batch-vs-scalar speedup per operation;
* ``BENCH_service.json``    — sharded-vs-unsharded throughput ratio per operation;
* ``BENCH_updates.json``    — bulk-insert speedup over the scalar loop, and
  the hard invariant that a small delta log never rebuilds a shard's base;
* ``BENCH_gateway.json``    — the gateway's p95 latency advantage over scalar
  dispatch for ``sample`` traffic at the peak client count (the ``count``
  indicator is reported but not gated: at smoke scale a count call is so
  cheap that the dispatcher thread hand-off dominates, which is expected,
  not a regression);
* ``BENCH_build.json``      — the treeless columnar builder's speedup over the
  tree-walk full build, and the hard invariant that both builders emit
  bit-identical snapshot arrays;
* ``BENCH_parallel.json``   — the hard invariant that the process executor's
  answers are bit-identical to the serial executor's at the same shard count
  and batch size under both scatter strategies (``query`` and ``auto``),
  plus advisory process-vs-serial throughput ratios per
  (operation, scatter) — parallel speedup is a property of the runner's
  core count, recorded in ``config.cpu_count``;
* ``BENCH_serving.json``    — the hard invariants that every request shed by
  the gateway's bounded intake queue receives an explicit 429-class
  response (never a hang or a reset) and that a graceful drain under fire —
  concurrent writers plus a SIGKILLed shard worker — loses no acknowledged
  write and refuses post-close traffic, plus the advisory shed rate past
  saturation.

A candidate fails only when an indicator falls below ``baseline /
tolerance`` (default tolerance 10x — generous by design; the gate exists to
catch "the vectorised path silently stopped batching", not a 30% wobble).
Indicators present in the baseline but absent from the candidate sweep are
reported and skipped.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Required payload shape per benchmark family (keyed by committed basename).
#: ``rows`` maps section name -> required row fields; a ``None`` section
#: key means ``results`` is a flat list of rows.  An optional ``config`` set
#: names keys the run's ``config`` must record.
SCHEMAS: dict[str, dict] = {
    "BENCH_throughput.json": {
        "top": {"config", "results"},
        "rows": {
            None: {"n", "operation", "scalar_qps", "batch_qps", "speedup"},
        },
    },
    "BENCH_service.json": {
        "top": {"config", "results"},
        "rows": {
            None: {"n", "operation", "shards", "executor", "qps", "vs_unsharded"},
        },
    },
    "BENCH_updates.json": {
        "top": {"config", "results"},
        "rows": {
            "bulk_insert": {"n", "bulk_seconds", "scalar_seconds", "speedup"},
            "refresh": {
                "n",
                "ops",
                "full_builds_delta",
                "incremental_refreshes_delta",
                "refresh_seconds",
                "full_rebuild_seconds",
            },
            "overlay": {
                "n",
                "entries",
                "refresh_seconds",
                "publish_seconds",
                "count_seconds",
                "sample_seconds",
                "base_seconds",
                "break_even_work",
            },
            "mixed": {"n", "shards", "write_ratio", "reads_per_sec", "ops_per_sec"},
        },
    },
    "BENCH_build.json": {
        "top": {"config", "results"},
        "rows": {
            "full_build": {
                "dataset",
                "n",
                "tree_seconds",
                "columnar_seconds",
                "speedup",
                "arrays_equal",
                "bytes_per_interval",
            },
            "weighted_build": {
                "n",
                "tree_seconds",
                "columnar_seconds",
                "speedup",
                "bytes_per_interval",
            },
        },
    },
    "BENCH_gateway.json": {
        "top": {"config", "results", "summary"},
        "rows": {
            None: {
                "n",
                "operation",
                "mode",
                "clients",
                "requests",
                "rps",
                "p50_ms",
                "p95_ms",
                "p99_ms",
            },
        },
        "summary_rows": {
            "n",
            "operation",
            "clients",
            "scalar_p95_ms",
            "gateway_p95_ms",
            "p95_speedup",
        },
    },
    "BENCH_parallel.json": {
        "top": {"config", "results"},
        "rows": {
            None: {
                "n",
                "operation",
                "shards",
                "executor",
                "scatter",
                "batch",
                "qps",
                "qps_p25",
                "qps_p75",
                "vs_serial_k1",
                "results_identical",
            },
        },
    },
    "BENCH_serving.json": {
        "top": {"config", "results"},
        "config": {"max_queue_depth"},
        "rows": {
            "load": {
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
            },
            "drain": {
                "n",
                "writes_acked",
                "worker_killed",
                "no_acked_loss",
                "post_close_rejected",
            },
        },
    },
    "BENCH_recovery.json": {
        "top": {"config", "results"},
        "rows": {
            "cold_start": {
                "n",
                "shards",
                "rebuild_seconds",
                "save_seconds",
                "open_seconds",
                "speedup",
                "mmap",
                "verify",
            },
            "wal_replay": {"n", "ops", "replay_seconds", "ops_per_sec", "recovered_ok"},
            "kill_recover": {"n", "acknowledged", "recovered", "ok"},
        },
    },
}


def validate_file(path: Path) -> list[str]:
    """Validate one payload against its family schema; return failure strings."""
    schema = SCHEMAS.get(path.name)
    if schema is None:
        return [f"{path.name}: no schema registered (add it to scripts/check_bench.py)"]
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable payload ({exc})"]

    failures: list[str] = []
    if set(payload) != schema["top"]:
        failures.append(
            f"{path.name}: top-level keys {sorted(payload)} != {sorted(schema['top'])}"
        )
        return failures

    missing = schema.get("config", set()) - set(payload["config"])
    if missing:
        failures.append(f"{path.name}[config]: missing keys {sorted(missing)}")

    for section, required in schema["rows"].items():
        rows = payload["results"] if section is None else payload["results"].get(section)
        label = path.name if section is None else f"{path.name}[{section}]"
        if not isinstance(rows, list) or not rows:
            failures.append(f"{label}: must carry a non-empty row list")
            continue
        for index, row in enumerate(rows):
            missing = required - set(row)
            if missing:
                failures.append(f"{label} row {index}: missing fields {sorted(missing)}")
                break
    summary_required = schema.get("summary_rows")
    if summary_required is not None:
        rows = payload.get("summary")
        if not isinstance(rows, list) or not rows:
            failures.append(f"{path.name}[summary]: must carry a non-empty row list")
        else:
            for index, row in enumerate(rows):
                missing = summary_required - set(row)
                if missing:
                    failures.append(
                        f"{path.name}[summary] row {index}: missing fields {sorted(missing)}"
                    )
                    break
    return failures


# --------------------------------------------------------------------- #
# dimensionless regression indicators
# --------------------------------------------------------------------- #
def _throughput_indicators(payload: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in payload["results"]:
        key = f"batch_speedup[{row['operation']}]"
        out[key] = max(out.get(key, 0.0), float(row["speedup"]))
    return out


def _service_indicators(payload: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in payload["results"]:
        if row["shards"] == 0:
            continue
        key = f"vs_unsharded[{row['operation']}]"
        out[key] = max(out.get(key, 0.0), float(row["vs_unsharded"]))
    return out


def _updates_indicators(payload: dict) -> dict[str, float]:
    out = {
        "bulk_insert_speedup": max(
            float(row["speedup"]) for row in payload["results"]["bulk_insert"]
        )
    }
    # Hard invariant rather than a ratio: a delta log that is small relative
    # to the shard must land in its overlay (no base rebuild; the payload's
    # full_builds_delta is the shard's base-rebuild counter).
    for row in payload["results"]["refresh"]:
        if row["n"] >= 20 * row["ops"]:
            out["refresh_incremental"] = 1.0 if row["full_builds_delta"] == 0 else 0.0
    return out


def _build_indicators(payload: dict) -> dict[str, float]:
    out = {
        "columnar_build_speedup": max(
            float(row["speedup"]) for row in payload["results"]["full_build"]
        ),
        # Hard invariant rather than a ratio: the two build routes must stay
        # bit-identical on every measured cell.
        "builders_bit_identical": 1.0
        if all(bool(row["arrays_equal"]) for row in payload["results"]["full_build"])
        else 0.0,
    }
    weighted = payload["results"].get("weighted_build") or []
    if weighted:
        out["columnar_weighted_speedup"] = max(float(row["speedup"]) for row in weighted)
    return out


def _gateway_indicators(payload: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in payload["summary"]:
        # Only the sample op gates: micro-batching must keep beating scalar
        # dispatch on p95 wherever per-request work is non-trivial.
        if row["operation"] == "sample":
            key = "gateway_p95_speedup[sample]"
            out[key] = max(out.get(key, 0.0), float(row["p95_speedup"]))
    return out


def _serving_indicators(payload: dict) -> dict[str, float]:
    out = {
        # Hard invariants rather than ratios.  Overload must surface as
        # explicit 429-class responses on every shed request (never a hang
        # or a reset), and a graceful drain under fire — including a
        # SIGKILLed shard worker — must keep every acknowledged write and
        # refuse post-close traffic.  1.0 or bust.
        "serving_shed_429": 1.0
        if all(bool(row["all_shed_429"]) for row in payload["results"]["load"])
        else 0.0,
        "serving_drain_no_loss": 1.0
        if all(
            bool(row["no_acked_loss"]) and bool(row["post_close_rejected"])
            for row in payload["results"]["drain"]
        )
        else 0.0,
    }
    # Advisory (wide-tolerance compare): the gateway queue must actually
    # shed past saturation.  The exact rate depends on how far the
    # open-loop sweep lands past this runner's capacity, so it gates only
    # against an order-of-magnitude collapse (e.g. shedding silently
    # disabled while the offered load still exceeds capacity).
    out["serving_shed_rate"] = max(
        float(row["shed_rate"]) for row in payload["results"]["load"]
    )
    return out


def _recovery_indicators(payload: dict) -> dict[str, float]:
    out = {
        "cold_start_speedup": max(
            float(row["speedup"]) for row in payload["results"]["cold_start"]
        ),
        # Hard invariants rather than ratios: recovery must reproduce the
        # pre-shutdown engine exactly, and a SIGKILLed ingest must keep
        # every acknowledged batch.
        "recovery_consistent": 1.0
        if (
            all(bool(row["recovered_ok"]) for row in payload["results"]["wal_replay"])
            and all(bool(row["ok"]) for row in payload["results"]["kill_recover"])
        )
        else 0.0,
    }
    return out


def _parallel_indicators(payload: dict) -> dict[str, float]:
    out = {
        # Hard invariant rather than a ratio: every process-executor row must
        # be bit-identical to the serial executor at the same K.  1.0 or bust.
        "process_bit_identical": 1.0
        if all(bool(row["results_identical"]) for row in payload["results"])
        else 0.0,
    }
    # Advisory scaling indicators (wide-tolerance compare): best relative
    # throughput of the process executor per (operation, scatter strategy).
    # Raw parallel speedup is a property of the runner's core count
    # (config.cpu_count), so these gate only against order-of-magnitude
    # collapses such as a republish-every-batch bug, not against hardware
    # differences.
    for row in payload["results"]:
        if row["executor"] != "process":
            continue
        key = f"process_vs_serial_k1[{row['operation']}:{row['scatter']}]"
        out[key] = max(out.get(key, 0.0), float(row["vs_serial_k1"]))
    return out


INDICATORS = {
    "BENCH_throughput.json": _throughput_indicators,
    "BENCH_parallel.json": _parallel_indicators,
    "BENCH_service.json": _service_indicators,
    "BENCH_updates.json": _updates_indicators,
    "BENCH_gateway.json": _gateway_indicators,
    "BENCH_serving.json": _serving_indicators,
    "BENCH_build.json": _build_indicators,
    "BENCH_recovery.json": _recovery_indicators,
}


def compare_files(baseline: Path, candidate: Path, tolerance: float) -> list[str]:
    """Compare candidate indicators to the baseline's; return failure strings."""
    family = baseline.name
    extract = INDICATORS.get(family)
    if extract is None:
        return [f"{family}: no indicator extractor registered"]
    failures: list[str] = []
    base = extract(json.loads(baseline.read_text()))
    cand = extract(json.loads(candidate.read_text()))
    for key in sorted(base):
        if key not in cand:
            print(f"  {family} :: {key}: absent from candidate sweep, skipped")
            continue
        floor = base[key] / tolerance
        status = "ok" if cand[key] >= floor else "REGRESSION"
        print(
            f"  {family} :: {key}: baseline {base[key]:.3f}, candidate "
            f"{cand[key]:.3f} (floor {floor:.3f}) -> {status}"
        )
        if cand[key] < floor:
            failures.append(
                f"{family}: {key} regressed by more than {tolerance:g}x "
                f"({base[key]:.3f} -> {cand[key]:.3f})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="schema-validate committed BENCH_*.json")
    p_validate.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="payloads to validate (default: all BENCH_*.json at the repo root)",
    )

    p_compare = sub.add_parser("compare", help="compare one candidate run to its baseline")
    p_compare.add_argument("--baseline", type=Path, required=True)
    p_compare.add_argument("--candidate", type=Path, required=True)
    p_compare.add_argument("--tolerance", type=float, default=10.0)

    p_all = sub.add_parser(
        "compare-all", help="compare every committed baseline to <dir>/bench_<family>.json"
    )
    p_all.add_argument("--candidate-dir", type=Path, required=True)
    p_all.add_argument("--tolerance", type=float, default=10.0)
    args = parser.parse_args(argv)

    failures: list[str] = []
    if args.command == "validate":
        files = args.files or sorted(REPO_ROOT.glob("BENCH_*.json"))
        if not files:
            failures.append("no BENCH_*.json files found to validate")
        for path in files:
            file_failures = validate_file(path)
            failures.extend(file_failures)
            print(f"schema {'FAILED' if file_failures else 'ok'}: {path.name}")
    elif args.command == "compare":
        failures.extend(compare_files(args.baseline, args.candidate, args.tolerance))
    else:  # compare-all
        for baseline in sorted(REPO_ROOT.glob("BENCH_*.json")):
            # BENCH_gateway.json -> bench_gateway.json, the smoke output name.
            candidate = args.candidate_dir / baseline.name.replace("BENCH_", "bench_").lower()
            if not candidate.exists():
                print(f"  {baseline.name}: no candidate at {candidate}, skipped")
                continue
            failures.extend(compare_files(baseline, candidate, args.tolerance))

    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
