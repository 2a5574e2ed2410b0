#!/usr/bin/env python
"""Bench-regression gate: schema-validate BENCH_*.json and compare runs.

Usage::

    PYTHONPATH=src python scripts/check_bench.py validate [FILES...]
    PYTHONPATH=src python scripts/check_bench.py compare --baseline BENCH_x.json --candidate /tmp/bench_x.json
    PYTHONPATH=src python scripts/check_bench.py compare-all --candidate-dir /tmp [--tolerance 10]

Every ``BENCH_<family>.json`` is written by ``scripts/bench.py`` from one
ledger experiment (``repro.experiments.registry.LEDGERS``), and the schema
and indicator function this gate applies sit next to that experiment's
measurement loop.

``validate`` checks payloads against their experiment's schema: top-level
shape, required row fields, non-empty sections, and a ``config`` that
records every settable value plus ``repro_version``, ``python``, ``numpy``
and ``cpu_count``.  With no FILES it checks every ``BENCH_*.json`` at the
repo root and also fails on a ledger experiment that has no committed file;
a ``BENCH_*.json`` that no experiment writes fails too.

``compare`` guards against *order-of-magnitude* performance regressions
without flaking on CI noise.  Raw throughput numbers are not comparable
between a laptop full-scale run and a CI smoke run at tiny sizes, so the
comparison only looks at **dimensionless indicators** — speedup ratios that
measure a design property rather than the hardware — and at hard
invariants that read 1.0 or 0.0 (``builders_bit_identical``,
``refresh_incremental``, ``recovery_consistent``,
``process_bit_identical``, ``serving_shed_429``,
``serving_drain_no_loss``).  Each experiment's ``indicators`` docstring
says what it gates.

A candidate fails when an indicator falls below ``baseline / tolerance``
(default tolerance 10x — generous by design; the gate exists to catch "the
vectorised path silently stopped batching", not a 30% wobble), when an
indicator of the baseline is absent from the candidate, and, under
``compare-all``, when a committed baseline has no candidate file
(``<dir>/bench_<family>.json``).  Nothing passes by omission.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.experiments.harness import validate_payload
from repro.experiments.registry import LEDGERS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Ledger experiment module per committed basename.
FAMILIES = {f"BENCH_{ledger.LEDGER}.json": ledger for ledger in LEDGERS.values()}


def validate_file(path: Path) -> list[str]:
    """Validate one payload against its experiment's schema; return failure strings."""
    ledger = FAMILIES.get(path.name)
    if ledger is None:
        return [f"{path.name}: no ledger experiment writes this file (no schema registered)"]
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable payload ({exc})"]
    return validate_payload(path.name, payload, ledger)


def missing_ledgers(paths) -> list[str]:
    """One failure per ledger experiment whose file is not among ``paths``."""
    present = {Path(path).name for path in paths}
    return [
        f"{name}: no committed file for ledger experiment {experiment_id!r}"
        for experiment_id, ledger in LEDGERS.items()
        if (name := f"BENCH_{ledger.LEDGER}.json") not in present
    ]


def compare_files(baseline: Path, candidate: Path, tolerance: float) -> list[str]:
    """Compare candidate indicators to the baseline's; return failure strings."""
    family = baseline.name
    ledger = FAMILIES.get(family)
    if ledger is None:
        return [f"{family}: no ledger experiment writes this file (no indicators registered)"]
    if not candidate.exists():
        return [f"{family}: no candidate at {candidate}"]
    failures: list[str] = []
    base = ledger.indicators(json.loads(baseline.read_text()))
    cand = ledger.indicators(json.loads(candidate.read_text()))
    for key in sorted(base):
        if key not in cand:
            print(f"  {family} :: {key}: absent from candidate -> FAILED")
            failures.append(f"{family}: {key} is absent from the candidate {candidate}")
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
        files = args.files
        if not files:
            files = sorted(REPO_ROOT.glob("BENCH_*.json"))
            failures.extend(missing_ledgers(files))
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
