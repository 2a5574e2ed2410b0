#!/usr/bin/env python
"""Run one ledger experiment and write its BENCH_<family>.json.

Usage::

    PYTHONPATH=src python scripts/bench.py <experiment> [--out PATH] [--<value> ...]
    PYTHONPATH=src python scripts/bench.py <experiment> --help   # its values and defaults

``<experiment>`` is a registered ledger experiment (``throughput``,
``service_throughput``, ``update_throughput``, ``gateway_latency``,
``build_throughput``, ``recovery``, ``parallel_scaling``, ``serving_slo``;
see ``repro.experiments.registry.LEDGERS``).  Its module owns the one
measurement loop (``measure``) that the registry's ``run(config)`` renders
as a table; this script runs that loop at the module's ``DEFAULTS`` (each
overridable by the flag of the same name) and writes::

    {"config": {<settable values>, "repro_version", "python", "numpy",
                "cpu_count", "machine"},
     "results": <the loop's rows>}

to repo-root ``BENCH_<family>.json`` by default.  The payload is checked
against the experiment's schema (the one ``scripts/check_bench.py``
gates) before it is written; a payload that does not conform is not
written, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

import numpy as np

from repro import __version__
from repro.experiments.harness import ledger_result, validate_payload
from repro.experiments.registry import LEDGERS

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    experiments = parser.add_subparsers(dest="experiment", required=True)
    for experiment_id, ledger in LEDGERS.items():
        sub = experiments.add_parser(experiment_id, help=ledger.__doc__.splitlines()[0])
        out = REPO_ROOT / f"BENCH_{ledger.LEDGER}.json"
        sub.add_argument("--out", type=Path, default=out, help=f"output path (default: {out.name})")
        for key, default in ledger.DEFAULTS.items():
            many = isinstance(default, list)
            sub.add_argument(
                "--" + key.replace("_", "-"),
                type=type(default[0] if many else default),
                nargs="+" if many else None,
                default=default,
                help=f"default: {default}",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    ledger = LEDGERS[args.experiment]
    params = {key: getattr(args, key) for key in ledger.DEFAULTS}
    provenance = {
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
    payload = {"config": params | provenance, "results": ledger.measure(**params)}
    print(ledger_result(args.experiment, args.out.name, payload["results"]).to_text())
    failures = validate_payload(args.out.name, payload, ledger)
    for failure in failures:
        print(f"schema: {failure}")
    if failures:
        return 1
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
