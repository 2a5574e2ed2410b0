"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload http-read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run from the root of a source checkout: it imports the package from
``src/`` and keeps its scratch files under ``.perfbench/``.  It prints
``#``-prefixed lines (the run's environment, each metric with its unit, and
every other number it measured) and, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  It exits with status 1 when any answer was wrong
or the run left a process or shared-memory segment behind, and with 2 when
it cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A run that is still going after this many seconds is aborted.
RUN_BUDGET_S = 170


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None


def _environment(args) -> dict:
    import numpy
    import repro

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def _abort(_signum, _frame):
    raise TimeoutError(f"run exceeded its {RUN_BUDGET_S} s budget")


def run_all(args) -> int:
    """Run every workload in turn, each in its own process; exit 1 if any failed.

    Prints each workload's output, then one JSON line whose metrics are
    named ``<workload>.<metric>``.
    """
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"# workload {name}", flush=True)
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return status if status else (0 if summary["correct"] else 1)


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    import hygiene as hygiene_module

    environment = _environment(args)
    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    hygiene = hygiene_module.Hygiene()
    signal.signal(signal.SIGALRM, _abort)
    signal.alarm(RUN_BUDGET_S)
    started = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work, hygiene
        )
    finally:
        signal.alarm(0)
        problems = hygiene.check()
    outcome.problems.extend(problems)
    outcome.failed += len(problems)
    outcome.detail["failed_share"] = outcome.failed / max(1, outcome.attempted)

    if args.trace:
        names = workloads.PER_LAYER
        # A counter of a layer the workload does not use (HTTP on batch-read,
        # say) reads 0; every timed layer metric is measured on every workload.
        metrics = {name: float(outcome.layers.get(name, 0)) for name in names}
    else:
        names = workloads.END_TO_END
        metrics = {name: float(outcome.metrics[name]) for name in names}
    wall_s = time.perf_counter() - started
    record = {
        "environment": environment,
        "wall_s": wall_s,
        "metrics": outcome.metrics,
        "layers": outcome.layers,
        "detail": outcome.detail,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
    }
    traces = scratch / "results"
    traces.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (traces / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    spans_file = work / "spans.json"
    if not spans_file.exists():
        spans_file = work / "server-report.spans.json"
    if spans_file.exists():
        shutil.move(str(spans_file), traces / f"{stem}.spans.json")
    shutil.rmtree(work, ignore_errors=True)

    print("# environment " + json.dumps(environment))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {names[name]}")
    print("# detail " + json.dumps({"layers": outcome.layers, **outcome.detail}, default=float))
    for problem in outcome.problems:
        print(f"# FAILED {problem}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": names[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
