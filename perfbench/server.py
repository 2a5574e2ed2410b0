"""Server child of the http-read workload: engine, gateway and HTTP front end.

    python3 perfbench/server.py --inputs DIR --seed N --trace 0|1

Builds ``ShardedEngine(num_shards=2)`` on a ``ProcessExecutor`` over the
interval endpoints in ``DIR/lefts.npy`` and ``DIR/rights.npy``, puts a
default ``RequestGateway`` and a default ``HttpFrontend`` in front of it,
and prints one line ``READY <host> <port> <index bytes per interval>``.
It then reads commands on standard input:

* ``BEGIN`` marks the start of the measured window;
* ``STOP <path>|-`` ends it: the server writes its report (front-end
  statistics and, when traced, the per-layer metrics and the gateway's
  request records) to ``path``, drains, stops its workers and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import hygiene
import spans
from inputs import SAMPLE_SIZE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import numpy as np

    from repro import IntervalDataset
    from repro.service import HttpFrontend, RequestGateway, ShardedEngine
    from repro.service.executor import ProcessExecutor

    lefts = np.load(args.inputs / "lefts.npy")
    rights = np.load(args.inputs / "rights.npy")
    executor = ProcessExecutor()
    engine = frontend = None
    tracer = spans.Tracer() if args.trace else None
    try:
        engine = ShardedEngine(IntervalDataset(lefts, rights), num_shards=2, executor=executor)
        gateway = RequestGateway(engine, random_state=args.seed)
        if tracer is not None:
            spans.instrument(tracer, engine, executor, gateway)
        frontend = HttpFrontend(gateway)
        host, port = frontend.start_in_thread()
        print(f"READY {host} {port} {engine.nbytes() / len(lefts)!r}", flush=True)

        begin = time.perf_counter()
        pids = executor.worker_pids()
        report_path = None
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "BEGIN":
                begin = time.perf_counter()
                pids = executor.worker_pids()
            elif command == "STOP":
                report_path = None if argument in ("", "-") else Path(argument)
                break
        finish = time.perf_counter()

        if report_path is not None:
            report = {"stats": frontend.stats()}
            if tracer is not None:
                respawns = spans.respawns(pids, executor.worker_pids())
                report["layers"] = spans.layer_report(
                    tracer, engine, begin, finish, SAMPLE_SIZE, respawns, spans.span_cost_s()
                )
                report["requests"] = [
                    [op, list(args_[0]), submitted, done]
                    for op, args_, submitted, done in tracer.requests
                    if op in ("count", "sample") and done is not None and submitted >= begin
                ]
                tracer.restore()
                tracer.dump(report_path.with_suffix(".spans.json"))
            report_path.write_text(json.dumps(report))
    finally:
        if tracer is not None:
            tracer.restore()
        if frontend is not None:
            frontend.close(timeout=60)
        if engine is not None:
            engine.close()
        executor.shutdown()
        hygiene.stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main())
