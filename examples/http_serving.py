"""Serving over the wire: the HTTP front end, overload, and graceful drain.

The same ticketing site as ``gateway_serving.py``, one deployment step
later: the dashboards are no longer threads inside the engine's process —
they are separate services speaking JSON over HTTP.  The
:class:`repro.service.HttpFrontend` is the tier that makes that safe:

* every gateway operation is a POST endpoint (``/count``, ``/sample``,
  ``/insert``, ...), with ``/healthz`` / ``/readyz`` / ``/stats`` for the
  load balancer and the operator;
* an :class:`repro.service.AdmissionController` bounds the in-flight
  window — when a traffic spike exceeds it, excess requests get a *fast*
  ``429`` + ``Retry-After`` instead of queueing without bound;
* every request carries a deadline; on expiry the client gets ``504`` and
  the queued work is cancelled rather than silently completing later;
* ``close()`` drains gracefully: in-flight requests finish, the write-ahead
  log is fsynced, and only then do connections drop — acknowledged writes
  are never lost to a shutdown.

Run with::

    PYTHONPATH=src python examples/http_serving.py
"""

import threading

import numpy as np

from repro import IntervalDataset
from repro.service import (
    AdmissionController,
    HttpFrontend,
    RequestGateway,
    ShardedEngine,
    http_request,
)

DAY = 86_400.0
USERS = 20_000
CLIENTS = 8
QUERIES_PER_CLIENT = 25


def build_sessions(rng: np.random.Generator) -> IntervalDataset:
    """Synthetic login sessions: evening-heavy arrivals, ~25-minute stays."""
    logins = rng.uniform(0.0, DAY - 3_600.0, USERS)
    durations = rng.exponential(1_500.0, USERS)
    return IntervalDataset(logins, logins + durations)


def main() -> None:
    rng = np.random.default_rng(17)
    sessions = build_sessions(rng)
    print(f"serving {len(sessions):,} user sessions over HTTP\n")

    engine = ShardedEngine(sessions, num_shards=2)
    engine.refresh()
    gateway = RequestGateway(engine)
    frontend = HttpFrontend(
        gateway,
        admission=AdmissionController(max_pending=64, retry_after_s=0.25),
        default_deadline_ms=2_000.0,
    )
    host, port = frontend.start_in_thread()
    print(f"listening on http://{host}:{port}  (state: {frontend.state})")

    # --- the load balancer's view -------------------------------------
    status, _, body = http_request(host, port, "GET", "/readyz")
    print(f"GET /readyz -> {status} {body}\n")

    # --- independent HTTP clients, single queries each ----------------
    peaks: dict[int, int] = {}

    def dashboard(worker: int) -> None:
        worker_rng = np.random.default_rng(300 + worker)
        busiest = 0
        for _ in range(QUERIES_PER_CLIENT):
            t = float(worker_rng.uniform(0.0, DAY - 60.0))
            status, _, body = http_request(
                host, port, "POST", "/count", {"query": [t, t + 60.0]}
            )
            assert status == 200, f"count failed with {status}: {body}"
            busiest = max(busiest, int(body["result"]))
        peaks[worker] = busiest

    threads = [
        threading.Thread(target=dashboard, args=(worker,)) for worker in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(f"{CLIENTS} HTTP dashboards x {QUERIES_PER_CLIENT} queries each:")
    print(f"  busiest minute seen per client: {sorted(peaks.values())}\n")

    # --- writes over the wire -----------------------------------------
    login = float(rng.uniform(0.0, DAY - 600.0))
    status, _, body = http_request(
        host, port, "POST", "/insert", {"interval": [login, login + 600.0]}
    )
    print(f"POST /insert -> {status} (new session id {body['result']})")
    status, _, body = http_request(
        host, port, "POST", "/sample", {"query": [login, login + 600.0], "sample_size": 3}
    )
    print(f"POST /sample -> {status} ({len(body['result'])} sessions sampled)\n")

    # --- deadlines: a hopeless budget fails fast, not silently --------
    status, _, body = http_request(
        host,
        port,
        "POST",
        "/sample",
        {"query": [0.0, DAY], "sample_size": 10_000, "deadline_ms": 0.001},
    )
    print(f"POST /sample with a 1 microsecond deadline -> {status} ({body['error']})\n")

    # --- telemetry, then graceful drain -------------------------------
    status, _, stats = http_request(host, port, "GET", "/stats")
    served = stats["frontend"]["responses_2xx"]
    print(f"GET /stats -> {status}: served {served} requests, state {stats['state']}")

    frontend.close()
    print(f"after close(): state {frontend.state}")
    try:
        http_request(host, port, "GET", "/healthz", timeout=2.0)
    except OSError:
        print("new connections are refused - drained and gone")
    engine.close()


if __name__ == "__main__":
    main()
