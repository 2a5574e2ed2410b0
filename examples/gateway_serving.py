"""Serving concurrent users through the RequestGateway (micro-batching).

A ticketing site tracks active user sessions as intervals (login → logout,
seconds since midnight).  Ops dashboards, fraud checks and capacity planners
all fire *single* queries — "how many sessions overlap [t, t+60]?", "sample
50 sessions active right now" — from independent threads, none of which can
assemble a batch on its own.  The :class:`repro.service.RequestGateway`
closes the gap between that open-loop traffic and the engine's batch API:

* every caller submits one request and gets a future (or uses the blocking
  wrappers below);
* the gateway turns whatever is queued when its dispatcher becomes free
  (up to ``max_batch_size`` requests) into one micro-batch and dispatches
  it grouped by operation through
  ``ShardedEngine.count_many`` / ``sample_many`` — one vectorised traversal
  for a whole burst of independent callers;
* writes (new logins / logouts) buffer and apply at batch boundaries, so
  every read in a micro-batch sees one consistent snapshot.

Run with::

    PYTHONPATH=src python examples/gateway_serving.py
"""

import threading

import numpy as np

from repro import IntervalDataset
from repro.service import RequestGateway, ShardedEngine

DAY = 86_400.0
USERS = 30_000
DASHBOARD_THREADS = 6
QUERIES_PER_THREAD = 40


def build_sessions(rng: np.random.Generator) -> IntervalDataset:
    """Synthetic login sessions: evening-heavy arrivals, ~25-minute stays."""
    logins = rng.uniform(0.0, DAY - 3_600.0, USERS)
    durations = rng.exponential(1_500.0, USERS)
    return IntervalDataset(logins, logins + durations)


def main() -> None:
    rng = np.random.default_rng(11)
    sessions = build_sessions(rng)
    print(f"serving {len(sessions):,} user sessions across 4 shards\n")

    with ShardedEngine(sessions, num_shards=4) as engine:
        engine.refresh()
        with RequestGateway(engine, max_batch_size=64) as gateway:
            # --- many independent dashboard threads, single queries each ---
            peaks: dict[int, int] = {}

            def dashboard(worker: int) -> None:
                worker_rng = np.random.default_rng(100 + worker)
                busiest = 0
                for _ in range(QUERIES_PER_THREAD):
                    t = float(worker_rng.uniform(0.0, DAY - 60.0))
                    busiest = max(busiest, gateway.count((t, t + 60.0)))
                peaks[worker] = busiest

            threads = [
                threading.Thread(target=dashboard, args=(w,))
                for w in range(DASHBOARD_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            print("busiest minute seen per dashboard thread:")
            for worker, busiest in sorted(peaks.items()):
                print(f"  thread {worker}: {busiest:,} concurrent sessions")

            # --- a fraud check samples live sessions while logins continue ---
            noon = (12 * 3_600.0, 12 * 3_600.0 + 60.0)
            audit = gateway.sample(noon, 50)
            print(f"\nfraud audit: sampled {len(audit)} of the sessions active at noon")

            new_session = gateway.insert((noon[0] - 10.0, noon[0] + 600.0))
            after = gateway.count(noon)
            print(f"one more login -> noon-minute count is now {after:,}")
            gateway.delete(new_session)

            # --- what the micro-batching actually did ---
            stats = gateway.stats()
            batches = stats["batches"]
            latency = stats["latency_ms"]["count"]
            print(
                f"\ngateway telemetry: {sum(stats['requests'].values())} requests "
                f"coalesced into {batches['dispatched']} micro-batches "
                f"(mean size {batches['mean_size']:.1f})"
            )
            print(f"batch-size histogram: {batches['size_histogram']}")
            print(
                f"count latency: p50 {latency['p50_ms']:.2f} ms, "
                f"p95 {latency['p95_ms']:.2f} ms (window was 2 ms)"
            )


if __name__ == "__main__":
    main()
