"""The resilient serving subsystem: shedding, deadlines, breaker, drain.

Unit layer — the :mod:`repro.service.admission` state machines are driven
with injected clocks, so every transition is deterministic.

Integration layer — a real :class:`HttpFrontend` on an ephemeral loopback
port over a real gateway/engine stack, with failure injection at the
engine seam:

* a *gated* engine whose reads block on a test-controlled event (deadline
  tests create saturation on demand, no sleeps-as-load), and a paused
  gateway whose full queue sheds on demand;
* a *flaky* engine raising worker-failure errors on demand (the
  circuit-breaker chaos test: trip to degraded read-only mode, then
  recover), and one raising an op's own error, which must not trip it;
* graceful drain under concurrent writers: every 200-acked insert must be
  in the engine after ``close()``, and the listener must refuse new
  connections.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro import IntervalDataset, WorkerCrashError, WorkerTimeoutError
from repro.service import (
    CircuitBreaker,
    Deadline,
    HttpFrontend,
    RequestGateway,
    ShardedEngine,
    http_request,
)
from repro.service.server import _decode_response

DOMAIN = (-1.0, 2000.0)


def _dataset(n: int = 64) -> IntervalDataset:
    lefts = np.linspace(0.0, 900.0, n)
    return IntervalDataset(lefts, lefts + 10.0)


# --------------------------------------------------------------------------- #
# unit: deadline and breaker primitives
# --------------------------------------------------------------------------- #
class TestDeadline:
    def test_remaining_and_expiry(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(5.0)
        now[0] = 104.0
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired()
        now[0] = 105.5
        assert deadline.remaining() == 0.0
        assert deadline.expired()

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match=r"deadline must be positive"):
            Deadline(0.0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0, clock=lambda: 0.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allows_writes()

    def test_half_open_probe_closes_or_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=lambda: now[0])
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 5.1
        assert breaker.state == "half_open"
        assert not breaker.allows_writes()  # still degraded until the probe lands
        breaker.record_failure()  # probe failed: cooldown restarts
        assert breaker.state == "open"
        now[0] = 10.3
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allows_writes()
        stats = breaker.stats()
        assert stats["trips_total"] == 1
        assert stats["recoveries_total"] == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match=r"failure_threshold must be >= 1"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match=r"cooldown_s must be positive"):
            CircuitBreaker(cooldown_s=0.0)


def _post_head(path: str, length: int) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: repro\r\n"
        f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
    ).encode()


def _post_raw(address, path: str, text: str, timeout: float = 30.0):
    """POST a hand-written JSON body (one ``json.dumps`` cannot produce)."""
    payload = text.encode()
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(_post_head(path, len(payload)) + payload)
        return _decode_response(_read_to_eof(sock))


def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


# --------------------------------------------------------------------------- #
# failure-injecting engine proxies
# --------------------------------------------------------------------------- #
class _EngineProxy:
    """Delegate everything to the wrapped engine except what a test overrides."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _GatedEngine(_EngineProxy):
    """Reads block on an event — deadline misses on demand."""

    def __init__(self, inner):
        super().__init__(inner)
        self.gate = threading.Event()
        self.gate.set()

    def count_many(self, queries):
        self.gate.wait()
        return self._inner.count_many(queries)


class _FlakyEngine(_EngineProxy):
    """Reads raise ``error`` (one per read) while it is set."""

    def __init__(self, inner):
        super().__init__(inner)
        self.error = None

    def count_many(self, queries):
        if self.error is not None:
            raise self.error
        return self._inner.count_many(queries)


# --------------------------------------------------------------------------- #
# integration: HTTP round trips
# --------------------------------------------------------------------------- #
class TestHttpEndpoints:
    @pytest.fixture
    def served(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        gateway = RequestGateway(engine)
        frontend = HttpFrontend(gateway)
        frontend.start_in_thread()
        yield frontend
        frontend.close()
        engine.close()

    def _post(self, frontend, path, body, timeout=30.0):
        host, port = frontend.address
        return http_request(host, port, "POST", path, body, timeout=timeout)

    def test_operations_round_trip(self, served, tmp_path):
        host, port = served.address
        base = 64

        status, _, body = self._post(served, "/count", {"query": list(DOMAIN)})
        assert (status, body["result"]) == (200, base)

        status, _, body = self._post(served, "/total_weight", {"query": list(DOMAIN)})
        assert status == 200 and body["result"] == pytest.approx(float(base))

        status, _, body = self._post(served, "/report", {"query": [0.0, 50.0]})
        assert status == 200 and isinstance(body["result"], list) and body["result"]

        status, _, body = self._post(
            served, "/sample", {"query": list(DOMAIN), "sample_size": 8}
        )
        assert status == 200 and len(body["result"]) == 8

        status, _, body = self._post(served, "/insert", {"interval": [100.0, 120.0]})
        assert status == 200
        new_id = body["result"]

        status, _, body = self._post(served, "/count", {"query": list(DOMAIN)})
        assert (status, body["result"]) == (200, base + 1)

        status, _, body = self._post(served, "/delete", {"id": new_id})
        assert (status, body["result"]) == (200, True)

        status, _, body = self._post(
            served, "/checkpoint", {"directory": str(tmp_path / "ckpt")}
        )
        assert (status, body["result"]) == (200, 1)

        status, _, body = http_request(host, port, "GET", "/healthz")
        assert (status, body["status"]) == (200, "alive")
        status, _, body = http_request(host, port, "GET", "/readyz")
        assert (status, body["status"]) == (200, "ready")
        status, _, stats = http_request(host, port, "GET", "/stats")
        assert status == 200
        assert stats["state"] == "ready"
        assert stats["frontend"]["responses_2xx"] >= 8
        assert stats["gateway"]["completions"]["count"] == 2
        assert stats["frontend"]["retries_total"] == 0  # a serial engine never resends

    def test_error_mapping(self, served):
        host, port = served.address
        # malformed JSON -> 400
        status, _, body = self._post(served, "/count", None)
        assert status == 400 and "missing key" in body["error"]
        # invalid query -> 400
        status, _, body = self._post(served, "/count", {"query": [9.0, 1.0]})
        assert status == 400
        # empty sample with on_empty=raise -> 404
        status, _, body = self._post(
            served,
            "/sample",
            {"query": [1e6, 1e6 + 1.0], "sample_size": 4, "on_empty": "raise"},
        )
        assert status == 404 and "matched no intervals" in body["error"]
        # unknown endpoint -> 404
        status, _, body = self._post(served, "/query", {"query": [0.0, 1.0]})
        assert status == 404
        status, _, body = http_request(host, port, "GET", "/metrics")
        assert status == 404
        # bad deadline -> 400
        status, _, body = self._post(
            served, "/count", {"query": [0.0, 1.0], "deadline_ms": -5}
        )
        assert status == 400 and "deadline_ms" in body["error"]
        # the server survives all of the above
        status, _, body = self._post(served, "/count", {"query": list(DOMAIN)})
        assert status == 200

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize(
        "path, template",
        [
            ("/count", '{"query": [%s, 5.0]}'),
            ("/sample", '{"query": [0.0, %s], "sample_size": 3}'),
            ("/insert", '{"interval": [%s, 5.0]}'),
        ],
    )
    def test_non_finite_endpoints_are_a_typed_400(self, served, path, template, bad):
        # Python's json module reads NaN/Infinity and overflows 1e400 to inf,
        # so the check that rejects them is the query/interval validation.
        status, _, body = _post_raw(served.address, path, template % bad)
        assert status == 400
        assert "finite" in body["error"]


class TestDeadlines:
    def test_deadline_miss_cancels_and_returns_504(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        gated = _GatedEngine(engine)
        gateway = RequestGateway(gated)
        frontend = HttpFrontend(gateway)
        host, port = frontend.start_in_thread()
        try:
            gated.gate.clear()
            started = time.perf_counter()
            status, _, body = http_request(
                host, port, "POST", "/count",
                {"query": list(DOMAIN), "deadline_ms": 150},
            )
            elapsed = time.perf_counter() - started
            assert status == 504 and "deadline" in body["error"]
            assert elapsed < 5.0  # the 504 arrives at the deadline, not at completion
            gated.gate.set()
            # the stack is not wedged: the next request completes normally
            status, _, body = http_request(
                host, port, "POST", "/count", {"query": list(DOMAIN)}
            )
            assert (status, body["result"]) == (200, 64)
            status, _, stats = http_request(host, port, "GET", "/stats")
            assert stats["frontend"]["deadline_504"] == 1
        finally:
            gated.gate.set()
            frontend.close()
            engine.close()


class TestLoadShedding:
    def test_full_gateway_queue_sheds_429_with_retry_after(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        # A paused gateway: requests stay queued until process_pending().
        gateway = RequestGateway(engine, max_queue_depth=2, start=False)
        frontend = HttpFrontend(gateway)
        host, port = frontend.start_in_thread()
        results: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def client():
            status, headers, _ = http_request(
                host, port, "POST", "/count",
                {"query": list(DOMAIN), "deadline_ms": 30000}, timeout=60,
            )
            with lock:
                results.append((status, headers))

        threads = [threading.Thread(target=client) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            # 2 requests fill the queue; the other 6 must be shed at once,
            # while the queued ones are still waiting.
            _wait_for(lambda: len(results) >= 6, timeout=30.0)
            assert gateway.process_pending() == 2
            for thread in threads:
                thread.join(timeout=60)
            stats = frontend.stats()
        finally:
            frontend.close()
            engine.close()

        statuses = sorted(status for status, _ in results)
        assert statuses == [200, 200, 429, 429, 429, 429, 429, 429]
        for status, headers in results:
            if status == 429:
                assert headers["retry-after"] == "1"
        assert stats["frontend"]["shed_429"] == statuses.count(429)
        assert sum(stats["gateway"]["shed"].values()) == statuses.count(429)


class TestWorkerFailureClassification:
    """Only a worker failure reaches the breaker; it is told by type, not by text."""

    @pytest.fixture
    def flaky(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        flaky = _FlakyEngine(engine)
        frontend = HttpFrontend(
            RequestGateway(flaky), breaker=CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        )
        frontend.start_in_thread()
        yield flaky, frontend
        frontend.close()
        engine.close()

    def _read(self, frontend):
        host, port = frontend.address
        return http_request(host, port, "POST", "/count", {"query": list(DOMAIN)})

    @pytest.mark.parametrize(
        "error",
        [
            WorkerTimeoutError("shard worker (pid 4242) did not reply within 1s"),
            WorkerCrashError("shard worker died 4 times in a row"),
        ],
        ids=["timeout", "crash"],
    )
    def test_worker_failure_trips_the_breaker(self, flaky, error):
        engine, frontend = flaky
        engine.error = error
        status, _, body = self._read(frontend)
        assert status == 500 and body["error"].startswith(type(error).__name__)
        assert frontend.state == "degraded"
        assert frontend.stats()["frontend"]["worker_failures_total"] == 1

    @pytest.mark.parametrize(
        ("error", "expected"),
        [
            (ValueError("bad query"), 400),
            (RuntimeError("engine is closed"), 500),
            # A timeout of the op's own, not a worker's: the type decides.
            (TimeoutError("shard worker (pid 4242) did not reply within 1s"), 500),
        ],
        ids=["value-error", "runtime-error", "plain-timeout"],
    )
    def test_other_errors_leave_the_breaker_alone(self, flaky, error, expected):
        engine, frontend = flaky
        engine.error = error
        status, _, _ = self._read(frontend)
        assert status == expected
        stats = frontend.stats()
        assert frontend.state == "ready"
        assert stats["breaker"]["consecutive_failures"] == 0
        assert stats["frontend"]["worker_failures_total"] == 0


class TestCircuitBreakerChaos:
    def test_breaker_trips_to_read_only_and_recovers(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        flaky = _FlakyEngine(engine)
        gateway = RequestGateway(flaky)
        frontend = HttpFrontend(
            gateway, breaker=CircuitBreaker(failure_threshold=3, cooldown_s=0.2)
        )
        host, port = frontend.start_in_thread()
        try:
            # healthy
            status, _, _ = http_request(host, port, "POST", "/count", {"query": list(DOMAIN)})
            assert status == 200 and frontend.state == "ready"

            # worker-failure storm: each failed read is one breaker failure
            # (the front end does not retry), so 3 reads trip it
            storm = [
                WorkerTimeoutError("shard worker (pid 4242) did not reply within 1s"),
                WorkerCrashError("shard worker died 4 times in a row"),
                WorkerTimeoutError("shard worker (pid 4243) did not reply within 1s"),
            ]
            for error in storm:
                assert frontend.state == "ready"
                flaky.error = error
                status, _, body = http_request(
                    host, port, "POST", "/count", {"query": list(DOMAIN)}
                )
                assert status == 500 and "shard worker" in body["error"]
            assert frontend.state == "degraded"

            # degraded read-only mode: writes refused with Retry-After
            status, headers, body = http_request(
                host, port, "POST", "/insert", {"interval": [1.0, 2.0]}
            )
            assert status == 503 and "read-only" in body["error"]
            assert "retry-after" in headers
            status, _, body = http_request(host, port, "GET", "/readyz")
            assert (status, body["status"]) == (503, "degraded")

            # storm ends; after the cooldown a successful read closes the breaker
            flaky.error = None
            time.sleep(0.25)
            status, _, _ = http_request(host, port, "POST", "/count", {"query": list(DOMAIN)})
            assert status == 200
            assert frontend.state == "ready"
            status, _, _ = http_request(host, port, "POST", "/insert", {"interval": [1.0, 2.0]})
            assert status == 200
            status, _, body = http_request(host, port, "GET", "/readyz")
            assert status == 200

            stats = frontend.stats()
            assert stats["breaker"]["trips_total"] == 1
            assert stats["breaker"]["recoveries_total"] == 1
            assert stats["frontend"]["retries_total"] == 0
            assert stats["frontend"]["worker_failures_total"] == 3
        finally:
            frontend.close()
            engine.close()

    def test_op_error_from_a_worker_does_not_count_toward_the_breaker(self):
        # An exception raised by the op itself comes back from the workers as
        # this RuntimeError; inline it would be the op's own exception.  Either
        # way the request failed, not the substrate.
        engine = ShardedEngine(_dataset(), num_shards=2)
        flaky = _FlakyEngine(engine)
        frontend = HttpFrontend(
            RequestGateway(flaky), breaker=CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        )
        host, port = frontend.start_in_thread()
        try:
            flaky.error = RuntimeError("shard worker failed:\nTraceback ...\nKeyError: 'x'")
            for _ in range(3):
                status, _, body = http_request(
                    host, port, "POST", "/count", {"query": list(DOMAIN)}
                )
                assert status == 500 and "shard worker failed" in body["error"]
            stats = frontend.stats()
            assert frontend.state == "ready"
            assert stats["breaker"]["consecutive_failures"] == 0
            assert stats["frontend"]["worker_failures_total"] == 0
        finally:
            frontend.close()
            engine.close()

    def test_retries_total_reads_the_engine_resends(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        flaky = _FlakyEngine(engine)
        flaky.resends = 2  # what ShardedEngine.resends reports for its executor
        frontend = HttpFrontend(RequestGateway(flaky))
        frontend.start_in_thread()
        try:
            assert frontend.stats()["frontend"]["retries_total"] == 2
        finally:
            frontend.close()
            engine.close()


class TestGracefulDrain:
    N_WRITERS = 3

    def test_drain_refuses_new_work_and_loses_no_acked_write(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        gateway = RequestGateway(engine)
        frontend = HttpFrontend(gateway)
        host, port = frontend.start_in_thread()
        acked: list[list[int]] = [[] for _ in range(self.N_WRITERS)]
        outcomes: list[int] = []
        lock = threading.Lock()
        stop = threading.Event()

        def writer(slot: int):
            rng = np.random.default_rng(5000 + slot)
            while not stop.is_set():
                left = float(rng.uniform(0.0, 900.0))
                try:
                    status, _, body = http_request(
                        host, port, "POST", "/insert",
                        {"interval": [left, left + 3.0]}, timeout=30,
                    )
                except (ConnectionError, OSError):
                    return  # listener is gone: drain reached this writer
                with lock:
                    outcomes.append(status)
                    if status == 200:
                        acked[slot].append(body["result"])

        threads = [
            threading.Thread(target=writer, args=(slot,)) for slot in range(self.N_WRITERS)
        ]
        for thread in threads:
            thread.start()
        deadline = time.time() + 30.0
        while time.time() < deadline:
            with lock:
                if all(len(ids) >= 5 for ids in acked):
                    break
            time.sleep(0.01)
        frontend.close()  # graceful drain while writers are firing
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        try:
            # only clean outcomes ever reached a client: acked, or refused-by-drain
            assert set(outcomes) <= {200, 503}
            flat = [gid for ids in acked for gid in ids]
            assert len(flat) == len(set(flat)) and len(flat) >= 5 * self.N_WRITERS
            # the gateway is closed behind the drained frontend
            with pytest.raises(Exception, match=r"gateway is closed"):
                gateway.submit("count", DOMAIN)
            # new connections are refused
            with pytest.raises((ConnectionError, OSError)):
                http_request(host, port, "GET", "/healthz", timeout=2)
            # every acked write survived the drain (engine outlives the frontend)
            surviving = set(int(g) for g in engine.report_many([DOMAIN])[0])
            assert set(flat) <= surviving
            assert engine.size == 64 + len(flat)
        finally:
            engine.close()

    def test_close_is_idempotent(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        gateway = RequestGateway(engine)
        frontend = HttpFrontend(gateway)
        frontend.start_in_thread()
        frontend.close()
        frontend.close()
        assert frontend.state == "closed"
        engine.close()

    def test_request_mid_read_when_drain_starts_gets_a_complete_reply(self):
        engine = ShardedEngine(_dataset(), num_shards=2)
        frontend = HttpFrontend(RequestGateway(engine))
        host, port = frontend.start_in_thread()
        payload = b'{"query": [0.0, 100.0]}'
        closer = threading.Thread(target=frontend.close)
        try:
            with socket.create_connection((host, port), timeout=30) as sock:
                # headers now, the body only once the drain is running
                sock.sendall(_post_head("/count", len(payload)))
                _wait_for(lambda: frontend.stats()["inflight"] == 1)
                closer.start()
                _wait_for(lambda: frontend.state != "ready")
                # the drain waits for the half-read request instead of
                # closing the connection under it
                time.sleep(0.05)
                assert closer.is_alive() and frontend.state == "draining"
                sock.sendall(payload)
                raw = _read_to_eof(sock)
            assert raw, "drain closed the connection without a reply"
            status, headers, body = _decode_response(raw)
            assert status == 503 and body == {"error": "draining"}
            closer.join(timeout=30)
            assert not closer.is_alive() and frontend.state == "closed"
            with pytest.raises((ConnectionError, OSError)):
                http_request(host, port, "GET", "/healthz", timeout=2)
        finally:
            if closer.is_alive():
                closer.join(timeout=30)
            engine.close()

    @pytest.mark.parametrize("round_", range(3))
    def test_connects_racing_close_all_get_a_reply_or_a_close(self, round_):
        # Connections accepted in the drain's last loop iterations must be
        # answered or closed by the server, not left open until a GC pass.
        engine = ShardedEngine(_dataset(), num_shards=1)
        frontend = HttpFrontend(RequestGateway(engine))
        address = frontend.start_in_thread()
        payload = b'{"query": [0.0, 100.0]}'
        request = _post_head("/count", len(payload)) + payload
        sockets: list[socket.socket] = []
        lock = threading.Lock()
        stop = threading.Event()

        def connect():
            while not stop.is_set() and len(sockets) < 400:
                try:
                    sock = socket.create_connection(address, timeout=2)
                except OSError:
                    continue  # the listener is gone
                with lock:
                    sockets.append(sock)
                try:
                    sock.sendall(request)
                except OSError:
                    pass

        threads = [threading.Thread(target=connect) for _ in range(8)]
        for thread in threads:
            thread.start()
        try:
            _wait_for(lambda: len(sockets) >= 40)
            frontend.close()
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            deadline = time.monotonic() + 2.0
            stalled = 0
            for sock in sockets:
                sock.settimeout(max(deadline - time.monotonic(), 0.01))
                try:
                    raw = _read_to_eof(sock)
                except TimeoutError:
                    stalled += 1
                except ConnectionError:
                    continue  # reset: a server-side close
                else:
                    if raw:
                        assert _decode_response(raw)[0] in (200, 503)
            assert stalled == 0, f"{stalled} of {len(sockets)} sockets got no reply or close"
        finally:
            stop.set()
            for sock in sockets:
                sock.close()
            engine.close()

    def test_client_raises_connection_error_on_an_empty_reply(self):
        with pytest.raises(ConnectionError, match="without a response"):
            _decode_response(b"")
