"""HttpFrontend — a resilient asyncio HTTP front end over the RequestGateway.

This is the repo's wire tier: a dependency-free HTTP/1.1 server
(:func:`asyncio.start_server`, JSON bodies) that exposes the gateway's
operations as endpoints and wraps them in the overload machinery from
:mod:`repro.service.admission`:

* ``POST /count`` ``/total_weight`` ``/report`` ``/sample`` ``/insert``
  ``/delete`` ``/checkpoint`` — the gateway operations, one JSON object in,
  one JSON object out;
* ``GET /healthz`` — liveness: 200 for as long as the process serves;
* ``GET /readyz`` — readiness: 200 only while ``state == "ready"``; flips
  to 503 while degraded (circuit breaker open) or draining;
* ``GET /stats`` — the gateway/admission/breaker telemetry in one JSON
  document.

Resilience contract
-------------------
**Admission.** Every operation request first passes the
:class:`~repro.service.admission.AdmissionController`; above the
high-water mark it is shed immediately with **429** + ``Retry-After`` —
the server answers "try later" in microseconds instead of queueing
without bound.  A full gateway queue (:class:`GatewayOverloadError`)
maps to the same 429.

**Deadlines.** Each request carries a time budget (body key
``deadline_ms``, default/cap per the constructor) spanning queue wait,
dispatch, and retries.  On expiry the gateway future is *cancelled* — an
unstarted request never executes (no invisible late write) — and the
caller gets **504**.

**Retries.** A request that failed because a process-executor worker died
under it (see :func:`~repro.service.admission.is_worker_failure`) is
retried with jittered exponential backoff — reads only, within the
deadline.

**Circuit breaker.** Worker failures also feed the
:class:`~repro.service.admission.CircuitBreaker`; once it trips the
server enters *degraded read-only mode*: writes get **503** while reads
keep flowing and double as recovery probes.

**Graceful shutdown.** ``stop()`` / ``close()`` refuse new connections,
drain in-flight requests, then close the gateway — which flushes its
queue and fsyncs the engine's write-ahead log.  Every write acked with
200 before the drain is durable.  A request counts as in flight from its
request line, so one still being read when the drain starts is answered
(503), never dropped with an empty reply.

Examples
--------
>>> from repro import IntervalDataset
>>> from repro.service import ShardedEngine, RequestGateway, HttpFrontend
>>> from repro.service.server import http_request
>>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30), (25, 40)])
>>> engine = ShardedEngine(data, num_shards=2)
>>> gateway = RequestGateway(engine)
>>> with HttpFrontend(gateway) as frontend:
...     host, port = frontend.address
...     status, _, body = http_request(host, port, "POST", "/count", {"query": [4, 12]})
...     (status, body["result"])
(200, 2)
>>> engine.close()
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading
import time
from typing import Optional

import numpy as np

from ..core.errors import (
    EmptyResultError,
    GatewayClosedError,
    GatewayOverloadError,
    InvalidIntervalError,
    InvalidQueryError,
)
from .admission import AdmissionController, CircuitBreaker, Deadline, RetryPolicy, is_worker_failure
from .gateway import READ_OPS, RequestGateway

__all__ = ["HttpFrontend", "http_request", "http_request_async"]

#: Operation endpoints: request path -> gateway op.
OP_ROUTES = {
    "/count": "count",
    "/total_weight": "total_weight",
    "/report": "report",
    "/sample": "sample",
    "/insert": "insert",
    "/delete": "delete",
    "/checkpoint": "checkpoint",
}

#: The front-end lifecycle states surfaced by ``/readyz`` and ``stats()``.
FRONTEND_STATES = ("ready", "degraded", "draining", "closed")

_MAX_BODY_BYTES = 1 << 20
_MAX_HEADER_LINES = 100

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """Client-side malformation; mapped to a 400 response."""


class _DeadlineExceeded(Exception):
    """The request's time budget expired; mapped to a 504 response."""


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


class HttpFrontend:
    """Serve a :class:`RequestGateway` over HTTP with overload protection.

    Parameters
    ----------
    gateway:
        The gateway to serve.  The front end becomes its only client;
        closing the front end closes the gateway (drain + WAL fsync), but
        the engine stays up unless the gateway owns it.
    host, port:
        Bind address.  ``port=0`` picks a free ephemeral port (read it
        back from :attr:`address`).
    admission:
        The :class:`~repro.service.admission.AdmissionController`
        enforcing the bounded in-flight window (a default one if None).
    retry:
        The :class:`~repro.service.admission.RetryPolicy` applied to
        worker-failure read retries (a default one if None).
    breaker:
        The :class:`~repro.service.admission.CircuitBreaker` guarding the
        degraded read-only transition (a default one if None).
    default_deadline_ms:
        Budget assigned to requests that do not carry ``deadline_ms``.
    max_deadline_ms:
        Upper clamp on client-supplied deadlines — a client cannot pin a
        request (and its admission slot) for longer than this.
    drain_timeout_s:
        How long ``stop()`` waits for in-flight requests before closing
        the gateway anyway.
    """

    def __init__(
        self,
        gateway: RequestGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        default_deadline_ms: float = 1000.0,
        max_deadline_ms: float = 30000.0,
        drain_timeout_s: float = 10.0,
    ) -> None:
        if default_deadline_ms <= 0:
            raise ValueError(f"default_deadline_ms must be positive, got {default_deadline_ms}")
        if max_deadline_ms < default_deadline_ms:
            raise ValueError(
                f"max_deadline_ms must be >= default_deadline_ms, got {max_deadline_ms}"
            )
        if drain_timeout_s < 0:
            raise ValueError(f"drain_timeout_s must be >= 0, got {drain_timeout_s}")
        self._gateway = gateway
        self._host = host
        self._port = int(port)
        self._admission = admission if admission is not None else AdmissionController()
        self._retry = retry if retry is not None else RetryPolicy()
        self._breaker = breaker if breaker is not None else CircuitBreaker()
        self._default_deadline_s = float(default_deadline_ms) / 1e3
        self._max_deadline_s = float(max_deadline_ms) / 1e3
        self._drain_timeout_s = float(drain_timeout_s)

        self._server: Optional[asyncio.base_events.Server] = None
        self._address: Optional[tuple[str, int]] = None
        self._draining = False
        self._closed = False
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._counters = {
            "requests_total": 0,
            "responses_2xx": 0,
            "responses_4xx": 0,
            "responses_5xx": 0,
            "shed_429": 0,
            "deadline_504": 0,
            "degraded_503": 0,
            "retries_total": 0,
            "worker_failures_total": 0,
        }
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._address is None:
            raise RuntimeError("frontend is not started")
        return self._address

    @property
    def state(self) -> str:
        """One of :data:`FRONTEND_STATES`."""
        if self._closed:
            return "closed"
        if self._draining:
            return "draining"
        if not self._breaker.allows_writes():
            return "degraded"
        return "ready"

    async def start(self) -> tuple[str, int]:
        """Bind and start serving on the running event loop; return the address."""
        if self._server is not None:
            raise RuntimeError("frontend is already started")
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        bound = self._server.sockets[0].getsockname()
        self._address = (bound[0], bound[1])
        return self._address

    async def stop(self) -> None:
        """Graceful shutdown: refuse, drain, then close the gateway.

        Ordering is the durability contract: (1) the listener closes, so
        no new connection is accepted; (2) in-flight requests drain (up to
        ``drain_timeout_s``); (3) the gateway closes, flushing its queue
        and fsyncing the engine WAL — every 200-acked write is on disk
        before ``stop()`` returns.  Idempotent.
        """
        if self._closed:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._idle is not None and self._inflight > 0:
            try:
                await asyncio.wait_for(self._idle.wait(), self._drain_timeout_s or None)
            except TimeoutError:
                pass
        await asyncio.get_running_loop().run_in_executor(None, self._gateway.close)
        self._closed = True
        for writer in list(self._writers):
            writer.close()
        await asyncio.sleep(0)

    # Thread-embedded mode --------------------------------------------- #
    def start_in_thread(self) -> tuple[str, int]:
        """Run the frontend on a dedicated event-loop thread; return the address.

        The embedding used by the tests, the benchmark, and the example:
        the caller keeps its thread, the server spins on its own daemon
        thread until :meth:`close`.
        """
        if self._thread is not None:
            raise RuntimeError("frontend thread is already running")
        loop = asyncio.new_event_loop()
        started = threading.Event()
        failures: list[BaseException] = []

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
                failures.append(exc)
                started.set()
                loop.close()
                return
            self._loop = loop
            started.set()
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread = threading.Thread(target=run, name="repro-http-frontend", daemon=True)
        self._thread.start()
        started.wait()
        if failures:
            self._thread.join()
            self._thread = None
            raise failures[0]
        return self.address

    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful drain from any thread (the thread-mode face of :meth:`stop`)."""
        thread, loop = self._thread, self._loop
        if thread is None or loop is None or not thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.stop(), loop).result(timeout)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "HttpFrontend":
        self.start_in_thread()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """One JSON document: frontend state + gateway/admission/breaker telemetry."""
        with self._counter_lock:
            counters = dict(self._counters)
        return {
            "state": self.state,
            "inflight": self._inflight,
            "frontend": counters,
            "admission": self._admission.stats(),
            "breaker": self._breaker.stats(),
            "gateway": self._gateway.stats(),
        }

    def _count(self, key: str) -> None:
        with self._counter_lock:
            self._counters[key] += 1

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                # In flight from the request line on, not from admission: a
                # drain that starts while the headers or body are still
                # arriving waits for this request and answers it (with 503)
                # instead of closing the connection under it.
                self._inflight += 1
                self._idle.clear()
                try:
                    try:
                        request = await self._read_request(line, reader)
                    except _BadRequest as exc:
                        await self._respond(writer, 400, {"error": str(exc)}, close=True)
                        break
                    keep_alive = await self._handle_request(request, writer)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, line: bytes, reader: asyncio.StreamReader) -> dict:
        """Parse the rest of a request whose request ``line`` has been read."""
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest(f"malformed request line: {line!r}") from None
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line: {raw!r}")
            headers[key.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many header lines")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("malformed Content-Length") from None
        if not 0 <= length <= _MAX_BODY_BYTES:
            raise _BadRequest(f"Content-Length out of range: {length}")
        body = await reader.readexactly(length) if length else b""
        return {
            "method": method.upper(),
            "path": target.split("?", 1)[0],
            "headers": headers,
            "body": body,
        }

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        retry_after_s: Optional[float] = None,
        close: bool = False,
    ) -> None:
        if 200 <= status < 300:
            self._count("responses_2xx")
        elif 400 <= status < 500:
            self._count("responses_4xx")
        elif status >= 500:
            self._count("responses_5xx")
        body = json.dumps(payload).encode()
        headers = [
            f"HTTP/1.1 {status} {_STATUS_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if retry_after_s is not None:
            headers.append(f"Retry-After: {max(1, math.ceil(retry_after_s))}")
        writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def _handle_request(self, request: dict, writer: asyncio.StreamWriter) -> bool:
        """Route one parsed request; return False to close the connection."""
        self._count("requests_total")
        method, path = request["method"], request["path"]
        # Honour the client's framing choice: a ``Connection: close`` request
        # gets a closing response (the minimal clients below rely on EOF).
        close = request["headers"].get("connection", "").lower() == "close"

        if method == "GET":
            if path == "/healthz":
                await self._respond(
                    writer, 200, {"status": "alive", "state": self.state}, close=close
                )
            elif path == "/readyz":
                state = self.state
                if state == "ready":
                    await self._respond(writer, 200, {"status": "ready"}, close=close)
                else:
                    await self._respond(
                        writer,
                        503,
                        {"status": state},
                        retry_after_s=self._admission.retry_after_s,
                        close=close,
                    )
            elif path == "/stats":
                await self._respond(writer, 200, self.stats(), close=close)
            else:
                await self._respond(
                    writer, 404, {"error": f"unknown path {path!r}"}, close=close
                )
            return not close

        op = OP_ROUTES.get(path)
        if method != "POST" or op is None:
            await self._respond(
                writer, 404, {"error": f"unknown endpoint {method} {path}"}, close=close
            )
            return not close

        if self._draining:
            await self._respond(writer, 503, {"error": "draining"}, close=True)
            return False

        if not self._admission.acquire():
            # The fast path out: one latch check, no parsing, no queueing.
            self._count("shed_429")
            await self._respond(
                writer,
                429,
                {"error": "overloaded: admission queue past high-water mark"},
                retry_after_s=self._admission.retry_after_s,
                close=close,
            )
            return not close
        try:
            status, payload, retry_after = await self._execute_op(op, request)
        finally:
            self._admission.release()
        await self._respond(writer, status, payload, retry_after_s=retry_after, close=close)
        return not close

    def _parse_op(self, op: str, request: dict) -> tuple[tuple, dict, Deadline]:
        if request["body"]:
            try:
                body = json.loads(request["body"])
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _BadRequest(f"body is not valid JSON: {exc}") from None
            if not isinstance(body, dict):
                raise _BadRequest("body must be a JSON object")
        else:
            body = {}

        deadline_ms = body.get("deadline_ms", request["headers"].get("x-deadline-ms"))
        if deadline_ms is None:
            deadline_s = self._default_deadline_s
        else:
            try:
                deadline_s = float(deadline_ms) / 1e3
            except (TypeError, ValueError):
                raise _BadRequest(f"deadline_ms must be a number, got {deadline_ms!r}") from None
            if deadline_s <= 0:
                raise _BadRequest(f"deadline_ms must be positive, got {deadline_ms!r}")
            deadline_s = min(deadline_s, self._max_deadline_s)

        try:
            if op in ("count", "total_weight", "report"):
                args, kwargs = (tuple(body["query"]),), {}
            elif op == "sample":
                args = (tuple(body["query"]), int(body["sample_size"]))
                kwargs = {"on_empty": body.get("on_empty", "empty")}
            elif op == "insert":
                args, kwargs = (tuple(body["interval"]),), {}
            elif op == "delete":
                args, kwargs = (int(body["id"]),), {}
            else:  # checkpoint
                args = (body["directory"],) if body.get("directory") is not None else ()
                kwargs = {
                    "fsync": bool(body.get("fsync", True)),
                    "retain": int(body.get("retain", 2)),
                }
        except KeyError as exc:
            raise _BadRequest(f"{op} request body is missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise _BadRequest(f"malformed {op} request body: {exc}") from None
        return args, kwargs, Deadline(deadline_s)

    async def _execute_op(self, op: str, request: dict) -> tuple[int, dict, Optional[float]]:
        """Run one operation through admission/deadline/retry/breaker; no raising."""
        try:
            args, kwargs, deadline = self._parse_op(op, request)
        except _BadRequest as exc:
            return 400, {"error": str(exc)}, None

        if op not in READ_OPS and not self._breaker.allows_writes():
            self._count("degraded_503")
            return (
                503,
                {"error": "degraded read-only mode: circuit breaker is open"},
                self._breaker.cooldown_s,
            )

        delays = self._retry.delays()
        while True:
            try:
                result = await self._dispatch_once(op, args, kwargs, deadline)
            except _DeadlineExceeded:
                self._count("deadline_504")
                return 504, {"error": f"{op} missed its deadline"}, None
            except GatewayOverloadError as exc:
                return 429, {"error": str(exc)}, self._admission.retry_after_s
            except GatewayClosedError as exc:
                return 503, {"error": str(exc)}, None
            except (InvalidQueryError, InvalidIntervalError, ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}, None
            except EmptyResultError as exc:
                return 404, {"error": str(exc)}, None
            except Exception as exc:  # noqa: BLE001 - mapped to a status code
                if is_worker_failure(exc):
                    self._count("worker_failures_total")
                    self._breaker.record_failure()
                    if op in READ_OPS:
                        # Reads are safe to retry: the executor respawned the
                        # worker, and no state changed.  Writes are not — a
                        # failure after apply would double-apply on retry.
                        delay = next(delays, None)
                        if delay is not None and not deadline.expired():
                            self._count("retries_total")
                            await asyncio.sleep(min(delay, deadline.remaining()))
                            continue
                return 500, {"error": f"{type(exc).__name__}: {exc}"}, None
            else:
                if op in READ_OPS:
                    self._breaker.record_success()
                return 200, {"result": _jsonable(result)}, None

    async def _dispatch_once(self, op: str, args: tuple, kwargs: dict, deadline: Deadline):
        remaining = deadline.remaining()
        if remaining <= 0:
            raise _DeadlineExceeded
        future = self._gateway.submit(op, *args, **kwargs)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future), remaining)
        except (TimeoutError, asyncio.TimeoutError):
            # Either our wait expired or the request failed with a
            # timeout-class error of its own (WorkerTimeoutError) — a done
            # future carries the request's outcome and must surface it.
            if future.done() and future.exception() is not None:
                raise future.exception() from None
            future.cancel()
            raise _DeadlineExceeded from None


# ---------------------------------------------------------------------- #
# minimal JSON-over-HTTP clients (tests, example, load generator)
# ---------------------------------------------------------------------- #
def _encode_request(method: str, path: str, body: Optional[dict]) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: repro\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + payload


def _decode_response(raw: bytes) -> tuple[int, dict, dict]:
    if not raw:
        raise ConnectionError("server closed the connection without a response")
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    payload = json.loads(body) if body else {}
    return status, headers, payload


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    timeout: float = 30.0,
) -> tuple[int, dict, dict]:
    """One blocking JSON request; returns ``(status, headers, payload)``."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(_encode_request(method, path, body))
        chunks = []
        deadline = time.monotonic() + timeout
        while True:
            sock.settimeout(max(0.01, deadline - time.monotonic()))
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _decode_response(b"".join(chunks))


async def http_request_async(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    timeout: float = 30.0,
) -> tuple[int, dict, dict]:
    """One async JSON request; returns ``(status, headers, payload)``."""
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    try:
        writer.write(_encode_request(method, path, body))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return _decode_response(raw)
