"""A keep-alive HTTP/1.1 JSON client on asyncio streams.

The repo's own ``http_request`` sends ``Connection: close`` and opens one
socket per request, so timing it would time TCP set-up rather than the
server.  This client keeps one connection open and sends requests on it
back to back.
"""

from __future__ import annotations

import asyncio
import json


class HttpConnection:
    """One persistent connection; one request in flight at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "HttpConnection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        """Send one request and return ``(status, decoded JSON body)``."""
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: perfbench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode() + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else {})

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
