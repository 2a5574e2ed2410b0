"""DeltaLog — an append-only, checksummed write-ahead log for shard writes.

Layout::

    offset 0   magic  b"RPRWAL1\\x00"                     (8 bytes)
    offset 8   format version                             (u32 LE)
    offset 12  epoch (snapshot generation this log extends) (u64 LE)
    offset 20  record checksum algorithm name, NUL-padded (8 bytes)
    offset 28  header CRC (always zlib.crc32 of bytes 0..28) (u32 LE)
    records    [u32 body length][u32 body checksum][body] ...

Like the snapshot container, the log is self-describing about its record
checksums: the header names the algorithm (``crc32c`` when a C
implementation was importable at write time, ``crc32`` otherwise) and
readers resolve that name via :func:`repro.persist.checksum.resolve_checksum`
— never the current runtime's preference.  Without this, a log written
under one algorithm and scanned under the other would fail every record
check and be mistaken for an all-torn tail, silently truncating
acknowledged writes.  The header CRC itself is pinned to ``zlib.crc32`` so
the algorithm field is readable before any resolution happens.  Appends to
a reopened log keep using the algorithm recorded in its header, so a file
never mixes algorithms.

Record bodies are raw little-endian arrays behind a one-byte kind tag:

* kind ``1`` (``insert_many``): ``u64 n`` + ``n`` int64 global ids +
  ``n`` float64 lefts + ``n`` float64 rights;
* kind ``2`` (``delete_many``): ``u64 n`` + ``n`` int64 global ids.

Every record is written with a **single** ``write()`` call, so a crash can
tear at most the final record — and the torn tail always fails its length
or checksum test.  :meth:`DeltaLog.scan` exploits that: it replays records
until the first short or corrupt one and reports how many bytes were valid,
*never* raising for a damaged tail (a bad file *header* is different — that
means the log was never created properly, and raises
:class:`~repro.core.errors.WALCorruptError`).

Durability is a policy, not a constant:

* ``"always"`` — fsync after every append; an acknowledged write survives
  an immediate ``SIGKILL`` or power loss.
* ``"batch"`` — appends are flushed to the OS but fsynced only when
  :meth:`DeltaLog.sync` is called (the gateway syncs once per micro-batch,
  before completing the write futures).
* ``"none"`` — no fsync; durability is best-effort (OS page cache).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Optional

import numpy as np

from ..core.errors import WALCorruptError
from .checksum import CHECKSUM_ALGORITHM, resolve_checksum

__all__ = ["DeltaLog", "WAL_MAGIC", "WAL_FORMAT_VERSION", "FSYNC_POLICIES"]

WAL_MAGIC = b"RPRWAL1\x00"
# v2 added the record-checksum algorithm name to the header; v1 (which left
# readers guessing the algorithm) never shipped and is rejected.
WAL_FORMAT_VERSION = 2
FSYNC_POLICIES = ("always", "batch", "none")

_HEADER = struct.Struct("<8sIQ8s")  # magic, version, epoch, checksum algorithm
_HEADER_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + _HEADER_CRC.size
_RECORD_PREFIX = struct.Struct("<II")  # body length, body checksum

_KIND_INSERT = 1
_KIND_DELETE = 2

_ID = np.dtype("<i8")
_F8 = np.dtype("<f8")
_U64 = struct.Struct("<Q")


def _header_bytes(epoch: int, algorithm: str) -> bytes:
    name = algorithm.encode("ascii")
    if not name or len(name) > 8:
        raise ValueError(f"checksum algorithm name {algorithm!r} must pack into 8 bytes")
    body = _HEADER.pack(WAL_MAGIC, WAL_FORMAT_VERSION, int(epoch), name)
    return body + _HEADER_CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def _parse_header(raw: bytes, path: str) -> tuple[int, str]:
    """Validate a WAL header; return ``(epoch, checksum algorithm name)``.

    Raises WALCorruptError for anything that makes the header unreadable.
    """
    if len(raw) < HEADER_SIZE:
        raise WALCorruptError(f"{path}: truncated WAL header")
    magic, version, epoch, algorithm = _HEADER.unpack(raw[: _HEADER.size])
    (crc,) = _HEADER_CRC.unpack(raw[_HEADER.size : HEADER_SIZE])
    if magic != WAL_MAGIC:
        raise WALCorruptError(f"{path}: bad WAL magic {magic!r}")
    if (zlib.crc32(raw[: _HEADER.size]) & 0xFFFFFFFF) != crc:
        raise WALCorruptError(f"{path}: WAL header failed its checksum")
    if version != WAL_FORMAT_VERSION:
        raise WALCorruptError(f"{path}: unsupported WAL format version {version}")
    return int(epoch), algorithm.rstrip(b"\x00").decode("ascii", "replace")


def _resolve_record_checksum(algorithm: str, path: str):
    """The checksum function named by a WAL header.

    Raising beats truncating here: a log whose algorithm this runtime cannot
    compute (e.g. a ``crc32c`` file on a box that lost its crc32c wheel)
    would fail *every* record check, and treating that as a torn tail would
    silently destroy acknowledged writes.
    """
    try:
        return resolve_checksum(algorithm)
    except ValueError as exc:
        raise WALCorruptError(f"{path}: cannot verify WAL records: {exc}") from exc


def _decode_body(body: bytes):
    """Decode one validated record body; returns a delta-op tuple or None."""
    kind = body[0]
    cursor = 1
    (count,) = _U64.unpack_from(body, cursor)
    cursor += _U64.size
    ids = np.frombuffer(body, dtype=_ID, count=count, offset=cursor).astype(np.int64)
    cursor += count * 8
    if kind == _KIND_INSERT:
        lefts = np.frombuffer(body, dtype=_F8, count=count, offset=cursor).astype(np.float64)
        cursor += count * 8
        rights = np.frombuffer(body, dtype=_F8, count=count, offset=cursor).astype(np.float64)
        return ("insert_many", ids, lefts, rights)
    if kind == _KIND_DELETE:
        return ("delete_many", ids)
    return None  # unknown kind: treat like a torn tail (forward compatibility)


class DeltaLog:
    """Append-only durable journal of one shard's buffered write batches."""

    def __init__(self, path, fsync: str = "batch", epoch: int = 0, *,
                 create: bool = True, opener=open) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self._path = os.fspath(path)
        self._fsync = fsync
        self._opener = opener
        self._closed = False
        exists = os.path.exists(self._path) and os.path.getsize(self._path) > 0
        if exists:
            with open(self._path, "rb") as handle:
                self._epoch, self._algorithm = _parse_header(
                    handle.read(HEADER_SIZE), self._path
                )
            # Appends continue with the algorithm the file was created with,
            # so one log never mixes record-checksum algorithms.
            self._checksum = _resolve_record_checksum(self._algorithm, self._path)
            self._file = opener(self._path, "ab")
            # Bytes an earlier process wrote may still sit in the page cache.
            self._dirty = True
        elif create:
            self._epoch = int(epoch)
            self._algorithm = CHECKSUM_ALGORITHM
            self._checksum = resolve_checksum(self._algorithm)
            self._file = opener(self._path, "wb")
            self._file.write(_header_bytes(self._epoch, self._algorithm))
            self._file.flush()
            if fsync != "none":
                os.fsync(self._file.fileno())
            self._dirty = False
        else:
            raise FileNotFoundError(self._path)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        return self._path

    @property
    def epoch(self) -> int:
        """Snapshot generation this log extends."""
        return self._epoch

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    @property
    def checksum_algorithm(self) -> str:
        """Record-checksum algorithm recorded in (and enforced by) the header."""
        return self._algorithm

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeltaLog({self._path!r}, epoch={self._epoch}, fsync={self._fsync!r})"

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def _append(self, body: bytes) -> None:
        prefix = _RECORD_PREFIX.pack(len(body), self._checksum(body))
        # One write() per record: a crash tears at most the final record,
        # and a torn record always fails its length or checksum test.
        self._file.write(prefix + body)
        self._file.flush()
        if self._fsync == "always":
            os.fsync(self._file.fileno())
        else:
            self._dirty = True

    def append_insert(self, global_ids, lefts, rights) -> None:
        """Journal one ``insert_many`` batch (before it is acknowledged)."""
        ids = np.ascontiguousarray(global_ids, dtype=_ID)
        lefts = np.ascontiguousarray(lefts, dtype=_F8)
        rights = np.ascontiguousarray(rights, dtype=_F8)
        body = b"".join(
            (
                bytes([_KIND_INSERT]),
                _U64.pack(ids.shape[0]),
                ids.tobytes(),
                lefts.tobytes(),
                rights.tobytes(),
            )
        )
        self._append(body)

    def append_delete(self, global_ids) -> None:
        """Journal one ``delete_many`` batch (before it is acknowledged)."""
        ids = np.ascontiguousarray(global_ids, dtype=_ID)
        body = bytes([_KIND_DELETE]) + _U64.pack(ids.shape[0]) + ids.tobytes()
        self._append(body)

    def sync(self) -> None:
        """Force everything appended so far to stable storage (fsync).

        A log with no appends since its last sync is clean and costs no
        fsync; under ``"always"`` every append already synced itself.
        """
        if self._closed or self._fsync == "none" or not self._dirty:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._dirty = False

    def close(self, sync: bool = True) -> None:
        """Flush (and by default fsync) then close the log.  Idempotent."""
        if self._closed:
            return
        if sync:
            self.sync()
        self._closed = True
        self._file.close()

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    @staticmethod
    def scan(path) -> tuple[int, list, int]:
        """Replay a WAL tolerantly; return ``(epoch, records, valid_bytes)``.

        Stops at the first short, torn, or checksum-failing record and
        reports how many bytes were valid — it never raises for a damaged
        *tail*.  A missing or empty file yields no records.  A present but
        corrupt *header* raises :class:`WALCorruptError` (the file was never
        a valid log, so silently ignoring it would hide real data loss).
        """
        path = os.fspath(path)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return 0, [], 0
        if len(raw) == 0:
            return 0, [], 0
        if len(raw) < HEADER_SIZE:
            # Crash while creating the log: header itself is the torn tail.
            return 0, [], 0
        epoch, algorithm = _parse_header(raw[:HEADER_SIZE], path)
        check = _resolve_record_checksum(algorithm, path)
        records: list = []
        cursor = HEADER_SIZE
        total = len(raw)
        while cursor + _RECORD_PREFIX.size <= total:
            body_len, body_crc = _RECORD_PREFIX.unpack_from(raw, cursor)
            body_start = cursor + _RECORD_PREFIX.size
            body_end = body_start + body_len
            if body_len == 0 or body_end > total:
                break  # torn/truncated tail
            body = raw[body_start:body_end]
            if check(body) != body_crc:
                break  # corrupt tail: stop, keep everything before it
            try:
                decoded = _decode_body(body)
            except (ValueError, IndexError, struct.error):
                decoded = None  # checksum collision on garbage: treat as torn
            if decoded is None:
                break
            records.append(decoded)
            cursor = body_end
        return epoch, records, cursor

    @classmethod
    def recover(cls, path, fsync: str = "batch", epoch: int = 0,
                opener=open) -> tuple["DeltaLog", list]:
        """Scan ``path``, truncate any torn tail, and reopen for appends.

        Returns ``(log, records)`` where ``records`` are the valid delta ops
        in append order.  Creates a fresh log (with ``epoch``) when the file
        is missing or empty.
        """
        path = os.fspath(path)
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            return cls(path, fsync=fsync, epoch=epoch, opener=opener), []
        found_epoch, records, valid_bytes = cls.scan(path)
        if valid_bytes < HEADER_SIZE:
            # Torn during creation: rewrite from scratch at the given epoch.
            os.unlink(path)
            return cls(path, fsync=fsync, epoch=epoch, opener=opener), []
        size = os.path.getsize(path)
        if valid_bytes < size:
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        return cls(path, fsync=fsync, epoch=found_epoch, opener=opener), records

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def wal_epoch(path) -> Optional[int]:
    """Epoch recorded in a WAL header, or None when missing/empty/torn-at-birth."""
    try:
        with open(os.fspath(path), "rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except FileNotFoundError:
        return None
    if len(raw) < HEADER_SIZE:
        return None
    return _parse_header(raw, os.fspath(path))[0]
