"""Versioned, checksummed, page-aligned array snapshots.

A snapshot file is a self-describing container for named numpy arrays:

::

    offset 0   magic  b"RPRSNAP1"                         (8 bytes)
    offset 8   header length                              (u32 LE)
    offset 12  header CRC (always zlib.crc32)             (u32 LE)
    offset 16  header JSON                                (header length bytes)
    ...        zero padding to the next 4096 boundary
    data       array segments, each aligned to 4096

The JSON header carries the format version, the checksum algorithm used for
the array digests (see :mod:`repro.persist.checksum`), a caller-supplied
``meta`` dict, and one table entry per array: name, dtype (endianness
included), shape, offset relative to the data start, byte length, and
checksum.  Offsets are relative so the header's own length never shifts the
data layout.

Because segments are page-aligned and stored raw, :func:`load_arrays` can
return zero-copy ``np.memmap`` views (``mmap=True``, the default): opening a
multi-hundred-megabyte snapshot costs a header parse, and pages fault in
lazily as queries touch them.  All loaded arrays are read-only — snapshot
state is immutable by construction.  ``verify=True`` additionally walks every
segment once to recompute its checksum (this pages the file in, but the
pages stay cached for the queries that follow).

Writes are atomic: the container is assembled in a ``<path>.tmp`` sibling,
fsynced, then renamed over the target, so a crash mid-save never damages the
previous snapshot.

On top of the generic container this module also knows how to persist a
:class:`~repro.core.flat.FlatAIT`: :func:`save_flat` / :func:`load_flat`
(the implementations behind ``FlatAIT.save`` / ``FlatAIT.load``) store the
arrays of ``FlatAIT.CORE_FIELDS``, which ``load`` adopts as they are.

Format 3 stores one position key per list entry and one subtree list per
non-root node.  Format 2 stored both subtree lists of every node, the
root's included; format 1 stored an endpoint, an id and a rank key per
entry.  Their files still load: :func:`flat_from_arrays` dispatches on the
header's format version and converts them.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Optional

import numpy as np

from ..core.errors import SnapshotCorruptError, StructureStateError
from ..core.flat import FlatAIT, _key_modulus, _left_children, _offsets, _ranges_to_indices
from .checksum import CHECKSUM_ALGORITHM, checksum, resolve_checksum

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "READABLE_VERSIONS",
    "PAGE_SIZE",
    "save_arrays",
    "load_arrays",
    "read_header",
    "save_flat",
    "load_flat",
    "flat_to_arrays",
    "flat_from_arrays",
]

MAGIC = b"RPRSNAP1"
FORMAT_VERSION = 3
#: Every format version this module reads (see :func:`flat_from_arrays`).
READABLE_VERSIONS = (1, 2, 3)
PAGE_SIZE = 4096

_ID = np.int64
_PREAMBLE = struct.Struct("<8sII")  # magic, header length, header crc32


def _align(offset: int) -> int:
    return (offset + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


def fsync_directory(directory: str) -> None:
    """fsync a directory so a just-renamed file survives power loss."""
    fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------- #
# generic container
# ---------------------------------------------------------------------- #
def save_arrays(path, arrays: dict, meta: Optional[dict] = None, fsync: bool = True,
                opener=open) -> None:
    """Atomically write named arrays (``None`` values are skipped) to ``path``.

    ``opener`` exists for fault injection: any ``open``-compatible callable
    (see :class:`repro.persist.FaultInjector`).
    """
    path = os.fspath(path)
    table: list[dict] = []
    segments: list[tuple[int, np.ndarray]] = []
    offset = 0
    for name, array in arrays.items():
        if array is None:
            continue
        array = np.ascontiguousarray(array)
        offset = _align(offset)
        view = memoryview(array).cast("B")
        table.append(
            {
                "name": str(name),
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
                "checksum": checksum(view) if array.nbytes else 0,
            }
        )
        segments.append((offset, array))
        offset += int(array.nbytes)

    header = {
        "format_version": FORMAT_VERSION,
        "checksum_algorithm": CHECKSUM_ALGORITHM,
        "meta": meta or {},
        "arrays": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align(_PREAMBLE.size + len(header_bytes))

    tmp = path + ".tmp"
    with opener(tmp, "wb") as handle:
        handle.write(
            _PREAMBLE.pack(MAGIC, len(header_bytes), zlib.crc32(header_bytes) & 0xFFFFFFFF)
        )
        handle.write(header_bytes)
        position = _PREAMBLE.size + len(header_bytes)
        for relative, array in segments:
            target = data_start + relative
            if target > position:
                handle.write(b"\x00" * (target - position))
            handle.write(memoryview(array).cast("B"))
            position = target + int(array.nbytes)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_directory(os.path.dirname(path))


def read_header(path) -> tuple[dict, int]:
    """Validate and parse a snapshot header; return ``(header, data_start)``."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise SnapshotCorruptError(f"{path}: truncated before the header preamble")
        magic, header_len, header_crc = _PREAMBLE.unpack(preamble)
        if magic != MAGIC:
            raise SnapshotCorruptError(f"{path}: bad magic {magic!r} (not a snapshot file)")
        header_bytes = handle.read(header_len)
    if len(header_bytes) != header_len or (zlib.crc32(header_bytes) & 0xFFFFFFFF) != header_crc:
        raise SnapshotCorruptError(f"{path}: header failed its checksum")
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise SnapshotCorruptError(f"{path}: header is not valid JSON") from exc
    version = header.get("format_version")
    if version not in READABLE_VERSIONS:
        raise SnapshotCorruptError(
            f"{path}: unsupported snapshot format version {version!r}"
        )
    return header, _align(_PREAMBLE.size + header_len)


def load_arrays(path, mmap: bool = True, verify: bool = True) -> tuple[dict, dict]:
    """Load a snapshot written by :func:`save_arrays`.

    Returns ``(arrays, meta)``; ``meta`` carries the header's
    ``format_version`` beside the caller's keys.  With ``mmap=True`` every
    array is a read-only ``np.memmap`` view (lazy page-in); otherwise the
    segments are read eagerly into read-only in-memory arrays.
    ``verify=True`` checks every segment's checksum and raises
    :class:`SnapshotCorruptError` on the first mismatch.
    """
    path = os.fspath(path)
    header, data_start = read_header(path)
    check = resolve_checksum(header["checksum_algorithm"])
    file_size = os.path.getsize(path)
    arrays: dict[str, np.ndarray] = {}
    eager_handle = None if mmap else open(path, "rb")
    try:
        for entry in header["arrays"]:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            nbytes = int(entry["nbytes"])
            start = data_start + int(entry["offset"])
            if start + nbytes > file_size:
                raise SnapshotCorruptError(
                    f"{path}: array {name!r} extends past the end of the file"
                )
            if nbytes == 0:
                array = np.empty(shape, dtype=dtype)
                array.setflags(write=False)
            elif mmap:
                array = np.memmap(path, mode="r", dtype=dtype, offset=start, shape=shape)
            else:
                eager_handle.seek(start)
                buffer = eager_handle.read(nbytes)
                if len(buffer) != nbytes:
                    raise SnapshotCorruptError(f"{path}: short read of array {name!r}")
                array = np.frombuffer(buffer, dtype=dtype).reshape(shape)
            if verify and nbytes:
                if check(memoryview(array).cast("B")) != entry["checksum"]:
                    raise SnapshotCorruptError(
                        f"{path}: array {name!r} failed its checksum"
                    )
            arrays[name] = array
    finally:
        if eager_handle is not None:
            eager_handle.close()
    return arrays, {**header.get("meta", {}), "format_version": header["format_version"]}


# ---------------------------------------------------------------------- #
# FlatAIT persistence
# ---------------------------------------------------------------------- #
def flat_to_arrays(flat: FlatAIT, prefix: str = "") -> dict:
    """The persistable array table of a snapshot (``FlatAIT.CORE_FIELDS``)."""
    return {prefix + name: getattr(flat, attr) for name, attr in FlatAIT.CORE_FIELDS}


def flat_from_arrays(arrays: dict, weighted: bool, version: int, prefix: str = "") -> FlatAIT:
    """Reassemble a :class:`FlatAIT` from loaded (possibly mmap-backed) arrays.

    ``version`` is the format version of the file the arrays came from.  A
    format-3 table is adopted as it is through :meth:`FlatAIT.from_buffers`
    (zero-copy); formats 1 and 2 are converted (:func:`_convert_legacy`).
    Strips the name ``prefix`` and maps a malformed snapshot onto the
    persistence error contract.
    """
    if arrays.get(prefix + "all_weight_prefix") is None and weighted:
        raise SnapshotCorruptError(
            "weighted snapshot is missing its all_weight_prefix array"
        )
    named = {name: arrays.get(prefix + name) for name, _ in FlatAIT.CORE_FIELDS}
    if version == FORMAT_VERSION:
        return FlatAIT.from_buffers(named, weighted)
    if version not in READABLE_VERSIONS:
        raise SnapshotCorruptError(f"unsupported snapshot format version {version!r}")
    if version == 1:
        named.update(
            (name, arrays[prefix + name]) for name in ("all_ids", "sub_lefts", "sub_rights")
        )
    try:
        return _convert_legacy(named, weighted, version)
    except (StructureStateError, IndexError) as exc:
        raise SnapshotCorruptError(f"format-{version} snapshot: {exc}") from exc


def _convert_legacy(named: dict, weighted: bool, version: int) -> FlatAIT:
    """A format-1 or format-2 table in the format-3 layout.

    Both formats stored four list pools: stab by left, stab by right, then
    the subtree lists by right and by left of every node, the root's first.
    Format 1 stored their ids (``all_ids``) and the root's endpoints in its
    subtree pools; format 2 stored position keys over ``root_ids``.  The
    conversion keeps each non-root node's one read subtree list and the
    root's weight prefixes, and :meth:`FlatAIT.from_id_pools` keys them.
    """
    structure = [named[name] for name, _ in FlatAIT.CORE_FIELDS[:7]]
    left_child, stab_len, sub_off, sub_len = (structure[i] for i in (1, 4, 5, 6))
    n = int(sub_len[0]) if sub_len.shape[0] else 0
    if version == 1:
        ids = named["all_ids"]
        sorted_lefts, sorted_rights = named["sub_lefts"][:n], named["sub_rights"][:n]
    else:
        ids = named["root_ids"][named["all_keys"] & (_key_modulus(n) - 1)]
        sorted_lefts, sorted_rights = named["sorted_lefts"], named["sorted_rights"]
    stab = int(stab_len.sum())
    by_right, by_left = 2 * stab, 2 * stab + int(sub_len.sum())
    kept_len = np.array(sub_len, dtype=_ID)
    kept_len[:1] = 0
    starts = np.where(_left_children(left_child), by_right, by_left) + sub_off
    nz = kept_len > 0
    kept = np.concatenate((np.arange(2 * stab), _ranges_to_indices(starts[nz], kept_len[nz])))
    prefix = named["all_weight_prefix"]
    if weighted:
        prefix = np.concatenate(
            (prefix[kept], prefix[by_left : by_left + n], prefix[by_right : by_right + n])
        )
    structure[5:] = _offsets(kept_len), kept_len
    return FlatAIT.from_id_pools(
        tuple(structure),
        sorted_lefts,
        sorted_rights,
        np.concatenate((ids[by_left : by_left + n], ids[by_right : by_right + n])),
        ids[kept],
        prefix,
        weighted,
    )


def save_flat(flat: FlatAIT, path, fsync: bool = True, opener=open) -> None:
    """Write one :class:`FlatAIT` to a standalone snapshot file."""
    save_arrays(
        path,
        flat_to_arrays(flat),
        meta={"kind": "flat_ait", "weighted": bool(flat.is_weighted)},
        fsync=fsync,
        opener=opener,
    )


def load_flat(path, mmap: bool = True, verify: bool = True) -> FlatAIT:
    """Load a standalone :class:`FlatAIT` snapshot written by :func:`save_flat`."""
    arrays, meta = load_arrays(path, mmap=mmap, verify=verify)
    if meta.get("kind") != "flat_ait":
        raise SnapshotCorruptError(
            f"{os.fspath(path)}: not a FlatAIT snapshot (kind={meta.get('kind')!r})"
        )
    return flat_from_arrays(arrays, bool(meta.get("weighted", False)), meta["format_version"])
