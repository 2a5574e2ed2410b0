"""The format-2 checkpoint fixtures under ``tests/data/format2`` and their digests.

Snapshot format 2 stored both subtree lists (by left and by right endpoint)
of every ``FlatAIT`` node, the root's included; format 3 keeps only the list
the parent's case 3 reads.  The committed fixtures were written by this
module with the package at v1.15.0, the last release that wrote format 2::

    PYTHONPATH=src python tests/format2_fixture.py tests/data/format2

They hold the same shapes as the format-1 fixtures (``format1_fixture.py``):
a K = 2 engine with a WAL tail of inserts and deletes, a K = 2 weighted
engine and a standalone sparse-id weighted ``FlatAIT`` file.  The script
prints the digests that ``tests/test_persist_format2.py`` pins.  Run at a
later version it writes the current format instead, so regenerating the
fixtures would no longer test compatibility.
"""

from __future__ import annotations

import sys

from format1_fixture import ENGINES, FLAT_FILE, write

__all__ = ["ENGINES", "FLAT_FILE", "write"]


if __name__ == "__main__":
    for key, value in write(sys.argv[1]).items():
        print(f"{key}: {value}")
