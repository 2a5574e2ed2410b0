"""Run hygiene: no shared-memory segment and no process may outlive a run.

Reads Linux ``/proc`` and ``/dev/shm``.  Every process the run started
(workers, the server child and its workers) is noted while it runs, and
:meth:`Hygiene.check` fails the run if any of them is still alive at the
end, or if a ``psm_*`` segment created during the run is left behind.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

SHM_DIR = "/dev/shm"


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created (``psm_*``)."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _stat(pid: int):
    """``(state, ppid, start time)`` of a process, or None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="latin-1") as handle:
            data = handle.read()
    except OSError:
        return None
    fields = data[data.rindex(")") + 2 :].split()
    return fields[0], int(fields[1]), int(fields[19])


def descendants(root: int) -> dict[int, int]:
    """``pid -> start time`` of every running descendant of ``root``."""
    table = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            info = _stat(int(name))
            if info is not None and info[0] != "Z":
                table[int(name)] = info
    children = defaultdict(list)
    for pid, (_state, ppid, _start) in table.items():
        children[ppid].append(pid)
    found: dict[int, int] = {}
    todo = [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            found[child] = table[child][2]
            todo.append(child)
    return found


def _alive(processes: dict[int, int]) -> list[int]:
    alive = []
    for pid, start in processes.items():
        info = _stat(pid)
        if info is not None and info[0] != "Z" and info[2] == start:
            alive.append(pid)
    return sorted(alive)


def stop_resource_tracker() -> None:
    """Stop (and wait for) the helper process multiprocessing starts for shm."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _reap_children() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class Hygiene:
    """Tracks what one run starts and checks that it all ended."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._shm_before = shm_segments()
        self._seen: dict[int, int] = {}

    def note(self) -> None:
        """Remember every process currently running under this one."""
        self._seen.update(descendants(self._pid))

    def check(self, timeout: float = 10.0) -> list[str]:
        """Problems left behind by the run (empty when it cleaned up)."""
        problems = []
        leaked = sorted(shm_segments() - self._shm_before)
        if leaked:
            problems.append(f"shared-memory segments left behind: {leaked}")
        stop_resource_tracker()
        self.note()
        deadline = time.monotonic() + timeout
        alive = _alive(self._seen)
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = _alive(self._seen)
        if alive:
            problems.append(f"processes still alive: {alive}")
        _reap_children()
        return problems
