"""CPU time and memory of a process tree, read from Linux ``/proc``.

The tree is the benchmark's driver process plus every descendant: the
Ray GCS server, raylet, helper processes and the workers under the raylet.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as f:
        # the command name is parenthesised and may contain spaces
        return f.read().rsplit(")", 1)[1].split()


def tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                ppid = int(_stat_fields(int(entry))[1])
            except (OSError, IndexError, ValueError):
                continue  # exited while we listed
            children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _running(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] not in ("Z", "X")
    except (OSError, IndexError):
        return False


def stop_descendants(root: int, grace_s: float = 10.0) -> None:
    """Terminate every descendant of ``root`` that is still running (Ray
    helpers outliving ``ray.shutdown()``), kill those left after
    ``grace_s``, and wait until all have ended."""
    pids = [p for p in tree(root) if p != root]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            with contextlib.suppress(OSError):
                os.kill(pid, sig)
        deadline = time.monotonic() + grace_s
        while True:
            with contextlib.suppress(ChildProcessError):
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            pids = [p for p in pids if _running(p)]
            if not pids or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if not pids:
            return


def sample(root: int) -> tuple[dict[int, float], int]:
    """``({pid: user+system CPU seconds}, resident anonymous bytes)`` of the tree.

    Anonymous pages are the processes' own heaps (Arrow buffers, pandas
    frames, Python objects).  Shared memory is left out: the Ray object
    store is allocated in full when the session starts, so its residency
    is a constant.  Both figures are kernel counters from ``/proc``,
    cheap to read, unlike a page walk for PSS."""
    cpu: dict[int, float] = {}
    anon = 0
    for pid in tree(root):
        try:
            fields = _stat_fields(pid)
            with open(f"/proc/{pid}/status") as f:
                status = f.read()
        except OSError:
            continue
        cpu[pid] = (int(fields[11]) + int(fields[12])) / _TICK
        for line in status.splitlines():
            if line.startswith("RssAnon:"):
                anon += int(line.split()[1]) * 1024
                break
    return cpu, anon


class TreeMonitor:
    """Samples the tree every ``interval_s`` on a thread while in use as a
    context manager.  Afterwards ``cpu_s`` is the CPU the tree spent in the
    region (a process that exits loses at most one interval) and
    ``peak_bytes`` the largest resident size seen."""

    def __init__(self, root: int, interval_s: float = 0.05):
        self.root = root
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._first: dict[int, float] = {}
        self._last: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        cpu, resident = sample(self.root)
        self._last.update(cpu)
        self.peak_bytes = max(self.peak_bytes, resident)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    @property
    def cpu_s(self) -> float:
        return sum(t - self._first.get(pid, 0.0) for pid, t in self._last.items())

    def __enter__(self) -> "TreeMonitor":
        self._first, self.peak_bytes = sample(self.root)
        self._last = dict(self._first)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
