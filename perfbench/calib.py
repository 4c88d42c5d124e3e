"""Host-speed calibration and the guard that keeps it honest.

The host this benchmark was tuned on runs the same pure-Python loop
1.4-1.7x slower in episodes of 0.5-25 s.  A fixed calibration op, timed
between operations while the system under test is idle, tracks that
speed; an op's calibrated wall is ``wall * C_ref / c`` where ``c`` comes
from the calibration samples nearest the op (their median for a served
request, their mean for a sweep call: see ``run.sweep_timing``) and
``C_ref`` is pinned in ``pins.json``.

This module never imports ``repro``: the calibration op must not change
when the program under test does.
"""

from __future__ import annotations

import heapq
import os
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: heap/dict work items per calibration op (0.3-0.5 ms on the tuning host)
CAL_ITEMS = 300


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def calibration_op() -> int:
    """Fixed interpreter-bound work: heap pushes/pops, dict updates, objects."""
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(CAL_ITEMS):
        key = (i * 7919) % 1031
        push(heap, (key, i, _Item(key, i)))
        table[key] = table.get(key, 0) + 1
        if i & 3 == 3:
            pop(heap)
    acc = 0
    while heap:
        key, _, item = pop(heap)
        acc += key + item.value
    return acc + len(table)


def time_calibration_op() -> float:
    """Seconds one calibration op takes right now."""
    started = time.perf_counter()
    calibration_op()
    return time.perf_counter() - started


#: the reference launch: a fresh interpreter importing a fixed set of
#: modules (no ``repro``), timed from spawn to its ``ready`` line.  Set-up
#: times are calibrated against it, because a process launch slows in
#: other ways than the in-process loop does.
REFERENCE_LAUNCH = (
    "import argparse, http.client, http.server, json, statistics, numpy; "
    "print('ready', flush=True)"
)


def time_reference_launch() -> float:
    """Seconds from spawning the reference interpreter to its ready line."""
    import subprocess
    import sys

    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", REFERENCE_LAUNCH], stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    proc.communicate(timeout=60)
    if line.strip() != "ready":
        raise RuntimeError(f"reference launch failed: {line!r}")
    return elapsed


def nearest_median(samples: Sequence[float], position: float, width: int) -> float:
    """Median of the ``width`` samples whose index is nearest ``position``."""
    if not samples:
        raise ValueError("no calibration samples")
    width = min(width, len(samples))
    start = int(round(position - width / 2.0))
    start = max(0, min(len(samples) - width, start))
    return statistics.median(samples[start:start + width])


# ---------------------------------------------------------------------------
# guard: the system under test must stay idle while the host is calibrated
# ---------------------------------------------------------------------------

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(v) for v in handle.read().split())
        except OSError:
            continue
    return found


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def process_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` and its live descendants, in seconds."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state (field 3); utime/stime are fields 14/15
        total += int(fields[11]) + int(fields[12])
        pending.extend(_children(current))
    return total * _TICK_S


class CpuGuard:
    """Trips when the server used CPU while it should have been idle.

    The server is idle from the moment its response arrived until the
    next request is sent; in that stretch the load generator times its
    calibration op and builds the next request.  :meth:`responded` and
    :meth:`sending` bracket the whole stretch, so work the server puts
    off until after it answered (which no request wall shows) counts
    against it as much as load placed on the host during calibration.

    ``/proc`` CPU time has clock-tick resolution, so the guard sums the
    advance over every stretch and compares it with an allowance: a few
    ticks plus ``SHARE`` of the calibration time.  An idle server stays
    far below it; a thread spinning through the calibration, or working
    after each answer, does not.
    """

    #: allowance: this many clock ticks plus this share of the calibration time
    TICKS = 5
    SHARE = 0.10

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.window_s = 0.0
        self.idle_s = 0.0
        self.used_s = 0.0
        self._mark: Optional[Tuple[float, float]] = None

    def responded(self) -> None:
        """The server answered: its idle stretch starts now."""
        self._mark = (process_cpu_s(self.pid), time.perf_counter())

    def sending(self) -> None:
        """The next request goes out: the idle stretch ends."""
        if self._mark is None:
            raise RuntimeError("sending() without a preceding responded()")
        cpu, started = self._mark
        self.used_s += process_cpu_s(self.pid) - cpu
        self.idle_s += time.perf_counter() - started
        self._mark = None

    def sample(self) -> float:
        """One calibration sample (seconds), taken inside an idle stretch."""
        if self._mark is None:
            raise RuntimeError("calibration outside an idle stretch")
        elapsed = time_calibration_op()
        self.window_s += elapsed
        return elapsed

    @property
    def allowance_s(self) -> float:
        return self.TICKS * _TICK_S + self.SHARE * self.window_s

    @property
    def tripped(self) -> bool:
        return self.used_s > self.allowance_s

    def describe(self) -> str:
        return (
            f"pid {self.pid} used {self.used_s * 1e3:.0f} ms of CPU while idle "
            f"for {self.idle_s * 1e3:.0f} ms ({self.window_s * 1e3:.0f} ms of "
            f"calibration; allowance {self.allowance_s * 1e3:.0f} ms)"
        )

    def summary(self) -> Dict[str, float]:
        return {
            "used_ms": self.used_s * 1e3,
            "idle_ms": self.idle_s * 1e3,
            "calibration_ms": self.window_s * 1e3,
            "allowance_ms": self.allowance_s * 1e3,
        }


class InProcessGuard:
    """Trips when extra threads or child processes are alive at calibration.

    Used where the work runs in the calibrating process itself: the only
    way to load the host during a calibration sample is another thread
    or a child process, so their presence fails the run.
    """

    def __init__(self) -> None:
        self.baseline_tasks = len(os.listdir("/proc/self/task"))
        self.violations: List[str] = []

    def check(self) -> None:
        threads = threading.active_count()
        tasks = len(os.listdir("/proc/self/task"))
        children = _children(os.getpid())
        if threads > 1 or tasks > self.baseline_tasks or children:
            self.violations.append(
                f"threads={threads} tasks={tasks}/{self.baseline_tasks} "
                f"children={children}"
            )

    def sample(self) -> float:
        self.check()
        elapsed = time_calibration_op()
        self.check()
        return elapsed

    @property
    def tripped(self) -> bool:
        return bool(self.violations)

    def describe(self) -> str:
        return f"{len(self.violations)} calibration sample(s) saw " + (
            self.violations[0] if self.violations else "nothing"
        )

