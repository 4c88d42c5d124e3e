"""The calibration guard must catch load placed on the host while the
system under test should be idle.  Run with
``python3 -m pytest perfbench/test_guard.py``.

The CPU-guard cases drive a small child "server" (one request per line
on stdin, one answer per line on stdout) through the benchmark's own
closed loop, so the guard's brackets sit exactly where the serve
workloads put them.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import serve_load  # noqa: E402

SAMPLES = 200
#: what building the next request costs the load generator (serve_cold
#: spends a few ms per payload); the child is idle meanwhile
BUILD_S = 0.003

CHILD = """
import sys, threading, time
mode = sys.argv[1]
answered = threading.Event()

def spin():
    while True:
        pass

def deferred():
    # ~1 ms of work shortly after each answer, where no request wall shows it
    while True:
        answered.wait()
        answered.clear()
        time.sleep(0.0005)
        end = time.perf_counter() + 0.001
        while time.perf_counter() < end:
            pass

if mode == "spin":
    threading.Thread(target=spin, daemon=True).start()
if mode == "defer":
    threading.Thread(target=deferred, daemon=True).start()
print("ready", flush=True)
for line in sys.stdin:
    sys.stdout.write("ok\\n")
    sys.stdout.flush()
    if mode == "defer":
        answered.set()
"""


class PipeClient:
    """``serve_load.Client``'s ``post`` over the child's stdin/stdout."""

    def __init__(self, child: subprocess.Popen) -> None:
        self.child = child

    def post(self, body: bytes):
        self.child.stdin.write(body.decode() + "\n")
        self.child.stdin.flush()
        return 200, "miss", self.child.stdout.readline().encode()


def _requests():
    index = 0
    while True:
        time.sleep(BUILD_S)
        yield "small", index, b"request"
        index += 1


def _guard_child(mode: str) -> calib.CpuGuard:
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline().strip() == "ready"
        time.sleep(0.05)
        guard = calib.CpuGuard(child.pid)
        phase = serve_load.Phase()
        answers = serve_load.closed_loop(
            PipeClient(child), guard, _requests(), 0.0, SAMPLES, phase,
        )
        assert [answer[2] for _, answer in answers] == [b"ok\n"] * SAMPLES
        return guard
    finally:
        child.kill()
        child.wait(timeout=10)


def _spinner(stop: threading.Event) -> None:
    while not stop.is_set():
        pass


def test_in_process_guard_passes_when_alone():
    guard = calib.InProcessGuard()
    for _ in range(SAMPLES):
        guard.sample()
    assert not guard.tripped, guard.describe()


def test_in_process_guard_trips_on_a_spinning_thread():
    guard = calib.InProcessGuard()
    stop = threading.Event()
    thread = threading.Thread(target=_spinner, args=(stop,))
    thread.start()
    try:
        # the spinner holds the GIL, so a few samples are slow but enough
        for _ in range(5):
            guard.sample()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert guard.tripped


def test_cpu_guard_passes_on_an_idle_server():
    guard = _guard_child("idle")
    assert not guard.tripped, guard.describe()


def test_cpu_guard_trips_on_a_thread_spinning_in_the_server():
    guard = _guard_child("spin")
    assert guard.tripped, guard.describe()


def test_cpu_guard_trips_on_work_deferred_past_the_answer():
    guard = _guard_child("defer")
    assert guard.tripped, guard.describe()


def test_cpu_guard_refuses_calibration_outside_an_idle_stretch():
    guard = calib.CpuGuard(0)
    try:
        guard.sample()
    except RuntimeError:
        return
    raise AssertionError("sample() ran while the server might be busy")
