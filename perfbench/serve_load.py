"""The serve workloads: ``segbus serve`` over HTTP, one closed-loop client.

The server runs as its own process through ``launcher.py`` (with
``--engine fast`` and otherwise the default service configuration,
including the 5-ms batch window).  The load generator is this process:
one thread, one keep-alive connection, the next request sent only after
the previous response arrived.  After every request, while the server is
idle, it times one calibration op and builds the next request; the
server's CPU is watched over that whole stretch (``calib.CpuGuard``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import calib
import corpus

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 60.0
#: a timed phase runs at least this many requests, so that at least ten
#: samples lie beyond the 99th percentile
MIN_REQUESTS = 1000


class Client:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, body: bytes) -> Tuple[int, str, bytes]:
        self.conn.request(
            "POST", "/v1/jobs", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        data = response.read()
        return response.status, response.getheader("X-Segbus-Cache") or "", data

    def get_json(self, path: str) -> Dict[str, object]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


class Server:
    """One ``segbus serve --port 0 --engine fast`` launch, timed to ready."""

    def __init__(self, root: Path, trace: bool = False) -> None:
        argv = [sys.executable, str(HERE / "launcher.py")]
        if trace:
            argv.append("--trace")
        argv += ["serve", "--port", "0", "--engine", "fast"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("SEGBUS_ENGINE", None)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, env=env, cwd=str(root), text=True,
        )
        banner = self.proc.stdout.readline()
        if not banner.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        host, port = banner.split("http://", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)
        deadline = started + READY_TIMEOUT_S
        while True:
            probe = Client(self.host, self.port)
            try:
                probe.get_json("/v1/health")
                break
            except (OSError, RuntimeError, http.client.HTTPException):
                if time.perf_counter() > deadline:
                    self.stop()
                    raise
                time.sleep(0.001)
            finally:
                probe.close()
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> str:
        """SIGTERM, wait, and return what the server printed after its banner."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""


def launch_setup(root: Path, launches: int) -> Tuple[Server, List[float], List[float]]:
    """Launch ``launches`` fresh servers; keep the last one running.

    Returns the kept server, each launch's raw set-up seconds, and the
    reference launches timed before, between and after them (only ever
    while no server is busy).
    """
    refs = [calib.time_reference_launch()]
    setups: List[float] = []
    server: Optional[Server] = None
    for index in range(launches):
        server = Server(root)
        setups.append(server.setup_s)
        if index < launches - 1:
            server.stop()
        refs.append(calib.time_reference_launch())
    assert server is not None
    return server, setups, refs


def expected_bytes(payload: Dict[str, object]) -> bytes:
    """What the server must answer: direct execution in this process."""
    from repro.serve.jobs import execute_job, parse_job, response_bytes

    return response_bytes(execute_job(parse_job(payload, default_engine="fast")))


def payload_key(payload: Dict[str, object]) -> str:
    from repro.serve.jobs import cache_key, parse_job

    return cache_key(parse_job(payload, default_engine="fast"))


class Phase:
    """One timed phase: per-request walls, calibration samples, outcomes."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.cal: List[float] = []
        #: the corpus family of every request, in order
        self.families: List[str] = []
        self.failed = 0
        self.failures: List[str] = []
        self.hits = 0
        self.requests = 0
        #: per-request wait that does not scale with host speed: a miss
        #: sleeps the server's batch window (read from ``/v1/stats``)
        self.fixed_s = 0.0

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def family_wall_pct(self) -> Dict[str, float]:
        """Each corpus family's share of the phase's request wall, in %."""
        total = sum(self.walls)
        shares = {family: 0.0 for family in corpus.ALL_FAMILIES}
        for family, wall in zip(self.families, self.walls):
            shares[family] += 100.0 * wall / total
        return shares


def closed_loop(
    client, guard: calib.CpuGuard, requests: Iterator[Tuple[str, object, bytes]],
    seconds: float, min_requests: int, phase: Phase,
) -> List[Tuple[object, Tuple[int, str, bytes]]]:
    """Send ``requests`` one at a time, each after the previous answer.

    ``requests`` yields ``(family, item, body)``.  The loop runs until
    ``seconds`` of request and calibration time are spent and at least
    ``min_requests`` were sent, and returns every ``(item, answer)``.
    Building the next request happens inside the server's idle stretch,
    which the guard watches from each answer to the next request.
    """
    answers = []
    guard.responded()
    phase.cal.append(guard.sample())
    budget = 0.0
    while budget < seconds or phase.requests < min_requests:
        family, item, body = next(requests)
        guard.sending()
        started = time.perf_counter()
        answer = client.post(body)
        phase.walls.append(time.perf_counter() - started)
        guard.responded()
        phase.cal.append(guard.sample())
        budget += time.perf_counter() - started
        phase.requests += 1
        phase.families.append(family)
        answers.append((item, answer))
    guard.sending()
    return answers


def _stats_delta(before: Dict, after: Dict) -> Dict[str, int]:
    b, a = before["by_disposition"], after["by_disposition"]
    return {k: a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}


def _cold_requests(seed: int) -> Iterator[Tuple[str, Dict[str, object], bytes]]:
    """The stream's payloads with distinct cache keys (a repeat would hit)."""
    seen = set()
    for family, payload in corpus.payload_stream(seed):
        key = payload_key(payload)
        if key not in seen:
            seen.add(key)
            yield family, payload, corpus.encode(payload)


def run_cold(
    server: Server, seed: int, seconds: float, min_requests: int = 0,
) -> Tuple[Phase, Dict]:
    """Distinct payloads only; every served body is re-executed locally."""
    client = Client(server.host, server.port)
    guard = calib.CpuGuard(server.pid)
    phase = Phase()
    before = client.get_json("/v1/stats")
    answers = closed_loop(
        client, guard, _cold_requests(seed), seconds, min_requests, phase,
    )
    after = client.get_json("/v1/stats")
    client.close()
    delta = _stats_delta(before, after)
    phase.hits = delta.get("hit", 0) + delta.get("coalesced", 0)
    phase.fixed_s = float(after["config"]["batch_window_s"])
    # outputs are checked outside the timed region
    for payload, (status, cache, data) in answers:
        if status != 200:
            phase.fail(f"status {status}: {data[:200]!r}")
        elif cache != "miss":
            phase.fail(f"disposition {cache!r} on a cold request")
        elif data != expected_bytes(payload):
            phase.fail(f"served bytes differ for {payload_key(payload)[:12]}")
    bodies = [corpus.encode(payload) for payload, _ in answers]
    return phase, {"guard": guard, "corpus_digest": corpus.digest(bodies)}


def warm_working_set(seed: int, size: int) -> List[Tuple[str, Dict[str, object]]]:
    """The first ``size`` ``(family, payload)`` pairs with distinct cache keys."""
    stream = corpus.payload_stream(seed)
    chosen: Dict[str, Tuple[str, Dict[str, object]]] = {}
    while len(chosen) < size:
        family, payload = next(stream)
        chosen.setdefault(payload_key(payload), (family, payload))
    return list(chosen.values())


def run_warm(
    server: Server, seed: int, seconds: float,
    working_set: List[Tuple[str, Dict[str, object]]], min_requests: int = 0,
) -> Tuple[Phase, Dict]:
    """Fill the cache untimed, then repeat those payloads (all hits)."""
    client = Client(server.host, server.port)
    guard = calib.CpuGuard(server.pid)
    phase = Phase()
    bodies = [corpus.encode(payload) for _, payload in working_set]
    served: List[bytes] = []
    for (_, payload), body in zip(working_set, bodies):
        status, cache, data = client.post(body)
        if status != 200 or cache != "miss":
            phase.fail(f"fill: status {status} disposition {cache!r}")
        if data != expected_bytes(payload):
            phase.fail("fill: served bytes differ from direct execution")
        served.append(data)
    rng = random.Random(seed)

    def repeats() -> Iterator[Tuple[str, int, bytes]]:
        while True:
            choice = rng.randrange(len(bodies))
            yield working_set[choice][0], choice, bodies[choice]

    before = client.get_json("/v1/stats")
    answers = closed_loop(client, guard, repeats(), seconds, min_requests, phase)
    after = client.get_json("/v1/stats")
    client.close()
    delta = _stats_delta(before, after)
    phase.hits = delta.get("hit", 0)
    for choice, (status, cache, data) in answers:
        if status != 200 or cache != "hit":
            phase.fail(f"status {status} disposition {cache!r} on a warm request")
        elif data != served[choice]:
            phase.fail("a hit replayed different bytes")
    return phase, {
        "guard": guard,
        "corpus_digest": corpus.digest(bodies),
        "fill_requests": len(bodies),
    }
