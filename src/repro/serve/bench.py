"""The ``serve_throughput`` bench workload: a server under seeded load.

One service + HTTP server pair boots per engine (outside the timed
region); each timed round clears the cache and counters, replays the
same seeded repeat-heavy plan through real sockets, and returns tick
counters that are deterministic *and* engine-equal:

``requests``
    plan length (trivially fixed);
``computed`` / ``reused``
    distinct payloads vs cache-served responses — deterministic under
    concurrency because request coalescing guarantees one computation
    per key per cache epoch, and engine-equal because the plan issues
    the same payload set to every engine;
``exec_ps_sum``
    summed emulated completion times over every response — the ENG-1
    tick-for-tick contract asserted at the HTTP boundary;
``digest_checksum``
    summed report-digest prefixes — byte-level equivalence of the full
    served reports across engines, folded into an integer the bench's
    cross-engine equality assert can gate.

The wall/latency side (requests per second, p50/p90/p99) rides along as
:func:`service_metrics` into the baseline's ``service`` block.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.errors import SegBusError
from repro.serve.loadgen import (
    LoadgenReport,
    LoadPlan,
    build_plan,
    run_loadgen,
    serving_corpus,
)
from repro.serve.server import SegbusHTTPServer, create_server
from repro.serve.service import SegbusService, ServiceConfig

BENCH_SEED = 20260808
BENCH_REQUESTS = 120
BENCH_REPEAT_RATIO = 0.9
BENCH_CONCURRENCY = 4
#: generated corpus models + curated workloads (6 distinct payloads:
#: 120 requests over 6 payloads bounds the hit rate below by 95%)
BENCH_GENERATED = 4
BENCH_MODEL_SEED = 9101
BENCH_WORKLOADS = ("bursty", "long_tail")


class _EngineHarness:
    """One booted server + its per-engine plan, reused across rounds."""

    def __init__(self, engine: str) -> None:
        self.service = SegbusService(
            ServiceConfig(
                engine=engine,
                workers=1,  # serial in-process: measure serving, not spawning
                queue_depth=1024,  # never shed during the bench
            )
        )
        self.server: SegbusHTTPServer = create_server(self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            name=f"serve-bench-{engine}",
            daemon=True,
        )
        self.thread.start()
        self.plan: LoadPlan = build_plan(
            _corpus(),
            requests=BENCH_REQUESTS,
            repeat_ratio=BENCH_REPEAT_RATIO,
            seed=BENCH_SEED,
            engine=engine,
        )
        self.last_report: Optional[LoadgenReport] = None


_CORPUS = None
_HARNESSES: Dict[str, _EngineHarness] = {}


def _corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = serving_corpus(
            generated=BENCH_GENERATED,
            base_seed=BENCH_MODEL_SEED,
            workloads=BENCH_WORKLOADS,
        )
    return _CORPUS


def _harness(engine: str) -> _EngineHarness:
    harness = _HARNESSES.get(engine)
    if harness is None:
        harness = _EngineHarness(engine)
        _HARNESSES[engine] = harness
    return harness


def serve_round(engine: str) -> Dict[str, int]:
    """One timed round: reset, replay the plan over HTTP, return ticks."""
    harness = _harness(engine)
    harness.service.reset()
    report = run_loadgen(
        harness.plan,
        url=harness.server.url,
        concurrency=BENCH_CONCURRENCY,
    )
    if report.errors:
        raise SegBusError(
            f"serve_throughput({engine}): {report.errors} failed request(s) "
            f"of {report.requests} — statuses {report.by_status}"
        )
    harness.last_report = report
    return {
        "requests": report.requests,
        "computed": report.computed,
        "reused": report.reused,
        "exec_ps_sum": report.exec_ps_sum,
        "digest_checksum": report.digest_checksum,
    }


def serve_prepare(engine: str):
    """Bench ``prepare`` hook: boot the harness outside the timed region."""
    _harness(engine)

    def run() -> Dict[str, int]:
        return serve_round(engine)

    return run


def service_metrics(engine: str) -> Dict[str, float]:
    """Latency/throughput/hit-rate of the engine's last timed round."""
    harness = _HARNESSES.get(engine)
    if harness is None or harness.last_report is None:
        return {}
    report = harness.last_report
    return {
        "throughput_rps": report.throughput_rps,
        "latency_p50_ms": report.latency_ms["p50"],
        "latency_p90_ms": report.latency_ms["p90"],
        "latency_p99_ms": report.latency_ms["p99"],
        "hit_rate": report.hit_rate,
    }
