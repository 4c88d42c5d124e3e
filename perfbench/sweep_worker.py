"""The ``sweep`` workload's process: an in-process library campaign.

    python3 perfbench/sweep_worker.py --seed N --seconds S [--trace]

Prints ``ready`` once the public API is imported and the models are
built, then waits for one line on stdin: ``exit`` ends it (a set-up-only
launch), ``go`` runs the campaign and prints one JSON result line.

The campaign alternates ``explore_design_space`` over the MP3 DSE grid
(2-3 segments x package sizes 3/4/6, PlaceTool plus paper allocations)
with ``reliability_sweep`` over the faults grid (4 rates x 12 plan seeds
plus the baseline, 2-segment platform), both with ``workers=1`` and the
engine taken from ``SEGBUS_ENGINE``.  After every call it times a few
calibration ops with the in-process guard watching for extra threads or
child processes.  With ``--trace`` the first half of the time runs
untraced, the second half with the span wrappers installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402

FAULT_RATES = (0.0, 0.0001, 0.0002, 0.0005)
PLAN_SEEDS_PER_RATE = 12
DSE_SEGMENTS = (2, 3)
DSE_PACKAGE_SIZES = (3, 4, 6)
#: calibration samples after each library call
CAL_PER_CALL = 20
#: an untraced run emulates at least this many models, so that at least
#: ten per-model samples lie beyond the 99th percentile
MIN_MODELS = 1000


def plan_seeds(seed: int):
    """The 12 fault-plan seeds drawn for workload seed ``seed``."""
    return tuple(range(seed * 1000 + 1, seed * 1000 + 1 + PLAN_SEEDS_PER_RATE))


def build(seed: int):
    """Import the public API and build every model the campaign needs."""
    from repro.analysis.dse import explore_design_space
    from repro.analysis.reliability import reliability_sweep
    from repro.apps.mp3 import (
        PAPER_CA_FREQUENCY_MHZ,
        mp3_decoder_psdf,
        paper_allocation,
        paper_platform,
        paper_segment_frequencies_mhz,
    )

    application = mp3_decoder_psdf()
    extra = [(f"paper{n}", paper_allocation(n)) for n in DSE_SEGMENTS]
    faults_platform = paper_platform(2, package_size=8)
    seeds = plan_seeds(seed)

    def dse():
        return explore_design_space(
            application, DSE_SEGMENTS, DSE_PACKAGE_SIZES,
            paper_segment_frequencies_mhz, PAPER_CA_FREQUENCY_MHZ,
            extra_allocations=extra, workers=1,
        )

    def faults(engine=None):
        return reliability_sweep(
            application, faults_platform, rates=FAULT_RATES, seeds=seeds,
            workers=1, engine=engine,
        )

    return dse, faults


def dse_checksum(points) -> str:
    ranking = [
        [p.allocation_source, p.segment_count, p.package_size,
         p.report.execution_time_fs]
        for p in points
    ]
    return hashlib.sha256(json.dumps(ranking).encode()).hexdigest()


def curve_checksum(curve) -> str:
    return hashlib.sha256(
        json.dumps(curve.as_dict(), sort_keys=True).encode()
    ).hexdigest()


def injected(curve) -> int:
    return sum(
        round(p.mean_injected * (p.completed + p.degraded)) for p in curve.points
    )


DSE_MODELS = len(DSE_SEGMENTS) * 2 * len(DSE_PACKAGE_SIZES)
FAULT_MODELS = len(FAULT_RATES) * PLAN_SEEDS_PER_RATE + 1


def campaign(dse, faults, seconds: float, guard, recorder=None, min_models: int = 0):
    """Run (DSE, faults) call pairs until ``seconds`` of loop time are
    spent and at least ``min_models`` models were emulated."""
    calls = []
    cal = [guard.sample() for _ in range(CAL_PER_CALL)]
    checks = {}
    budget = 0.0
    models = 0
    while budget < seconds or models < min_models:
        for kind in ("dse", "faults"):
            span = recorder.open(f"sweep.{kind}") if recorder else None
            started = time.perf_counter()
            result = dse() if kind == "dse" else faults()
            wall = time.perf_counter() - started
            if span is not None:
                recorder.close(span)
            for _ in range(CAL_PER_CALL):
                cal.append(guard.sample())
            budget += time.perf_counter() - started
            calls.append({
                "kind": kind,
                "wall": wall,
                "models": DSE_MODELS if kind == "dse" else FAULT_MODELS,
                "checksum": dse_checksum(result) if kind == "dse" else curve_checksum(result),
                "span": span,
            })
            models += calls[-1]["models"]
        checks["injected"] = injected(result)
    return calls, cal, checks


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    dse, faults = build(args.seed)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    guard = calib.InProcessGuard()
    result = {}
    if args.trace:
        import tracer

        calls, cal, checks = campaign(dse, faults, args.seconds / 2, guard)
        result["untraced"] = {"calls": calls, "cal": cal}
        recorder = tracer.Recorder()
        tracer.install(recorder)
        calls, cal, checks = campaign(dse, faults, args.seconds / 2, guard, recorder)
        result["traced"] = {"calls": calls, "cal": cal}
        result["trace"] = recorder.dump()
    else:
        calls, cal, checks = campaign(dse, faults, args.seconds, guard, min_models=MIN_MODELS)
        result["untraced"] = {"calls": calls, "cal": cal}
    result["peak_rss_mb"] = calib.peak_rss_mb()
    result["checks"] = checks
    result["guard"] = {"tripped": guard.tripped, "describe": guard.describe()}
    # the fault curve once more on the reference kernel, outside the timing
    result["stepped_checksum"] = curve_checksum(faults(engine="stepped"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
