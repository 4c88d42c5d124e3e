"""The repository's benchmark: three workloads over public entry points.

    python3 perfbench/run.py --workload {serve_cold,serve_warm,sweep}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; it builds nothing.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics from a
run split into an untraced and a traced half, and prints the stage
table.  The line before it, ``PERFBENCH-DETAIL <json>``, carries every
metric raw and calibrated, the calibration median and the checks.

``--seed`` is the corpus seed (serve) or fault-plan seed (sweep); its
default and a held-out seed are pinned in ``perfbench/pins.json``,
together with ``C_ref``, corpus digests, sweep checksums and the list of
calibrated metrics per workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("serve_cold", "serve_warm", "sweep")


def load_pins() -> Dict:
    with open(HERE / "pins.json") as handle:
        return json.load(handle)


def load_benchmark() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (the rule the repository's bench uses)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class Timing:
    """Per-op walls plus the host-speed sample ``c`` that scales each.

    With ``kinds`` the ops are library calls that repeat identical work,
    and a model's latency is not observable on its own: it is taken as
    the median per-model share of all calls of its kind, so the
    percentiles follow the kind mix instead of the single slowest call.
    """

    def __init__(
        self, walls: List[float], scales: List[float], models: List[int],
        c_ref: float, kinds: Optional[List[str]] = None, fixed_s: float = 0.0,
    ):
        self.walls = walls
        self.scales = scales
        self.models = models
        self.c_ref = c_ref
        self.kinds = kinds
        self.fixed_s = fixed_s

    def metrics(self, calibrated: bool) -> Dict[str, float]:
        factor = [self.c_ref / c if calibrated else 1.0 for c in self.scales]
        # only the part of a wall beyond the fixed wait scales with host speed
        fixed = self.fixed_s
        walls = [fixed + (w - fixed) * f for w, f in zip(self.walls, factor)]
        shares = [w / m for w, m in zip(walls, self.models)]
        if self.kinds is not None:
            by_kind: Dict[str, List[float]] = {}
            for kind, share in zip(self.kinds, shares):
                by_kind.setdefault(kind, []).append(share)
            typical = {kind: statistics.median(v) for kind, v in by_kind.items()}
            shares = [typical[kind] for kind in self.kinds]
        # a multi-model op contributes its per-model latency once per model
        samples = [s for s, m in zip(shares, self.models) for _ in range(m)]
        return {
            "throughput_ops_s": sum(self.models) / sum(walls),
            "latency_p50_ms": percentile(samples, 50) * 1e3,
            "latency_p99_ms": percentile(samples, 99) * 1e3,
        }


def serve_timing(phase, pins) -> Timing:
    import calib

    width = pins["cal_width"]
    # cal[0] precedes request 0; cal[i + 1] follows request i
    scales = [calib.nearest_median(phase.cal, i + 1.0, width) for i in range(len(phase.walls))]
    return Timing(
        phase.walls, scales, [1] * len(phase.walls), pins["c_ref_ms"] / 1e3,
        fixed_s=phase.fixed_s,
    )


def sweep_timing(block, pins) -> Timing:
    """Library calls scaled by the *mean* of the samples bracketing them.

    A call lasts about a second, long enough for the host to switch
    between its fast and slow states inside it; the mean of the samples
    just before and after weights both states, where the median snaps to
    one (measured: throughput spread 9.0 % with the median, 5.4 % with
    the mean, over eight 20-s runs).
    """
    from sweep_worker import CAL_PER_CALL

    calls = block["calls"]
    cal = block["cal"]
    scales = [
        statistics.mean(cal[j * CAL_PER_CALL:(j + 2) * CAL_PER_CALL])
        for j in range(len(calls))
    ]
    return Timing(
        [c["wall"] for c in calls], scales, [c["models"] for c in calls],
        pins["c_ref_ms"] / 1e3, [c["kind"] for c in calls],
    )


class Result:
    """Accumulates ops, failures and check outcomes for the final line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.detail: Dict[str, object] = {}

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def emit(self, names_units: Dict[str, str], chosen: Dict[str, float]) -> None:
        self.detail["problems"] = self.problems
        print("PERFBENCH-DETAIL " + json.dumps(self.detail, sort_keys=True))
        for problem in self.problems:
            print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": chosen[name], "unit": unit}
                for name, unit in names_units.items()
            },
        }))


def setup_metrics(setups: List[float], refs: List[float], pins: Dict):
    """Raw and calibrated ``setup_s``: medians over the launches.

    Launch ``j`` is calibrated by the mean of the reference launches just
    before and after it, scaled to the pinned reference time.
    """
    ratios = [s / ((a + b) / 2.0) for s, a, b in zip(setups, refs, refs[1:])]
    return (
        statistics.median(setups),
        statistics.median(ratios) * pins["reference_launch_s"],
    )


def pick(raw: Dict[str, float], cal: Dict[str, float], calibrated: List[str]) -> Dict[str, float]:
    return {k: (cal[k] if k in calibrated else raw[k]) for k in raw}


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------


def check_corpus(result: Result, pins: Dict, seed: int) -> None:
    import corpus

    count = pins["corpus_pin_count"]
    for pinned_seed in sorted({pins["default_seed"], seed}):
        expected = pins["corpus_digests"].get(str(pinned_seed))
        if expected is None:
            continue
        actual = corpus.prefix_digest(pinned_seed, count)
        result.detail[f"corpus_prefix_digest_{pinned_seed}"] = actual
        result.check(
            actual == expected,
            f"corpus for seed {pinned_seed} changed: {actual[:16]} != pinned {expected[:16]}",
        )


def serve_phase(
    workload: str, server, seed: int, seconds: float, pins: Dict, result: Result,
    min_requests: int = 0,
):
    import serve_load

    if workload == "serve_cold":
        phase, info = serve_load.run_cold(server, seed, seconds, min_requests)
        result.check(phase.hits == 0, f"serve_cold hit ratio {phase.hits}/{phase.requests} != 0")
    else:
        working_set = serve_load.warm_working_set(seed, pins["warm_working_set"])
        phase, info = serve_load.run_warm(server, seed, seconds, working_set, min_requests)
        result.check(
            phase.hits == phase.requests,
            f"serve_warm hit ratio {phase.hits}/{phase.requests} != 1",
        )
    guard = info["guard"]
    result.check(not guard.tripped, "calibration guard: " + guard.describe())
    result.detail.setdefault("guards", []).append(guard.summary())
    result.attempted += phase.requests + info.get("fill_requests", 0)
    result.failed += phase.failed
    if phase.failures:
        result.detail.setdefault("failures", []).extend(phase.failures)
    return phase, info


def run_serve(workload: str, seed: int, seconds: float, trace: bool, pins: Dict) -> None:
    import calib
    import serve_load

    result = Result()
    check_corpus(result, pins, seed)
    calibrated = pins["calibrated"][workload]
    if not trace:
        server, setups, refs = serve_load.launch_setup(ROOT, pins["setup_launches"])
        try:
            phase, info = serve_phase(
                workload, server, seed, seconds, pins, result, serve_load.MIN_REQUESTS,
            )
            rss = calib.peak_rss_mb(server.pid)
        finally:
            server.stop()
        timing = serve_timing(phase, pins)
        raw = timing.metrics(False)
        cal = timing.metrics(True)
        raw["setup_s"], cal["setup_s"] = setup_metrics(setups, refs, pins)
        raw["peak_rss_mb"] = cal["peak_rss_mb"] = rss
        result.detail.update({
            "workload": workload, "seed": seed, "raw": raw, "calibrated": cal,
            "calibrated_metrics": calibrated,
            "calibration_median_ms": statistics.median(phase.cal) * 1e3,
            "setup_launches_s": setups, "reference_launches_s": refs,
            "requests": phase.requests, "corpus_digest": info["corpus_digest"],
            "family_wall_pct": phase.family_wall_pct(),
        })
        result.emit(metric_units("end_to_end"), pick(raw, cal, calibrated))
        return

    import layers

    # untraced half, then a traced half on a fresh server through the
    # same launcher with the wrappers installed
    server = serve_load.Server(ROOT)
    try:
        plain, _ = serve_phase(workload, server, seed, seconds / 2, pins, result)
    finally:
        server.stop()
    server = serve_load.Server(ROOT, trace=True)
    try:
        traced, info = serve_phase(workload, server, seed, seconds / 2, pins, result)
    finally:
        out = server.stop()
    lines = [line for line in out.splitlines() if line.startswith("PERFBENCH-SPANS ")]
    if not lines:
        raise RuntimeError("traced server printed no spans")
    dump = json.loads(lines[-1][len("PERFBENCH-SPANS "):])
    from tracer import NAME, REQUEST, START, END

    requests = [i for i, s in enumerate(dump["spans"]) if s[NAME] == REQUEST]
    fill = info.get("fill_requests", 0)
    timed = requests[fill:]
    result.check(
        len(timed) == traced.requests,
        f"{len(timed)} request spans for {traced.requests} timed requests",
    )
    view = layers.TracedPhase(dump, timed, traced.walls, traced.requests)
    metrics = view.layer_metrics()
    transport = [
        wall - (dump["spans"][i][END] - dump["spans"][i][START])
        for wall, i in zip(traced.walls, timed)
    ]
    plain_timing = serve_timing(plain, pins)
    traced_timing = serve_timing(traced, pins)
    metrics.update(common_layer_metrics(plain_timing, traced_timing, plain.cal))
    metrics["serve.hit_ratio"] = traced.hits / traced.requests
    metrics["serve.transport_ms"] = sum(transport) * 1e3 / len(transport)
    metrics["faults.injected"] = 0.0
    # the untraced half's walls: the tracer's cost differs by family
    shares = plain.family_wall_pct()
    print(f"{'family':10} {'requests':>9} {'wall share':>11}")
    for family, share in shares.items():
        print(f"{family:10} {plain.families.count(family):9d} {share:10.2f}%")
        metrics[f"corpus.{family}_wall_pct"] = share
    finish_trace(result, view, metrics, workload)


def common_layer_metrics(plain: Timing, traced: Timing, cal: List[float]) -> Dict[str, float]:
    untraced = plain.metrics(True)["throughput_ops_s"]
    return {
        "host.calibration_ms": statistics.median(cal) * 1e3,
        "host.raw_throughput_ops_s": plain.metrics(False)["throughput_ops_s"],
        "trace.overhead_pct": 100.0 * (untraced - traced.metrics(True)["throughput_ops_s"]) / untraced,
    }


def finish_trace(result: Result, view, metrics: Dict[str, float], workload: str) -> None:
    for problem in view.nest_problems():
        result.check(False, "span nesting: " + problem)
    print(f"stage table: {workload}, {view.ops} op(s) traced")
    print(view.stage_table())
    print(f"trace.overhead_pct = {metrics['trace.overhead_pct']:.2f}")
    units = metric_units("per_layer")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    result.detail.update({"workload": workload, "per_layer": metrics})
    result.emit(units, metrics)


# ---------------------------------------------------------------------------
# sweep workload
# ---------------------------------------------------------------------------


class SweepProcess:
    """One fresh interpreter running ``sweep_worker.py``, timed to ready."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        argv = [sys.executable, str(HERE / "sweep_worker.py"),
                "--seed", str(seed), "--seconds", str(seconds)]
        if trace:
            argv.append("--trace")
        env = dict(os.environ, SEGBUS_ENGINE="fast", PYTHONPATH=str(ROOT / "src"))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=str(ROOT), text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            self.finish("exit")
            raise RuntimeError(f"sweep process did not get ready: {line!r}")

    def finish(self, command: str) -> str:
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=170)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out


def sweep_checks(result: Result, payload: Dict, blocks: List[Dict], seed: int, pins: Dict) -> None:
    pinned = pins["sweep"]
    faults_expected = pinned["faults_checksums"].get(str(seed), payload["stepped_checksum"])
    result.detail["faults_checksum_source"] = (
        "pinned" if str(seed) in pinned["faults_checksums"] else "stepped engine"
    )
    result.detail["checks"] = payload["checks"]
    for block in blocks:
        for call in block["calls"]:
            expected = pinned["dse_checksum"] if call["kind"] == "dse" else faults_expected
            result.attempted += call["models"]
            if call["checksum"] != expected:
                result.failed += call["models"]
                result.problems.append(
                    f"{call['kind']} checksum {call['checksum'][:16]} != {expected[:16]}"
                )
    result.check(
        payload["stepped_checksum"] == faults_expected,
        "reliability curve differs between the fast and stepped engines",
    )
    injected = pinned["faults_injected"].get(str(seed))
    result.check(
        injected is None or payload["checks"]["injected"] == injected,
        f"faults injected {payload['checks']['injected']} != pinned {injected}",
    )
    result.check(not payload["guard"]["tripped"], "calibration guard: " + payload["guard"]["describe"])


def run_sweep(seed: int, seconds: float, trace: bool, pins: Dict) -> None:
    import calib

    result = Result()
    calibrated = pins["calibrated"]["sweep"]
    setups: List[float] = []
    launches = 1 if trace else pins["setup_launches"]
    # reference launches run only while no sweep process is busy
    refs = [calib.time_reference_launch()]
    worker: Optional[SweepProcess] = None
    for index in range(launches):
        worker = SweepProcess(seed, seconds, trace)
        setups.append(worker.setup_s)
        if index < launches - 1:
            worker.finish("exit")
        refs.append(calib.time_reference_launch())
    assert worker is not None
    out = worker.finish("go")
    if worker.proc.returncode != 0:
        raise RuntimeError(f"sweep process exited {worker.proc.returncode}")
    payload = json.loads(out.strip().splitlines()[-1])
    blocks = [payload["untraced"]] + ([payload["traced"]] if trace else [])
    sweep_checks(result, payload, blocks, seed, pins)
    plain = sweep_timing(payload["untraced"], pins)
    if not trace:
        raw = plain.metrics(False)
        cal = plain.metrics(True)
        raw["setup_s"], cal["setup_s"] = setup_metrics(setups, refs, pins)
        raw["peak_rss_mb"] = cal["peak_rss_mb"] = payload["peak_rss_mb"]
        result.detail.update({
            "workload": "sweep", "seed": seed, "raw": raw, "calibrated": cal,
            "calibrated_metrics": calibrated,
            "calibration_median_ms": statistics.median(payload["untraced"]["cal"]) * 1e3,
            "setup_launches_s": setups, "reference_launches_s": refs,
            "calls": len(payload["untraced"]["calls"]),
        })
        result.emit(metric_units("end_to_end"), pick(raw, cal, calibrated))
        return

    import layers
    from tracer import END, START

    traced_block = payload["traced"]
    dump = payload["trace"]
    roots = [c["span"] for c in traced_block["calls"]]
    walls = [dump["spans"][i][END] - dump["spans"][i][START] for i in roots]
    models = sum(c["models"] for c in traced_block["calls"])
    view = layers.TracedPhase(dump, roots, walls, models)
    metrics = view.layer_metrics()
    metrics.update(common_layer_metrics(plain, sweep_timing(traced_block, pins), payload["untraced"]["cal"]))
    for name in ("serve.hit_ratio", "serve.transport_ms", "serve.queue_wait_ms"):
        metrics[name] = 0.0
    import corpus

    for family in corpus.ALL_FAMILIES:
        metrics[f"corpus.{family}_wall_pct"] = 0.0
    metrics["faults.injected"] = float(payload["checks"]["injected"])
    finish_trace(result, view, metrics, "sweep")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # the load generator re-executes served jobs through the library
    sys.path.insert(1, str(ROOT / "src"))
    pins = load_pins()
    seed = pins["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")
    seconds = load_benchmark()["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.workload == "sweep":
            run_sweep(seed, seconds, bool(args.trace), pins)
        else:
            run_serve(args.workload, seed, seconds, bool(args.trace), pins)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
