"""Headless perf-regression bench: deterministic ticks + wall-clock gates.

``benchmarks/`` holds the pytest-benchmark studies (tables, figures,
ablations) for humans; this module distills the same workloads into a
small registry of *headless* scenarios that ``segbus bench`` can run in
CI without pytest plugins.  Each scenario reports two things:

* **ticks** — deterministic workload counters (executed events, CA TCT,
  execution time in ps).  These must match the committed baseline
  *exactly*: a tick drift means the emulator's behaviour changed, which
  is either a bug or a change that must re-pin the baselines.
* **wall_ms / wall_median_ms** — the best and the median of ``repeats``
  wall-clock runs.  The gate compares median against median with a ratio
  (default 1.5×, so a genuine 2× slowdown fails): the best-of-N envelope
  fluctuates ~2× on busy hosts, but the median is a stable "typical
  cost" center on both sides.  Absolute wall time is machine-dependent;
  ``--no-wall`` skips the gate entirely for heterogeneous CI runners.

Emulation scenarios are *engine-aware* (see docs/PERFORMANCE.md): by
default each one is timed under both kernels — the cycle-stepped
reference and the event-driven fast kernel — the tick counters are
asserted exact-equal across engines at run time, and the result records
a per-engine median plus the stepped/fast **speedup** ratio.  Scenarios
may pin a ``speedup_min`` (``mp3_2seg_emulate`` demands ≥2.5x) which
``--check`` gates even under ``--no-wall`` — the ratio is taken on one
host, so it is far more machine-independent than absolute wall time.
``--engine`` restricts the measurement to a single engine (no speedup).

Since baseline **v3** each engine-aware result also records, per
engine: **throughput** (models/sec = ``models_per_round`` over the
median round), **tick-jitter percentiles** (p50/p90/p99 of the
per-round walls — how much identical deterministic rounds wobble on the
host), and the **peak traced memory** of one untimed round
(``tracemalloc``, KiB) — see docs/TESTING.md.  The ``faults_sweep``
scenario runs a whole reliability grid per engine, zero-hit cloning
included.

Baselines live in ``benchmarks/baselines/BENCH_<scenario>.json`` and are
(re)written by ``segbus bench --update``.  ``--inject-slowdown N`` is a
self-test hook that multiplies the measured wall time — uniformly across
*every* engine's walls, so the wall gate trips no matter which engine
feeds it — used by the test suite to prove the gate actually trips.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.analytic import analytic_estimate
from repro.analysis.executor import (
    CampaignExecutor,
    ExecutorPolicy,
    canonical_digest,
)
from repro.apps.jpeg import jpeg_decoder_psdf, jpeg_platform
from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.fastkernel import (
    ENGINE_NAMES,
    resolve_engine,
    simulation_class,
)
from repro.emulator.kernel import PlatformSpec
from repro.errors import SegBusError
from repro.units import fs_to_ps

BASELINE_VERSION = 3
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"
#: wall-clock gate: measured may be at most this multiple of the baseline
DEFAULT_WALL_RATIO_MAX = 1.5


@dataclass(frozen=True)
class BenchScenario:
    """One headless workload: ``run`` returns its deterministic ticks.

    ``prepare`` (when set) makes the workload engine-aware: called once
    per engine name with the model/spec setup *outside* the timed
    region, it returns the thunk the runner times — so the recorded wall
    and the speedup ratio measure the simulation kernels themselves, not
    XML parsing or platform construction.  The runner asserts the
    returned ticks are exact-equal across engines.  ``speedup_min`` pins
    a minimum stepped/fast ratio, enforced by :func:`check_bench`.
    ``models_per_round`` is how many model instances one round of the
    thunk simulates — the denominator of the throughput metric.
    """

    name: str
    description: str
    run: Callable[[], Dict[str, int]]
    prepare: Optional[Callable[[str], Callable[[], Dict[str, int]]]] = None
    speedup_min: Optional[float] = None
    models_per_round: int = 1
    #: when set, a *simulation-free* evaluation of the same workload
    #: (the stochastic estimator); timed interleaved with the engines as a
    #: pseudo-engine.  Its ticks are recorded under an ``est_`` prefix and
    #: exempt from the cross-engine equality assert (an estimate is not an
    #: emulation).  ``estimator_speedup_min`` pins fast-median /
    #: estimator-median, the harshest comparison available.
    prepare_estimator: Optional[Callable[[], Callable[[], Dict[str, int]]]] = None
    estimator_speedup_min: Optional[float] = None
    #: serving scenarios: called per engine *after* the timed rounds with
    #: the engine name, returns wall-side metrics of the last round
    #: (throughput, latency percentiles, cache hit rate) for the
    #: baseline's ``service`` block — recorded, not tick-gated
    service_metrics: Optional[Callable[[str], Dict[str, float]]] = None
    #: minimum cache hit rate (``reused``/``requests`` ticks), enforced by
    #: :func:`check_bench` even under ``--no-wall`` — the ratio is
    #: deterministic, not a wall measurement
    cache_hit_rate_min: Optional[float] = None


@dataclass(frozen=True)
class BenchResult:
    """Ticks plus best/median observed wall time for one scenario.

    ``engine_wall_ms`` maps engine name to its median wall time (empty
    for scenarios without an engine dimension); ``speedup`` is the
    stepped-median / fast-median ratio, when both engines were measured.
    Since v3, three per-engine metric maps ride along:
    ``throughput_models_per_s`` (models simulated per second of median
    round), ``jitter_ms`` (p50/p90/p99 of the per-round walls) and
    ``peak_mem_kb`` (tracemalloc peak of one untimed round, KiB).
    """

    name: str
    ticks: Dict[str, int]
    wall_ms: float
    wall_median_ms: float
    repeats: int
    engine_wall_ms: Dict[str, float] = field(default_factory=dict)
    speedup: Optional[float] = None
    throughput_models_per_s: Dict[str, float] = field(default_factory=dict)
    jitter_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    peak_mem_kb: Dict[str, int] = field(default_factory=dict)
    #: stochastic-estimator pseudo-engine (scenarios with
    #: ``prepare_estimator`` only): median wall of the estimator pass and
    #: the fast-median / estimator-median per-round ratio
    estimator_wall_ms: Optional[float] = None
    estimator_speedup: Optional[float] = None
    #: serving scenarios only: per-engine wall-side metrics of the last
    #: timed round (throughput_rps, latency p50/p90/p99 ms, hit_rate)
    service: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "version": BASELINE_VERSION,
            "name": self.name,
            "ticks": dict(sorted(self.ticks.items())),
            "wall_ms": round(self.wall_ms, 3),
            "wall_median_ms": round(self.wall_median_ms, 3),
            "repeats": self.repeats,
            "engine_wall_ms": {
                k: round(v, 3) for k, v in sorted(self.engine_wall_ms.items())
            },
            "speedup": (
                round(self.speedup, 2) if self.speedup is not None else None
            ),
            "throughput_models_per_s": {
                k: round(v, 2)
                for k, v in sorted(self.throughput_models_per_s.items())
            },
            "jitter_ms": {
                engine: {p: round(v, 3) for p, v in sorted(pcts.items())}
                for engine, pcts in sorted(self.jitter_ms.items())
            },
            "peak_mem_kb": dict(sorted(self.peak_mem_kb.items())),
            "estimator_wall_ms": (
                round(self.estimator_wall_ms, 3)
                if self.estimator_wall_ms is not None
                else None
            ),
            "estimator_speedup": (
                round(self.estimator_speedup, 2)
                if self.estimator_speedup is not None
                else None
            ),
        }
        if self.service:  # serving scenarios only
            data["service"] = {
                engine: {
                    metric: round(value, 3)
                    for metric, value in sorted(metrics.items())
                }
                for engine, metrics in sorted(self.service.items())
            }
        return data


@dataclass
class BenchCheck:
    """Outcome of comparing results against the committed baselines."""

    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"bench check: {self.checked} scenario(s), "
            + ("ok" if self.ok else f"{len(self.failures)} failure(s)")
        ]
        lines.extend(f"  FAIL {f}" for f in self.failures)
        lines.extend(f"  note {n}" for n in self.notes)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------


def _emulate_runner(
    application, platform, engine: str
) -> Callable[[], Dict[str, int]]:
    """Build the model once; the returned thunk only exercises the kernel."""
    spec = PlatformSpec.from_platform(platform)
    cls = simulation_class(engine)

    def run() -> Dict[str, int]:
        sim = cls(application, spec).run()
        return {
            "events": sim.queue.executed,
            "ca_tct": sim.ca.counters.tct,
            "execution_time_ps": fs_to_ps(sim.execution_time_fs()),
        }

    return run


def _mp3_prepare(segment_count: int, engine: str) -> Callable[[], Dict[str, int]]:
    return _emulate_runner(
        mp3_decoder_psdf(), paper_platform(segment_count), engine
    )


def _jpeg_prepare(segment_count: int, engine: str) -> Callable[[], Dict[str, int]]:
    return _emulate_runner(
        jpeg_decoder_psdf(), jpeg_platform(segment_count), engine
    )


def _mp3_emulate(segment_count: int, engine: str = "fast") -> Dict[str, int]:
    return _mp3_prepare(segment_count, engine)()


def _jpeg_emulate(segment_count: int, engine: str = "fast") -> Dict[str, int]:
    return _jpeg_prepare(segment_count, engine)()


def _mp3_analytic() -> Dict[str, int]:
    application = mp3_decoder_psdf()
    spec = PlatformSpec.from_platform(paper_platform(3))
    estimate = analytic_estimate(application, spec)
    return {"execution_time_ps": fs_to_ps(estimate.execution_time_fs)}


def _sweep_prepare(engine: str) -> Callable[[], Dict[str, int]]:
    application = mp3_decoder_psdf()
    specs = {
        size: PlatformSpec.from_platform(paper_platform(3, package_size=size))
        for size in (9, 18, 36)
    }
    cls = simulation_class(engine)

    def run() -> Dict[str, int]:
        ticks: Dict[str, int] = {"events": 0}
        for size, spec in specs.items():
            sim = cls(application, spec).run()
            ticks["events"] += sim.queue.executed
            ticks[f"s{size}_execution_time_ps"] = fs_to_ps(
                sim.execution_time_fs()
            )
        return ticks

    return run


def _mp3_package_sweep(engine: str = "fast") -> Dict[str, int]:
    return _sweep_prepare(engine)()


#: the faults-sweep grid: 4 rates x 12 seeds + the fault-free baseline.
#: Low rates are the realistic regime *and* the one the sweep's zero-hit
#: clone path accelerates hardest — most points provably draw no fault
#: and take the counting reference run's measurement.
_FAULTS_SWEEP_RATES = (0.0, 0.0001, 0.0002, 0.0005)
_FAULTS_SWEEP_SEEDS = tuple(range(1, 13))
FAULTS_SWEEP_MODELS = (
    len(_FAULTS_SWEEP_RATES) * len(_FAULTS_SWEEP_SEEDS) + 1
)


def _faults_sweep_prepare(engine: str) -> Callable[[], Dict[str, int]]:
    """A whole reliability grid per round — the aggregate-throughput bench.

    Each engine runs the grid the way ``segbus faults`` would: baseline,
    counting reference, zero-hit classification, then one in-process
    emulation per remaining point, model construction included.  The
    ticks pin the aggregated curve itself — counts per status plus every
    mean execution time at nanosecond granularity — so a clone shortcut
    that changed any measurement would trip the baseline.
    """
    from repro.analysis.reliability import reliability_sweep

    application = mp3_decoder_psdf()
    platform = paper_platform(2, package_size=8)

    def run() -> Dict[str, int]:
        curve = reliability_sweep(
            application,
            platform,
            rates=_FAULTS_SWEEP_RATES,
            seeds=_FAULTS_SWEEP_SEEDS,
            engine=engine,
            workers=1,
        )
        ticks: Dict[str, int] = {
            "completed": sum(p.completed for p in curve.points),
            "degraded": sum(p.degraded for p in curve.points),
            "failed": sum(p.failed for p in curve.points),
            "baseline_ns": int(
                round(curve.baseline_execution_time_us * 1000)
            ),
        }
        for point in curve.points:
            ticks[f"r{point.rate:g}_mean_ns"] = int(
                round(point.mean_execution_time_us * 1000)
            )
        return ticks

    return run


def _faults_sweep(engine: str = "fast") -> Dict[str, int]:
    return _faults_sweep_prepare(engine)()


#: the estimator-vs-emulation DSE grid: MP3 across segment counts and
#: (small) package sizes.  Small packages multiply the emulated event
#: count but leave the estimator's schedule-pass cost untouched — exactly
#: the regime where a static estimate must pay off as a pruning inner loop.
_DSE_SWEEP_CANDIDATES: Tuple[Tuple[int, int], ...] = tuple(
    (segments, size) for segments in (2, 3) for size in (3, 4, 6)
)


def _dse_sweep_specs() -> Dict[Tuple[int, int], PlatformSpec]:
    return {
        (segments, size): PlatformSpec.from_platform(
            paper_platform(segments, package_size=size)
        )
        for segments, size in _DSE_SWEEP_CANDIDATES
    }


def _dse_sweep_prepare(engine: str) -> Callable[[], Dict[str, int]]:
    """Emulate every candidate of the DSE grid under one kernel."""
    application = mp3_decoder_psdf()
    specs = _dse_sweep_specs()
    cls = simulation_class(engine)

    def run() -> Dict[str, int]:
        ticks: Dict[str, int] = {"events": 0}
        for (segments, size), spec in specs.items():
            sim = cls(application, spec).run()
            ticks["events"] += sim.queue.executed
            ticks[f"g{segments}s{size}_execution_time_ps"] = fs_to_ps(
                sim.execution_time_fs()
            )
        return ticks

    return run


def _dse_sweep_estimator() -> Callable[[], Dict[str, int]]:
    """Score the same DSE grid with the stochastic estimator (no kernel)."""
    from repro.analysis.stochastic import stochastic_estimate

    application = mp3_decoder_psdf()
    specs = _dse_sweep_specs()

    def run() -> Dict[str, int]:
        ticks: Dict[str, int] = {}
        for (segments, size), spec in specs.items():
            estimate = stochastic_estimate(application, spec)
            ticks[f"g{segments}s{size}_estimate_ps"] = fs_to_ps(
                estimate.execution_time_fs
            )
        return ticks

    return run


def _dse_estimator_sweep(engine: str = "fast") -> Dict[str, int]:
    return _dse_sweep_prepare(engine)()


def _multimode_prepare(engine: str) -> Callable[[], Dict[str, int]]:
    """The mp3_jpeg_multimode scenario: per-mode runs + composed switches.

    Built once outside the timed region; the thunk re-executes both mode
    kernels and the composition.  The ticks pin the composed total, the
    transition charges, the switch count and every phase span, so a drift
    in any per-mode kernel *or* in the transition accounting trips the
    cross-engine equality assert and the baseline alike.
    """
    # lazy: the workload catalog pulls in the generators (numpy + lint)
    from repro.apps.workloads import workload_model
    from repro.emulator.multimode import run_multimode

    workload = workload_model("mp3_jpeg_multimode")
    spec = PlatformSpec.from_platform(workload.platform)

    def run() -> Dict[str, int]:
        composed = run_multimode(workload.application, spec, engine=engine)
        ticks: Dict[str, int] = {
            "events": composed.total_events,
            "execution_time_ps": composed.execution_time_ps,
            "transition_ps": fs_to_ps(composed.transition_total_fs),
            "switches": composed.switch_count,
        }
        for phase in composed.phases:
            ticks[f"phase{phase.index}_{phase.mode}_ps"] = fs_to_ps(
                phase.phase_fs
            )
        return ticks

    return run


def _multimode_switch(engine: str = "fast") -> Dict[str, int]:
    return _multimode_prepare(engine)()


def _random_oracle_batch() -> Dict[str, int]:
    from repro.testing.generators import generate_models
    from repro.testing.oracles import run_differential_oracle

    events = 0
    violations = 0
    for model in generate_models(20, base_seed=9000):
        report = run_differential_oracle(
            model.application, model.platform, label=model.label
        )
        events += report.total_events
        violations += len(report.violations)
    return {"events": events, "violations": violations}


def _serve_run() -> Dict[str, int]:
    from repro.serve.bench import serve_round

    return serve_round(resolve_engine(None))


def _serve_prepare(engine: str) -> Callable[[], Dict[str, int]]:
    # lazy: the serving harness boots real HTTP servers; keep
    # `segbus bench --list` and non-serving runs free of that cost
    from repro.serve.bench import serve_prepare

    return serve_prepare(engine)


def _serve_metrics(engine: str) -> Dict[str, float]:
    from repro.serve.bench import service_metrics

    return service_metrics(engine)


#: requests per serve_throughput round — mirrors
#: repro.serve.bench.BENCH_REQUESTS (pinned equal by a unit test; kept
#: literal here so the registry stays import-lazy)
_SERVE_BENCH_REQUESTS = 120


SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario(
        "mp3_1seg_emulate",
        "MP3 decoder on the single-segment paper platform",
        lambda: _mp3_emulate(1),
        prepare=lambda engine: _mp3_prepare(1, engine),
    ),
    BenchScenario(
        "mp3_2seg_emulate",
        "MP3 decoder on the two-segment paper platform",
        lambda: _mp3_emulate(2),
        prepare=lambda engine: _mp3_prepare(2, engine),
        # was 3.0 before clock periods were cached (units.py): the stepped
        # reference makes far more period_fs calls per event than the fast
        # kernel, so the uniform caching win compressed this ratio to ~3x —
        # the pin keeps margin for host jitter while still catching a real
        # fast-kernel regression
        speedup_min=2.5,
    ),
    BenchScenario(
        "mp3_3seg_emulate",
        "MP3 decoder on the three-segment paper platform (headline case)",
        lambda: _mp3_emulate(3),
        prepare=lambda engine: _mp3_prepare(3, engine),
    ),
    BenchScenario(
        "jpeg_2seg_emulate",
        "JPEG decoder on the two-segment platform",
        lambda: _jpeg_emulate(2),
        prepare=lambda engine: _jpeg_prepare(2, engine),
    ),
    BenchScenario(
        "mp3_3seg_analytic",
        "Analytic estimator over the three-segment MP3 mapping",
        _mp3_analytic,
    ),
    BenchScenario(
        "mp3_package_sweep",
        "MP3 three-segment emulation across package sizes 9/18/36",
        _mp3_package_sweep,
        prepare=_sweep_prepare,
    ),
    BenchScenario(
        "faults_sweep",
        "MP3 two-segment reliability grid (4 rates x 12 seeds + baseline)",
        _faults_sweep,
        prepare=_faults_sweep_prepare,
        models_per_round=FAULTS_SWEEP_MODELS,
    ),
    BenchScenario(
        "dse_estimator_sweep",
        "MP3 DSE grid (2-3 segments x package sizes 3/4/6): emulate vs "
        "stochastic estimate",
        _dse_estimator_sweep,
        prepare=_dse_sweep_prepare,
        prepare_estimator=_dse_sweep_estimator,
        estimator_speedup_min=50.0,
        models_per_round=len(_DSE_SWEEP_CANDIDATES),
    ),
    BenchScenario(
        "multimode_switch",
        "MP3<->JPEG two-phase multi-mode composition with transition "
        "charges",
        _multimode_switch,
        prepare=_multimode_prepare,
        models_per_round=2,
    ),
    BenchScenario(
        "random_oracle_batch",
        "20 generated models through the differential oracle",
        _random_oracle_batch,
    ),
    BenchScenario(
        "serve_throughput",
        "HTTP serving: 120 seeded repeat-heavy requests over real sockets "
        "against the digest-keyed result cache",
        _serve_run,
        prepare=_serve_prepare,
        models_per_round=_SERVE_BENCH_REQUESTS,
        service_metrics=_serve_metrics,
        cache_hit_rate_min=0.9,
    ),
)

SCENARIO_NAMES: Tuple[str, ...] = tuple(s.name for s in SCENARIOS)


def scenario(name: str) -> BenchScenario:
    for item in SCENARIOS:
        if item.name == name:
            return item
    raise SegBusError(
        f"unknown bench scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
    )


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------


def _time_runs(
    run: Callable[[], Dict[str, int]], repeats: int
) -> Tuple[Dict[str, int], List[float]]:
    """Ticks from the last run plus the sorted wall times (ms)."""
    walls: List[float] = []
    ticks: Dict[str, int] = {}
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        ticks = run()
        walls.append((time.perf_counter() - start) * 1e3)
    walls.sort()
    return ticks, walls


def _percentiles(walls: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank p50/p90/p99 of the per-round walls (jitter profile)."""
    ordered = sorted(walls)
    out: Dict[str, float] = {}
    for q in (50, 90, 99):
        rank = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
        out[f"p{q}"] = ordered[rank]
    return out


def _traced_peak_kb(run: Callable[[], Dict[str, int]]) -> int:
    """Peak traced allocation of one (untimed) round, in KiB."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak // 1024)


def run_scenario(
    item: BenchScenario,
    repeats: int = 3,
    inject_slowdown: float = 1.0,
    engine: Optional[str] = None,
) -> BenchResult:
    """Run one scenario ``repeats`` times; keep ticks, best and median wall.

    Engine-aware scenarios are timed once per engine (every engine by
    default, a single one when ``engine`` names it); their tick counters
    must be exact-equal across engines or the run itself fails.  The
    headline ``wall_ms``/``wall_median_ms`` pair reports the *fast*
    engine (the default execution path); the other engines' walls live
    in ``engine_wall_ms``.  The warm-up round doubles as the memory
    round: it runs untimed under ``tracemalloc`` and records the peak.
    ``inject_slowdown`` scales every engine's wall uniformly so the wall
    gate trips regardless of which engine feeds it (the speedup ratios,
    taken per round, are invariant to a uniform factor by design).
    """
    repeats = max(1, repeats)
    factor = max(inject_slowdown, 0.0)
    if item.prepare is None:
        ticks, walls = _time_runs(item.run, repeats)
        return BenchResult(
            name=item.name,
            ticks=ticks,
            wall_ms=walls[0] * factor,
            wall_median_ms=walls[len(walls) // 2] * factor,
            repeats=repeats,
        )
    engines = ENGINE_NAMES if engine is None else (resolve_engine(engine),)
    runners = {name: item.prepare(name) for name in engines}
    estimator_runner = (
        item.prepare_estimator() if item.prepare_estimator is not None else None
    )
    ticks_by: Dict[str, Dict[str, int]] = {}
    raw_walls: Dict[str, List[float]] = {name: [] for name in engines}
    estimator_walls: List[float] = []
    estimator_ticks: Dict[str, int] = {}
    peak_mem_kb: Dict[str, int] = {}
    for name in engines:  # untimed warm-up round, traced for peak memory
        peak_mem_kb[name] = _traced_peak_kb(runners[name])
        ticks_by[name] = runners[name]()
    if estimator_runner is not None:
        peak_mem_kb["estimator"] = _traced_peak_kb(estimator_runner)
        estimator_ticks = estimator_runner()
    # interleave the engines round by round: host-load episodes (CPU
    # scaling, noisy neighbours) then hit every engine alike, so the
    # per-round ratios stay meaningful even when absolute walls jitter
    for _ in range(repeats):
        for name in engines:
            start = time.perf_counter()
            ticks_by[name] = runners[name]()
            raw_walls[name].append((time.perf_counter() - start) * 1e3)
        if estimator_runner is not None:
            start = time.perf_counter()
            estimator_ticks = estimator_runner()
            estimator_walls.append((time.perf_counter() - start) * 1e3)
    reference = ticks_by[engines[0]]
    for name in engines[1:]:
        if ticks_by[name] != reference:
            raise SegBusError(
                f"{item.name}: tick counters diverge between engines — "
                f"{engines[0]} says {reference}, {name} says "
                f"{ticks_by[name]} (the engines must be tick-for-tick "
                "equivalent; run `segbus selftest` to localize)"
            )
    # the estimator is a pseudo-engine: its ticks are pinned in the
    # baseline too (the estimate is deterministic) but under an ``est_``
    # prefix, outside the cross-engine equality above — an expected TCT
    # is not an emulated TCT
    ticks = dict(reference)
    for key, value in estimator_ticks.items():
        ticks[f"est_{key}"] = value

    def _ratio(numer: str, denom: str) -> Optional[float]:
        if numer not in raw_walls or denom not in raw_walls:
            return None
        ratios = sorted(
            n / d
            for n, d in zip(raw_walls[numer], raw_walls[denom])
            if d > 0
        )
        return ratios[len(ratios) // 2] if ratios else None

    primary = "fast" if "fast" in raw_walls else engines[0]
    walls = sorted(raw_walls[primary])
    engine_wall_ms = {
        name: sorted(times)[len(times) // 2] * factor
        for name, times in raw_walls.items()
    }
    estimator_wall_ms: Optional[float] = None
    estimator_speedup: Optional[float] = None
    if estimator_walls:
        ordered = sorted(estimator_walls)
        estimator_wall_ms = ordered[len(ordered) // 2] * factor
        if "fast" in raw_walls:  # per-round ratio, like _ratio above
            ratios = sorted(
                f / e
                for f, e in zip(raw_walls["fast"], estimator_walls)
                if e > 0
            )
            if ratios:
                estimator_speedup = ratios[len(ratios) // 2]
    service: Dict[str, Dict[str, float]] = {}
    if item.service_metrics is not None:
        # wall-side serving metrics of each engine's *last* timed round
        service = {
            name: dict(item.service_metrics(name)) for name in engines
        }
    return BenchResult(
        name=item.name,
        ticks=ticks,
        wall_ms=walls[0] * factor,
        wall_median_ms=walls[len(walls) // 2] * factor,
        repeats=repeats,
        engine_wall_ms=engine_wall_ms,
        speedup=_ratio("stepped", "fast"),
        throughput_models_per_s={
            name: item.models_per_round * 1e3 / median
            for name, median in engine_wall_ms.items()
            if median > 0
        },
        jitter_ms={
            name: {p: v * factor for p, v in _percentiles(times).items()}
            for name, times in raw_walls.items()
        },
        peak_mem_kb=peak_mem_kb,
        estimator_wall_ms=estimator_wall_ms,
        estimator_speedup=estimator_speedup,
        service=service,
    )


@dataclass(frozen=True)
class _BenchJob:
    """One scenario *by name* — the registry's lambdas never pickle.

    The worker resolves :func:`scenario` locally and times it there, so
    the job carries only primitives.  The checkpoint digest includes the
    full measurement recipe; note that journaled wall times are replayed
    verbatim on ``resume`` (deterministic ticks are, wall clocks are
    measurements of the original run).
    """

    name: str
    repeats: int
    inject_slowdown: float
    engine: Optional[str]

    @property
    def label(self) -> str:
        return self.name

    def digest(self) -> str:
        return canonical_digest(
            self.name,
            self.repeats,
            repr(self.inject_slowdown),
            self.engine or "",
        )


def _run_bench_job(job: _BenchJob) -> BenchResult:
    return run_scenario(
        scenario(job.name),
        repeats=job.repeats,
        inject_slowdown=job.inject_slowdown,
        engine=job.engine,
    )


def run_bench(
    names: Optional[Sequence[str]] = None,
    repeats: int = 3,
    inject_slowdown: float = 1.0,
    engine: Optional[str] = None,
    workers: Optional[int] = 1,
    executor_policy: Optional[ExecutorPolicy] = None,
    checkpoint_dir=None,
    checkpoint_name: Optional[str] = None,
    resume: bool = False,
) -> List[BenchResult]:
    """Run the selected scenarios through the supervised executor.

    ``workers`` defaults to 1 — wall-clock numbers from scenarios timed
    concurrently on the same host would contend for CPU and gate
    unreliably — but the retry/timeout/checkpoint machinery still
    applies on the serial path (timeouts need ``workers >= 2``).
    """
    selected = (
        [scenario(n) for n in names] if names else list(SCENARIOS)
    )
    jobs = [
        _BenchJob(
            name=item.name,
            repeats=repeats,
            inject_slowdown=inject_slowdown,
            engine=engine,
        )
        for item in selected
    ]
    executor = CampaignExecutor(
        _run_bench_job,
        policy=executor_policy,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_name=checkpoint_name,
        resume=resume,
    )
    batch = executor.run(jobs).raise_on_failure(what="bench scenario")
    return list(batch.results)


def baseline_path(name: str, baseline_dir: Union[str, Path]) -> Path:
    return Path(baseline_dir) / f"BENCH_{name}.json"


def write_baselines(
    results: Sequence[BenchResult],
    baseline_dir: Union[str, Path] = DEFAULT_BASELINE_DIR,
) -> List[Path]:
    directory = Path(baseline_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for result in results:
        path = baseline_path(result.name, directory)
        path.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    return written


def load_baseline(name: str, baseline_dir: Union[str, Path]) -> BenchResult:
    path = baseline_path(name, baseline_dir)
    if not path.is_file():
        raise SegBusError(
            f"no baseline for scenario {name!r} at {path} — run "
            "`segbus bench --update` once and commit the files"
        )
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != BASELINE_VERSION:
        raise SegBusError(
            f"baseline {path}: unsupported version {data.get('version')!r}"
        )
    speedup = data.get("speedup")
    return BenchResult(
        name=str(data["name"]),
        ticks={str(k): int(v) for k, v in dict(data["ticks"]).items()},
        wall_ms=float(data["wall_ms"]),
        wall_median_ms=float(data["wall_median_ms"]),
        repeats=int(data["repeats"]),
        engine_wall_ms={
            str(k): float(v)
            for k, v in dict(data.get("engine_wall_ms", {})).items()
        },
        speedup=float(speedup) if speedup is not None else None,
        throughput_models_per_s={
            str(k): float(v)
            for k, v in dict(data.get("throughput_models_per_s", {})).items()
        },
        jitter_ms={
            str(engine): {str(p): float(v) for p, v in dict(pcts).items()}
            for engine, pcts in dict(data.get("jitter_ms", {})).items()
        },
        peak_mem_kb={
            str(k): int(v)
            for k, v in dict(data.get("peak_mem_kb", {})).items()
        },
        estimator_wall_ms=(
            float(data["estimator_wall_ms"])
            if data.get("estimator_wall_ms") is not None
            else None
        ),
        estimator_speedup=(
            float(data["estimator_speedup"])
            if data.get("estimator_speedup") is not None
            else None
        ),
        service={
            str(engine): {str(m): float(v) for m, v in dict(metrics).items()}
            for engine, metrics in dict(data.get("service", {})).items()
        },
    )


def check_bench(
    results: Sequence[BenchResult],
    baseline_dir: Union[str, Path] = DEFAULT_BASELINE_DIR,
    wall_ratio_max: float = DEFAULT_WALL_RATIO_MAX,
    check_wall: bool = True,
) -> BenchCheck:
    """Fail on tick drift, wall regression, or a speedup below the pin.

    The per-scenario ``speedup_min`` gate runs even with
    ``check_wall=False``: both engines are timed on the *same* host in
    the same run, so their ratio is robust to runner heterogeneity in a
    way absolute wall time is not.
    """
    check = BenchCheck()
    for result in results:
        check.checked += 1
        baseline = load_baseline(result.name, baseline_dir)
        for key in sorted(set(baseline.ticks) | set(result.ticks)):
            before = baseline.ticks.get(key)
            after = result.ticks.get(key)
            if before != after:
                check.failures.append(
                    f"{result.name}: tick {key} drifted {before} -> {after} "
                    "(behaviour change — fix it or re-pin with "
                    "`segbus bench --update`)"
                )
        try:
            item = scenario(result.name)
            speedup_min = item.speedup_min
            estimator_min = item.estimator_speedup_min
            hit_rate_min = item.cache_hit_rate_min
        except SegBusError:  # pragma: no cover - results come from the registry
            speedup_min = estimator_min = None
            hit_rate_min = None
        if speedup_min is not None:
            if result.speedup is None:
                check.notes.append(
                    f"{result.name}: fast speedup gate (≥{speedup_min}x) "
                    "skipped — run without --engine to time every engine"
                )
            elif result.speedup < speedup_min:
                check.failures.append(
                    f"{result.name}: fast engine speedup "
                    f"{result.speedup:.2f}x below the pinned minimum "
                    f"{speedup_min}x (fast-kernel perf regression)"
                )
        if estimator_min is not None:
            if result.estimator_speedup is None:
                check.notes.append(
                    f"{result.name}: estimator speedup gate "
                    f"(≥{estimator_min}x) skipped — needs the fast engine "
                    "timed in the same run (no --engine restriction)"
                )
            elif result.estimator_speedup < estimator_min:
                check.failures.append(
                    f"{result.name}: stochastic estimator only "
                    f"{result.estimator_speedup:.2f}x faster than the fast "
                    f"engine, below the pinned minimum {estimator_min}x "
                    "(estimator perf regression)"
                )
        if hit_rate_min is not None:
            # from the ticks, not the wall side: reused/requests is
            # deterministic (request coalescing pins computations per
            # cache epoch), so this gate holds even under --no-wall
            requests = result.ticks.get("requests", 0)
            reused = result.ticks.get("reused", 0)
            if requests <= 0:
                check.notes.append(
                    f"{result.name}: cache hit-rate gate "
                    f"(≥{hit_rate_min:.0%}) skipped — no 'requests' tick"
                )
            elif reused / requests < hit_rate_min:
                check.failures.append(
                    f"{result.name}: cache hit rate "
                    f"{reused / requests:.1%} ({reused}/{requests}) below "
                    f"the pinned minimum {hit_rate_min:.0%} "
                    "(result-cache regression)"
                )
        if not check_wall:
            continue
        # median vs median: the best-of-N envelope fluctuates ~2x on busy
        # hosts, but the median is a stable typical-cost center on both
        # sides, so ratio x median separates regressions from noise
        limit = baseline.wall_median_ms * wall_ratio_max
        if result.wall_median_ms > limit:
            check.failures.append(
                f"{result.name}: median wall {result.wall_median_ms:.1f} ms "
                f"exceeds {wall_ratio_max}x baseline median "
                f"{baseline.wall_median_ms:.1f} ms (perf regression)"
            )
        elif result.wall_median_ms * wall_ratio_max < baseline.wall_median_ms:
            check.notes.append(
                f"{result.name}: median wall {result.wall_median_ms:.1f} ms "
                f"is much faster than baseline "
                f"{baseline.wall_median_ms:.1f} ms — consider re-pinning"
            )
    return check


def format_results(results: Sequence[BenchResult]) -> str:
    lines = [
        f"{'scenario':<24} {'wall_ms':>10} {'speedup':>8} {'est':>8}  ticks"
    ]
    for result in results:
        ticks = ", ".join(
            f"{k}={v}" for k, v in sorted(result.ticks.items())
        )
        speedup = (
            f"{result.speedup:.2f}x" if result.speedup is not None else "-"
        )
        est = (
            f"{result.estimator_speedup:.0f}x"
            if result.estimator_speedup is not None
            else "-"
        )
        lines.append(
            f"{result.name:<24} {result.wall_ms:>10.1f} {speedup:>8} "
            f"{est:>8}  {ticks}"
        )
    return "\n".join(lines)
