"""Headless perf-regression bench: exact ticks plus two same-host ratio gates.

``benchmarks/`` holds the pytest-benchmark studies (tables, figures,
ablations) for humans; this module distills the same workloads into a
small registry of *headless* scenarios that ``segbus bench`` can run in
CI without pytest plugins.  Each scenario reports **ticks**:
deterministic workload counters (executed events, CA TCT, execution
time in ps).  These must match the committed baseline *exactly*: a tick
drift means the emulator's behaviour changed, which is either a bug or
a change that must re-pin the baselines.

Emulation scenarios are *engine-aware* (see docs/PERFORMANCE.md): by
default each one is timed under both kernels — the cycle-stepped
reference and the event-driven fast kernel — in interleaved rounds, and
the tick counters are asserted exact-equal across engines at run time.
Two scenarios pin a ratio of those same-host walls, which ``--check``
gates as the median of the per-round ratios: ``mp3_2seg_emulate``
demands the fast kernel ≥2.5x faster than the stepped one, and
``dse_estimator_sweep`` demands the stochastic estimator ≥50x faster
than the fast kernel.  ``--engine`` restricts the measurement to one
engine; the ratio gates are then noted as skipped.

Baselines live in ``benchmarks/baselines/BENCH_<scenario>.json`` and
hold only the ticks, so ``segbus bench --update`` writes the same bytes
on any host.  Absolute wall time is not gated here: that is perfbench's
job (``perfbench/run.py``), which calibrates for host speed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.analytic import analytic_estimate
from repro.apps.jpeg import jpeg_decoder_psdf, jpeg_platform
from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.fastkernel import (
    ENGINE_NAMES,
    make_simulation,
    resolve_engine,
)
from repro.emulator.kernel import PlatformSpec
from repro.errors import SegBusError
from repro.units import fs_to_ps

BASELINE_VERSION = 4
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"
#: the stochastic estimator's key among the timed runners
_ESTIMATOR = "estimator"


@dataclass(frozen=True)
class BenchScenario:
    """One headless workload, engineless (``run``) or engine-aware.

    An engineless scenario's ``run`` returns its deterministic ticks; it
    runs once and is not timed.  An engine-aware scenario's ``prepare``
    is called once per engine name with the model/spec setup *outside*
    the timed region, and returns the thunk the runner times — so the
    walls and ratios measure the simulation kernels themselves, not XML
    parsing or platform construction.  The runner asserts the returned
    ticks are exact-equal across engines.  ``speedup_min`` pins a
    minimum stepped/fast ratio, enforced by :func:`check_bench`.
    """

    name: str
    description: str
    run: Optional[Callable[[], Dict[str, int]]] = None
    prepare: Optional[Callable[[str], Callable[[], Dict[str, int]]]] = None
    speedup_min: Optional[float] = None
    #: when set, a *simulation-free* evaluation of the same workload
    #: (the stochastic estimator); timed interleaved with the engines as a
    #: pseudo-engine.  Its ticks are recorded under an ``est_`` prefix and
    #: exempt from the cross-engine equality assert (an estimate is not an
    #: emulation).  ``estimator_speedup_min`` pins the fast/estimator
    #: ratio, the harshest comparison available.
    prepare_estimator: Optional[Callable[[], Callable[[], Dict[str, int]]]] = None
    estimator_speedup_min: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.run is None) == (self.prepare is None):
            raise SegBusError(
                f"bench scenario {self.name!r} must set exactly one of "
                "run and prepare"
            )


@dataclass(frozen=True)
class BenchResult:
    """One scenario's ticks plus this run's same-host walls and ratios.

    ``engine_wall_ms`` maps engine name to its median wall (empty for
    engineless scenarios).  ``speedup`` is the median per-round
    stepped/fast ratio, when both engines were timed, and
    ``estimator_speedup`` the median per-round fast/estimator ratio.
    Only the ticks go into a baseline file.
    """

    name: str
    ticks: Dict[str, int]
    engine_wall_ms: Dict[str, float] = field(default_factory=dict)
    speedup: Optional[float] = None
    estimator_speedup: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": BASELINE_VERSION,
            "name": self.name,
            "ticks": dict(sorted(self.ticks.items())),
        }


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

    def run() -> Dict[str, int]:
        sim = make_simulation(application, spec, engine=engine).run()
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

    def run() -> Dict[str, int]:
        ticks: Dict[str, int] = {"events": 0}
        for size, spec in specs.items():
            sim = make_simulation(application, spec, engine=engine).run()
            ticks["events"] += sim.queue.executed
            ticks[f"s{size}_execution_time_ps"] = fs_to_ps(
                sim.execution_time_fs()
            )
        return ticks

    return run


#: the faults-sweep grid: 4 rates x 12 seeds + the fault-free baseline.
#: Low rates are the realistic regime *and* the one the sweep's zero-hit
#: clone path accelerates hardest — most points provably draw no fault
#: and take the counting reference run's measurement.
_FAULTS_SWEEP_RATES = (0.0, 0.0001, 0.0002, 0.0005)
_FAULTS_SWEEP_SEEDS = tuple(range(1, 13))


def _faults_sweep_prepare(engine: str) -> Callable[[], Dict[str, int]]:
    """A whole reliability grid per round.

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

    def run() -> Dict[str, int]:
        ticks: Dict[str, int] = {"events": 0}
        for (segments, size), spec in specs.items():
            sim = make_simulation(application, spec, engine=engine).run()
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


SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario(
        "mp3_1seg_emulate",
        "MP3 decoder on the single-segment paper platform",
        prepare=lambda engine: _mp3_prepare(1, engine),
    ),
    BenchScenario(
        "mp3_2seg_emulate",
        "MP3 decoder on the two-segment paper platform",
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
        prepare=lambda engine: _mp3_prepare(3, engine),
    ),
    BenchScenario(
        "jpeg_2seg_emulate",
        "JPEG decoder on the two-segment platform",
        prepare=lambda engine: _jpeg_prepare(2, engine),
    ),
    BenchScenario(
        "mp3_3seg_analytic",
        "Analytic estimator over the three-segment MP3 mapping",
        run=_mp3_analytic,
    ),
    BenchScenario(
        "mp3_package_sweep",
        "MP3 three-segment emulation across package sizes 9/18/36",
        prepare=_sweep_prepare,
    ),
    BenchScenario(
        "faults_sweep",
        "MP3 two-segment reliability grid (4 rates x 12 seeds + baseline)",
        prepare=_faults_sweep_prepare,
    ),
    BenchScenario(
        "dse_estimator_sweep",
        "MP3 DSE grid (2-3 segments x package sizes 3/4/6): emulate vs "
        "stochastic estimate",
        prepare=_dse_sweep_prepare,
        prepare_estimator=_dse_sweep_estimator,
        estimator_speedup_min=50.0,
    ),
    BenchScenario(
        "multimode_switch",
        "MP3<->JPEG two-phase multi-mode composition with transition "
        "charges",
        prepare=_multimode_prepare,
    ),
    BenchScenario(
        "random_oracle_batch",
        "20 generated models through the differential oracle",
        run=_random_oracle_batch,
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


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _ratio(
    walls: Dict[str, List[float]], numer: str, denom: str
) -> Optional[float]:
    """Median of the per-round ``numer``/``denom`` wall ratios, if both ran."""
    if numer not in walls or denom not in walls:
        return None
    ratios = [n / d for n, d in zip(walls[numer], walls[denom]) if d > 0]
    return _median(ratios) if ratios else None


def run_scenario(
    item: BenchScenario,
    repeats: int = 3,
    engine: Optional[str] = None,
) -> BenchResult:
    """Run one scenario and keep its ticks and same-host walls.

    An engineless scenario runs once and records ticks only.  An
    engine-aware one is timed under every engine by default, or under
    the single one ``engine`` names, plus the estimator when it has one:
    an untimed warm-up round, then ``repeats`` timed rounds.  The tick
    counters must be exact-equal across engines or the run itself fails.
    """
    if repeats < 1:
        raise SegBusError(f"bench repeats must be at least 1, got {repeats}")
    if item.prepare is None:
        assert item.run is not None  # __post_init__: exactly one is set
        return BenchResult(name=item.name, ticks=item.run())
    engines = ENGINE_NAMES if engine is None else (resolve_engine(engine),)
    runners = {name: item.prepare(name) for name in engines}
    if item.prepare_estimator is not None:
        runners[_ESTIMATOR] = item.prepare_estimator()
    ticks_by = {name: run() for name, run in runners.items()}  # warm-up
    walls: Dict[str, List[float]] = {name: [] for name in runners}
    # interleave the runners round by round: host-load episodes (CPU
    # scaling, noisy neighbours) then hit every engine alike, so the
    # per-round ratios stay meaningful even when absolute walls jitter
    for _ in range(repeats):
        for name, run in runners.items():
            start = time.perf_counter()
            ticks_by[name] = run()
            walls[name].append((time.perf_counter() - start) * 1e3)
    reference = ticks_by[engines[0]]
    for name in engines[1:]:
        if ticks_by[name] != reference:
            raise SegBusError(
                f"{item.name}: tick counters diverge between engines — "
                f"{engines[0]} says {reference}, {name} says "
                f"{ticks_by[name]} (the engines must be tick-for-tick "
                "equivalent; run `segbus selftest` to localize)"
            )
    # the estimator's ticks are pinned in the baseline too (the estimate
    # is deterministic) but under an ``est_`` prefix, outside the
    # cross-engine equality above — an expected TCT is not an emulated TCT
    ticks = dict(reference)
    for key, value in ticks_by.get(_ESTIMATOR, {}).items():
        ticks[f"est_{key}"] = value
    return BenchResult(
        name=item.name,
        ticks=ticks,
        engine_wall_ms={name: _median(walls[name]) for name in engines},
        speedup=_ratio(walls, "stepped", "fast"),
        estimator_speedup=_ratio(walls, "fast", _ESTIMATOR),
    )


def run_bench(
    names: Optional[Sequence[str]] = None,
    repeats: int = 3,
    engine: Optional[str] = None,
) -> List[BenchResult]:
    """Run the selected scenarios (default: all) in order, in this process.

    One scenario at a time: timings taken concurrently on one host would
    contend for the CPU and skew the ratio gates.
    """
    selected = [scenario(n) for n in names] if names else list(SCENARIOS)
    return [
        run_scenario(item, repeats=repeats, engine=engine) for item in selected
    ]


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
    return BenchResult(
        name=str(data["name"]),
        ticks={str(k): int(v) for k, v in dict(data["ticks"]).items()},
    )


def check_bench(
    results: Sequence[BenchResult],
    baseline_dir: Union[str, Path] = DEFAULT_BASELINE_DIR,
) -> BenchCheck:
    """Fail on tick drift or on a same-host ratio below its pin.

    The ratio gates read this run's walls, never the baseline file: both
    sides of a ratio are timed on the same host in interleaved rounds, so
    the ratio is robust to runner heterogeneity in a way absolute wall
    time is not.
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
        item = scenario(result.name)
        speedup_min = item.speedup_min
        estimator_min = item.estimator_speedup_min
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
    return check


def format_results(results: Sequence[BenchResult]) -> str:
    """One row per scenario; the wall column is the fast engine's median."""
    lines = [
        f"{'scenario':<24} {'wall_ms':>10} {'speedup':>8} {'est':>8}  ticks"
    ]
    for result in results:
        ticks = ", ".join(
            f"{k}={v}" for k, v in sorted(result.ticks.items())
        )
        fast = result.engine_wall_ms.get("fast")
        wall = f"{fast:.1f}" if fast is not None else "-"
        speedup = (
            f"{result.speedup:.2f}x" if result.speedup is not None else "-"
        )
        est = (
            f"{result.estimator_speedup:.0f}x"
            if result.estimator_speedup is not None
            else "-"
        )
        lines.append(
            f"{result.name:<24} {wall:>10} {speedup:>8} {est:>8}  {ticks}"
        )
    return "\n".join(lines)
