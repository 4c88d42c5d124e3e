"""Closed-form analytical performance estimation (no emulation).

The emulator answers "how long does this configuration take" by executing
the schedule; this module answers the same question analytically, in
microseconds per arithmetic pass, by walking the PSDF precedence graph:

* every process fires when its slowest input flow completes;
* a flow's completion time is its firing time plus, per package, the
  production cost ``C`` and the bus occupation — for inter-segment flows
  the fill plus one hop per crossed segment in that segment's clock, plus
  the one-tick BU sampling delay;
* **no contention**: buses are assumed free when requested.

The result lower-bounds the emulated time up to one destination-clock tick
per BU crossing (the analytic walk charges the inter-clock-domain
alignment as a full tick where the kernel's edge alignment is fractional);
on aligned clocks it is *exact* for contention-free runs, both properties
enforced by the test suite.  It typically lands within a few percent on
lightly loaded platforms — the designer's instant first cut before
spending emulation time.  The gap ``emulated − analytic`` *is* (almost
entirely) the contention cost of a configuration, a useful diagnostic in
its own right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

from repro.emulator.clock import ClockDomain
from repro.emulator.config import EmulationConfig
from repro.emulator.kernel import PlatformSpec
from repro.model.topology import LinearTopology
from repro.psdf.graph import PSDFGraph
from repro.psdf.modes import MultiModeApplication, resolve_iterations
from repro.psdf.schedule import Schedule, extract_schedule
from repro.units import Frequency, fs_to_us


@dataclass(frozen=True)
class AnalyticEstimate:
    """The analytical walk's results."""

    completion_fs: Mapping[str, int]
    execution_time_fs: int

    @property
    def execution_time_us(self) -> float:
        return fs_to_us(self.execution_time_fs)

    def completion_us(self, process: str) -> float:
        return fs_to_us(self.completion_fs[process])


@lru_cache(maxsize=256)
def _clock_domain(name: str, mhz: float) -> ClockDomain:
    """One shared immutable clock per (name, frequency) pair.

    The estimators build clocks for every candidate they score; caching
    the (frozen, hence shareable) domains keeps the cached period
    arithmetic warm across thousands of placement/DSE evaluations.
    """
    return ClockDomain(name, Frequency.from_mhz(mhz))


def platform_clocks(
    spec: PlatformSpec,
) -> Tuple[Dict[int, ClockDomain], ClockDomain]:
    """The per-segment clock domains and the CA clock of a platform."""
    clocks: Dict[int, ClockDomain] = {
        index: _clock_domain(f"Segment{index}", mhz)
        for index, mhz in spec.segment_frequencies_mhz.items()
    }
    ca_clock = _clock_domain("CA", spec.ca_frequency_mhz)
    return clocks, ca_clock


@lru_cache(maxsize=128)
def schedule_for(application: PSDFGraph, package_size: int) -> Schedule:
    """Memoized :func:`~repro.psdf.schedule.extract_schedule`.

    A :class:`PSDFGraph` is immutable after construction (its docstring
    guarantees it) and hashes by identity, so the flat schedule of a
    (graph, package size) pair can be computed once and shared across the
    many estimator calls a placement search or DSE sweep makes against
    the same application.
    """
    return extract_schedule(application, package_size)


@dataclass(frozen=True)
class PathTiming:
    """Contention-free bus timing of one package along one transfer path.

    ``legs`` lists every segment bus the package occupies with the
    occupation in that segment's clock, in femtoseconds: the source
    segment's fill (plus slave-ack for intra-segment transfers) followed
    by one entry per crossed segment (BU sampling + sync + the hop, plus
    slave-ack at the destination).  ``ca_overhead_fs`` is the CA decision
    charged once per package on inter-segment paths.  The sum of all parts
    is exactly the analytic walk's per-package transfer duration.
    """

    source_segment: int
    target_segment: int
    path: Tuple[int, ...]
    legs: Tuple[Tuple[int, int], ...]
    ca_overhead_fs: int

    @property
    def duration_fs(self) -> int:
        """Grant-to-delivery bus time of one package (no waiting)."""
        return self.ca_overhead_fs + sum(fs for _, fs in self.legs)


def path_timing(
    source_seg: int,
    target_seg: int,
    clocks: Mapping[int, ClockDomain],
    ca_clock: ClockDomain,
    topology: LinearTopology,
    package_size: int,
    config: EmulationConfig,
) -> PathTiming:
    """Per-segment bus occupation of one package from grant to delivery."""
    src = clocks[source_seg]
    s = package_size
    if source_seg == target_seg:
        occupation = s + config.slave_ack_ticks
        leg = src.ticks_to_fs(config.grant_latency_ticks + occupation)
        return PathTiming(
            source_segment=source_seg,
            target_segment=target_seg,
            path=(source_seg,),
            legs=((source_seg, leg),),
            ca_overhead_fs=0,
        )
    path = topology.path(source_seg, target_seg)
    legs = [(source_seg, src.ticks_to_fs(config.grant_latency_ticks + s))]
    for index in path[1:]:
        hop_clock = clocks[index]
        wait = config.bu_sampling_ticks + config.bu_sync_ticks
        is_destination = index == path[-1]
        ticks = wait + s + (config.slave_ack_ticks if is_destination else 0)
        legs.append((index, hop_clock.ticks_to_fs(ticks)))
    return PathTiming(
        source_segment=source_seg,
        target_segment=target_seg,
        path=tuple(path),
        legs=tuple(legs),
        ca_overhead_fs=ca_clock.ticks_to_fs(config.ca_decision_ticks),
    )


class PathTimings(dict):
    """One platform's :class:`PathTiming` per (source, target) segment pair.

    Built on first use and shared by everything one estimate computes:
    the analytic walk and the stochastic census read the same timings,
    clocks and topology instead of deriving their own.
    """

    def __init__(self, spec: PlatformSpec, config: EmulationConfig) -> None:
        super().__init__()
        self.clocks, self.ca_clock = platform_clocks(spec)
        self.topology = LinearTopology(spec.segment_count)
        self.package_size = spec.package_size
        self.config = config

    def __missing__(self, key: Tuple[int, int]) -> PathTiming:
        timing = self[key] = path_timing(
            key[0],
            key[1],
            self.clocks,
            self.ca_clock,
            self.topology,
            self.package_size,
            self.config,
        )
        return timing


def analytic_estimate(
    application: PSDFGraph,
    spec: PlatformSpec,
    config: EmulationConfig = EmulationConfig(),
    schedule: Optional[Schedule] = None,
    timings: Optional[PathTimings] = None,
) -> AnalyticEstimate:
    """Contention-free completion-time walk over the precedence graph.

    Callers that already extracted the flat schedule or the platform's
    path timings (e.g. the stochastic layer, which needs both for its
    census anyway) can pass them in to skip re-deriving them — the hot
    path when estimating thousands of candidates.
    """
    if schedule is None:
        schedule = schedule_for(application, spec.package_size)
    if timings is None:
        timings = PathTimings(spec, config)
    clocks, ca_clock = timings.clocks, timings.ca_clock
    placement = spec.placement
    handshake = config.master_handshake_ticks
    durations: Dict[Tuple[int, int], int] = {}

    # the latest completion among each process's incoming flows (every
    # producer comes first in topological order), and each process's
    # completion: its last flow's, since the cursor never goes back, or
    # for a sink its firing edge (kernel semantics)
    inputs_done: Dict[str, int] = {}
    done: Dict[str, int] = {}
    for name in application.topological_order():
        segment = placement[name]
        clock = clocks[segment]
        cursor = clock.edge_after(inputs_done.get(name, 0))
        for transfer in schedule.transfers_of[name]:
            per_package_compute = clock.ticks_to_fs(
                transfer.ticks_per_package + handshake
            )
            key = (segment, placement[transfer.target])
            duration = durations.get(key)
            if duration is None:
                # bus time of one package from grant to delivery (no waiting)
                duration = durations[key] = timings[key].duration_fs
            # the per-package increment is loop-invariant, so the package
            # loop collapses to one integer multiply (identical arithmetic)
            cursor += transfer.packages * (per_package_compute + duration)
            if cursor > inputs_done.get(transfer.target, -1):
                inputs_done[transfer.target] = cursor
        done[name] = cursor

    completion = {name: done[name] for name in application.process_names}
    end = max(completion.values(), default=0)
    # the CA epilogue is part of the reported execution time
    execution = ca_clock.ticks(end) + config.ca_epilogue_ticks
    return AnalyticEstimate(
        completion_fs=completion,
        execution_time_fs=execution * ca_clock.period_fs,
    )


# ---------------------------------------------------------------------------
# multi-mode composition
# ---------------------------------------------------------------------------


def transition_delay_fs(application: MultiModeApplication, spec: PlatformSpec) -> int:
    """The femtosecond cost of one mode switch on ``spec``.

    The schedule's :class:`~repro.psdf.modes.TransitionSpec` is in CA
    ticks (reconfiguration plus one FIFO flush per border unit); a linear
    platform with ``n`` segments has ``n - 1`` BUs.
    """
    _, ca_clock = platform_clocks(spec)
    bu_count = max(spec.segment_count - 1, 0)
    return ca_clock.ticks_to_fs(
        application.schedule.transition.delay_ticks(bu_count)
    )


def mode_analytic_estimates(
    application: MultiModeApplication,
    spec: PlatformSpec,
    config: EmulationConfig = EmulationConfig(),
) -> Dict[str, AnalyticEstimate]:
    """One contention-free estimate per *scheduled* mode."""
    return {
        name: analytic_estimate(application.modes[name], spec, config)
        for name in application.scheduled_modes()
    }


def resolved_phase_iterations(
    application: MultiModeApplication,
    spec: PlatformSpec,
    config: EmulationConfig = EmulationConfig(),
    per_mode: Optional[Mapping[str, AnalyticEstimate]] = None,
) -> Tuple[int, ...]:
    """Effective iteration count of every schedule phase, in order.

    Tick-based switch points (``min_dwell_ticks``) resolve against the
    analytic per-iteration time — a deterministic, engine-independent
    schedule decision shared by the emulator composition
    (:mod:`repro.emulator.multimode`) and both estimators, so emulation
    and estimation always agree on how many iterations each phase runs.
    """
    if per_mode is None:
        per_mode = mode_analytic_estimates(application, spec, config)
    _, ca_clock = platform_clocks(spec)
    return tuple(
        resolve_iterations(
            phase,
            per_mode[phase.mode].execution_time_fs,
            ca_clock.period_fs,
        )
        for phase in application.schedule.phases
    )


@dataclass(frozen=True)
class MultiModeAnalytic:
    """Per-mode analytic estimates composed with transition charges."""

    per_mode: Mapping[str, AnalyticEstimate]
    phases: Tuple[Tuple[str, int], ...]  # (mode, effective iterations)
    transition_total_fs: int
    execution_time_fs: int

    @property
    def execution_time_us(self) -> float:
        return fs_to_us(self.execution_time_fs)

    @property
    def switch_count(self) -> int:
        return sum(
            1
            for (previous, _), (current, _) in zip(self.phases, self.phases[1:])
            if previous != current
        )


def analytic_estimate_multimode(
    application: MultiModeApplication,
    spec: PlatformSpec,
    config: EmulationConfig = EmulationConfig(),
) -> MultiModeAnalytic:
    """Contention-free estimate of a multi-mode application.

    Each phase contributes its effective iteration count times the mode's
    single-iteration analytic time; every switch between consecutive
    phases of *different* modes charges one transition delay.  This is the
    same composition law :func:`repro.emulator.multimode.run_multimode`
    applies to emulated per-mode times, so the end-to-end relative error
    of the composed estimate is bounded by the worst per-mode error.
    """
    application.validate_for_run()
    per_mode = mode_analytic_estimates(application, spec, config)
    iterations = resolved_phase_iterations(
        application, spec, config, per_mode=per_mode
    )
    switch_fs = transition_delay_fs(application, spec)
    transition_total = application.schedule.switch_count() * switch_fs
    execution = transition_total + sum(
        count * per_mode[phase.mode].execution_time_fs
        for phase, count in zip(application.schedule.phases, iterations)
    )
    return MultiModeAnalytic(
        per_mode=per_mode,
        phases=tuple(
            (phase.mode, count)
            for phase, count in zip(application.schedule.phases, iterations)
        ),
        transition_total_fs=transition_total,
        execution_time_fs=execution,
    )


def critical_path(
    application: PSDFGraph, estimate: AnalyticEstimate
) -> Tuple[str, ...]:
    """The chain of processes realizing the analytic completion time.

    Walk backwards from the process that completes last: at each step,
    follow the incoming flow whose producer completes latest (the binding
    precedence).  The returned tuple is source→…→last in execution order —
    the stages to optimize first (speeding up anything off this path cannot
    improve the estimate).
    """
    last = max(estimate.completion_fs, key=lambda p: estimate.completion_fs[p])
    chain = [last]
    current = last
    while True:
        incoming = application.incoming(current)
        if not incoming:
            break
        predecessor = max(
            (f.source for f in incoming),
            key=lambda name: estimate.completion_fs[name],
        )
        chain.append(predecessor)
        current = predecessor
    return tuple(reversed(chain))


@dataclass(frozen=True)
class ContentionDiagnosis:
    """Emulated vs analytic: how much time contention costs."""

    analytic_us: float
    emulated_us: float

    @property
    def contention_us(self) -> float:
        return self.emulated_us - self.analytic_us

    @property
    def contention_share(self) -> float:
        """Fraction of the emulated time attributable to contention."""
        return self.contention_us / self.emulated_us if self.emulated_us else 0.0


def diagnose_contention(
    application: PSDFGraph,
    spec: PlatformSpec,
    config: EmulationConfig = EmulationConfig(),
) -> ContentionDiagnosis:
    """Run both estimators and report the contention gap."""
    from repro.emulator.emulator import emulate  # local import: avoid cycle

    analytic = analytic_estimate(application, spec, config)
    return ContentionDiagnosis(
        analytic_us=analytic.execution_time_us,
        emulated_us=emulate(application, spec, config).execution_time_us,
    )
