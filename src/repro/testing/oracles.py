"""Differential oracles: cross-check one emulation against independent laws.

The emulator's headline claim is a *timing* estimate, so the oracle does
not re-derive the timing — it bounds and conserves it from three
independent directions and fails loudly on any divergence:

* **ANA — analytic differential.**  The contention-free analytic walk
  (:func:`repro.analysis.analytic.analytic_estimate`) must never exceed
  the emulated time by more than its documented per-crossing alignment
  slack (``ANA-1``), and the emulated time must stay within a documented
  contention multiple of the analytic one (``ANA-2``) — an emulator change
  that suddenly doubles contention on lightly loaded random models is a
  bug, not a workload property.
* **LAW — the paper's total-time law.**  The reported execution time is
  exactly ``max(t_SA1 … t_SAn, t_CA)`` (section 4, "Calculation of the
  execution time"), and the TCT counters are monotone: every recorded bus
  activity lies inside ``[0, global_end]``, every SA's TCT covers its own
  busy ticks, and the CA's TCT covers the global end (``LAW-1``/``MONO-1``).
* **CONS — package conservation.**  Per BU: packages in = packages out
  (+drops), and per direction nothing is conjured or lost; per process:
  received packages equal the schedule's expected inputs and sent packages
  equal the outgoing package count; per BU pair the crossing count matches
  the mapped schedule exactly (``CONS-*``).

* **ENG — engine equivalence.**  The same model runs through *every*
  simulation engine (the cycle-stepped reference and the event-driven
  fast kernel, see docs/PERFORMANCE.md) and the trace, timeline and
  report digests plus the executed event count must be byte-identical
  across the whole matrix (``ENG-1``) — the derived kernel is only
  allowed constant-factor optimizations, never
  observable ones.

* **SAN — stochastic estimator band.**  The static contention estimator
  (:func:`repro.analysis.stochastic.stochastic_estimate`) must stay at or
  above the analytic lower bound and within a pinned relative error band
  of the emulated time (``SAN-1``) — the "estimation" in the paper's title
  is only trustworthy while its error against ground truth stays bounded
  on every corpus model (measured ≤ 4% worst case; the band leaves
  headroom at 15%, docs/PERFORMANCE.md).

* **MODE — multi-mode composition.**  For a
  :class:`~repro.psdf.modes.MultiModeApplication`
  (:func:`run_multimode_oracle`), the composed emulated total must cover
  the largest per-mode analytic lower bound plus every charged transition
  delay (``MODE-1``); every per-mode run re-passes the full ANA/LAW/MONO/
  CONS/SAN single-mode battery (package conservation therefore holds
  across every switch boundary — each phase starts from drained queues);
  the end-to-end composed stochastic estimate stays inside the SAN-1
  band; and the composed trace/timeline/report digests are byte-identical
  across both engines (ENG-1 lifted to mode-switch traces).

On top, the protocol conformance checker
(:func:`repro.emulator.conformance.check_conformance`) runs with a live
tracer, so its BUS/BU/ORD/FIRE/CNT invariants ride along for free.

The oracle is deliberately *fault-free*: fault injection changes the
conservation laws (drops, retries) and has its own property suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.analytic import analytic_estimate, analytic_estimate_multimode
from repro.analysis.stochastic import (
    stochastic_estimate,
    stochastic_estimate_multimode,
)
from repro.emulator.config import EmulationConfig
from repro.emulator.conformance import check_conformance
from repro.emulator.fastkernel import (
    ENGINE_NAMES,
    make_simulation,
    resolve_engine,
)
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.multimode import run_multimode, run_multimode_detailed
from repro.emulator.report import build_report
from repro.emulator.trace import Tracer
from repro.model.elements import SegBusPlatform
from repro.psdf.graph import PSDFGraph
from repro.psdf.modes import MultiModeApplication
from repro.units import fs_to_us


@dataclass(frozen=True)
class OracleTolerance:
    """The documented divergence tolerances (docs/TESTING.md).

    ``contention_ratio_max`` bounds ``emulated / analytic``: the analytic
    walk is contention-free, so the ratio measures arbitration and queueing
    cost.  On the generator's computation-bound random models the observed
    ratio stays well below 2; 4.0 leaves room for genuinely contended
    draws while still catching runaway-contention regressions.

    ``stochastic_error_max`` bounds ``|stochastic − emulated| / emulated``:
    the corpus-measured worst case is below 4% (MAE < 1%), so 0.15 is a
    generous regression ceiling, not the expected accuracy.
    """

    contention_ratio_max: float = 4.0
    stochastic_error_max: float = 0.15


@dataclass
class OracleReport:
    """The verdict for one model: empty ``violations`` means conformant."""

    label: str
    emulated_us: float
    analytic_us: float
    total_events: int
    violations: List[str] = field(default_factory=list)
    checked: int = 0
    stochastic_us: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def contention_ratio(self) -> float:
        return self.emulated_us / self.analytic_us if self.analytic_us else 0.0

    def add(self, invariant: str, message: str) -> None:
        self.violations.append(f"[{invariant}] {message}")

    def format(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [
            f"{self.label}: {status} — emulated {self.emulated_us:.2f} us, "
            f"analytic {self.analytic_us:.2f} us, "
            f"stochastic {self.stochastic_us:.2f} us, "
            f"{self.total_events} events"
        ]
        lines.extend(f"    {v}" for v in self.violations)
        return "\n".join(lines)


def run_differential_oracle(
    application: PSDFGraph,
    platform: SegBusPlatform,
    config: Optional[EmulationConfig] = None,
    tolerance: OracleTolerance = OracleTolerance(),
    label: Optional[str] = None,
    engine: Optional[str] = None,
) -> OracleReport:
    """Emulate ``application`` on ``platform`` and check every oracle law.

    ``engine`` names the *primary* engine whose run feeds the ANA/LAW/CONS
    laws and the conformance checker (default honours ``SEGBUS_ENGINE``);
    the ``ENG-1`` check always re-runs the model through the other engine
    and compares digests, so either choice covers both kernels.
    """
    config = config or EmulationConfig()
    spec = PlatformSpec.from_platform(platform)
    primary = resolve_engine(engine)
    tracer = Tracer()
    sim = make_simulation(
        application, spec, config, engine=primary, tracer=tracer
    ).run()
    analytic = analytic_estimate(application, spec, config)
    stochastic = stochastic_estimate(application, spec, config)

    report = OracleReport(
        label=label or f"{application.name} on {platform.name}",
        emulated_us=fs_to_us(sim.execution_time_fs()),
        analytic_us=analytic.execution_time_us,
        total_events=sim.queue.executed,
        stochastic_us=stochastic.execution_time_us,
    )
    _check_analytic_bounds(sim, spec, analytic, tolerance, report)
    _check_stochastic_band(sim, analytic, stochastic, tolerance, report)
    _check_total_time_law(sim, report)
    _check_tct_monotonicity(sim, report)
    _check_bu_conservation(sim, spec, report)
    _check_process_conservation(sim, report)
    _check_engine_equivalence(sim, spec, config, tracer, primary, report)
    conformance = check_conformance(sim, tracer)
    report.checked += conformance.checked
    report.violations.extend(conformance.violations)
    return report


def run_multimode_oracle(
    application: MultiModeApplication,
    platform,
    config: Optional[EmulationConfig] = None,
    tolerance: OracleTolerance = OracleTolerance(),
    label: Optional[str] = None,
    engine: Optional[str] = None,
) -> OracleReport:
    """Execute a multi-mode application and check the MODE battery.

    ``platform`` may be a :class:`~repro.model.elements.SegBusPlatform`
    or a prepared :class:`~repro.emulator.kernel.PlatformSpec`.  The
    primary ``engine`` feeds the per-mode law checks; the composed run is
    then repeated under every other engine for the lifted ENG-1 check.
    """
    config = config or EmulationConfig()
    if isinstance(platform, PlatformSpec):
        spec = platform
    else:
        spec = PlatformSpec.from_platform(platform)
    primary = resolve_engine(engine)
    composed, measurements = run_multimode_detailed(
        application, spec, config, engine=primary
    )
    analytic = analytic_estimate_multimode(application, spec, config)
    stochastic = stochastic_estimate_multimode(application, spec, config)

    report = OracleReport(
        label=label or application.name,
        emulated_us=composed.execution_time_us,
        analytic_us=analytic.execution_time_us,
        total_events=composed.executed_events,
        stochastic_us=stochastic.execution_time_us,
    )

    scheduled = application.scheduled_modes()

    # MODE-1: the composed total covers the largest per-mode analytic
    # lower bound plus every charged transition (each scheduled mode runs
    # at least one full iteration, and transitions are pure added delay)
    report.checked += 1
    slack_fs = max(
        analytic_slack_fs(application.modes[name], spec, config)
        for name in scheduled
    )
    bound_fs = (
        max(analytic.per_mode[name].execution_time_fs for name in scheduled)
        + analytic.transition_total_fs
    )
    if composed.execution_time_fs + slack_fs < bound_fs:
        report.add(
            "MODE-1",
            f"composed emulated total {composed.execution_time_us:.3f} us "
            f"(+{fs_to_us(slack_fs):.3f} us slack) falls below the largest "
            f"per-mode analytic bound plus transition charges "
            f"({fs_to_us(bound_fs):.3f} us)",
        )

    # per-mode battery: every distinct scheduled mode's run re-passes the
    # single-mode laws, so conservation holds across every switch boundary
    for name in scheduled:
        measurement = measurements[name]
        sim, tracer = measurement.sim, measurement.tracer
        start = len(report.violations)
        _check_analytic_bounds(
            sim, spec, analytic.per_mode[name], tolerance, report
        )
        _check_stochastic_band(
            sim, analytic.per_mode[name], stochastic.per_mode[name],
            tolerance, report,
        )
        _check_total_time_law(sim, report)
        _check_tct_monotonicity(sim, report)
        _check_bu_conservation(sim, spec, report)
        _check_process_conservation(sim, report)
        conformance = check_conformance(sim, tracer)
        report.checked += conformance.checked
        report.violations.extend(conformance.violations)
        for index in range(start, len(report.violations)):
            report.violations[index] = (
                f"mode {name}: {report.violations[index]}"
            )

    # end-to-end SAN-1 on the composed estimate
    report.checked += 1
    if composed.execution_time_fs > 0:
        error = (
            abs(stochastic.execution_time_fs - composed.execution_time_fs)
            / composed.execution_time_fs
        )
        if error > tolerance.stochastic_error_max:
            report.add(
                "SAN-1",
                f"composed stochastic estimate "
                f"{stochastic.execution_time_us:.3f} us is {error:.1%} off "
                f"the composed emulated {composed.execution_time_us:.3f} us "
                f"(band: {tolerance.stochastic_error_max:.0%})",
            )

    # ENG-1 lifted to mode-switch traces
    for other in ENGINE_NAMES:
        if other == primary:
            continue
        report.checked += 1
        theirs = run_multimode(application, spec, config, engine=other)
        for kind, a, b in (
            ("trace", composed.trace_digest(), theirs.trace_digest()),
            ("timeline", composed.timeline_digest(), theirs.timeline_digest()),
            ("report", composed.report_digest(), theirs.report_digest()),
        ):
            if a != b:
                report.add(
                    "ENG-1",
                    f"composed {kind} digest diverges between the {primary} "
                    f"and {other} engines ({a[:12]}… != {b[:12]}…) on a "
                    "mode-switch trace",
                )
        if composed.total_events != theirs.total_events:
            report.add(
                "ENG-1",
                f"composed event counts diverge: {primary} traced "
                f"{composed.total_events}, {other} traced "
                f"{theirs.total_events}",
            )
    return report


# ---------------------------------------------------------------------------
# ENG — engine equivalence
# ---------------------------------------------------------------------------


def _check_engine_equivalence(
    sim: Simulation,
    spec: PlatformSpec,
    config: EmulationConfig,
    tracer: Tracer,
    primary: str,
    report: OracleReport,
) -> None:
    """ENG-1: every other engine must reproduce the run byte-for-byte.

    Each other engine runs twice: traced, and untraced, since some of a
    kernel's paths run only without a tracer.
    """
    mine = build_report(sim)
    for other in ENGINE_NAMES:
        if other == primary:
            continue
        report.checked += 2
        other_tracer = Tracer()
        other_sim = make_simulation(
            sim.application, spec, config, engine=other, tracer=other_tracer
        ).run()
        theirs = build_report(other_sim)
        untraced_sim = make_simulation(
            sim.application, spec, config, engine=other
        ).run()
        untraced = build_report(untraced_sim)
        for name, a, b in (
            ("trace", tracer.digest(), other_tracer.digest()),
            ("timeline", mine.timeline.digest(), theirs.timeline.digest()),
            ("report", mine.digest(), theirs.digest()),
            (
                "untraced timeline",
                mine.timeline.digest(),
                untraced.timeline.digest(),
            ),
            ("untraced report", mine.digest(), untraced.digest()),
        ):
            if a != b:
                report.add(
                    "ENG-1",
                    f"{name} digest diverges between the {primary} and "
                    f"{other} engines ({a[:12]}… != {b[:12]}…): the engines "
                    "must be tick-for-tick equivalent",
                )
        for name, executed in (
            ("ran", other_sim.queue.executed),
            ("ran untraced", untraced_sim.queue.executed),
        ):
            if sim.queue.executed != executed:
                report.add(
                    "ENG-1",
                    f"executed event counts diverge: {primary} ran "
                    f"{sim.queue.executed}, {other} {name} {executed}",
                )


# ---------------------------------------------------------------------------
# ANA — analytic differential
# ---------------------------------------------------------------------------


def analytic_slack_fs(
    application: PSDFGraph, spec: PlatformSpec, config: EmulationConfig
) -> int:
    """Upper bound on how far the analytic walk may *overshoot* emulation.

    The walk charges every clock-domain alignment (one per package per BU
    crossing, plus one per firing) as a full destination tick where the
    kernel aligns fractionally (see :mod:`repro.analysis.analytic`); the
    overshoot is therefore at most one slowest-clock period per charged
    alignment, accumulated along a serial chain.
    """
    periods = [
        round(1e9 / mhz) for mhz in spec.segment_frequencies_mhz.values()
    ]
    periods.append(round(1e9 / spec.ca_frequency_mhz))
    max_period_fs = max(periods)
    alignments = len(application.process_names)  # one firing edge each
    for flow in application.flows:
        crossings = abs(
            spec.placement[flow.source] - spec.placement[flow.target]
        )
        packages = flow.packages(spec.package_size)
        # fill + one alignment per crossed segment, per package
        alignments += packages * (crossings + 1)
    return alignments * max_period_fs


def _check_analytic_bounds(
    sim: Simulation,
    spec: PlatformSpec,
    analytic,
    tolerance: OracleTolerance,
    report: OracleReport,
) -> None:
    report.checked += 2
    emulated_fs = sim.execution_time_fs()
    slack_fs = analytic_slack_fs(sim.application, spec, sim.config)
    if analytic.execution_time_fs > emulated_fs + slack_fs:
        report.add(
            "ANA-1",
            f"analytic estimate {analytic.execution_time_us:.3f} us exceeds "
            f"emulated {fs_to_us(emulated_fs):.3f} us beyond the alignment "
            f"slack ({fs_to_us(slack_fs):.3f} us): the contention-free walk "
            "must lower-bound the emulation",
        )
    limit_fs = int(
        analytic.execution_time_fs * tolerance.contention_ratio_max
    ) + slack_fs
    if emulated_fs > limit_fs:
        report.add(
            "ANA-2",
            f"emulated {fs_to_us(emulated_fs):.3f} us is more than "
            f"{tolerance.contention_ratio_max}x the analytic "
            f"{analytic.execution_time_us:.3f} us: contention beyond the "
            "documented tolerance (emulator regression or generator drift)",
        )


# ---------------------------------------------------------------------------
# SAN — stochastic estimator band
# ---------------------------------------------------------------------------


def _check_stochastic_band(
    sim: Simulation,
    analytic,
    stochastic,
    tolerance: OracleTolerance,
    report: OracleReport,
) -> None:
    """SAN-1: the static contention estimate brackets the emulated time.

    Lower side exactly (the estimate only ever *adds* expected waiting to
    the analytic walk, so falling below it means the estimator is broken);
    upper and lower error against the emulation within the pinned band.
    """
    report.checked += 2
    if stochastic.execution_time_fs < analytic.execution_time_fs:
        report.add(
            "SAN-1",
            f"stochastic estimate {stochastic.execution_time_us:.3f} us "
            f"fell below its own analytic lower bound "
            f"{analytic.execution_time_us:.3f} us: the contention term "
            "must be non-negative",
        )
    emulated_fs = sim.execution_time_fs()
    if emulated_fs > 0:
        error = (
            abs(stochastic.execution_time_fs - emulated_fs) / emulated_fs
        )
        if error > tolerance.stochastic_error_max:
            report.add(
                "SAN-1",
                f"stochastic estimate {stochastic.execution_time_us:.3f} us "
                f"is {error:.1%} off the emulated "
                f"{fs_to_us(emulated_fs):.3f} us (band: "
                f"{tolerance.stochastic_error_max:.0%}): estimator drift "
                "against ground truth",
            )


# ---------------------------------------------------------------------------
# LAW / MONO — total-time law and TCT monotonicity
# ---------------------------------------------------------------------------


def _check_total_time_law(sim: Simulation, report: OracleReport) -> None:
    report.checked += 1
    times = [sim.sa_time_fs(i) for i in sorted(sim.segments)]
    times.append(sim.ca_time_fs())
    expected = max(times)
    if sim.execution_time_fs() != expected:
        report.add(
            "LAW-1",
            f"execution time {sim.execution_time_fs()} fs != "
            f"max(t_SA..., t_CA) = {expected} fs (the paper's total-time "
            "law)",
        )


def _check_tct_monotonicity(sim: Simulation, report: OracleReport) -> None:
    report.checked += 1
    end = sim.global_end_fs
    for index in sorted(sim.segments):
        segment = sim.segments[index]
        for start_fs, end_fs in segment.counters.busy_intervals:
            if start_fs < 0 or end_fs > end:
                report.add(
                    "MONO-1",
                    f"segment {index} busy interval [{start_fs}, {end_fs}] "
                    f"escapes the run window [0, {end}]",
                )
                break
        busy_ticks = sum(
            segment.clock.ticks_between(s, e)
            for s, e in segment.counters.busy_intervals
        )
        if sim.sa_tct(index) < busy_ticks:
            report.add(
                "MONO-1",
                f"SA{index} TCT {sim.sa_tct(index)} does not cover its own "
                f"busy ticks {busy_ticks}",
            )
    if sim.ca.counters.tct < sim.ca.clock.ticks(end):
        report.add(
            "MONO-1",
            f"CA TCT {sim.ca.counters.tct} below the global end "
            f"({sim.ca.clock.ticks(end)} CA ticks)",
        )


# ---------------------------------------------------------------------------
# CONS — conservation laws
# ---------------------------------------------------------------------------


def _expected_crossings(
    sim: Simulation, spec: PlatformSpec
) -> Dict[Tuple[int, int], int]:
    crossings: Dict[Tuple[int, int], int] = {
        pair: 0 for pair in sim.bus_units
    }
    for flow in sim.application.flows:
        src = spec.placement[flow.source]
        dst = spec.placement[flow.target]
        if src == dst:
            continue
        packages = flow.packages(spec.package_size)
        lo, hi = min(src, dst), max(src, dst)
        for left in range(lo, hi):
            crossings[(left, left + 1)] += packages
    return crossings


def _check_bu_conservation(
    sim: Simulation, spec: PlatformSpec, report: OracleReport
) -> None:
    report.checked += 1
    expected = _expected_crossings(sim, spec)
    for pair in sorted(sim.bus_units):
        bu = sim.bus_units[pair]
        c = bu.counters
        if bu.occupancy:
            report.add(
                "CONS-1", f"{bu.name} still holds {bu.occupancy} package(s)"
            )
        if c.input_packages != c.output_packages + c.dropped_packages:
            report.add(
                "CONS-1",
                f"{bu.name}: {c.input_packages} in != {c.output_packages} "
                f"out + {c.dropped_packages} dropped",
            )
        if c.received_from_left != c.transferred_to_right:
            report.add(
                "CONS-1",
                f"{bu.name}: left->right flow not conserved "
                f"({c.received_from_left} received, "
                f"{c.transferred_to_right} transferred)",
            )
        if c.received_from_right != c.transferred_to_left:
            report.add(
                "CONS-1",
                f"{bu.name}: right->left flow not conserved "
                f"({c.received_from_right} received, "
                f"{c.transferred_to_left} transferred)",
            )
        if c.input_packages != expected[pair]:
            report.add(
                "CONS-2",
                f"{bu.name}: {c.input_packages} crossings observed, the "
                f"mapped schedule implies {expected[pair]}",
            )


def _check_process_conservation(sim: Simulation, report: OracleReport) -> None:
    report.checked += 1
    for name in sim.application.process_names:
        counters = sim.process_counters[name]
        expected_in = sim.schedule.inputs_of[name]
        if counters.packages_received != expected_in:
            report.add(
                "CONS-3",
                f"process {name}: received {counters.packages_received} "
                f"packages, schedule expects {expected_in}",
            )
        expected_out = sum(
            t.packages for t in sim.schedule.transfers_of[name]
        )
        if counters.packages_sent != expected_out:
            report.add(
                "CONS-3",
                f"process {name}: sent {counters.packages_sent} packages, "
                f"schedule expects {expected_out}",
            )
        if not counters.done:
            report.add("CONS-3", f"process {name} never completed")
