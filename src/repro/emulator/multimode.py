"""Execution of multi-mode applications: per-mode runs composed with switches.

:mod:`repro.psdf.modes` defines *what* a multi-mode application is; this
module executes one on a platform.  The composition exploits a structural
property of the SegBus kernels: a mode iteration only completes when every
process is done and every BU FIFO is empty (the kernels raise
``DeadlockError`` otherwise), so a mode switch on an iteration boundary
needs no in-kernel drain logic — the drain *is* the end of the iteration.
What remains of the transition is the explicit cost model: the BU FIFO
flush and the reconfiguration charge of the schedule's
:class:`~repro.psdf.modes.TransitionSpec`, converted to femtoseconds on
the CA clock (:func:`repro.analysis.analytic.transition_delay_fs`).

Each *distinct* scheduled mode is simulated exactly once per engine (the
kernels are deterministic, so iteration ``k`` of a mode is byte-identical
to iteration 1); a phase of ``n`` iterations then contributes ``n`` times
the measured single-iteration time and events.  Dwell-based switch points
resolve against the analytic per-iteration time
(:func:`repro.analysis.analytic.resolved_phase_iterations`) — a static
schedule decision shared with both estimators, so every engine and every
estimator agrees on the iteration counts.

The composed :class:`MultiModeReport` digests (trace/timeline/report) hash
the per-phase structure plus the per-mode digests, so the two-way ENG-1
equivalence of the single-mode engines lifts to mode-switch traces — and
the MODE-1 oracle (:mod:`repro.testing.oracles`) re-runs the composition
under every engine to enforce exactly that.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.emulator.config import EmulationConfig
from repro.emulator.fastkernel import resolve_engine, simulation_class
from repro.emulator.kernel import PlatformSpec
from repro.emulator.report import EmulationReport, build_report
from repro.emulator.trace import Tracer
from repro.errors import ModeError
from repro.model.elements import SegBusPlatform
from repro.psdf.modes import MultiModeApplication
from repro.units import fs_to_ps, fs_to_us


@dataclass(frozen=True)
class ModeRun:
    """One mode's single-iteration measurement under one engine."""

    mode: str
    report: EmulationReport
    trace_digest: str
    events: int
    executed: int
    kind_counts: Dict[str, int]
    iteration_fs: int


@dataclass(frozen=True)
class PhaseExecution:
    """One schedule phase, resolved and placed on the composed timeline."""

    index: int
    mode: str
    iterations: int
    start_fs: int
    phase_fs: int
    #: transition delay charged after this phase (0 when the next phase
    #: stays in the same mode, or when this is the last phase)
    transition_after_fs: int


class _Measurement:
    """Worker-side handle kept for the oracle: the live sim + tracer."""

    def __init__(self, sim, tracer: Tracer) -> None:
        self.sim = sim
        self.tracer = tracer


@dataclass(frozen=True)
class MultiModeReport:
    """The composed outcome of one multi-mode execution."""

    application: str
    engine: str
    phases: Tuple[PhaseExecution, ...]
    mode_runs: Mapping[str, ModeRun]
    transition_total_fs: int
    execution_time_fs: int

    @property
    def execution_time_ps(self) -> int:
        return fs_to_ps(self.execution_time_fs)

    @property
    def execution_time_us(self) -> float:
        return fs_to_us(self.execution_time_fs)

    @property
    def switch_count(self) -> int:
        return sum(1 for p in self.phases if p.transition_after_fs > 0)

    @property
    def total_events(self) -> int:
        """Trace events over every phase iteration."""
        return sum(
            p.iterations * self.mode_runs[p.mode].events for p in self.phases
        )

    @property
    def executed_events(self) -> int:
        """Kernel event-queue pops over every phase iteration."""
        return sum(
            p.iterations * self.mode_runs[p.mode].executed for p in self.phases
        )

    def kind_counts(self) -> Dict[str, int]:
        """Per-kind trace event counts, aggregated over every iteration."""
        counts: Dict[str, int] = {}
        for phase in self.phases:
            run = self.mode_runs[phase.mode]
            for kind, count in run.kind_counts.items():
                counts[kind] = counts.get(kind, 0) + phase.iterations * count
        return counts

    # -- digests ------------------------------------------------------------

    def _composed_digest(self, per_mode: Mapping[str, str]) -> str:
        digest = hashlib.sha256()
        digest.update(
            f"multimode {self.application} "
            f"transition_total_fs={self.transition_total_fs}\n".encode()
        )
        for phase in self.phases:
            digest.update(
                f"{phase.index} {phase.mode} x{phase.iterations} "
                f"start={phase.start_fs} span={phase.phase_fs} "
                f"switch={phase.transition_after_fs} "
                f"{per_mode[phase.mode]}\n".encode()
            )
        return digest.hexdigest()

    def trace_digest(self) -> str:
        return self._composed_digest(
            {name: run.trace_digest for name, run in self.mode_runs.items()}
        )

    def timeline_digest(self) -> str:
        return self._composed_digest(
            {
                name: run.report.timeline.digest()
                for name, run in self.mode_runs.items()
            }
        )

    def report_digest(self) -> str:
        return self._composed_digest(
            {name: run.report.digest() for name, run in self.mode_runs.items()}
        )

    def digest(self) -> str:
        digest = hashlib.sha256()
        for part in (
            self.trace_digest(),
            self.timeline_digest(),
            self.report_digest(),
        ):
            digest.update(part.encode())
        return digest.hexdigest()

    # -- presentation -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "application": self.application,
            "engine": self.engine,
            "execution_time_ps": self.execution_time_ps,
            "transition_total_ps": fs_to_ps(self.transition_total_fs),
            "switches": self.switch_count,
            "total_events": self.total_events,
            "trace_digest": self.trace_digest(),
            "timeline_digest": self.timeline_digest(),
            "report_digest": self.report_digest(),
            "phases": [
                {
                    "index": p.index,
                    "mode": p.mode,
                    "iterations": p.iterations,
                    "start_ps": fs_to_ps(p.start_fs),
                    "span_ps": fs_to_ps(p.phase_fs),
                    "transition_after_ps": fs_to_ps(p.transition_after_fs),
                }
                for p in self.phases
            ],
        }

    def format_listing(self) -> str:
        lines = [
            f"Multi-mode application: {self.application} "
            f"({len(self.mode_runs)} mode(s), {len(self.phases)} phase(s), "
            f"{self.switch_count} switch(es), engine: {self.engine})",
            "",
            f"{'#':>3} {'mode':<24} {'iter':>5} {'span (us)':>12} "
            f"{'switch (us)':>12}",
        ]
        for phase in self.phases:
            lines.append(
                f"{phase.index:>3} {phase.mode:<24} {phase.iterations:>5} "
                f"{fs_to_us(phase.phase_fs):>12.2f} "
                f"{fs_to_us(phase.transition_after_fs):>12.2f}"
            )
        lines.append("")
        lines.append(
            f"Transition total: {fs_to_us(self.transition_total_fs):.2f} us "
            f"over {self.switch_count} switch(es)"
        )
        return "\n".join(lines)


def _resolve_spec(
    platform_or_spec: Union[SegBusPlatform, PlatformSpec],
) -> PlatformSpec:
    if isinstance(platform_or_spec, PlatformSpec):
        return platform_or_spec
    return PlatformSpec.from_platform(platform_or_spec)


def _check_placement(
    application: MultiModeApplication, spec: PlatformSpec
) -> None:
    """Every scheduled mode's processes must be placed on the platform."""
    for mode_name in application.scheduled_modes():
        graph = application.modes[mode_name]
        unplaced = sorted(
            name
            for name in graph.process_names
            if name not in spec.placement
        )
        if unplaced:
            raise ModeError(
                f"{application.name}: mode {mode_name!r} has unplaced "
                f"process(es) {', '.join(unplaced)} — the shared platform "
                "must map the union of every mode's processes"
            )


def run_multimode_detailed(
    application: MultiModeApplication,
    platform_or_spec: Union[SegBusPlatform, PlatformSpec],
    config: Optional[EmulationConfig] = None,
    engine: Optional[str] = None,
) -> Tuple[MultiModeReport, Dict[str, _Measurement]]:
    """Like :func:`run_multimode`, but also returns the live per-mode sims.

    The measurements feed the MODE-1 oracle's per-phase conservation and
    law checks; ordinary callers want :func:`run_multimode`.
    """
    # local import: analysis.analytic imports emulator submodules, so a
    # module-level import here would cycle through the package __init__
    # (same shape as diagnose_contention's lazy emulator import, reversed)
    from repro.analysis.analytic import (
        resolved_phase_iterations,
        transition_delay_fs,
    )

    application.validate_for_run()
    spec = _resolve_spec(platform_or_spec)
    _check_placement(application, spec)
    config = config or EmulationConfig()
    resolved = resolve_engine(engine)
    cls = simulation_class(resolved)

    runs: Dict[str, ModeRun] = {}
    measurements: Dict[str, _Measurement] = {}
    for mode_name in application.scheduled_modes():
        graph = application.modes[mode_name]
        tracer = Tracer()
        sim = cls(graph, spec, config, tracer=tracer).run()
        report = build_report(sim)
        runs[mode_name] = ModeRun(
            mode=mode_name,
            report=report,
            trace_digest=tracer.digest(),
            events=len(tracer),
            executed=sim.queue.executed,
            kind_counts=tracer.kind_counts(),
            iteration_fs=sim.execution_time_fs(),
        )
        measurements[mode_name] = _Measurement(sim, tracer)

    iterations = resolved_phase_iterations(application, spec, config)
    switch_fs = transition_delay_fs(application, spec)

    phases = []
    cursor = 0
    schedule = application.schedule.phases
    for index, (phase, count) in enumerate(zip(schedule, iterations)):
        phase_fs = count * runs[phase.mode].iteration_fs
        switches = (
            index + 1 < len(schedule)
            and schedule[index + 1].mode != phase.mode
        )
        transition_after = switch_fs if switches else 0
        phases.append(
            PhaseExecution(
                index=index,
                mode=phase.mode,
                iterations=count,
                start_fs=cursor,
                phase_fs=phase_fs,
                transition_after_fs=transition_after,
            )
        )
        cursor += phase_fs + transition_after

    transition_total = sum(p.transition_after_fs for p in phases)
    report = MultiModeReport(
        application=application.name,
        engine=resolved,
        phases=tuple(phases),
        mode_runs=runs,
        transition_total_fs=transition_total,
        execution_time_fs=cursor,
    )
    return report, measurements


def run_multimode(
    application: MultiModeApplication,
    platform_or_spec: Union[SegBusPlatform, PlatformSpec],
    config: Optional[EmulationConfig] = None,
    engine: Optional[str] = None,
) -> MultiModeReport:
    """Execute a multi-mode application and compose the per-mode runs.

    ``engine`` selects the simulation kernel for every per-mode run
    (default honours ``SEGBUS_ENGINE``); the composed digests are
    engine-invariant whenever the single-mode engines are equivalent,
    which the MODE-1 oracle enforces.
    """
    report, _ = run_multimode_detailed(
        application, platform_or_spec, config=config, engine=engine
    )
    return report
