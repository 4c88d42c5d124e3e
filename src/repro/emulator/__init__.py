"""The SegBus emulator: a deterministic discrete-event performance model.

This package is the reproduction of the paper's core contribution (sections
3.3–3.6): given a PSDF application and a PSM platform configuration, it
executes the application schedule on a model of the SegBus protocol and
reports per-element clock-tick counters, request counters, BU package
statistics, per-process progress and the total execution time
``max(t_SA1, ..., t_SAn, t_CA)``.

The paper's Java implementation runs one thread per platform element; we
replace the thread pool with a discrete-event kernel (one logical process
per element, integer-femtosecond timestamps, deterministic tie-breaking) —
same observable counters, no scheduling nondeterminism.  See DESIGN.md for
the normative timing semantics.

Public entry points:

* :class:`~repro.emulator.emulator.SegBusEmulator` — the facade
  (the paper's ``SegBusEmulatorView``): feed it XML schemes or model
  objects, call :meth:`run`, get an :class:`~repro.emulator.report.EmulationReport`.
* :class:`~repro.emulator.config.EmulationConfig` — fidelity knobs; the
  defaults reproduce the paper's emulator (skipped sync/grant factors),
  :meth:`~repro.emulator.config.EmulationConfig.reference` reproduces the
  "real platform" timing.

Resilience extensions (fault injection, retry/timeout protocol, watchdog,
graceful degradation) live in :mod:`repro.faults`; the facade and
:func:`emulate` accept ``fault_plan``/``retry_policy``/``watchdog`` knobs.
See docs/ROBUSTNESS.md.

Two tick-for-tick equivalent engines execute the model: the cycle-stepped
reference kernel (:mod:`repro.emulator.kernel`) and the event-driven fast
kernel (:mod:`repro.emulator.fastkernel`).  Select one with
``run(engine=...)``, the ``--engine`` CLI flag, or the ``SEGBUS_ENGINE``
environment variable.  See docs/PERFORMANCE.md.
"""

from repro.emulator.config import EmulationConfig
from repro.emulator.emulator import SegBusEmulator, emulate
from repro.emulator.fastkernel import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    ENGINE_NAMES,
    FastSimulation,
    make_simulation,
    resolve_engine,
)
from repro.emulator.multimode import (
    ModeRun,
    MultiModeReport,
    PhaseExecution,
    run_multimode,
)
from repro.emulator.report import EmulationReport
from repro.emulator.timeline import ProcessTimeline, TimelineEntry
from repro.emulator.activity import ActivitySeries, activity_series
from repro.emulator.trace import Tracer, TraceEvent, export_vcd

__all__ = [
    "EmulationConfig",
    "SegBusEmulator",
    "emulate",
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "ENGINE_NAMES",
    "FastSimulation",
    "make_simulation",
    "resolve_engine",
    "EmulationReport",
    "ModeRun",
    "MultiModeReport",
    "PhaseExecution",
    "run_multimode",
    "ProcessTimeline",
    "TimelineEntry",
    "ActivitySeries",
    "activity_series",
    "Tracer",
    "TraceEvent",
    "export_vcd",
]
