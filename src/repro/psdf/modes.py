"""Multi-mode PSDF applications with transition-delay accounting.

A single PSDF graph describes one steady-state *mode* of an application.
Real streaming systems switch between flow sets at runtime — an MP3
decoding phase followed by a JPEG one, a low-power profile alternating
with a burst profile.  Jung/Oh/Ha's multi-mode dataflow work (PAPERS.md)
gives the semantic template this module reproduces on SegBus:

* a :class:`MultiModeApplication` holds N named per-mode
  :class:`~repro.psdf.graph.PSDFGraph` flow sets plus a
  :class:`ModeSchedule` — the ordered phases the platform executes;
* each :class:`ModePhase` runs its mode for a number of completed graph
  iterations, or dwells for a minimum number of CA ticks (the switch
  point is then resolved against the contention-free analytic iteration
  time — a *static* schedule decision, so every engine and estimator
  counts iterations identically, see :func:`resolve_iterations`);
* a :class:`TransitionSpec` charges the mode-switch cost: in-flight
  packages drain (every engine finishes the iteration — the kernels
  refuse to end with queued packages, so drainage is structural, not
  hopeful), the BU FIFOs flush (``flush_ticks_per_bu`` per border unit)
  and the platform reconfigures (``reconfig_ticks``), all in CA ticks.

Mode semantics deliberately compose *complete iterations*: the SegBus
schedule ROM is per-mode, so a switch can only happen on an iteration
boundary after the bus has drained — exactly the points where the
kernel's end-of-run invariants (empty BU queues, all processes done)
already hold.  That makes the per-phase behaviour of the stepped and
fast engines byte-identical by construction, which the two-way ENG-1
oracle then enforces on the composed trace digests.

This module is pure data + arithmetic: the execution composition lives
in :mod:`repro.emulator.multimode`, the estimate composition in
:mod:`repro.analysis.analytic` / :mod:`repro.analysis.stochastic`, and
the static checks in :mod:`repro.lint.rules_modes` (``SB230``–``SB234``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ModeError
from repro.psdf.graph import PSDFGraph


@dataclass(frozen=True)
class TransitionSpec:
    """The cost of one mode switch, in CA clock ticks.

    ``reconfig_ticks`` charges the platform reconfiguration (schedule ROM
    swap, arbiter reset); ``flush_ticks_per_bu`` charges flushing one
    border-unit FIFO — the total flush is linear in the number of BUs the
    platform actually has.  A zero spec makes multi-mode composition
    degenerate to back-to-back single-mode runs (pinned by the property
    suite).
    """

    reconfig_ticks: int = 0
    flush_ticks_per_bu: int = 0

    def __post_init__(self) -> None:
        if self.reconfig_ticks < 0:
            raise ModeError(
                f"reconfig_ticks must be non-negative, got {self.reconfig_ticks}"
            )
        if self.flush_ticks_per_bu < 0:
            raise ModeError(
                "flush_ticks_per_bu must be non-negative, got "
                f"{self.flush_ticks_per_bu}"
            )

    @property
    def is_zero(self) -> bool:
        return self.reconfig_ticks == 0 and self.flush_ticks_per_bu == 0

    def delay_ticks(self, bu_count: int) -> int:
        """CA ticks one switch costs on a platform with ``bu_count`` BUs."""
        if bu_count < 0:
            raise ModeError(f"bu_count must be non-negative, got {bu_count}")
        return self.reconfig_ticks + self.flush_ticks_per_bu * bu_count


@dataclass(frozen=True)
class ModePhase:
    """One schedule entry: run ``mode`` until its switch point.

    The switch point is either ``iterations`` completed graph iterations,
    or — when ``min_dwell_ticks`` is set — whichever is later of
    ``iterations`` and the iteration count covering that many CA ticks
    (:func:`resolve_iterations`).  Values are stored permissively so lint
    (``SB234``) can diagnose degenerate phases with a stable rule id;
    :meth:`MultiModeApplication.validate_for_run` raises on them instead.
    """

    mode: str
    iterations: int = 1
    min_dwell_ticks: Optional[int] = None

    @property
    def is_degenerate(self) -> bool:
        """True when the phase can never resolve to at least one iteration."""
        if self.iterations < 0:
            return True
        if self.min_dwell_ticks is not None and self.min_dwell_ticks < 0:
            return True
        return self.iterations == 0 and self.min_dwell_ticks is None


def resolve_iterations(
    phase: ModePhase, iteration_fs: int, ca_period_fs: int
) -> int:
    """The effective iteration count of ``phase``.

    ``iteration_fs`` is the duration of one complete mode iteration and
    ``ca_period_fs`` the CA clock period.  Tick-based switch points
    (``min_dwell_ticks``) resolve against the *analytic* iteration time
    everywhere — emulator and estimators alike — so the resolution is a
    deterministic, engine-independent schedule decision rather than a
    runtime race.
    """
    if phase.is_degenerate:
        raise ModeError(
            f"phase for mode {phase.mode!r} is degenerate "
            f"(iterations={phase.iterations}, "
            f"min_dwell_ticks={phase.min_dwell_ticks})"
        )
    if phase.min_dwell_ticks is None:
        return phase.iterations
    if iteration_fs <= 0:
        raise ModeError(
            f"mode {phase.mode!r}: non-positive iteration time "
            f"{iteration_fs} fs cannot resolve a dwell-based switch point"
        )
    dwell_fs = phase.min_dwell_ticks * ca_period_fs
    covering = -(-dwell_fs // iteration_fs)  # ceil
    return max(phase.iterations, int(covering), 1)


@dataclass(frozen=True)
class ModeSchedule:
    """The ordered mode-switch schedule plus the per-switch cost."""

    phases: Tuple[ModePhase, ...]
    transition: TransitionSpec = field(default_factory=TransitionSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))

    @classmethod
    def seeded(
        cls,
        seed: int,
        mode_names: Sequence[str],
        phase_count: Optional[int] = None,
        min_iterations: int = 1,
        max_iterations: int = 3,
        transition: Optional[TransitionSpec] = None,
        dwell_probability: float = 0.0,
        max_dwell_ticks: int = 1024,
    ) -> "ModeSchedule":
        """A reproducible random schedule covering every mode.

        The first ``len(mode_names)`` phases are a seeded shuffle of the
        mode list (so no mode is unreachable, keeping ``SB232`` quiet);
        extra phases up to ``phase_count`` are drawn uniformly.  With
        ``dwell_probability`` > 0 some phases switch on a tick dwell
        instead of a fixed iteration count.  Uses the stdlib PRNG — the
        PSDF layer stays numpy-free.
        """
        names = list(mode_names)
        if not names:
            raise ModeError("a seeded schedule needs at least one mode name")
        rnd = random.Random(seed)
        order = names[:]
        rnd.shuffle(order)
        total = phase_count if phase_count is not None else len(order)
        while len(order) < total:
            order.append(rnd.choice(names))
        phases = []
        for mode in order:
            iterations = rnd.randint(min_iterations, max_iterations)
            dwell = None
            if max_dwell_ticks > 0 and rnd.random() < dwell_probability:
                dwell = rnd.randint(1, max_dwell_ticks)
            phases.append(
                ModePhase(mode=mode, iterations=iterations, min_dwell_ticks=dwell)
            )
        return cls(
            phases=tuple(phases),
            transition=transition if transition is not None else TransitionSpec(),
        )

    def scheduled_modes(self) -> Tuple[str, ...]:
        """Distinct modes in order of first appearance."""
        seen: Dict[str, None] = {}
        for phase in self.phases:
            seen.setdefault(phase.mode, None)
        return tuple(seen)

    def switch_count(self) -> int:
        """Transitions charged: consecutive phases whose mode differs."""
        return sum(
            1
            for previous, current in zip(self.phases, self.phases[1:])
            if previous.mode != current.mode
        )


@dataclass(frozen=True, eq=False)
class MultiModeApplication:
    """N per-mode PSDF flow sets plus the schedule switching between them.

    Like :class:`~repro.psdf.graph.PSDFGraph`, instances hash by identity
    (``eq=False``) so the estimators' per-graph caches apply per mode.
    Construction is permissive — lint (``SB230``–``SB234``) diagnoses
    ill-formed instances with stable rule ids; :meth:`validate_for_run`
    raises :class:`~repro.errors.ModeError` before any execution.
    """

    name: str
    modes: Mapping[str, PSDFGraph]
    schedule: ModeSchedule

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", dict(self.modes))

    @property
    def mode_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.modes))

    def mode(self, name: str) -> PSDFGraph:
        try:
            return self.modes[name]
        except KeyError:
            raise ModeError(
                f"{self.name}: no mode named {name!r}; defined: "
                f"{', '.join(self.mode_names) or '(none)'}"
            ) from None

    def scheduled_modes(self) -> Tuple[str, ...]:
        return self.schedule.scheduled_modes()

    def unreachable_modes(self) -> Tuple[str, ...]:
        """Defined modes the schedule never enters, sorted."""
        scheduled = set(self.schedule.scheduled_modes())
        return tuple(sorted(set(self.modes) - scheduled))

    def process_names(self) -> Tuple[str, ...]:
        """The union of every mode's process names, sorted."""
        names = set()
        for graph in self.modes.values():
            names.update(graph.process_names)
        return tuple(sorted(names))

    def validate_for_run(self) -> None:
        """Raise :class:`ModeError` unless the application can execute."""
        if not self.modes:
            raise ModeError(f"{self.name}: no modes defined")
        if not self.schedule.phases:
            raise ModeError(f"{self.name}: the mode schedule is empty")
        for index, phase in enumerate(self.schedule.phases):
            if phase.mode not in self.modes:
                raise ModeError(
                    f"{self.name}: phase {index} references undefined mode "
                    f"{phase.mode!r}; defined: {', '.join(self.mode_names)}"
                )
            if phase.is_degenerate:
                raise ModeError(
                    f"{self.name}: phase {index} ({phase.mode!r}) is "
                    f"degenerate (iterations={phase.iterations}, "
                    f"min_dwell_ticks={phase.min_dwell_ticks})"
                )
        for mode_name in self.scheduled_modes():
            if not self.modes[mode_name].flows:
                raise ModeError(
                    f"{self.name}: scheduled mode {mode_name!r} has an "
                    "empty flow set"
                )

    def union_graph(self) -> PSDFGraph:
        """One graph holding every mode's processes and flows.

        Only meaningful when the modes' flow sets are disjoint enough to
        coexist (e.g. disjoint process sets, as in the MP3↔JPEG two-phase
        application) — it is the graph a shared platform is mapped from,
        never a graph that executes.
        """
        processes: Dict[str, object] = {}
        flows = []
        for mode_name in sorted(self.modes):
            graph = self.modes[mode_name]
            for process in graph.processes:
                processes.setdefault(process.name, process)
            flows.extend(graph.flows)
        return PSDFGraph(
            tuple(processes.values()), tuple(flows), name=f"{self.name}_union"
        )
