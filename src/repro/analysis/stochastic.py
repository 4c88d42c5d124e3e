"""Stochastic contention analysis: expected TCT *with* contention, statically.

:mod:`repro.analysis.analytic` deliberately assumes free buses, so its walk
lower-bounds the emulated time and the gap to emulation *is* the contention
cost.  This module closes that gap without simulating: following the
Stochastic Automata Network approach to SoC communication analysis (see
PAPERS.md, Deshmukh & Sahula), each shared resource — segment bus behind its
SA, the CA's package path, each BU FIFO — is modelled as an M/D/1-style
queue over the package-level transfer census the analytic walk already
computes.

For every resource the census yields the number of package grants ``n`` and
the total busy time in femtoseconds over the contention-free makespan
``T0``; from those, offered load ``ρ = busy/T0``, mean deterministic service
``D = busy/n``, the Pollaczek–Khinchine mean wait ``Wq = ρ·D / (2(1−ρ))``
and the mean queue depth ``Lq = λ·Wq`` follow in closed form
(:class:`QueueModel`).  The expected completion time charges that waiting
only where it can extend the makespan: for each transfer whose endpoints lie
on the analytic critical chain, each segment leg of its path pays the wait
induced by *cross* traffic (other flows' grants on that segment) — the
flow's own packages are already serialized by the walk.  By construction the
estimate never falls below the analytic lower bound; the ``SAN-1`` oracle
(:mod:`repro.testing.oracles`) pins its error band against the emulator on
the generated-model corpus, and docs/PERFORMANCE.md records the measured
accuracy and speedup.

Evaluation cost is one analytic walk plus one pass over the schedule —
microseconds, independent of how many ticks the platform would simulate —
which is what makes it usable as the pruning inner loop of placement search
(:meth:`repro.placement.PlaceTool.solve_estimated`) and DSE
(:func:`repro.analysis.dse.explore_design_space` with ``estimator_prune``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.analytic import (
    AnalyticEstimate,
    MultiModeAnalytic,
    PathTimings,
    analytic_estimate,
    analytic_estimate_multimode,
    critical_path,
    schedule_for,
)
from repro.emulator.config import EmulationConfig
from repro.emulator.kernel import PlatformSpec
from repro.psdf.graph import PSDFGraph
from repro.psdf.modes import MultiModeApplication
from repro.units import fs_to_us

#: version of the estimator's mathematics.  The serving result cache keys
#: estimate responses on this constant (docs/SERVING.md): bump it whenever
#: the queue model, the contention charge, or the critical-chain selection
#: changes an observable number, so a long-lived ``segbus serve`` process
#: can never replay an estimate produced by older math.
ESTIMATOR_VERSION = 1

#: utilizations are capped here before entering the 1/(1−ρ) pole, so an
#: overloaded resource reports a large-but-finite expected wait
RHO_CAP = 0.95

#: predicted est/analytic blow-up mirroring the ANA-2 emulated ceiling
CONTENTION_CEILING = 4.0

#: offered load above which the M/D/1 knee makes waits grow steeply —
#: the default threshold for the SB5xx saturation warnings (the lint-clean
#: generator corpus measures ρ ≤ 0.33, the paper platforms ≤ 0.20)
UTILIZATION_KNEE = 0.65


@dataclass(frozen=True)
class QueueModel:
    """One shared resource as an M/D/1 queue over the analytic makespan.

    ``arrivals`` package grants demand ``busy_fs`` femtoseconds of the
    resource inside the ``window_fs`` contention-free makespan; everything
    else is closed-form M/D/1 (deterministic service, Poisson-approximated
    arrivals).
    """

    name: str
    arrivals: int
    busy_fs: int
    window_fs: int

    @property
    def utilization(self) -> float:
        """Offered load ρ (uncapped — may exceed 1 when oversubscribed)."""
        if self.window_fs <= 0:
            return 0.0
        return self.busy_fs / self.window_fs

    @property
    def mean_service_fs(self) -> float:
        """Deterministic service time D of one package grant."""
        if self.arrivals <= 0:
            return 0.0
        return self.busy_fs / self.arrivals

    @property
    def mean_wait_fs(self) -> float:
        """Pollaczek–Khinchine mean queueing delay Wq = ρ·D / (2(1−ρ))."""
        if self.arrivals <= 0 or self.busy_fs <= 0 or self.window_fs <= 0:
            return 0.0
        rho = min(self.utilization, RHO_CAP)
        return rho * self.mean_service_fs / (2.0 * (1.0 - rho))

    @property
    def mean_queue_depth(self) -> float:
        """Little's law mean number waiting, Lq = λ·Wq."""
        if self.window_fs <= 0:
            return 0.0
        return (self.arrivals / self.window_fs) * self.mean_wait_fs

    def occupancy_distribution(self, max_occupancy: int = 8) -> Tuple[float, ...]:
        """P(n in system) for n = 0..max_occupancy (last entry = tail mass).

        A geometric surrogate matched to the M/D/1 mean number in system
        ``L = Lq + min(ρ, cap)`` — exact for M/M/1, a conservative shape
        for deterministic service.
        """
        if max_occupancy < 1:
            raise ValueError("max_occupancy must be >= 1")
        mean_in_system = self.mean_queue_depth + min(
            max(self.utilization, 0.0), RHO_CAP
        )
        if mean_in_system <= 0.0:
            return (1.0,) + (0.0,) * max_occupancy
        ratio = mean_in_system / (1.0 + mean_in_system)
        probabilities = [(1.0 - ratio) * ratio**n for n in range(max_occupancy)]
        probabilities.append(max(0.0, 1.0 - sum(probabilities)))
        return tuple(probabilities)

    def saturation_probability(self, depth: int) -> float:
        """P(more than ``depth`` packages in the system)."""
        if depth < 0:
            return 1.0
        distribution = self.occupancy_distribution(max_occupancy=depth + 1)
        return distribution[-1]


@dataclass(frozen=True)
class StochasticEstimate:
    """Expected completion time with contention plus the per-resource queues."""

    analytic: AnalyticEstimate
    contention_fs: int
    segments: Mapping[int, QueueModel]
    ca: QueueModel
    border_units: Mapping[Tuple[int, int], QueueModel]
    critical_chain: Tuple[str, ...]

    @property
    def analytic_fs(self) -> int:
        return self.analytic.execution_time_fs

    @property
    def analytic_us(self) -> float:
        return fs_to_us(self.analytic_fs)

    @property
    def execution_time_fs(self) -> int:
        """Expected TCT: the analytic lower bound plus expected waiting."""
        return self.analytic_fs + self.contention_fs

    @property
    def execution_time_us(self) -> float:
        return fs_to_us(self.execution_time_fs)

    @property
    def contention_us(self) -> float:
        return fs_to_us(self.contention_fs)

    @property
    def contention_ratio(self) -> float:
        """Predicted TCT over the contention-free bound (≥ 1 always)."""
        if self.analytic_fs <= 0:
            return 1.0
        return self.execution_time_fs / self.analytic_fs

    def hottest_segment(self) -> Optional[int]:
        """The segment with the highest offered load (None when all idle)."""
        loaded = [
            (model.utilization, index)
            for index, model in self.segments.items()
            if model.arrivals > 0
        ]
        if not loaded:
            return None
        return max(loaded)[1]


@dataclass(frozen=True)
class PlacementMove:
    """A single-process move predicted to relieve the hottest segment."""

    process: str
    from_segment: int
    to_segment: int
    predicted_saving_fs: int

    @property
    def predicted_saving_us(self) -> float:
        return fs_to_us(self.predicted_saving_fs)


def stochastic_estimate(
    application: PSDFGraph,
    spec: PlatformSpec,
    config: EmulationConfig = EmulationConfig(),
) -> StochasticEstimate:
    """Static expected-TCT estimate with contention (no simulation)."""
    schedule = schedule_for(application, spec.package_size)
    # one set of clocks and path timings serves the walk and the census
    timings = PathTimings(spec, config)
    analytic = analytic_estimate(
        application, spec, config, schedule=schedule, timings=timings
    )
    window = analytic.execution_time_fs
    clocks = timings.clocks
    placement = spec.placement
    bu_service_ticks = (
        config.bu_sampling_ticks + config.bu_sync_ticks + spec.package_size
    )

    segment_arrivals: Dict[int, int] = {index: 0 for index in clocks}
    segment_busy: Dict[int, int] = {index: 0 for index in clocks}
    bu_arrivals: Dict[Tuple[int, int], int] = {}
    bu_busy: Dict[Tuple[int, int], int] = {}
    ca_arrivals = 0
    ca_busy = 0
    #: per scheduled transfer: (source, target, packages, legs)
    census: List[Tuple[str, str, int, Tuple[Tuple[int, int], ...]]] = []
    for transfers in schedule.transfers_of.values():
        for transfer in transfers:
            source_seg = placement[transfer.source]
            target_seg = placement[transfer.target]
            timing = timings[(source_seg, target_seg)]
            packages = transfer.packages
            for segment, leg_fs in timing.legs:
                segment_arrivals[segment] += packages
                segment_busy[segment] += packages * leg_fs
            if source_seg != target_seg:
                # the CA holds the multi-segment path for the whole package
                ca_arrivals += packages
                ca_busy += packages * timing.duration_fs
                for left, right in zip(timing.path, timing.path[1:]):
                    pair = (min(left, right), max(left, right))
                    bu_arrivals[pair] = bu_arrivals.get(pair, 0) + packages
                    bu_busy[pair] = bu_busy.get(pair, 0) + packages * clocks[
                        right
                    ].ticks_to_fs(bu_service_ticks)
            census.append(
                (transfer.source, transfer.target, packages, timing.legs)
            )

    chain = critical_path(application, analytic) if analytic.completion_fs else ()
    on_chain = set(chain)
    contention = 0.0
    if window > 0:
        for source, target, packages, legs in census:
            # only waiting on the critical chain can extend the makespan
            if source not in on_chain or target not in on_chain:
                continue
            for segment, leg_fs in legs:
                # cross traffic only: the flow's own packages are already
                # serialized by the analytic walk, they never queue on
                # themselves
                other_arrivals = segment_arrivals[segment] - packages
                other_busy = segment_busy[segment] - packages * leg_fs
                if other_arrivals <= 0 or other_busy <= 0:
                    continue
                rho_other = min(other_busy / window, RHO_CAP)
                service_other = other_busy / other_arrivals
                rho_total = min(segment_busy[segment] / window, RHO_CAP)
                wait = rho_other * service_other / (2.0 * (1.0 - rho_total))
                contention += packages * wait

    return StochasticEstimate(
        analytic=analytic,
        contention_fs=int(round(contention)),
        segments={
            index: QueueModel(
                name=f"S{index}",
                arrivals=segment_arrivals[index],
                busy_fs=segment_busy[index],
                window_fs=window,
            )
            for index in sorted(clocks)
        },
        ca=QueueModel(
            name="CA", arrivals=ca_arrivals, busy_fs=ca_busy, window_fs=window
        ),
        border_units={
            pair: QueueModel(
                name=f"BU{pair[0]}-{pair[1]}",
                arrivals=bu_arrivals[pair],
                busy_fs=bu_busy[pair],
                window_fs=window,
            )
            for pair in sorted(bu_arrivals)
        },
        critical_chain=tuple(chain),
    )


def suggest_placement_move(
    application: PSDFGraph,
    spec: PlatformSpec,
    config: EmulationConfig = EmulationConfig(),
    estimate: Optional[StochasticEstimate] = None,
) -> Optional[PlacementMove]:
    """The single-process move off the hottest segment with the best
    predicted saving, or ``None`` when no move improves the estimate.

    Evaluates every (process on the hottest segment, other segment) pair
    through :func:`stochastic_estimate` — still microseconds per candidate,
    so the whole neighbourhood costs less than one emulation.
    """
    base = estimate if estimate is not None else stochastic_estimate(
        application, spec, config
    )
    hot = base.hottest_segment()
    if hot is None or spec.segment_count < 2:
        return None
    names = set(application.process_names)
    movable = sorted(
        process
        for process, segment in spec.placement.items()
        if segment == hot and process in names
    )
    best: Optional[PlacementMove] = None
    for process in movable:
        for target in range(1, spec.segment_count + 1):
            if target == hot:
                continue
            placement = dict(spec.placement)
            placement[process] = target
            candidate = replace(spec, placement=placement)
            try:
                moved = stochastic_estimate(application, candidate, config)
            except Exception:
                continue  # an invalid neighbour is just not a suggestion
            saving = base.execution_time_fs - moved.execution_time_fs
            if saving > 0 and (
                best is None or saving > best.predicted_saving_fs
            ):
                best = PlacementMove(
                    process=process,
                    from_segment=hot,
                    to_segment=target,
                    predicted_saving_fs=saving,
                )
    return best


# ---------------------------------------------------------------------------
# multi-mode composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiModeStochastic:
    """Per-mode stochastic estimates composed with transition charges.

    The composition law is identical to the analytic one (and to the
    emulator's): effective iterations times the per-mode estimate, plus
    one transition delay per mode switch.  Because the transition terms
    are shared exactly with :class:`MultiModeAnalytic`, the end-to-end
    relative error against emulation is bounded by the worst per-mode
    error — which is what lets SAN-1 hold both per mode and end to end.
    """

    analytic: MultiModeAnalytic
    per_mode: Mapping[str, StochasticEstimate]
    execution_time_fs: int

    @property
    def analytic_fs(self) -> int:
        return self.analytic.execution_time_fs

    @property
    def execution_time_us(self) -> float:
        return fs_to_us(self.execution_time_fs)

    @property
    def contention_fs(self) -> int:
        """Expected waiting summed over every phase iteration."""
        return self.execution_time_fs - self.analytic_fs

    @property
    def contention_us(self) -> float:
        return fs_to_us(self.contention_fs)


def stochastic_estimate_multimode(
    application: MultiModeApplication,
    spec: PlatformSpec,
    config: EmulationConfig = EmulationConfig(),
) -> MultiModeStochastic:
    """Static expected TCT of a multi-mode application (no simulation)."""
    analytic = analytic_estimate_multimode(application, spec, config)
    per_mode = {
        name: stochastic_estimate(application.modes[name], spec, config)
        for name in application.scheduled_modes()
    }
    execution = analytic.transition_total_fs + sum(
        count * per_mode[mode].execution_time_fs
        for mode, count in analytic.phases
    )
    return MultiModeStochastic(
        analytic=analytic,
        per_mode=per_mode,
        execution_time_fs=execution,
    )
