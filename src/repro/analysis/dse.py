"""Design-space exploration: the designer's decision loop of Fig. 3.

*"After the analysis of the returned results, the designer is able to decide
whether the emulated configuration will be optimal or not for the target
application, and can change the platform configuration before moving to
lower levels of the design process."*  :func:`explore_design_space`
automates the loop: enumerate candidate configurations (segment counts ×
package sizes × allocations), emulate each, and rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.executor import CampaignExecutor, ExecutorPolicy
from repro.emulator.config import EmulationConfig
from repro.emulator.emulator import emulate
from repro.emulator.report import EmulationReport
from repro.model.elements import SegBusPlatform
from repro.model.mapping import Allocation, map_application
from repro.placement.placetool import PlaceTool
from repro.psdf.graph import PSDFGraph


@dataclass(frozen=True)
class DesignPoint:
    """One candidate configuration with its emulated performance.

    ``estimated_us`` carries the stochastic pre-estimate when the
    exploration ran with ``estimator_prune`` (None otherwise).
    """

    segment_count: int
    package_size: int
    allocation: Allocation
    allocation_source: str
    report: EmulationReport
    estimated_us: Optional[float] = None

    @property
    def execution_time_us(self) -> float:
        return self.report.execution_time_us


@dataclass(frozen=True)
class _CandidateJob:
    """One fully-mapped candidate, picklable for the executor.

    The platform is mapped in the parent — ``segment_frequencies_mhz``
    is an arbitrary callable and need not pickle — so the worker only
    emulates.
    """

    label: str
    application: PSDFGraph
    platform: SegBusPlatform
    config: Optional[EmulationConfig] = field(default=None)


def _run_candidate(job: _CandidateJob) -> EmulationReport:
    return emulate(job.application, job.platform, config=job.config)


def explore_design_space(
    application: PSDFGraph,
    segment_counts: Sequence[int],
    package_sizes: Sequence[int],
    segment_frequencies_mhz: Callable[[int], Sequence[float]],
    ca_frequency_mhz: float,
    extra_allocations: Optional[Sequence[Tuple[str, Allocation]]] = None,
    config: Optional[EmulationConfig] = None,
    place_tool: Optional[PlaceTool] = None,
    workers: Optional[int] = None,
    executor_policy: Optional[ExecutorPolicy] = None,
    checkpoint_dir=None,
    checkpoint_name: Optional[str] = None,
    resume: bool = False,
    estimator_prune: Optional[int] = None,
) -> Tuple[DesignPoint, ...]:
    """Emulate every candidate configuration; return points sorted best-first.

    For each segment count an allocation is produced by the PlaceTool;
    ``extra_allocations`` adds hand-made candidates (e.g. the paper's
    Fig. 9 rows) labelled by name.  The candidate grid runs through the
    supervised campaign executor: ``workers`` fans it out,
    ``executor_policy`` adds per-candidate timeout/retries, and
    ``checkpoint_dir``/``resume`` let an interrupted exploration pick up
    where it stopped.

    ``estimator_prune`` turns on the fast inner loop: every candidate is
    first ranked by the stochastic contention estimate
    (:func:`repro.analysis.stochastic.stochastic_estimate`, microseconds
    per candidate) and only the best ``estimator_prune`` survivors are
    emulated — the estimator prunes, the engines confirm.  Returned points
    then carry their ``estimated_us``.
    """
    tool = place_tool or PlaceTool()
    candidates: List[Tuple[str, Allocation]] = []
    for count in segment_counts:
        solved = tool.solve(application, count)
        candidates.append((f"placetool[{solved.solver}]", solved.allocation()))
    for label, allocation in extra_allocations or ():
        candidates.append((label, allocation))

    grid: List[Tuple[str, Allocation, int, _CandidateJob]] = []
    for label, allocation in candidates:
        count = allocation.segment_count
        for size in package_sizes:
            psm = map_application(
                application,
                allocation,
                segment_frequencies_mhz=segment_frequencies_mhz(count),
                ca_frequency_mhz=ca_frequency_mhz,
                package_size=size,
            )
            grid.append(
                (
                    label,
                    allocation,
                    size,
                    _CandidateJob(
                        label=f"{label}|s{count}|p{size}",
                        application=application,
                        platform=psm.platform,
                        config=config,
                    ),
                )
            )

    estimates: List[Optional[float]] = [None] * len(grid)
    if estimator_prune is not None:
        if estimator_prune < 1:
            raise ValueError(
                f"estimator_prune must be >= 1, got {estimator_prune}"
            )
        from repro.analysis.stochastic import stochastic_estimate
        from repro.emulator.kernel import PlatformSpec

        for index, (_label, _allocation, _size, job) in enumerate(grid):
            estimates[index] = stochastic_estimate(
                job.application,
                PlatformSpec.from_platform(job.platform),
                job.config or EmulationConfig(),
            ).execution_time_us
        ranked = sorted(range(len(grid)), key=lambda i: estimates[i])
        survivors = sorted(ranked[:estimator_prune])
        grid = [grid[i] for i in survivors]
        estimates = [estimates[i] for i in survivors]

    executor = CampaignExecutor(
        _run_candidate,
        policy=executor_policy,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_name=checkpoint_name,
        resume=resume,
    )
    batch = executor.run([job for _, _, _, job in grid])
    batch.raise_on_failure(what="design point")

    points: List[DesignPoint] = []
    for (label, allocation, size, _job), report, estimated in zip(
        grid, batch.results, estimates
    ):
        points.append(
            DesignPoint(
                segment_count=allocation.segment_count,
                package_size=size,
                allocation=allocation,
                allocation_source=label,
                report=report,
                estimated_us=estimated,
            )
        )
    return tuple(sorted(points, key=lambda p: p.execution_time_us))
