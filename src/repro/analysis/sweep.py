"""Parameter sweeps over platform configurations.

The emulator's purpose is comparing configurations early (section 1); these
drivers run the same application across package sizes or segment counts and
collect (estimated, actual, accuracy) triples — the machinery behind
benchmarks A1/A2 and the paper's 36-vs-18 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.executor import CampaignExecutor, ExecutorPolicy
from repro.emulator.config import EmulationConfig
from repro.model.elements import SegBusPlatform
from repro.model.mapping import Allocation, map_application
from repro.psdf.graph import PSDFGraph
from repro.reference.accuracy import AccuracyResult, compare_estimate_to_reference

PlatformFactory = Callable[[int], SegBusPlatform]


@dataclass(frozen=True)
class _AccuracyJob:
    """One estimate-vs-reference comparison, picklable for the executor.

    Platforms are built in the parent (factories/frequency callables need
    not pickle); the worker runs both the estimation and the reference
    emulation and ships the :class:`AccuracyResult` back.
    """

    label: str
    parameter: int
    application: PSDFGraph
    platform: SegBusPlatform
    reference_config: Optional[EmulationConfig] = field(default=None)


def _run_accuracy_job(job: _AccuracyJob) -> AccuracyResult:
    return compare_estimate_to_reference(
        job.application,
        job.platform,
        label=job.label,
        reference_config=job.reference_config,
    )


def _sweep(
    jobs: Sequence[_AccuracyJob],
    workers: Optional[int],
    executor_policy: Optional[ExecutorPolicy],
    checkpoint_dir,
    checkpoint_name: Optional[str],
    resume: bool,
) -> Tuple[SweepPoint, ...]:
    """Run the prepared comparison jobs and zip results back into points."""
    executor = CampaignExecutor(
        _run_accuracy_job,
        policy=executor_policy,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_name=checkpoint_name,
        resume=resume,
    )
    batch = executor.run(list(jobs)).raise_on_failure(what="sweep point")
    return tuple(
        SweepPoint(parameter=job.parameter, result=result)
        for job, result in zip(jobs, batch.results)
    )


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the varied parameter plus the accuracy pair."""

    parameter: int
    result: AccuracyResult

    @property
    def estimated_us(self) -> float:
        return self.result.estimated_us

    @property
    def actual_us(self) -> float:
        return self.result.actual_us

    @property
    def accuracy(self) -> float:
        return self.result.accuracy


def package_size_sweep(
    application: PSDFGraph,
    platform_factory: PlatformFactory,
    package_sizes: Sequence[int],
    reference_config: Optional[EmulationConfig] = None,
    workers: Optional[int] = None,
    executor_policy: Optional[ExecutorPolicy] = None,
    checkpoint_dir=None,
    checkpoint_name: Optional[str] = None,
    resume: bool = False,
) -> Tuple[SweepPoint, ...]:
    """Run the application at each package size.

    ``platform_factory(s)`` must return the platform configured with package
    size ``s`` (allocation and clocks held fixed).  ``workers`` and the
    checkpoint parameters route the sweep through the supervised campaign
    executor (see :mod:`repro.analysis.executor`).
    """
    jobs = [
        _AccuracyJob(
            label=f"s={size}",
            parameter=size,
            application=application,
            platform=platform_factory(size),
            reference_config=reference_config,
        )
        for size in package_sizes
    ]
    return _sweep(
        jobs, workers, executor_policy, checkpoint_dir, checkpoint_name, resume
    )


def frequency_sweep(
    application: PSDFGraph,
    allocation: Allocation,
    base_frequencies_mhz: Sequence[float],
    ca_frequency_mhz: float,
    package_size: int,
    scales: Sequence[float],
    reference_config: Optional[EmulationConfig] = None,
    workers: Optional[int] = None,
    executor_policy: Optional[ExecutorPolicy] = None,
    checkpoint_dir=None,
    checkpoint_name: Optional[str] = None,
    resume: bool = False,
) -> Tuple[SweepPoint, ...]:
    """Scale every segment clock by each factor in ``scales``.

    The sweep parameter of the returned points is the scale in percent
    (so 1.25 appears as 125).  Used to find where the platform stops being
    compute-bound: beyond the knee, faster clocks stop paying off because
    inter-segment transfers and the CA dominate.
    """
    jobs: List[_AccuracyJob] = []
    for scale in scales:
        frequencies = [mhz * scale for mhz in base_frequencies_mhz]
        psm = map_application(
            application,
            allocation,
            segment_frequencies_mhz=frequencies,
            ca_frequency_mhz=ca_frequency_mhz,
            package_size=package_size,
        )
        jobs.append(
            _AccuracyJob(
                label=f"x{scale:g}",
                parameter=int(round(scale * 100)),
                application=application,
                platform=psm.platform,
                reference_config=reference_config,
            )
        )
    return _sweep(
        jobs, workers, executor_policy, checkpoint_dir, checkpoint_name, resume
    )


def segment_count_sweep(
    application: PSDFGraph,
    allocations: Sequence[Allocation],
    segment_frequencies_mhz: Callable[[int], Sequence[float]],
    ca_frequency_mhz: float,
    package_size: int,
    reference_config: Optional[EmulationConfig] = None,
    workers: Optional[int] = None,
    executor_policy: Optional[ExecutorPolicy] = None,
    checkpoint_dir=None,
    checkpoint_name: Optional[str] = None,
    resume: bool = False,
) -> Tuple[SweepPoint, ...]:
    """Run the application on each allocation (one per segment count)."""
    jobs: List[_AccuracyJob] = []
    for allocation in allocations:
        count = allocation.segment_count
        psm = map_application(
            application,
            allocation,
            segment_frequencies_mhz=segment_frequencies_mhz(count),
            ca_frequency_mhz=ca_frequency_mhz,
            package_size=package_size,
        )
        jobs.append(
            _AccuracyJob(
                label=f"{count} segment(s)",
                parameter=count,
                application=application,
                platform=psm.platform,
                reference_config=reference_config,
            )
        )
    return _sweep(
        jobs, workers, executor_policy, checkpoint_dir, checkpoint_name, resume
    )
