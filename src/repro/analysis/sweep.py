"""Parameter sweeps over platform configurations.

The emulator's purpose is comparing configurations early (section 1); these
drivers run the same application across package sizes or segment counts and
collect (estimated, actual, accuracy) triples — the machinery behind
benchmarks A1/A2 and the paper's 36-vs-18 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.campaign import Variant
from repro.analysis.executor import CampaignExecutor, ExecutorPolicy
from repro.model.elements import SegBusPlatform
from repro.model.mapping import Allocation, map_application
from repro.psdf.graph import PSDFGraph
from repro.reference.accuracy import AccuracyResult, compare_estimate_to_reference

PlatformFactory = Callable[[int], SegBusPlatform]

#: one sweep sample before it runs: (label, parameter, platform)
_Point = Tuple[str, int, SegBusPlatform]


def _run_accuracy_point(variant: Variant) -> AccuracyResult:
    """Compare one point's estimate with its reference run (worker-side).

    :func:`~repro.reference.accuracy.compare_estimate_to_reference` runs
    both fidelities, so the variant's own configuration is not read.
    """
    return compare_estimate_to_reference(
        variant.application, variant.platform, label=variant.name
    )


def _sweep(
    application: PSDFGraph,
    points: Sequence[_Point],
    workers: Optional[int],
    executor_policy: Optional[ExecutorPolicy],
    checkpoint_dir,
    checkpoint_name: Optional[str],
    resume: bool,
) -> Tuple[SweepPoint, ...]:
    """Run one comparison per point and zip the results back into points.

    Platforms are built in the parent (factories and frequency callables
    need not pickle); each point runs as one
    :class:`~repro.analysis.campaign.Variant`.
    """
    executor = CampaignExecutor(
        _run_accuracy_point,
        policy=executor_policy,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_name=checkpoint_name,
        resume=resume,
    )
    batch = executor.run(
        [Variant(label, application, platform) for label, _, platform in points]
    ).raise_on_failure(what="sweep point")
    return tuple(
        SweepPoint(parameter=parameter, result=result)
        for (_label, parameter, _platform), result in zip(points, batch.results)
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
    points = [
        (f"s={size}", size, platform_factory(size)) for size in package_sizes
    ]
    return _sweep(
        application,
        points,
        workers,
        executor_policy,
        checkpoint_dir,
        checkpoint_name,
        resume,
    )


def frequency_sweep(
    application: PSDFGraph,
    allocation: Allocation,
    base_frequencies_mhz: Sequence[float],
    ca_frequency_mhz: float,
    package_size: int,
    scales: Sequence[float],
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
    points: List[_Point] = []
    for scale in scales:
        frequencies = [mhz * scale for mhz in base_frequencies_mhz]
        psm = map_application(
            application,
            allocation,
            segment_frequencies_mhz=frequencies,
            ca_frequency_mhz=ca_frequency_mhz,
            package_size=package_size,
        )
        points.append((f"x{scale:g}", int(round(scale * 100)), psm.platform))
    return _sweep(
        application,
        points,
        workers,
        executor_policy,
        checkpoint_dir,
        checkpoint_name,
        resume,
    )


def segment_count_sweep(
    application: PSDFGraph,
    allocations: Sequence[Allocation],
    segment_frequencies_mhz: Callable[[int], Sequence[float]],
    ca_frequency_mhz: float,
    package_size: int,
    workers: Optional[int] = None,
    executor_policy: Optional[ExecutorPolicy] = None,
    checkpoint_dir=None,
    checkpoint_name: Optional[str] = None,
    resume: bool = False,
) -> Tuple[SweepPoint, ...]:
    """Run the application on each allocation (one per segment count)."""
    points: List[_Point] = []
    for allocation in allocations:
        count = allocation.segment_count
        psm = map_application(
            application,
            allocation,
            segment_frequencies_mhz=segment_frequencies_mhz(count),
            ca_frequency_mhz=ca_frequency_mhz,
            package_size=package_size,
        )
        points.append((f"{count} segment(s)", count, psm.platform))
    return _sweep(
        application,
        points,
        workers,
        executor_policy,
        checkpoint_dir,
        checkpoint_name,
        resume,
    )
