"""Experiment campaigns: declarative grids, persistent results, exports.

The paper's methodology is comparative — run the same application over many
platform configurations and choose.  A :class:`Campaign` makes that loop a
first-class object: declare the variants, run them once, then export the
result table as CSV, Markdown or JSON for the design log.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.executor import CampaignExecutor, ExecutorPolicy
from repro.analysis.power import PowerCoefficients, estimate_power
from repro.emulator.config import EmulationConfig
from repro.emulator.emulator import SegBusEmulator
from repro.errors import SegBusError
from repro.model.elements import SegBusPlatform
from repro.psdf.graph import PSDFGraph


@dataclass(frozen=True)
class Variant:
    """One campaign point: a named (application, platform, config) triple.

    ``fault_plan``/``retry_policy`` optionally run the variant under fault
    injection (see :mod:`repro.faults`) — the reliability sweeps build their
    grids out of such variants.
    """

    name: str
    application: PSDFGraph
    platform: SegBusPlatform
    config: EmulationConfig = field(default_factory=EmulationConfig)
    fault_plan: Optional[object] = None
    retry_policy: Optional[object] = None


@dataclass(frozen=True)
class VariantResult:
    """The measured row for one variant."""

    name: str
    segment_count: int
    package_size: int
    execution_time_us: float
    total_events: int
    inter_segment_packages: int
    total_energy_au: float
    average_power_au_per_us: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "segment_count": self.segment_count,
            "package_size": self.package_size,
            "execution_time_us": round(self.execution_time_us, 3),
            "total_events": self.total_events,
            "inter_segment_packages": self.inter_segment_packages,
            "total_energy_au": round(self.total_energy_au, 1),
            "average_power_au_per_us": round(self.average_power_au_per_us, 3),
        }


COLUMNS = (
    "name",
    "segment_count",
    "package_size",
    "execution_time_us",
    "total_events",
    "inter_segment_packages",
    "total_energy_au",
    "average_power_au_per_us",
)


@dataclass(frozen=True)
class _VariantTask:
    """One variant plus the campaign's power model, picklable."""

    variant: Variant
    coefficients: PowerCoefficients

    @property
    def label(self) -> str:
        return self.variant.name


def _run_variant(task: _VariantTask) -> VariantResult:
    """Emulate one variant and measure its power (worker-side)."""
    variant = task.variant
    emulator = SegBusEmulator.from_models(
        variant.application,
        variant.platform,
        config=variant.config,
        fault_plan=variant.fault_plan,
        retry_policy=variant.retry_policy,
    )
    report = emulator.run()
    power = estimate_power(emulator.simulation, task.coefficients)
    return VariantResult(
        name=variant.name,
        segment_count=report.segment_count,
        package_size=report.package_size,
        execution_time_us=report.execution_time_us,
        total_events=report.total_events,
        inter_segment_packages=report.total_inter_segment_packages(),
        total_energy_au=power.total_energy,
        average_power_au_per_us=power.average_power,
    )


class Campaign:
    """A batch of emulation variants with uniform result reporting."""

    def __init__(
        self,
        name: str,
        power_coefficients: Optional[PowerCoefficients] = None,
    ) -> None:
        self.name = name
        self.power_coefficients = power_coefficients or PowerCoefficients()
        self._variants: List[Variant] = []
        self._results: Optional[List[VariantResult]] = None

    def add(
        self,
        name: str,
        application: PSDFGraph,
        platform: SegBusPlatform,
        config: Optional[EmulationConfig] = None,
        fault_plan=None,
        retry_policy=None,
    ) -> "Campaign":
        if any(v.name == name for v in self._variants):
            raise SegBusError(f"duplicate variant name {name!r}")
        self._variants.append(
            Variant(
                name,
                application,
                platform,
                config or EmulationConfig(),
                fault_plan=fault_plan,
                retry_policy=retry_policy,
            )
        )
        self._results = None
        return self

    def add_grid(
        self,
        application: PSDFGraph,
        platform_factory: Callable[[int], SegBusPlatform],
        package_sizes: Sequence[int],
        label: str = "s",
    ) -> "Campaign":
        """Add one variant per package size from a factory."""
        for size in package_sizes:
            self.add(f"{label}{size}", application, platform_factory(size))
        return self

    @property
    def variant_names(self) -> List[str]:
        return [v.name for v in self._variants]

    def run(
        self,
        workers: Optional[int] = None,
        executor_policy: Optional[ExecutorPolicy] = None,
        checkpoint_dir=None,
        checkpoint_name: Optional[str] = None,
        resume: bool = False,
    ) -> List[VariantResult]:
        """Run every variant (cached) and return the result rows.

        Runs through the supervised campaign executor: ``workers``
        parallelizes the grid, ``executor_policy`` adds per-variant
        timeout/retries, and ``checkpoint_dir``/``resume`` make an
        interrupted campaign continue from its journal.  Any variant
        that exhausts its retries raises
        :class:`~repro.analysis.executor.JobError` (with partial
        results attached); the cache stays empty so a fixed rerun
        re-executes.
        """
        if self._results is None:
            if not self._variants:
                raise SegBusError(f"campaign {self.name!r} has no variants")
            tasks = [
                _VariantTask(variant, self.power_coefficients)
                for variant in self._variants
            ]
            executor = CampaignExecutor(
                _run_variant,
                policy=executor_policy,
                workers=workers,
                checkpoint_dir=checkpoint_dir,
                checkpoint_name=checkpoint_name,
                resume=resume,
            )
            batch = executor.run(tasks).raise_on_failure(what="variant")
            self._results = list(batch.results)
        return list(self._results)

    def best(self, key: str = "execution_time_us") -> VariantResult:
        """The winning variant under ``key`` (smaller is better)."""
        if key not in COLUMNS:
            raise SegBusError(f"unknown result column {key!r}")
        return min(self.run(), key=lambda r: getattr(r, key))

    # -- exports -----------------------------------------------------------------

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        for result in self.run():
            writer.writerow(result.as_dict())
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_markdown(self) -> str:
        rows = [r.as_dict() for r in self.run()]
        header = "| " + " | ".join(COLUMNS) + " |"
        rule = "|" + "|".join("---" for _ in COLUMNS) + "|"
        body = [
            "| " + " | ".join(str(row[c]) for c in COLUMNS) + " |"
            for row in rows
        ]
        return "\n".join([header, rule] + body)

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        payload = {
            "campaign": self.name,
            "results": [r.as_dict() for r in self.run()],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text
