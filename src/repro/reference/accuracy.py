"""Estimated-vs-actual accuracy comparison (paper section 4's experiments).

The paper quotes accuracy as ``estimated / actual`` (95 % for s = 36, ~93 %
for s = 18, just below 95 % for the moved-P9 configuration), with the
estimate always below the actual time.  :func:`compare_estimate_to_reference`
runs both fidelities on one configuration and packages the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.emulator.config import EmulationConfig
from repro.emulator.emulator import emulate
from repro.emulator.kernel import PlatformSpec
from repro.emulator.report import EmulationReport
from repro.model.elements import SegBusPlatform
from repro.psdf.graph import PSDFGraph
from repro.reference.refsim import ReferenceSimulator


@dataclass(frozen=True)
class AccuracyResult:
    """One row of the accuracy table."""

    label: str
    estimated_report: EmulationReport
    actual_report: EmulationReport

    @property
    def estimated_us(self) -> float:
        return self.estimated_report.execution_time_us

    @property
    def actual_us(self) -> float:
        return self.actual_report.execution_time_us

    @property
    def accuracy(self) -> float:
        """``estimated / actual`` — the paper's precision figure."""
        return self.estimated_us / self.actual_us

    @property
    def error(self) -> float:
        """Relative estimation error ``(actual - estimated) / actual``."""
        return 1.0 - self.accuracy

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.label}: estimated {self.estimated_us:.2f} us, "
            f"actual {self.actual_us:.2f} us, accuracy {self.accuracy:.1%}"
        )


def compare_estimate_to_reference(
    application: PSDFGraph,
    platform: Union[SegBusPlatform, PlatformSpec],
    label: str = "experiment",
    reference_config: Optional[EmulationConfig] = None,
) -> AccuracyResult:
    """Run the emulator and the reference simulator on one configuration.

    ``platform`` is either model input of
    :func:`~repro.emulator.emulator.emulate`.
    """
    return AccuracyResult(
        label=label,
        estimated_report=emulate(
            application, platform, EmulationConfig.emulator()
        ),
        actual_report=ReferenceSimulator(config=reference_config).execute(
            application, platform
        ),
    )
