"""The reference simulator: the emulator kernel at full timing fidelity.

Runs the identical protocol model with
:meth:`repro.emulator.config.EmulationConfig.reference` — the configuration
that enables every timing factor the paper's emulator skips (section 3.6's
"we didn't include ..." list).  Its execution time stands in for the
"actual execution time" measured on the FPGA platform in section 4.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.emulator.config import EmulationConfig
from repro.emulator.emulator import emulate
from repro.emulator.kernel import PlatformSpec
from repro.emulator.report import EmulationReport
from repro.model.elements import SegBusPlatform
from repro.psdf.graph import PSDFGraph


class ReferenceSimulator:
    """High-fidelity runs standing in for the real SegBus platform.

    ``config`` defaults to :meth:`EmulationConfig.reference`; pass a custom
    one to study the sensitivity of individual penalty knobs (benchmark A3).
    """

    def __init__(self, config: Optional[EmulationConfig] = None) -> None:
        self.config = config or EmulationConfig.reference()

    def execute(
        self,
        application: PSDFGraph,
        platform: Union[SegBusPlatform, PlatformSpec],
    ) -> EmulationReport:
        """Run the application at reference fidelity and return the report."""
        return emulate(application, platform, self.config)


def reference_execute(
    application: PSDFGraph, platform: SegBusPlatform
) -> EmulationReport:
    """One-shot convenience with the default reference configuration."""
    return ReferenceSimulator().execute(application, platform)
