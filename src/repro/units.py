"""Exact time and frequency arithmetic for multi-clock-domain simulation.

The SegBus platform runs every segment and the Central Arbiter in its own
clock domain (the paper's example uses 91, 98, 89 and 111 MHz).  To keep the
discrete-event simulation deterministic and free of floating-point ordering
artefacts, all simulation timestamps are integer **femtoseconds** and every
clock period is an integer number of femtoseconds::

    period_fs = round(1e15 / frequency_hz)

With 64-bit integers this supports simulations of ~106 days of simulated
time, far beyond any SegBus workload.  Reported values are converted to
picoseconds/microseconds only at the presentation layer, matching the
paper's output (e.g. ``P0, Start Time = 10989ps`` is exactly one 91 MHz
cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import FrequencyError

#: femtoseconds per second
FS_PER_SECOND = 10**15
#: femtoseconds per picosecond
FS_PER_PS = 1000
#: femtoseconds per microsecond
FS_PER_US = 10**9

MHZ = 10**6


def period_fs_from_hz(frequency_hz: float) -> int:
    """Return the clock period in femtoseconds for ``frequency_hz``.

    Raises :class:`~repro.errors.FrequencyError` unless the period is a
    finite whole number of at least 1 fs.

    >>> period_fs_from_hz(91e6)
    10989011
    """
    try:
        period = round(FS_PER_SECOND / frequency_hz)
    except (ZeroDivisionError, ValueError, OverflowError):  # zero, NaN, inf period
        period = 0
    if period < 1:
        raise FrequencyError(
            f"frequency {frequency_hz!r} Hz has no clock period of at least 1 fs"
        )
    return period


def fs_to_ps(t_fs: int) -> int:
    """Convert femtoseconds to whole picoseconds (paper's reporting unit)."""
    return t_fs // FS_PER_PS


def fs_to_us(t_fs: int) -> float:
    """Convert femtoseconds to microseconds (float, for report headlines)."""
    return t_fs / FS_PER_US


def ps_to_fs(t_ps: int) -> int:
    """Convert picoseconds to femtoseconds."""
    return t_ps * FS_PER_PS


@dataclass(frozen=True)
class Frequency:
    """A clock frequency with exact femtosecond period.

    Instances are immutable and hashable so they can key clock-domain
    dictionaries.

    >>> f = Frequency.from_mhz(91)
    >>> f.period_fs
    10989011
    >>> round(f.mhz, 2)
    91.0
    """

    hz: float

    def __post_init__(self) -> None:
        period_fs_from_hz(self.hz)  # refuses a frequency without a period

    @classmethod
    def from_mhz(cls, mhz: float) -> "Frequency":
        return cls(mhz * MHZ)

    @property
    def mhz(self) -> float:
        return self.hz / MHZ

    @cached_property
    def period_fs(self) -> int:
        return period_fs_from_hz(self.hz)

    @property
    def period_ps(self) -> float:
        return self.period_fs / FS_PER_PS

    def ticks_to_fs(self, ticks: int) -> int:
        """Duration of ``ticks`` whole cycles, in femtoseconds."""
        return ticks * self.period_fs

    def fs_to_ticks_ceil(self, t_fs: int) -> int:
        """Smallest number of whole cycles covering ``t_fs``."""
        period = self.period_fs
        return -(-t_fs // period)

    def next_edge_fs(self, t_fs: int) -> int:
        """First clock edge at or after ``t_fs`` (edges at multiples of the period)."""
        period = self.period_fs
        return -(-t_fs // period) * period

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mhz:.2f}MHz"
