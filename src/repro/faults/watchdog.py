"""The progress watchdog: structured stall diagnostics.

The event queue drains on healthy models, so a hung emulation shows up as
one of two shapes: a *livelock* (events keep firing, simulated time keeps
advancing, but nothing retires — e.g. an arbitration loop that never
grants) or an exhausted event budget.  The watchdog converts the first
shape into a :class:`~repro.errors.StallError` carrying the stalled
elements, the pending jobs and the last-progress tick, instead of letting
the run burn through its whole event budget first.

Attach via ``make_simulation(..., watchdog=Watchdog(stall_ticks=...))``
or the facade's ``watchdog=`` parameter.  The kernel calls :meth:`observe` after
every executed event; the check itself runs every ``check_every`` events to
stay off the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultConfigError, StallError


@dataclass
class Watchdog:
    """Raise :class:`StallError` when no event retires for ``stall_ticks``.

    ``stall_ticks`` is measured on the CA clock — the platform's global
    timebase.  ``check_every`` trades detection latency for overhead.
    """

    stall_ticks: int = 100_000
    check_every: int = 256

    def __post_init__(self) -> None:
        if self.stall_ticks <= 0:
            raise FaultConfigError("stall_ticks must be positive")
        if self.check_every <= 0:
            raise FaultConfigError("check_every must be positive")
        self._events_seen = 0
        self._last_progress_count = -1
        self._last_progress_fs = 0

    def observe(self, sim) -> None:
        """Called by the kernel after each executed event."""
        self._events_seen += 1
        if self._events_seen % self.check_every:
            return
        progress = sim.progress_count
        now_fs = sim.queue.now_fs
        if progress != self._last_progress_count:
            self._last_progress_count = progress
            self._last_progress_fs = now_fs
            return
        limit_fs = sim.ca.clock.ticks_to_fs(self.stall_ticks)
        if now_fs - self._last_progress_fs <= limit_fs:
            return
        raise StallError(
            f"watchdog: no progress for more than {self.stall_ticks} CA "
            "ticks while events keep firing",
            pending=sim.pending_work(),
            last_progress_tick=sim.ca.clock.ticks(self._last_progress_fs),
            stalled_elements=sim.stalled_elements(),
        )
