"""The discrete-event kernel's event queue.

A tiny deterministic priority queue: events are ordered by
``(time_fs, priority, sequence)`` — sequence is the insertion counter, so
ties resolve in scheduling order and two runs of the same model are
bit-identical.  Priorities let the kernel order same-instant phases: state
changes (deliveries, releases) commit before the Central Arbiter
re-examines its queue, which happens before local Segment Arbiter
arbitration (the CA "has the central role", section 2.1).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import EmulationError

#: Event priorities (lower runs first at equal timestamps).
PRIO_STATE = 0      # deliveries, bus releases, compute completions
PRIO_CA = 5         # central-arbiter queue examination
PRIO_SA = 6         # segment-arbiter local arbitration
PRIO_MONITOR = 9    # end-of-emulation bookkeeping

Action = Callable[[], None]


@dataclass(order=True)
class _Entry:
    time_fs: int
    priority: int
    sequence: int
    action: Action = field(compare=False)
    cancelled: bool = field(compare=False, default=False)


class EventQueue:
    """Deterministic min-heap of timed actions."""

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._counter = itertools.count()
        self._now_fs = 0
        self._executed = 0

    @property
    def now_fs(self) -> int:
        """Current simulation time (last popped event's timestamp)."""
        return self._now_fs

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def schedule(self, time_fs: int, action: Action, priority: int = PRIO_STATE) -> _Entry:
        """Enqueue ``action`` at ``time_fs``; returns a cancellable handle."""
        if time_fs < self._now_fs:
            raise EmulationError(
                f"cannot schedule event in the past: {time_fs} < now {self._now_fs}"
            )
        entry = _Entry(time_fs, priority, next(self._counter), action)
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: _Entry) -> None:
        """Mark a scheduled event as cancelled (lazily removed)."""
        entry.cancelled = True

    def clear(self) -> None:
        """Drop every pending event (a run that raised leaves some behind)."""
        self._heap.clear()

    def pop(self) -> Optional[Tuple[int, Action]]:
        """Remove and return the next live event, or None when drained."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.cancelled:
                continue
            self._now_fs = entry.time_fs
            self._executed += 1
            return entry.time_fs, entry.action
        return None

    def run(self, max_events: int = 50_000_000) -> int:
        """Execute events until the queue drains; returns the event count.

        ``max_events`` guards against runaway models (raises
        :class:`~repro.errors.EmulationError` when exceeded).
        """
        start = self._executed
        while True:
            if self._executed - start >= max_events:
                raise EmulationError(
                    f"event budget exhausted after {max_events} events at "
                    f"t={self._now_fs} fs — model livelock?"
                )
            item = self.pop()
            if item is None:
                return self._executed - start
            _, action = item
            action()
