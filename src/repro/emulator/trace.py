"""Event tracing and VCD waveform export.

The paper's emulator reports aggregate counters; for debugging a
configuration it helps to see *when* things happened.  Two facilities:

* :class:`Tracer` — an optional event recorder handed to
  :class:`~repro.emulator.kernel.Simulation`; the kernel emits one
  :class:`TraceEvent` per semantic transition (process fired, package
  granted, transfer/fill/hop completed, package delivered, circuit
  granted).  Events are in strict time order and cheap to filter.
* :func:`export_vcd` — renders a finished simulation as a Value Change
  Dump: one busy wire per segment bus, one occupancy byte per BU, one
  active wire per process, plus the CA circuit count.  Any VCD viewer
  (GTKWave etc.) then shows the platform timeline — the interactive
  version of the paper's Fig. 11.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.emulator.kernel import Simulation
from repro.units import fs_to_ps


@dataclass(frozen=True)
class TraceEvent:
    """One semantic event of the emulation."""

    time_fs: int
    kind: str
    subject: str
    detail: str = ""

    @property
    def time_ps(self) -> int:
        return fs_to_ps(self.time_fs)


#: event kinds emitted by the kernel, in rough lifecycle order; the kinds
#: after "process_done" only appear under fault injection (docs/ROBUSTNESS.md)
EVENT_KINDS = (
    "fire",
    "request",
    "grant",
    "transfer_done",
    "circuit_grant",
    "fill_done",
    "hop_done",
    "deliver",
    "process_done",
    "nack",
    "retry",
    "grant_loss",
    "fu_stall",
    "bu_drop",
    "timeout",
    "abandon",
    "element_failed",
)


@dataclass
class Tracer:
    """Ordered event recorder (attach via ``make_simulation(..., tracer=...)``)."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, time_fs: int, kind: str, subject: str, detail: str = "") -> None:
        self.events.append(TraceEvent(time_fs, kind, subject, detail))

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> Tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def about(self, subject: str) -> Tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.subject == subject)

    def format_log(self, limit: Optional[int] = None) -> str:
        """Human-readable event log (``time_ps kind subject detail``)."""
        rows = self.events[:limit] if limit else self.events
        return "\n".join(
            f"{e.time_ps:>12} ps  {e.kind:<13} {e.subject:<10} {e.detail}"
            for e in rows
        )

    # -- deterministic digests ------------------------------------------------

    def canonical_lines(self) -> Tuple[str, ...]:
        """The trace as canonical text: one ``time_fs kind subject detail``
        line per event, in emission order.

        This is the normative serialization behind :meth:`digest` — two runs
        of the same model must produce identical canonical lines, byte for
        byte, regardless of process, platform or hash seed.  The golden-trace
        store and the determinism regression tests both pin it.
        """
        return tuple(
            f"{e.time_fs} {e.kind} {e.subject} {e.detail}".rstrip()
            for e in self.events
        )

    def digest(self) -> str:
        """SHA-256 over :meth:`canonical_lines` (hex)."""
        payload = "\n".join(self.canonical_lines()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def kind_counts(self) -> Dict[str, int]:
        """Event count per kind (sorted by kind) — the readable summary a
        golden-digest mismatch is explained with."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# VCD export
# ---------------------------------------------------------------------------

_VCD_IDS = (
    "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"
)


def _changes_from_intervals(
    intervals: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Collapse possibly-overlapping busy intervals into 0/1 value changes."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged: List[List[int]] = [list(ordered[0])]
    for start, end in ordered[1:]:
        if start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    changes: List[Tuple[int, int]] = []
    for start, end in merged:
        changes.append((start, 1))
        changes.append((end, 0))
    return changes


def export_vcd(
    sim: Simulation,
    path: Optional[Union[str, Path]] = None,
    module: str = "segbus",
) -> str:
    """Render a finished simulation as VCD text; optionally write it.

    Scalar wires: ``segmentN_busy`` and ``<process>_active``; 8-bit vectors:
    ``buLR_occupancy``; 16-bit vector: ``ca_circuits``.
    """
    ids = iter(_VCD_IDS)
    header: List[str] = [
        "$date generated by repro.emulator.trace $end",
        "$version repro SegBus emulator $end",
        "$timescale 1ps $end",
        f"$scope module {module} $end",
    ]
    signals: Dict[str, Tuple[str, int]] = {}  # name -> (vcd id, width)

    def declare(name: str, width: int = 1) -> str:
        vcd_id = next(ids)
        signals[name] = (vcd_id, width)
        kind = "wire" if width == 1 else "reg"
        header.append(f"$var {kind} {width} {vcd_id} {name} $end")
        return vcd_id

    changes: Dict[int, List[str]] = {}

    def emit(time_fs: int, vcd_id: str, value: int, width: int) -> None:
        time_ps = fs_to_ps(time_fs)
        if width == 1:
            text = f"{value}{vcd_id}"
        else:
            text = f"b{value:b} {vcd_id}"
        changes.setdefault(time_ps, []).append(text)

    for index in sorted(sim.segments):
        segment = sim.segments[index]
        vcd_id = declare(f"segment{index}_busy")
        emit(0, vcd_id, 0, 1)
        for t, v in _changes_from_intervals(segment.counters.busy_intervals):
            emit(t, vcd_id, v, 1)

    for pair in sorted(sim.bus_units):
        bu = sim.bus_units[pair]
        vcd_id = declare(f"{bu.name.lower()}_occupancy", width=8)
        emit(0, vcd_id, 0, 8)
        # occupancy toggles at each recorded busy interval boundary: the BU
        # holds the package between its load end and unload end
        loads = sorted(bu.counters.busy_intervals)
        depth = 0
        events: List[Tuple[int, int]] = []
        for start, end in loads:
            events.append((start, +1))
            events.append((end, -1))
        for t, delta in sorted(events):
            depth = max(0, depth + delta)
            emit(t, vcd_id, depth, 8)

    for name in sorted(sim.process_counters):
        counters = sim.process_counters[name]
        vcd_id = declare(f"{name}_active")
        emit(0, vcd_id, 0, 1)
        if counters.start_fs is not None:
            emit(counters.start_fs, vcd_id, 1, 1)
        if counters.end_fs is not None:
            emit(max(counters.end_fs, counters.start_fs or 0), vcd_id, 0, 1)

    ca_id = declare("ca_circuits", width=16)
    emit(0, ca_id, 0, 16)
    level = 0
    ca_events: List[Tuple[int, int]] = []
    for start, end in sim.ca.counters.active_intervals:
        ca_events.append((start, +1))
        ca_events.append((end, -1))
    for t, delta in sorted(ca_events):
        level = max(0, level + delta)
        emit(t, ca_id, level, 16)

    header.append("$upscope $end")
    header.append("$enddefinitions $end")

    body: List[str] = []
    for time_ps in sorted(changes):
        body.append(f"#{time_ps}")
        body.extend(changes[time_ps])
    end_ps = fs_to_ps(max(sim.global_end_fs, 1))
    if not changes or max(changes) < end_ps:
        body.append(f"#{end_ps}")

    text = "\n".join(header + body) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
