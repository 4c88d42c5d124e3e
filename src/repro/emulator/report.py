"""The emulation report: the paper's results listing as a structured object.

Upon completion *"the emulator returns results from platform elements'
execution: total clock ticks consumed for the operation of the CA and each
of the SAs, total inter-segment requests received, total clock ticks
consumed by each of the BUs, etc."* (section 3.6).  :class:`EmulationReport`
captures every number of the paper's section-4 listing and renders the same
text layout via :meth:`format_listing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import List, Optional, Tuple

from repro.emulator.kernel import Simulation
from repro.emulator.timeline import ProcessTimeline, build_timeline
from repro.units import fs_to_ps, fs_to_us


@dataclass(frozen=True)
class SAResult:
    """Per-segment-arbiter results block."""

    index: int
    tct: int
    intra_requests: int
    inter_requests: int
    packets_to_left: int
    packets_to_right: int
    frequency_mhz: float
    execution_time_ps: int
    # resilience protocol counters (zero on fault-free runs)
    nacks: int = 0
    retries: int = 0
    grant_losses: int = 0

    @property
    def name(self) -> str:
        return f"SA{self.index}"


@dataclass(frozen=True)
class BUResult:
    """Per-border-unit results block."""

    left: int
    right: int
    input_packages: int
    output_packages: int
    received_from_left: int
    received_from_right: int
    transferred_to_left: int
    transferred_to_right: int
    tct: int
    waiting_ticks: int
    #: packages lost to injected BU overruns (zero on fault-free runs)
    dropped_packages: int = 0

    @property
    def name(self) -> str:
        return f"BU{self.left}{self.right}"


@dataclass(frozen=True)
class EmulationReport:
    """Everything the emulator reports for one run."""

    application: str
    segment_count: int
    package_size: int
    ca_tct: int
    ca_requests: int
    ca_frequency_mhz: float
    ca_time_ps: int
    sa_results: Tuple[SAResult, ...]
    bu_results: Tuple[BUResult, ...]
    timeline: ProcessTimeline
    execution_time_fs: int
    total_events: int
    # -- resilience results (all at their zero/empty defaults on fault-free
    # runs, keeping fault-free reports bit-identical to the pre-fault ones)
    ca_nacks: int = 0
    ca_retries: int = 0
    ca_grant_losses: int = 0
    ca_timeouts: int = 0
    degraded: bool = False
    unserved_flows: Tuple[str, ...] = ()
    fault_summary: Optional[dict] = None

    # -- headline numbers ---------------------------------------------------------

    @property
    def execution_time_ps(self) -> int:
        return fs_to_ps(self.execution_time_fs)

    @property
    def execution_time_us(self) -> float:
        return fs_to_us(self.execution_time_fs)

    def sa(self, index: int) -> SAResult:
        for result in self.sa_results:
            if result.index == index:
                return result
        raise KeyError(f"no SA{index}")

    def bu(self, left: int, right: int) -> BUResult:
        for result in self.bu_results:
            if (result.left, result.right) == (left, right):
                return result
        raise KeyError(f"no BU{left}{right}")

    @property
    def total_retries(self) -> int:
        """Re-arbitrated attempts across all arbiters (0 without faults)."""
        return self.ca_retries + sum(sa.retries for sa in self.sa_results)

    @property
    def total_nacks(self) -> int:
        """CRC-style rejections across all arbiters (0 without faults)."""
        return self.ca_nacks + sum(sa.nacks for sa in self.sa_results)

    @property
    def total_dropped_packages(self) -> int:
        """Packages lost to injected BU overruns (0 without faults)."""
        return sum(bu.dropped_packages for bu in self.bu_results)

    def total_inter_segment_packages(self) -> int:
        """Packages that crossed at least one BU (counted at first BU entry)."""
        firsts = 0
        for result in self.bu_results:
            firsts += result.received_from_left + result.received_from_right
        # Every crossing counts once per BU; packages entering from segments
        # equal the inter-segment package count only on the first BU of each
        # path, so derive from SA counters instead.
        return sum(r.inter_requests for r in self.sa_results)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """The full report as plain data (for JSON archival / comparison)."""
        return {
            "application": self.application,
            "segment_count": self.segment_count,
            "package_size": self.package_size,
            "execution_time_ps": self.execution_time_ps,
            "execution_time_us": round(self.execution_time_us, 6),
            "total_events": self.total_events,
            "degraded": self.degraded,
            "unserved_flows": list(self.unserved_flows),
            "fault_summary": self.fault_summary,
            "ca": {
                "tct": self.ca_tct,
                "inter_requests": self.ca_requests,
                "frequency_mhz": self.ca_frequency_mhz,
                "time_ps": self.ca_time_ps,
                "nacks": self.ca_nacks,
                "retries": self.ca_retries,
                "grant_losses": self.ca_grant_losses,
                "timeouts": self.ca_timeouts,
            },
            "segment_arbiters": [
                {
                    "index": sa.index,
                    "tct": sa.tct,
                    "intra_requests": sa.intra_requests,
                    "inter_requests": sa.inter_requests,
                    "packets_to_left": sa.packets_to_left,
                    "packets_to_right": sa.packets_to_right,
                    "frequency_mhz": sa.frequency_mhz,
                    "execution_time_ps": sa.execution_time_ps,
                    "nacks": sa.nacks,
                    "retries": sa.retries,
                    "grant_losses": sa.grant_losses,
                }
                for sa in self.sa_results
            ],
            "border_units": [
                {
                    "name": bu.name,
                    "input_packages": bu.input_packages,
                    "output_packages": bu.output_packages,
                    "received_from_left": bu.received_from_left,
                    "received_from_right": bu.received_from_right,
                    "transferred_to_left": bu.transferred_to_left,
                    "transferred_to_right": bu.transferred_to_right,
                    "tct": bu.tct,
                    "waiting_ticks": bu.waiting_ticks,
                    "dropped_packages": bu.dropped_packages,
                }
                for bu in self.bu_results
            ],
            "timeline": [
                {
                    "process": entry.process,
                    "start_ps": entry.start_ps,
                    "end_ps": entry.end_ps,
                    "packages_sent": entry.packages_sent,
                    "packages_received": entry.packages_received,
                }
                for entry in self.timeline
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON string."""
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (hex).

        Pins every reported counter at once; the golden-trace store uses it
        next to the trace and timeline digests so counter drift is caught
        even when the event stream is unchanged.  The hashed text is
        ``to_json(indent=0)``'s, emitted by :func:`_emit_json`.
        """
        import hashlib

        parts: List[str] = []
        _emit_json(self.to_dict(), parts)
        return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()

    # -- presentation -----------------------------------------------------------

    def format_listing(self) -> str:
        """Render the paper's section-4 results listing."""
        lines: List[str] = []
        for entry in self.timeline:
            if entry.packages_sent:
                lines.append(
                    f"{entry.process}, Start Time = {entry.start_ps}ps, "
                    f"End Time = {entry.end_ps}ps"
                )
        for entry in self.timeline:
            if not entry.packages_sent and entry.last_input_fs is not None:
                lines.append(
                    f"{entry.process} received last package at "
                    f"{fs_to_ps(entry.last_input_fs)}ps"
                )
        lines.append(f"CA TCT = {self.ca_tct}")
        lines.append(
            f"Execution time = {self.execution_time_ps}ps @ "
            f"{self.ca_frequency_mhz:.2f}MHz"
        )
        for bu in self.bu_results:
            lines.append(f"{bu.name}:")
            lines.append(f"    Total input packages = {bu.input_packages},")
            lines.append(f"    Total output packages = {bu.output_packages}")
            lines.append(
                f"    Package Received from Segment {bu.left} = "
                f"{bu.received_from_left},"
            )
            lines.append(
                f"    Package Transfered to Segment {bu.left} = "
                f"{bu.transferred_to_left}"
            )
            lines.append(
                f"    Package Received from Segment {bu.right} = "
                f"{bu.received_from_right},"
            )
            lines.append(
                f"    Package Transfered to Segment {bu.right} = "
                f"{bu.transferred_to_right}"
            )
            lines.append(f"    TCT = {bu.tct}")
        for sa in self.sa_results:
            lines.append(
                f"Segment {sa.index}: Packets transfered to Left = "
                f"{sa.packets_to_left}, Packets transfered to Right = "
                f"{sa.packets_to_right}"
            )
        for sa in self.sa_results:
            lines.append(f"{sa.name}: TCT = {sa.tct},")
            lines.append(
                f"    Total intra-segment requests = {sa.intra_requests},"
            )
            lines.append(
                f"    Total inter-segment requests = {sa.inter_requests}"
            )
            lines.append(
                f"    Execution Time = {sa.execution_time_ps}ps @ "
                f"{sa.frequency_mhz:.2f}MHz"
            )
        # resilience addendum — only rendered when faults were injected, so
        # fault-free listings stay byte-identical to the paper's layout
        if self.total_nacks or self.total_retries or self.ca_grant_losses \
                or self.ca_timeouts or self.total_dropped_packages \
                or self.degraded or self.fault_summary:
            lines.append(
                f"Resilience: NACKs = {self.total_nacks}, "
                f"Retries = {self.total_retries}, "
                f"Timeouts = {self.ca_timeouts}, "
                f"Dropped = {self.total_dropped_packages}"
            )
            if self.fault_summary:
                lines.append(
                    f"Injected faults = {self.fault_summary.get('total', 0)} "
                    f"(seed {self.fault_summary.get('seed')})"
                )
            if self.degraded:
                lines.append(
                    f"DEGRADED run: {len(self.unserved_flows)} unserved flow(s)"
                )
                for flow in self.unserved_flows:
                    lines.append(f"    {flow}")
        return "\n".join(lines)


def build_report(sim: Simulation) -> EmulationReport:
    """Assemble the report from a finished :class:`Simulation`."""
    sa_results = []
    for index in sorted(sim.segments):
        segment = sim.segments[index]
        sa_results.append(
            SAResult(
                index=index,
                tct=sim.sa_tct(index),
                intra_requests=segment.counters.intra_requests,
                inter_requests=segment.counters.inter_requests,
                packets_to_left=segment.counters.packets_to_left,
                packets_to_right=segment.counters.packets_to_right,
                frequency_mhz=segment.clock.frequency.mhz,
                execution_time_ps=fs_to_ps(sim.sa_time_fs(index)),
                nacks=segment.counters.nacks,
                retries=segment.counters.retries,
                grant_losses=segment.counters.grant_losses,
            )
        )
    bu_results = []
    for pair in sorted(sim.bus_units):
        bu = sim.bus_units[pair]
        bu_results.append(
            BUResult(
                left=bu.left,
                right=bu.right,
                input_packages=bu.counters.input_packages,
                output_packages=bu.counters.output_packages,
                received_from_left=bu.counters.received_from_left,
                received_from_right=bu.counters.received_from_right,
                transferred_to_left=bu.counters.transferred_to_left,
                transferred_to_right=bu.counters.transferred_to_right,
                tct=bu.counters.tct,
                waiting_ticks=bu.counters.waiting_ticks,
                dropped_packages=bu.counters.dropped_packages,
            )
        )
    return EmulationReport(
        application=sim.application.name,
        segment_count=sim.spec.segment_count,
        package_size=sim.package_size,
        ca_tct=sim.ca.counters.tct,
        ca_requests=sim.ca.counters.inter_requests,
        ca_frequency_mhz=sim.ca.clock.frequency.mhz,
        ca_time_ps=fs_to_ps(sim.ca_time_fs()),
        sa_results=tuple(sa_results),
        bu_results=tuple(bu_results),
        timeline=build_timeline(sim),
        execution_time_fs=sim.execution_time_fs(),
        total_events=sim.queue.executed,
        ca_nacks=sim.ca.counters.nacks,
        ca_retries=sim.ca.counters.retries,
        ca_grant_losses=sim.ca.counters.grant_losses,
        ca_timeouts=sim.ca.counters.timeouts,
        degraded=sim.degraded,
        unserved_flows=sim.unserved_flows,
        # only attach a summary when a fault actually fired: a zero-rate
        # plan must produce a report bit-identical to the fault-free one
        fault_summary=(
            sim.faults.summary()
            if sim.faults is not None and sim.faults.counters.total > 0
            else None
        ),
    )


_INFINITY = float("inf")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _emit_json(value, parts: List[str]) -> None:
    """Append ``json.dumps(value, indent=0, sort_keys=True)``'s text.

    The same text, byte for byte, but without the standard library's
    indenting encoder: that encoder is pure Python, and its nested
    closures form a reference cycle on every call, which only the cyclic
    collector frees.  This emitter is one plain recursive function.
    """
    if isinstance(value, str):
        parts.append(_json_string(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        parts.append("[\n")
        for index, item in enumerate(value):
            if index:
                parts.append(",\n")
            _emit_json(item, parts)
        parts.append("\n]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        parts.append("{\n")
        for index, (key, item) in enumerate(sorted(value.items())):
            if index:
                parts.append(",\n")
            parts.append(_json_string(_json_key(key)))
            parts.append(": ")
            _emit_json(item, parts)
        parts.append("\n}")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )
