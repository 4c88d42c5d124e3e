"""Per-flow package latency analysis over emulation traces.

The paper's counters are aggregates; latency distributions answer the finer
question of *how long one package waits* between the master's bus request
and its delivery at the target — per flow, with percentiles.  This is the
quantitative view of the paper's "communication bottlenecks expressed as
the time one package has to wait" Discussion, taken beyond the BU-average.

Requires a traced run (``make_simulation(..., tracer=Tracer())``):
latencies are matched request→completion per flow label from the event
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.emulator.kernel import Simulation
from repro.emulator.trace import Tracer
from repro.errors import SegBusError
from repro.units import fs_to_us


@dataclass(frozen=True)
class FlowLatency:
    """Latency statistics for one flow (microseconds)."""

    source: str
    target: str
    packages: int
    mean_us: float
    p50_us: float
    p95_us: float
    max_us: float
    min_us: float

    @property
    def label(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass(frozen=True)
class LatencyReport:
    """Per-flow latency table for one traced run."""

    flows: Tuple[FlowLatency, ...]

    def flow(self, source: str, target: str) -> FlowLatency:
        for entry in self.flows:
            if (entry.source, entry.target) == (source, target):
                return entry
        raise KeyError(f"{source}->{target}")

    def worst(self, metric: str = "p95_us") -> FlowLatency:
        if not self.flows:
            raise SegBusError("no flows in latency report")
        return max(self.flows, key=lambda f: getattr(f, metric))

    def format_table(self) -> str:
        lines = [
            f"{'flow':<12} {'pkgs':>5} {'mean':>8} {'p50':>8} "
            f"{'p95':>8} {'max':>8}  (us)"
        ]
        for entry in sorted(self.flows, key=lambda f: -f.p95_us):
            lines.append(
                f"{entry.label:<12} {entry.packages:>5} {entry.mean_us:>8.3f} "
                f"{entry.p50_us:>8.3f} {entry.p95_us:>8.3f} {entry.max_us:>8.3f}"
            )
        return "\n".join(lines)


def _parse_label(detail: str) -> Optional[Tuple[str, str, int]]:
    if "#" not in detail or "->" not in detail:
        return None
    pair, seq = detail.split("#", 1)
    source, target = pair.split("->", 1)
    return source, target, int(seq.split("/", 1)[0])


def measure_latencies(sim: Simulation, tracer: Tracer) -> LatencyReport:
    """Match request→delivery events per package and aggregate per flow.

    A package's latency spans from the master's bus request (compute done)
    to the completion of its final bus occupation: the local transfer for
    intra-segment flows, the destination hop for inter-segment ones.
    """
    requests: Dict[Tuple[str, str, int], int] = {}
    latencies: Dict[Tuple[str, str], List[int]] = {}

    def finish(source: str, target: str, seq: int, t_fs: int) -> None:
        start = requests.pop((source, target, seq), None)
        if start is None:
            return
        latencies.setdefault((source, target), []).append(t_fs - start)

    for event in tracer.events:
        parsed = _parse_label(event.detail)
        if parsed is None:
            continue
        source, target, seq = parsed
        if event.kind == "request":
            requests[(source, target, seq)] = event.time_fs
        elif event.kind == "transfer_done":
            finish(source, target, seq, event.time_fs)
        elif event.kind == "hop_done":
            target_segment = sim.spec.placement[target]
            if event.subject in (
                f"BU{target_segment - 1}{target_segment}",
                f"BU{target_segment}{target_segment + 1}",
            ):
                finish(source, target, seq, event.time_fs)

    flows: List[FlowLatency] = []
    for (source, target), samples_fs in sorted(latencies.items()):
        samples = np.asarray([fs_to_us(v) for v in samples_fs], dtype=float)
        flows.append(
            FlowLatency(
                source=source,
                target=target,
                packages=int(samples.size),
                mean_us=float(samples.mean()),
                p50_us=float(np.percentile(samples, 50)),
                p95_us=float(np.percentile(samples, 95)),
                max_us=float(samples.max()),
                min_us=float(samples.min()),
            )
        )
    return LatencyReport(flows=tuple(flows))
