"""Per-layer metrics and the stage table, computed from a traced phase.

An *op* is a timed request (serve) or an emulated model (sweep); the
spans of one op hang under one root: the request's
``SegbusService.submit`` span, or the sweep's library-call span (whose
models share it).  Every ``*_ms`` metric is self time per op, except
``serve.validate_ms`` (the whole admission check, its XML parses
included), ``serve.queue_wait_ms`` (``validate_job`` end to
``execute_job`` start) and ``serve.transport_ms`` (client round trip
minus ``SegbusService.submit``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from tracer import END, NAME, START, VALUE, roots, self_times

XML_PARSE = ("parse_psdf_xml", "parse_psm_xml", "parse_fault_plan_xml")
XML_WRITE = ("psdf_to_xml", "psm_to_xml")
LINT = ("lint_models", "lint_multimode")
KERNEL = ("Simulation.__init__", "Simulation.run", "FastSimulation.__init__")
REPORT = ("build_report", "EmulationReport.to_dict", "EmulationReport.digest")

#: metric -> (statistic, span names); statistic is per op
SPAN_METRICS: Dict[str, Tuple[str, Sequence[str]]] = {
    "serve.parse_job_ms": ("self", ("parse_job",)),
    "serve.cache_key_ms": ("self", ("cache_key",)),
    "serve.validate_ms": ("incl", ("validate_job",)),
    "serve.encode_ms": ("self", ("response_bytes",)),
    "xmlio.parse_calls": ("calls", XML_PARSE),
    "xmlio.parse_ms": ("self", XML_PARSE),
    "xmlio.write_calls": ("calls", XML_WRITE),
    "xmlio.write_ms": ("self", XML_WRITE),
    "lint.calls": ("calls", LINT),
    "lint.ms": ("self", LINT),
    "psdf.graph_ms": ("self", ("ParsedPSDF.to_graph",)),
    "psdf.matrix_ms": ("self", ("build_communication_matrix",)),
    "model.spec_ms": (
        "self", ("PlatformSpec.from_parsed_psm", "PlatformSpec.from_platform"),
    ),
    "model.map_ms": ("self", ("map_application",)),
    "placement.solve_ms": ("self", ("PlaceTool.solve",)),
    "emulator.report_ms": ("self", REPORT),
    "analysis.estimate_ms": ("self", ("stochastic_estimate",)),
    "analysis.executor_ms": ("self", ("CampaignExecutor.run",)),
}

class TracedPhase:
    """Spans of one traced phase grouped under their op roots."""

    def __init__(self, dump: Dict, root_indices: List[int], root_walls: List[float], ops: int):
        self.spans = dump["spans"]
        self.selfs = self_times(self.spans)
        self.root_of = roots(self.spans)
        self.root_indices = root_indices
        self.root_walls = root_walls
        self.ops = ops
        wanted = set(root_indices)
        self.members = [i for i in range(len(self.spans)) if self.root_of[i] in wanted]
        self.by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in self.members:
            entry = self.by_name[self.spans[i][NAME]]
            entry[0] += 1
            entry[1] += self.selfs[i]
            entry[2] += self.spans[i][END] - self.spans[i][START]
        self.queue_waits = [w for i, w in dump["queue_waits"] if self.root_of[i] in wanted]

    def stat(self, statistic: str, names: Sequence[str]) -> float:
        column = {"calls": 0, "self": 1, "incl": 2}[statistic]
        total = sum(self.by_name[n][column] for n in names if n in self.by_name)
        scale = 1.0 if statistic == "calls" else 1e3
        return total * scale / self.ops

    def values(self, names: Sequence[str]) -> List:
        return [self.spans[i][VALUE] for i in self.members
                if self.spans[i][NAME] in names and self.spans[i][VALUE] is not None]

    def nest_problems(self) -> List[str]:
        problems = []
        negative = [i for i in self.members if self.selfs[i] < -1e-9]
        if negative:
            problems.append(f"{len(negative)} span(s) with negative self time")
        per_root: Dict[int, float] = defaultdict(float)
        for i in self.members:
            per_root[self.root_of[i]] += self.selfs[i]
        for root, wall in zip(self.root_indices, self.root_walls):
            if per_root[root] > wall + 1e-6:
                problems.append(
                    f"op root {root}: self times {per_root[root] * 1e3:.3f} ms "
                    f"exceed the traced wall {wall * 1e3:.3f} ms"
                )
                break
        return problems

    def layer_metrics(self) -> Dict[str, float]:
        metrics = {name: self.stat(stat, names) for name, (stat, names) in SPAN_METRICS.items()}
        events = sum(self.values(("Simulation.run",)))
        kernel_s = sum(self.by_name[n][1] for n in KERNEL if n in self.by_name)
        runs = self.by_name["Simulation.run"][0] if "Simulation.run" in self.by_name else 0
        executor = self.values(("CampaignExecutor.run",))
        metrics.update({
            "emulator.events": events / self.ops,
            "emulator.kernel_ns_per_event": kernel_s * 1e9 / events if events else 0.0,
            "emulator.kernel_runs_per_model": runs / self.ops,
            "analysis.retries": float(sum(v[0] for v in executor)),
            "analysis.failures": float(sum(v[1] for v in executor)),
            "serve.queue_wait_ms": sum(self.queue_waits) * 1e3 / self.ops,
        })
        return metrics

    def stage_table(self) -> str:
        wall = sum(self.root_walls)
        rows = sorted(self.by_name.items(), key=lambda kv: -kv[1][1])
        lines = [
            f"{'stage':34} {'calls/op':>9} {'self ms/op':>11} {'share':>7}",
        ]
        for name, (calls, self_s, _incl) in rows:
            lines.append(
                f"{name:34} {calls / self.ops:9.3f} {self_s * 1e3 / self.ops:11.4f} "
                f"{100.0 * self_s / wall:6.2f}%"
            )
        return "\n".join(lines)
