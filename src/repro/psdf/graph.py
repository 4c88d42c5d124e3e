"""The PSDF graph: processes plus packet flows, with well-formedness checks.

The graph is the unit handed to the M2T transformation (one ``complexType``
per process, one ``element`` per flow) and, together with a PSM, to the
emulator.  Validation enforces the PSDF definition of section 3.1:

* flow ``T`` values form a non-strict ascending chain once sorted — i.e. they
  are positive integers; equal values mark flows that may run concurrently;
* every flow's endpoints are declared processes;
* the graph is acyclic (SDF firing with "fire once all inputs arrived"
  semantics deadlocks on a cycle);
* declared ``InitialNode``/``FinalNode`` stereotypes match connectivity;
* a source emits at most one flow per (target, order) pair — the paper's
  side condition that flows of one source/destination pair are aggregated.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PSDFError
from repro.psdf.flow import FlowCost, PacketFlow
from repro.psdf.process import Process, ProcessKind


class PSDFGraph:
    """A validated Packet SDF application model.

    The constructor copies its inputs; a graph is immutable after
    construction, which lets the emulator and the placement tools share one
    instance freely.

    >>> g = PSDFGraph.from_edges([("P0", "P1", 576, 1, 250)])
    >>> g.flow("P0", "P1").data_items
    576
    """

    def __init__(
        self,
        processes: Iterable[Process],
        flows: Iterable[PacketFlow],
        name: str = "application",
    ) -> None:
        self.name = name
        self._processes: Dict[str, Process] = {}
        for proc in processes:
            if proc.name in self._processes:
                raise PSDFError(f"duplicate process name {proc.name!r}")
            self._processes[proc.name] = proc
        self._flows: List[PacketFlow] = sorted(
            flows, key=lambda f: (f.order, f.source, f.target)
        )
        outgoing: Dict[str, List[PacketFlow]] = {p: [] for p in self._processes}
        incoming: Dict[str, List[PacketFlow]] = {p: [] for p in self._processes}
        seen: set = set()
        for flow in self._flows:
            for endpoint in (flow.source, flow.target):
                if endpoint not in self._processes:
                    raise PSDFError(
                        f"flow {flow.source}->{flow.target} references undeclared "
                        f"process {endpoint!r}"
                    )
            key = (flow.source, flow.target, flow.order)
            if key in seen:
                raise PSDFError(
                    f"duplicate flow {flow.source}->{flow.target} with order "
                    f"{flow.order}; aggregate the data items into one flow"
                )
            seen.add(key)
            outgoing[flow.source].append(flow)
            incoming[flow.target].append(flow)
        # tuples: the accessors hand them out as they are
        self._outgoing: Dict[str, Tuple[PacketFlow, ...]] = {
            p: tuple(flows) for p, flows in outgoing.items()
        }
        self._incoming: Dict[str, Tuple[PacketFlow, ...]] = {
            p: tuple(flows) for p, flows in incoming.items()
        }
        self._topological_order: Optional[Tuple[str, ...]] = None
        self._check_acyclic()
        self._check_stereotypes()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[Tuple],
        name: str = "application",
        kinds: Optional[Mapping[str, ProcessKind]] = None,
    ) -> "PSDFGraph":
        """Build a graph from ``(source, target, D, T, C-or-FlowCost)`` tuples.

        Processes are inferred from edge endpoints; ``kinds`` overrides the
        inferred stereotype (sources become ``InitialNode`` and sinks
        ``FinalNode`` automatically).
        """
        names: Dict[str, None] = {}
        flows: List[PacketFlow] = []
        for edge in edges:
            if len(edge) != 5:
                raise PSDFError(
                    f"edge tuple must be (source, target, D, T, C), got {edge!r}"
                )
            source, target, items, order, cost = edge
            if isinstance(cost, int):
                cost = FlowCost.constant(cost)
            flows.append(
                PacketFlow(
                    source=source,
                    target=target,
                    data_items=items,
                    order=order,
                    cost=cost,
                )
            )
            names.setdefault(source)
            names.setdefault(target)
        sources = {f.source for f in flows}
        targets = {f.target for f in flows}
        processes = []
        for proc_name in names:
            if kinds and proc_name in kinds:
                kind = kinds[proc_name]
            elif proc_name not in targets:
                kind = ProcessKind.INITIAL
            elif proc_name not in sources:
                kind = ProcessKind.FINAL
            else:
                kind = ProcessKind.PROCESS
            processes.append(Process(proc_name, kind))
        return cls(processes, flows, name=name)

    # -- queries ---------------------------------------------------------------

    @property
    def processes(self) -> Tuple[Process, ...]:
        return tuple(self._processes.values())

    @property
    def process_names(self) -> Tuple[str, ...]:
        return tuple(self._processes)

    @property
    def flows(self) -> Tuple[PacketFlow, ...]:
        return tuple(self._flows)

    def __len__(self) -> int:
        return len(self._processes)

    def __contains__(self, name: str) -> bool:
        return name in self._processes

    def __iter__(self) -> Iterator[Process]:
        return iter(self._processes.values())

    def process(self, name: str) -> Process:
        try:
            return self._processes[name]
        except KeyError:
            raise PSDFError(f"unknown process {name!r}") from None

    def flow(self, source: str, target: str) -> PacketFlow:
        """The unique flow ``source -> target`` (raises if absent/ambiguous)."""
        matches = [f for f in self._outgoing.get(source, ()) if f.target == target]
        if not matches:
            raise PSDFError(f"no flow {source}->{target}")
        if len(matches) > 1:
            raise PSDFError(
                f"{len(matches)} flows {source}->{target}; select by order instead"
            )
        return matches[0]

    def outgoing(self, source: str) -> Tuple[PacketFlow, ...]:
        """Flows emitted by ``source``, in ascending T order."""
        try:
            return self._outgoing[source]
        except KeyError:
            raise PSDFError(f"unknown process {source!r}") from None

    def incoming(self, target: str) -> Tuple[PacketFlow, ...]:
        """Flows consumed by ``target``, in ascending T order."""
        try:
            return self._incoming[target]
        except KeyError:
            raise PSDFError(f"unknown process {target!r}") from None

    def initial_processes(self) -> Tuple[Process, ...]:
        """Processes with no incoming flows (fire at t = 0)."""
        return tuple(p for p in self if not self._incoming[p.name])

    def final_processes(self) -> Tuple[Process, ...]:
        """Processes with no outgoing flows (system outputs)."""
        return tuple(p for p in self if not self._outgoing[p.name])

    def total_data_items(self) -> int:
        """Sum of D over all flows — total traffic of the application."""
        return sum(f.data_items for f in self._flows)

    def total_packages(self, package_size: int) -> int:
        """Total number of package transactions at ``package_size``."""
        return sum(f.packages(package_size) for f in self._flows)

    def orders(self) -> Tuple[int, ...]:
        """The distinct T values present, ascending."""
        return tuple(sorted({f.order for f in self._flows}))

    def topological_order(self) -> Tuple[str, ...]:
        """Process names in a deterministic topological order.

        Computed on the first call and kept: the graph never changes.
        """
        if self._topological_order is not None:
            return self._topological_order
        indegree = {name: len(self._incoming[name]) for name in self._processes}
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        out: List[str] = []
        while ready:
            name = ready.pop(0)
            out.append(name)
            for flow in self._outgoing[name]:
                indegree[flow.target] -= 1
                if indegree[flow.target] == 0:
                    # insertion keeps `ready` sorted for determinism
                    lo = 0
                    while lo < len(ready) and ready[lo] < flow.target:
                        lo += 1
                    ready.insert(lo, flow.target)
        if len(out) != len(self._processes):  # pragma: no cover - guarded in ctor
            raise PSDFError("graph contains a cycle")
        self._topological_order = tuple(out)
        return self._topological_order

    def depth(self) -> int:
        """Length (in edges) of the longest path — the pipeline depth."""
        longest: Dict[str, int] = {name: 0 for name in self._processes}
        for name in self.topological_order():
            for flow in self._outgoing[name]:
                longest[flow.target] = max(longest[flow.target], longest[name] + 1)
        return max(longest.values(), default=0)

    # -- validation --------------------------------------------------------------

    def _check_acyclic(self) -> None:
        indegree = {name: len(self._incoming[name]) for name in self._processes}
        ready = [name for name, deg in indegree.items() if deg == 0]
        visited = 0
        while ready:
            name = ready.pop()
            visited += 1
            for flow in self._outgoing[name]:
                indegree[flow.target] -= 1
                if indegree[flow.target] == 0:
                    ready.append(flow.target)
        if visited != len(self._processes):
            cyclic = sorted(name for name, deg in indegree.items() if deg > 0)
            raise PSDFError(
                "PSDF graph contains a cycle through processes: " + ", ".join(cyclic)
            )

    def _check_stereotypes(self) -> None:
        for proc in self:
            has_in = bool(self._incoming[proc.name])
            has_out = bool(self._outgoing[proc.name])
            if proc.kind is ProcessKind.INITIAL and has_in:
                raise PSDFError(
                    f"{proc.name} is stereotyped InitialNode but has incoming flows"
                )
            if proc.kind is ProcessKind.FINAL and has_out:
                raise PSDFError(
                    f"{proc.name} is stereotyped FinalNode but has outgoing flows"
                )
            if not has_in and not has_out and len(self._flows) > 0:
                raise PSDFError(f"process {proc.name} is disconnected")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PSDFGraph({self.name!r}, {len(self._processes)} processes, "
            f"{len(self._flows)} flows)"
        )
