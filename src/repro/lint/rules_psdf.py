"""PSDF static verifier: application-graph rules (``SB2xx``).

All properties here are decidable from the flow table alone (plus the
platform for the bandwidth bounds) — no emulation:

* graph well-formedness: undeclared endpoints, duplicate flows, orphan
  and unreachable processes, stereotype/connectivity mismatches;
* **static deadlock**: strongly connected components of the flow graph.
  Under SDF "fire once all inputs arrived" semantics no process on a
  cycle can ever fire, so the emulator would inevitably raise a
  ``DeadlockError`` after wasting a full setup — lint proves it in
  milliseconds from the topology;
* transfer-ordering (``T``) sanity: inversions (a process transmitting
  at an ordinal strictly before an input it depends on) and gaps in the
  global ordering chain;
* token balance at package granularity (``D mod s``) and per-segment /
  per-BU bandwidth saturation bounds computed from ``(D, C)`` against
  the segment clock periods.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.lint.context import LintContext
from repro.lint.core import Finding, RuleRegistry, Severity
from repro.psdf.process import ProcessKind

CATEGORY = "psdf"


def register(registry: RuleRegistry) -> None:
    @registry.rule(
        "SB201",
        "undeclared-flow-endpoint",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="every flow's source and target are declared processes",
        rationale="a dangling endpoint makes the schedule table unbuildable",
        example="flow P1->P9 in a model that never declares P9",
        fix_hint="declare the process or fix the flow endpoint name",
    )
    def _undeclared(ctx: LintContext) -> Iterable[Finding]:
        declared = set(ctx.process_names())
        if not declared and not ctx.flows:
            return
        psdf = ctx.file_for("psdf")
        for flow in ctx.flows:
            for endpoint in (flow.source, flow.target):
                if endpoint not in declared:
                    yield registry.get("SB201").finding(
                        f"flow {flow.source}->{flow.target} (T={flow.order}) "
                        f"references undeclared process {endpoint!r}",
                        element=endpoint,
                        file=psdf,
                    )

    @registry.rule(
        "SB202",
        "duplicate-flow",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="at most one flow per (source, target, T) triple",
        rationale=(
            "the paper aggregates data items of one source/destination pair "
            "into a single flow; duplicates double-count traffic"
        ),
        example="two P0->P1 flows both carrying T=1",
        fix_hint="merge the data items into one flow",
    )
    def _duplicates(ctx: LintContext) -> Iterable[Finding]:
        seen: Dict[Tuple[str, str, int], int] = {}
        psdf = ctx.file_for("psdf")
        for flow in ctx.flows:
            key = (flow.source, flow.target, flow.order)
            seen[key] = seen.get(key, 0) + 1
        for (source, target, order), count in sorted(seen.items()):
            if count > 1:
                yield registry.get("SB202").finding(
                    f"{count} flows {source}->{target} with T={order}; "
                    "aggregate the data items into one flow",
                    element=source,
                    file=psdf,
                )

    @registry.rule(
        "SB203",
        "orphan-process",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="every process participates in at least one flow",
        rationale=(
            "a disconnected process never fires and never terminates the "
            "run-completion condition cleanly"
        ),
        example="declaring P6 while no flow touches P6",
        fix_hint="connect the process or drop it from the model",
    )
    def _orphans(ctx: LintContext) -> Iterable[Finding]:
        if not ctx.flows:
            return
        psdf = ctx.file_for("psdf")
        touched = {f.source for f in ctx.flows} | {f.target for f in ctx.flows}
        for proc in ctx.processes:
            if proc.name not in touched:
                yield registry.get("SB203").finding(
                    f"process {proc.name!r} is declared but participates in "
                    "no flow (orphan)",
                    element=proc.name,
                    file=psdf,
                )

    @registry.rule(
        "SB204",
        "unreachable-process",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="every process is reachable from a fire-at-t0 process",
        rationale=(
            "a process fed only by processes that can never fire starves "
            "forever; the emulation cannot complete"
        ),
        example="P4 consumes from a cycle that has no external producer",
        fix_hint="feed the process from an initial process or remove it",
    )
    def _unreachable(ctx: LintContext) -> Iterable[Finding]:
        if not ctx.flows:
            return
        psdf = ctx.file_for("psdf")
        reachable = ctx.reachable_from_sources()
        in_cycle = {name for scc in ctx.strongly_connected_components() for name in scc}
        for proc in ctx.processes:
            # cycle members are reported (once, together) by SB207
            if proc.name not in reachable and proc.name not in in_cycle:
                yield registry.get("SB204").finding(
                    f"process {proc.name!r} is unreachable from every "
                    "fire-at-t0 process (it can never receive its inputs)",
                    element=proc.name,
                    file=psdf,
                )

    @registry.rule(
        "SB205",
        "initial-node-with-inputs",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="InitialNode processes have no incoming flows",
        rationale="the stereotype declares a system input (paper section 2.2)",
        example="P0 stereotyped InitialNode while P3->P0 exists",
        fix_hint="restereotype the process as ProcessNode",
    )
    def _initial_with_inputs(ctx: LintContext) -> Iterable[Finding]:
        psdf = ctx.file_for("psdf")
        for proc in ctx.processes:
            if proc.kind is ProcessKind.INITIAL and ctx.incoming(proc.name):
                yield registry.get("SB205").finding(
                    f"process {proc.name!r} is stereotyped InitialNode but "
                    f"has {len(ctx.incoming(proc.name))} incoming flow(s)",
                    element=proc.name,
                    file=psdf,
                )

    @registry.rule(
        "SB206",
        "final-node-with-outputs",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="FinalNode processes have no outgoing flows",
        rationale="the stereotype declares a system output (paper section 2.2)",
        example="P14 stereotyped FinalNode while P14->P0 exists",
        fix_hint="restereotype the process as ProcessNode",
    )
    def _final_with_outputs(ctx: LintContext) -> Iterable[Finding]:
        psdf = ctx.file_for("psdf")
        for proc in ctx.processes:
            if proc.kind is ProcessKind.FINAL and ctx.outgoing(proc.name):
                yield registry.get("SB206").finding(
                    f"process {proc.name!r} is stereotyped FinalNode but "
                    f"has {len(ctx.outgoing(proc.name))} outgoing flow(s)",
                    element=proc.name,
                    file=psdf,
                )

    @registry.rule(
        "SB207",
        "static-deadlock-cycle",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="the flow graph is acyclic (no static SDF deadlock)",
        rationale=(
            "with fire-once-all-inputs-arrived semantics every process of a "
            "dependency cycle waits on the others forever; the emulator "
            "would diagnose the deadlock only after running"
        ),
        example="P1->P2, P2->P3, P3->P1",
        fix_hint="break the cycle (split a process or drop a back edge)",
    )
    def _cycles(ctx: LintContext) -> Iterable[Finding]:
        psdf = ctx.file_for("psdf")
        for scc in ctx.strongly_connected_components():
            yield registry.get("SB207").finding(
                "statically deadlocked: processes "
                + ", ".join(scc)
                + " form a dependency cycle — none of them can ever fire",
                element=scc[0],
                file=psdf,
            )

    @registry.rule(
        "SB208",
        "transfer-order-inversion",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="no process transmits at a T strictly below an input's T",
        rationale=(
            "the arbiters sequence transfers by ascending T (section 3.3); "
            "an output scheduled before a needed input can never keep its "
            "slot — the schedule ROM and the dataflow contradict each other"
        ),
        example="P0->P1 with T=2 while P1->P2 carries T=1",
        fix_hint="renumber the T values along the pipeline order",
    )
    def _inversions(ctx: LintContext) -> Iterable[Finding]:
        psdf = ctx.file_for("psdf")
        for proc in ctx.processes:
            incoming = ctx.incoming(proc.name)
            if not incoming:
                continue
            for out in ctx.outgoing(proc.name):
                below = [g for g in incoming if out.order < g.order]
                if below:
                    worst = max(g.order for g in below)
                    yield registry.get("SB208").finding(
                        f"process {proc.name!r} transmits "
                        f"{out.source}->{out.target} at T={out.order} but "
                        f"still awaits input at T={worst} "
                        "(transfer-ordering cycle)",
                        element=proc.name,
                        file=psdf,
                    )

    @registry.rule(
        "SB209",
        "transfer-order-gap",
        severity=Severity.WARNING,
        category=CATEGORY,
        description="the distinct T values form a contiguous chain from 1",
        rationale=(
            "gaps usually betray a deleted flow or a typo; the schedule "
            "still works but reviews against the paper's tables mislead"
        ),
        example="flows carrying T ∈ {1, 2, 5}",
        fix_hint="renumber T values contiguously starting at 1",
    )
    def _gaps(ctx: LintContext) -> Iterable[Finding]:
        if not ctx.flows:
            return
        psdf = ctx.file_for("psdf")
        orders = sorted({f.order for f in ctx.flows})
        expected = list(range(1, len(orders) + 1))
        if orders != expected:
            missing = sorted(set(range(1, orders[-1] + 1)) - set(orders))
            detail = f"missing T values {missing}" if missing else "does not start at 1"
            yield registry.get("SB209").finding(
                f"transfer ordering has gaps: T values {orders} ({detail})",
                element=ctx.application_name,
                file=psdf,
            )

    @registry.rule(
        "SB210",
        "implicit-source",
        severity=Severity.WARNING,
        category=CATEGORY,
        description="fire-at-t0 processes are stereotyped InitialNode",
        rationale=(
            "a ProcessNode without inputs silently fires at t=0; if that is "
            "intended the InitialNode stereotype documents it, otherwise an "
            "input flow is missing"
        ),
        example="P5 has only outgoing flows yet is stereotyped ProcessNode",
        fix_hint="stereotype the process InitialNode or add its input flow",
    )
    def _implicit_sources(ctx: LintContext) -> Iterable[Finding]:
        if not ctx.flows:
            return
        psdf = ctx.file_for("psdf")
        for proc in ctx.processes:
            if (
                proc.kind is ProcessKind.PROCESS
                and ctx.outgoing(proc.name)
                and not ctx.incoming(proc.name)
            ):
                yield registry.get("SB210").finding(
                    f"process {proc.name!r} has no incoming flows but is "
                    "stereotyped ProcessNode (will fire at t=0)",
                    element=proc.name,
                    file=psdf,
                )

    @registry.rule(
        "SB211",
        "implicit-sink",
        severity=Severity.WARNING,
        category=CATEGORY,
        description="output-less processes are stereotyped FinalNode",
        rationale=(
            "a ProcessNode without outputs is a silent data sink; if that is "
            "intended the FinalNode stereotype documents it, otherwise an "
            "output flow is missing"
        ),
        example="P7 has only incoming flows yet is stereotyped ProcessNode",
        fix_hint="stereotype the process FinalNode or add its output flow",
    )
    def _implicit_sinks(ctx: LintContext) -> Iterable[Finding]:
        if not ctx.flows:
            return
        psdf = ctx.file_for("psdf")
        for proc in ctx.processes:
            if (
                proc.kind is ProcessKind.PROCESS
                and ctx.incoming(proc.name)
                and not ctx.outgoing(proc.name)
            ):
                yield registry.get("SB211").finding(
                    f"process {proc.name!r} has no outgoing flows but is "
                    "stereotyped ProcessNode (silent sink)",
                    element=proc.name,
                    file=psdf,
                )

    @registry.rule(
        "SB212",
        "package-padding",
        severity=Severity.INFO,
        category=CATEGORY,
        description="flow volumes divide evenly into platform packages",
        rationale=(
            "D mod s ≠ 0 means the last package travels partially filled — "
            "correct but wasteful; the token balance at package granularity "
            "is off by the padding"
        ),
        example="D=100 items at package size 36 (last package carries 28)",
        fix_hint="align D with the package size or pick s dividing D",
    )
    def _padding(ctx: LintContext) -> Iterable[Finding]:
        size = ctx.package_size()
        if size is None or size < 1 or not ctx.has_application:
            return
        psdf = ctx.file_for("psdf")
        for flow in ctx.flows:
            remainder = flow.data_items % size
            if remainder:
                yield registry.get("SB212").finding(
                    f"flow {flow.source}->{flow.target}: D={flow.data_items} "
                    f"does not divide into s={size} packages (last package "
                    f"carries only {remainder} items)",
                    element=flow.source,
                    file=psdf,
                )

    @registry.rule(
        "SB220",
        "segment-bandwidth-saturation",
        severity=Severity.WARNING,
        category=CATEGORY,
        description="no segment bus is bound by raw transfer occupancy",
        rationale=(
            "per segment, bus occupancy (packages × s ticks) exceeding the "
            "production time mapped there means the bus, not computation, "
            "bounds the segment — the configuration is communication-bound "
            "and contention will dominate the estimate"
        ),
        example="all heavy flows crossing one segment clocked far below CA",
        fix_hint="localize traffic (re-place endpoints) or raise s",
    )
    def _segment_saturation(ctx: LintContext) -> Iterable[Finding]:
        psdf = ctx.file_for("psdf")
        for index, busy_us, production_us in _segment_loads(ctx):
            if production_us > 0 and busy_us > production_us:
                yield registry.get("SB220").finding(
                    f"segment {index} bus occupancy lower bound "
                    f"{busy_us:.1f} us exceeds its mapped production time "
                    f"{production_us:.1f} us (communication-bound)",
                    segment=index,
                    file=psdf,
                )

    @registry.rule(
        "SB221",
        "bu-bandwidth-saturation",
        severity=Severity.WARNING,
        category=CATEGORY,
        description="no border unit carries more load than both neighbours",
        rationale=(
            "a BU whose crossing traffic exceeds the intra-segment traffic "
            "of both neighbouring segments is the dominant load of the "
            "platform: packages will queue at its single FIFO and the "
            "waiting period WP explodes (paper section 4's bottleneck)"
        ),
        example="every flow of a two-segment platform crossing BU12",
        fix_hint="re-place one endpoint of the heaviest crossing flow",
    )
    def _bu_saturation(ctx: LintContext) -> Iterable[Finding]:
        placement = ctx.placement()
        size = ctx.package_size()
        if placement is None or size is None or not ctx.flows:
            return
        psdf = ctx.file_for("psdf")
        intra: Dict[int, int] = {}
        crossing: Dict[Tuple[int, int], int] = {pair: 0 for pair in ctx.bu_pairs()}
        for flow in ctx.flows:
            src = placement.get(flow.source)
            dst = placement.get(flow.target)
            if src is None or dst is None:
                continue
            packages = flow.packages(size)
            if src == dst:
                intra[src] = intra.get(src, 0) + packages * size
                continue
            lo, hi = min(src, dst), max(src, dst)
            for left in range(lo, hi):
                pair = (left, left + 1)
                if pair in crossing:
                    crossing[pair] += packages * size
        for (left, right), ticks in sorted(crossing.items()):
            if ticks == 0:
                continue
            if ticks > intra.get(left, 0) and ticks > intra.get(right, 0):
                yield registry.get("SB221").finding(
                    f"BU{left}{right} crossing occupancy ({ticks} bus ticks) "
                    f"exceeds the intra-segment traffic of both segment "
                    f"{left} ({intra.get(left, 0)}) and segment {right} "
                    f"({intra.get(right, 0)}): the bridge is the dominant "
                    "load",
                    element=f"BU{left}{right}",
                    segment=left,
                    file=psdf,
                )


def _segment_loads(ctx: LintContext) -> List[Tuple[int, float, float]]:
    """Per segment: (index, bus-occupancy us, mapped production us)."""
    placement = ctx.placement()
    size = ctx.package_size()
    if placement is None or size is None or ctx.platform is None or not ctx.flows:
        return []
    periods_us: Dict[int, float] = {}
    for seg in ctx.platform.segments:
        mhz = seg.frequency.mhz
        if mhz <= 0:
            return []  # SB110 already fired; the bound is meaningless
        periods_us[seg.index] = 1.0 / mhz
    busy_ticks: Dict[int, int] = {i: 0 for i in periods_us}
    production_ticks: Dict[int, int] = {i: 0 for i in periods_us}
    for flow in ctx.flows:
        src = placement.get(flow.source)
        dst = placement.get(flow.target)
        if src is None or dst is None or src not in periods_us or dst not in periods_us:
            continue
        packages = flow.packages(size)
        production_ticks[src] += packages * flow.ticks_per_package(size)
        lo, hi = min(src, dst), max(src, dst)
        for index in range(lo, hi + 1):
            # a gap in the segment numbering is SB103's finding
            if index in busy_ticks:
                busy_ticks[index] += packages * size
    return [
        (
            index,
            busy_ticks[index] * periods_us[index],
            production_ticks[index] * periods_us[index],
        )
        for index in sorted(periods_us)
    ]
