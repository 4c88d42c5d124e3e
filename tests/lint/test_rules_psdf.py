"""SB2xx: the PSDF static verifier."""

import pytest

from repro.lint import LintContext, default_registry, run_rules
from repro.psdf.flow import FlowCost, PacketFlow
from repro.psdf.process import Process, ProcessKind


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def lint(processes, flows, platform=None, registry=None):
    ctx = LintContext(
        processes=tuple(processes), flows=tuple(flows), platform=platform
    )
    return run_rules(ctx, registry=registry)


def flow(src, dst, order=1, items=36, cost=50):
    return PacketFlow(
        source=src,
        target=dst,
        data_items=items,
        order=order,
        cost=FlowCost.constant(cost),
    )


def chain(*names):
    """INITIAL -> PROCESS... -> FINAL processes for the given names."""
    kinds = (
        [ProcessKind.INITIAL]
        + [ProcessKind.PROCESS] * (len(names) - 2)
        + [ProcessKind.FINAL]
    )
    return [Process(n, k) for n, k in zip(names, kinds)]


def ids(report):
    return report.rule_ids()


def test_clean_chain_has_no_findings(registry):
    report = lint(
        chain("A", "B", "C"), [flow("A", "B", 1), flow("B", "C", 2)],
        registry=registry,
    )
    assert report.exit_code == 0
    assert report.findings == []


def test_sb201_undeclared_endpoint(registry):
    report = lint(chain("A", "B", "C"), [flow("A", "B"), flow("B", "X", 2)],
                  registry=registry)
    assert "SB201" in ids(report)
    assert any("X" in f.message for f in report.errors)


def test_sb202_duplicate_flow(registry):
    report = lint(
        chain("A", "B", "C"),
        [flow("A", "B", 1), flow("A", "B", 1), flow("B", "C", 2)],
        registry=registry,
    )
    assert "SB202" in ids(report)


def test_sb203_orphan_process(registry):
    report = lint(
        chain("A", "B", "C") + [Process("Lonely")],
        [flow("A", "B"), flow("B", "C", 2)],
        registry=registry,
    )
    assert "SB203" in ids(report)
    assert any(f.location.element == "Lonely" for f in report.errors)


def test_sb204_unreachable_fed_by_cycle(registry):
    # C/D cycle feeds E: all starve, but only E is *unreachable* (C and D
    # are cycle members reported by SB207)
    report = lint(
        chain("A", "B") + [Process(n) for n in ("C", "D", "E")],
        [
            flow("A", "B", 1),
            flow("C", "D", 2),
            flow("D", "C", 3),
            flow("D", "E", 4),
        ],
        registry=registry,
    )
    assert "SB204" in ids(report)
    unreachable = [f for f in report.errors if f.rule_id == "SB204"]
    assert [f.location.element for f in unreachable] == ["E"]


def test_sb205_initial_with_inputs(registry):
    procs = [Process("A", ProcessKind.INITIAL), Process("B", ProcessKind.INITIAL)]
    report = lint(procs, [flow("A", "B")], registry=registry)
    assert "SB205" in ids(report)


def test_sb206_final_with_outputs(registry):
    procs = [Process("A", ProcessKind.FINAL), Process("B", ProcessKind.FINAL)]
    report = lint(procs, [flow("A", "B")], registry=registry)
    assert "SB206" in ids(report)


def test_sb207_static_deadlock_cycle(registry):
    report = lint(
        [Process(n) for n in ("A", "B", "C")],
        [flow("A", "B", 1), flow("B", "C", 2), flow("C", "A", 3)],
        registry=registry,
    )
    assert "SB207" in ids(report)
    deadlocks = [f for f in report.errors if f.rule_id == "SB207"]
    assert len(deadlocks) == 1
    assert "A, B, C" in deadlocks[0].message


def test_sb208_transfer_order_inversion(registry):
    # B transmits at T=1 but receives at T=2: the ROM contradicts the data
    report = lint(
        chain("A", "B", "C"), [flow("A", "B", 2), flow("B", "C", 1)],
        registry=registry,
    )
    assert "SB208" in ids(report)
    assert any(f.location.element == "B" for f in report.errors)


def test_sb209_transfer_order_gap(registry):
    report = lint(
        chain("A", "B", "C"), [flow("A", "B", 1), flow("B", "C", 5)],
        registry=registry,
    )
    assert "SB209" in ids(report)
    assert report.exit_code == 1  # warning only


def test_sb210_implicit_source(registry):
    procs = [Process("A"), Process("B", ProcessKind.FINAL)]
    report = lint(procs, [flow("A", "B")], registry=registry)
    assert "SB210" in ids(report)


def test_sb211_implicit_sink(registry):
    procs = [Process("A", ProcessKind.INITIAL), Process("B")]
    report = lint(procs, [flow("A", "B")], registry=registry)
    assert "SB211" in ids(report)


def test_sb212_package_padding(registry, platform_3seg):
    # D=100 does not divide into s=36 packages; placement must resolve, so
    # reuse MP3 process names mapped on the paper platform
    procs = [
        Process("P0", ProcessKind.INITIAL),
        Process("P1", ProcessKind.FINAL),
    ]
    report = lint(
        procs, [flow("P0", "P1", 1, items=100)], platform=platform_3seg,
        registry=registry,
    )
    assert "SB212" in ids(report)
    padding = [f for f in report.infos if f.rule_id == "SB212"]
    assert "carries only 28" in padding[0].message


def test_mp3_paper_model_is_clean(registry, mp3_graph, platform_3seg):
    ctx = LintContext.from_models(application=mp3_graph, platform=platform_3seg)
    report = run_rules(ctx, registry=registry)
    assert report.findings == []
    assert report.exit_code == 0


def test_sb220_segment_saturation(registry):
    # single heavy flow with tiny production cost crossing all segments of
    # the paper platform: bus occupancy dwarfs production time
    from repro.model.builder import PlatformBuilder

    builder = (
        PlatformBuilder("Sat", package_size=36)
        .segment(frequency_mhz=100)
        .segment(frequency_mhz=100)
        .central_arbiter(frequency_mhz=100)
        .auto_border_units()
        .place("A", 1)
        .place("B", 2)
    )
    platform = builder.build()
    platform.fu_of_process("A").add_master()
    platform.fu_of_process("B").add_slave()
    procs = [Process("A", ProcessKind.INITIAL), Process("B", ProcessKind.FINAL)]
    # 10 packages x 36 occupancy ticks each, but only 1 tick of production
    heavy = PacketFlow(
        source="A", target="B", data_items=360, order=1,
        cost=FlowCost.constant(1),
    )
    report = lint(procs, [heavy], platform=platform, registry=registry)
    assert "SB220" in ids(report)
    # both crossing segments are communication-bound... segment 2 has no
    # production at all, so only segment 1 (producer side) is flagged
    flagged = [f for f in report.warnings if f.rule_id == "SB220"]
    assert [f.location.segment for f in flagged] == [1]
    # the same crossing traffic also dominates both neighbours of BU12
    assert "SB221" in ids(report)


def test_sb220_charges_only_the_segments_a_gapped_platform_has(mp3_graph):
    from repro.apps.mp3 import paper_allocation
    from repro.lint import lint_models
    from repro.model.builder import PlatformBuilder

    # segments numbered 1 and 3: SB103 names the gap, SB220 must not
    # crash on the missing segment 2 between them
    builder = PlatformBuilder("SBP", package_size=36)
    builder.segment(91, index=1).segment(98, index=3).central_arbiter(111)
    for index, group in zip((1, 3), paper_allocation(2).groups):
        for process in group:
            builder.place(process, index)
    report = lint_models(application=mp3_graph, platform=builder.build())
    assert "SB103" in ids(report)
    assert "SB999" not in ids(report)


def test_sb221_not_fired_when_intra_dominates(registry, mp3_graph, platform_3seg):
    ctx = LintContext.from_models(application=mp3_graph, platform=platform_3seg)
    report = run_rules(ctx, registry=registry)
    assert "SB221" not in ids(report)
