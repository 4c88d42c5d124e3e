"""SB4xx: XML scheme rules, classification, and the loader."""

import pytest

from repro.apps.mp3 import PAPER_PACKAGE_SIZE, paper_platform
from repro.faults.model import FaultPlan
from repro.lint import (
    KIND_FAULT_PLAN,
    KIND_PSDF,
    KIND_PSM,
    KIND_UNKNOWN,
    LintContext,
    SchemeFile,
    classify_scheme,
    default_registry,
    load_paths,
    run_rules,
)
from repro.xmlio.faults_xml import fault_plan_to_xml
from repro.xmlio.psdf_writer import psdf_to_xml
from repro.xmlio.psm_writer import psm_to_xml
from repro.xmlio.schema_writer import SchemaDocument


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def psm_document():
    return SchemaDocument.from_xml(psm_to_xml(paper_platform(2)))


def lint_document(document, kind, registry, path="scheme.xml"):
    ctx = LintContext(documents=(SchemeFile(path, kind, document),))
    return run_rules(ctx, registry=registry)


def sample_buffer_models():
    """A PSM placing the process ``SAmple`` alone on segment 2."""
    from repro.model.mapping import Allocation, map_application
    from repro.psdf.graph import PSDFGraph

    graph = PSDFGraph.from_edges(
        [("P0", "SAmple", 72, 1, 50), ("SAmple", "BUffer", 72, 2, 50)]
    )
    psm = map_application(
        graph,
        Allocation.from_groups([["P0", "BUffer"], ["SAmple"]]),
        segment_frequencies_mhz=[100, 100],
        ca_frequency_mhz=120,
        package_size=36,
    )
    return graph, psm.platform


class TestSchemeIntegrityRules:
    def test_clean_generated_psm_has_no_scheme_findings(self, registry):
        report = lint_document(psm_document(), KIND_PSM, registry)
        assert not [f for f in report.findings if f.rule_id.startswith("SB4")]

    def test_sb402_undefined_reference(self, registry):
        doc = psm_document()
        doc.complex_types = [t for t in doc.complex_types if t.name != "SA1"]
        report = lint_document(doc, KIND_PSM, registry)
        assert "SB402" in report.rule_ids()
        assert any("SA1" in f.message for f in report.errors)

    def test_sb403_orphan_type(self, registry):
        doc = psm_document()
        # detach Segment1 from the root: the type and its subtree orphan
        root = doc.complex_types[0]
        root.children = [c for c in root.children if c.type != "Segment1"]
        report = lint_document(doc, KIND_PSM, registry)
        assert "SB403" in report.rule_ids()
        orphans = {f.location.element for f in report.warnings
                   if f.rule_id == "SB403"}
        assert "Segment1" in orphans

    def test_sb404_duplicate_child_name(self, registry):
        doc = psm_document()
        segment = doc.complex_type("Segment1")
        first = segment.children[0]
        segment.add(first.name, first.type)
        report = lint_document(doc, KIND_PSM, registry)
        assert "SB404" in report.rule_ids()
        assert any(first.name in f.message for f in report.errors)

    def test_sb405_segment_without_arbiter(self, registry):
        doc = psm_document()
        segment = doc.complex_type("Segment1")
        segment.children = [
            c for c in segment.children if not c.type.startswith("SA")
        ]
        report = lint_document(doc, KIND_PSM, registry)
        assert "SB405" in report.rule_ids()
        finding = [f for f in report.errors if f.rule_id == "SB405"][0]
        assert finding.location.element == "Segment1"
        assert finding.location.segment == 1
        assert finding.location.file == "scheme.xml"

    def test_sb406_segment_without_process(self, registry):
        doc = psm_document()
        segment = doc.complex_type("Segment1")
        segment.children = [
            c for c in segment.children
            if c.type == "Parameter" or c.type.startswith(("SA", "BU"))
        ]
        report = lint_document(doc, KIND_PSM, registry)
        assert "SB406" in report.rule_ids()

    def test_processes_named_like_arbiters_or_bus_lint_cleanly(
        self, registry, tmp_path
    ):
        from repro.lint import lint_paths

        graph, platform = sample_buffer_models()
        psdf = tmp_path / "psdf.xml"
        psm = tmp_path / "psm.xml"
        psdf.write_text(psdf_to_xml(graph, platform.package_size), encoding="utf-8")
        psm.write_text(psm_to_xml(platform), encoding="utf-8")
        report = lint_paths([str(psdf), str(psm)], registry=registry)
        assert not report.errors
        assert not {"SB104", "SB111", "SB405", "SB406"} & set(report.rule_ids())

    def test_sb405_fires_when_only_a_process_named_like_an_arbiter_remains(
        self, registry
    ):
        _, platform = sample_buffer_models()
        doc = SchemaDocument.from_xml(psm_to_xml(platform))
        segment = doc.complex_type("Segment2")
        segment.children = [c for c in segment.children if c.type != "SA2"]
        assert [c.type for c in segment.children if c.type != "Parameter"] == [
            "BU12",
            "SAmple",
        ]
        report = lint_document(doc, KIND_PSM, registry)
        assert "SB405" in report.rule_ids()
        assert "SB406" not in report.rule_ids()

    def test_psm_shape_rules_skip_non_psm_documents(self, registry, mp3_graph):
        doc = SchemaDocument.from_xml(psdf_to_xml(mp3_graph, PAPER_PACKAGE_SIZE))
        report = lint_document(doc, KIND_PSDF, registry)
        assert "SB405" not in report.rule_ids()
        assert "SB406" not in report.rule_ids()


class TestClassifyScheme:
    def test_psdf(self, mp3_graph):
        doc = SchemaDocument.from_xml(psdf_to_xml(mp3_graph, PAPER_PACKAGE_SIZE))
        assert classify_scheme(doc) == KIND_PSDF

    def test_psm(self):
        assert classify_scheme(psm_document()) == KIND_PSM

    def test_fault_plan(self):
        plan = FaultPlan.transient(seed=7, corruption_rate=0.01)
        doc = SchemaDocument.from_xml(fault_plan_to_xml(plan))
        assert classify_scheme(doc) == KIND_FAULT_PLAN

    def test_unknown(self):
        assert classify_scheme(SchemaDocument()) == KIND_UNKNOWN


class TestLoader:
    def test_loads_models_from_files(self, tmp_path, registry, mp3_graph):
        psdf = tmp_path / "app.xml"
        psm = tmp_path / "platform.xml"
        psdf.write_text(psdf_to_xml(mp3_graph, PAPER_PACKAGE_SIZE))
        psm.write_text(psm_to_xml(paper_platform(3)))
        ctx, findings = load_paths([psdf, psm], registry)
        assert findings == []
        assert len(ctx.processes) == 15
        assert ctx.platform is not None
        assert {s.kind for s in ctx.documents} == {KIND_PSDF, KIND_PSM}
        assert ctx.source_files[KIND_PSDF].endswith("app.xml")

    def test_missing_file_is_sb401(self, tmp_path, registry):
        ctx, findings = load_paths([tmp_path / "nope.xml"], registry)
        assert [f.rule_id for f in findings] == ["SB401"]
        assert ctx.documents == ()

    def test_garbage_file_is_sb401(self, tmp_path, registry):
        bad = tmp_path / "bad.xml"
        bad.write_text("this is not xml at all")
        ctx, findings = load_paths([bad], registry)
        assert [f.rule_id for f in findings] == ["SB401"]
        assert findings[0].location.file.endswith("bad.xml")

    def test_unparseable_model_still_yields_documents(self, tmp_path, registry):
        # a PSM whose arbiter is gone fails parse_psm_xml, but the raw
        # document must survive so SB405 can diagnose the cause
        doc = psm_document()
        segment = doc.complex_type("Segment1")
        segment.children = [
            c for c in segment.children if not c.type.startswith("SA")
        ]
        broken = tmp_path / "broken_psm.xml"
        broken.write_text(doc.to_xml())
        ctx, findings = load_paths([broken], registry)
        assert any(f.rule_id == "SB401" for f in findings)
        assert ctx.platform is None
        assert len(ctx.documents) == 1
        report = run_rules(ctx, registry=registry)
        assert "SB405" in report.rule_ids()
