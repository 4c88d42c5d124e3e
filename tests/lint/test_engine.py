"""Engine assembly: default registry, disabling, crash containment."""

import pytest

from repro.apps.mp3 import PAPER_PACKAGE_SIZE, paper_platform
from repro.lint import INTERNAL_RULE_ID, default_registry, lint_models, lint_paths
from repro.lint.core import Rule, RuleRegistry, Severity
from repro.lint.engine import run_rules
from repro.lint.context import LintContext
from repro.xmlio.psdf_writer import psdf_to_xml
from repro.xmlio.psm_writer import psm_to_xml


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestDefaultRegistry:
    def test_catalogue_size(self, registry):
        assert len(registry) == 49

    def test_every_band_is_present(self, registry):
        bands = {rule.id[:3] for rule in registry}
        assert bands == {"SB1", "SB2", "SB3", "SB4", "SB5", "SB9"}

    def test_ids_and_names_unique(self, registry):
        ids = [r.id for r in registry]
        names = [r.name for r in registry]
        assert len(ids) == len(set(ids))
        assert len(names) == len(set(names))

    def test_every_rule_documents_itself(self, registry):
        for rule in registry:
            assert rule.description, rule.id
            assert rule.rationale, rule.id
            assert rule.example, rule.id
            assert rule.fix_hint, rule.id

    def test_internal_rule_registered(self, registry):
        assert INTERNAL_RULE_ID in registry


class TestRunRules:
    def test_disable_suppresses_rule(self, registry, mp3_graph):
        from repro.model.builder import PlatformBuilder

        partial = (
            PlatformBuilder("Partial", package_size=36)
            .segment(frequency_mhz=100)
            .central_arbiter(frequency_mhz=100)
            .place("P0", 1)
            .build()
        )
        partial.fu_of_process("P0").add_master()
        baseline = lint_models(
            application=mp3_graph, platform=partial, registry=registry
        )
        assert len(baseline.findings) > 0
        noisy = baseline.rule_ids()
        silenced = lint_models(
            application=mp3_graph,
            platform=partial,
            registry=registry,
            disable=noisy,
        )
        assert silenced.findings == []
        assert silenced.checked_rules == len(registry) - 1 - len(noisy)

    def test_crashing_rule_reports_sb999(self):
        registry = RuleRegistry()

        def explode(ctx):
            raise RuntimeError("boom")

        registry.register(
            Rule(
                id="SB900", name="exploder", severity=Severity.ERROR,
                category="test", description="d", rationale="r", example="e",
                check=explode,
            )
        )
        registry.register(
            Rule(
                id=INTERNAL_RULE_ID, name="internal-error",
                severity=Severity.ERROR, category="engine", description="d",
                rationale="r", example="e", check=lambda ctx: [],
            )
        )
        report = run_rules(LintContext(), registry=registry)
        assert report.rule_ids() == (INTERNAL_RULE_ID,)
        assert "SB900" in report.errors[0].message
        assert "boom" in report.errors[0].message


class TestLintPaths:
    def test_targets_and_checked_rules(self, tmp_path, registry, mp3_graph):
        psdf = tmp_path / "app.xml"
        psm = tmp_path / "platform.xml"
        psdf.write_text(psdf_to_xml(mp3_graph, PAPER_PACKAGE_SIZE))
        psm.write_text(psm_to_xml(paper_platform(3)))
        report = lint_paths([psdf, psm], registry=registry)
        assert report.exit_code == 0
        assert report.targets == [str(psdf), str(psm)]
        assert report.checked_rules == len(registry) - 1

    def test_each_file_is_parsed_once(
        self, tmp_path, registry, mp3_graph, monkeypatch
    ):
        from repro.faults.model import FaultPlan, FaultRecord
        from repro.xmlio.faults_xml import fault_plan_to_xml
        from repro.xmlio.schema_writer import SchemaDocument

        psdf = tmp_path / "app.xml"
        psm = tmp_path / "platform.xml"
        plan = tmp_path / "plan.xml"
        psdf.write_text(psdf_to_xml(mp3_graph, PAPER_PACKAGE_SIZE))
        psm.write_text(psm_to_xml(paper_platform(3)))
        plan.write_text(
            fault_plan_to_xml(
                FaultPlan(
                    seed=1,
                    records=(
                        FaultRecord(site="fu:P0", kind="fu_stall", rate=0.1, ticks=5),
                    ),
                )
            )
        )
        parsed = []
        from_xml = SchemaDocument.from_xml.__func__

        def counting(cls, text):
            parsed.append(text)
            return from_xml(cls, text)

        monkeypatch.setattr(SchemaDocument, "from_xml", classmethod(counting))
        assert lint_paths([psdf, psm], registry=registry).exit_code == 0
        assert len(parsed) == 2
        parsed.clear()
        assert lint_paths([psdf, psm, plan], registry=registry).exit_code == 0
        assert len(parsed) == 3

    def test_loader_findings_respect_disable(self, tmp_path, registry):
        bad = tmp_path / "bad.xml"
        bad.write_text("not xml")
        assert lint_paths([bad], registry=registry).exit_code == 2
        muted = lint_paths([bad], registry=registry, disable=["SB401"])
        assert muted.findings == []
