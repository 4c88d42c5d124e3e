"""One front door: ``segbus serve`` and the CLI load and dispatch a model
the same way (:func:`repro.serve.jobs.emulate_model` /
:func:`repro.serve.jobs.estimate_model`), and a PSM's platform values are
checked where its platform model is built."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lint import default_registry

#: PSM parameter edits the platform model refuses, on the 2-segment MP3
#: scheme: (entry the writer emits, the hostile replacement)
HOSTILE_PSM_VALUES = {
    "segment-frequency-nan": ("frequencyMHz_91", "frequencyMHz_nan"),
    "segment-frequency-inf": ("frequencyMHz_91", "frequencyMHz_inf"),
    "segment-frequency-0": ("frequencyMHz_91", "frequencyMHz_0"),
    "segment-frequency-negative": ("frequencyMHz_91", "frequencyMHz_-5"),
    "segment-frequency-tiny": ("frequencyMHz_91", "frequencyMHz_1e-300"),
    "ca-frequency-nan": ("frequencyMHz_111", "frequencyMHz_nan"),
    "policy-bogus": ("policy_round-robin", "policy_bogus"),
    "bu-depth-0": ("depth_1", "depth_0"),
    "bu-depth-negative": ("depth_1", "depth_-1"),
}


def _hostile_psm(psm_xml: str, case: str) -> str:
    entry, replacement = HOSTILE_PSM_VALUES[case]
    needle = f'name="{entry}"'
    assert needle in psm_xml
    return psm_xml.replace(needle, f'name="{replacement}"', 1)


@pytest.mark.parametrize("case", sorted(HOSTILE_PSM_VALUES))
class TestHostilePlatformValues:
    def test_served_jobs_answer_400_naming_the_psm(
        self, case, service_factory, inline_schemes
    ):
        psdf_xml, psm_xml = inline_schemes
        payload = {"psdf_xml": psdf_xml, "psm_xml": _hostile_psm(psm_xml, case)}
        service = service_factory()
        kinds = ("emulate", "estimate", "lint")
        for kind in kinds:
            response = service.submit({"kind": kind, **payload})
            assert (response.status, response.cache) == (400, "rejected"), kind
            error = json.loads(response.body)["error"]
            assert error["kind"] == "invalid"
            assert error["message"].startswith("psm_xml: "), error
        executor = service.stats()["executor"]
        assert executor["attempts"] == len(kinds)
        assert executor["retries"] == 0

    @pytest.mark.parametrize("command", ["emulate", "estimate"])
    def test_cli_exits_2_with_one_line(
        self, case, command, inline_schemes, tmp_path, capsys
    ):
        psdf_xml, psm_xml = inline_schemes
        psdf = tmp_path / "psdf.xml"
        psm = tmp_path / "psm.xml"
        psdf.write_text(psdf_xml, encoding="utf-8")
        psm.write_text(_hostile_psm(psm_xml, case), encoding="utf-8")
        assert main([command, str(psdf), str(psm)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("segbus: error: ")

    def test_segbus_lint_reports_sb401(self, case, inline_schemes, tmp_path, capsys):
        _, psm_xml = inline_schemes
        psm = tmp_path / "psm.xml"
        psm.write_text(_hostile_psm(psm_xml, case), encoding="utf-8")
        assert main(["lint", "--format", "json", str(psm)]) == 2
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert "SB401" in {finding["rule"] for finding in findings}


class TestStrictMultiMode:
    """``--strict`` lints a multi-mode scenario on the CLI as served."""

    @pytest.fixture
    def refusing_lint(self, monkeypatch):
        from repro import lint

        real = lint.lint_multimode

        def refusing(application, platform=None, **kwargs):
            report = real(application, platform=platform, **kwargs)
            report.add(default_registry().get("SB207").finding("injected"))
            return report

        monkeypatch.setattr(lint, "lint_multimode", refusing)

    def test_cli_and_service_refuse_alike(
        self, refusing_lint, service_factory, capsys
    ):
        argv = ["emulate", "--workload", "mp3_jpeg_multimode", "--strict"]
        assert main(argv) == 2
        cli_error = capsys.readouterr().err
        assert "SB207" in cli_error
        response = service_factory().submit(
            {"kind": "emulate", "workload": "mp3_jpeg_multimode", "strict": True}
        )
        assert response.status == 400
        message = json.loads(response.body)["error"]["message"]
        assert cli_error == f"segbus: error: {message}\n"

    def test_without_strict_nothing_is_linted(self, refusing_lint, capsys):
        assert main(["emulate", "--workload", "mp3_jpeg_multimode"]) == 0
        assert "Total execution time:" in capsys.readouterr().out
