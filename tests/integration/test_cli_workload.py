"""CLI ``--workload``: named scenarios on emulate and estimate."""

import pytest

from repro.cli import main


class TestEmulateWorkload:
    def test_multimode_scenario_prints_phase_listing(self, capsys):
        rc = main(["emulate", "--workload", "mp3_jpeg_multimode"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Multi-mode application: mp3_jpeg_multimode" in out
        assert "mp3" in out and "jpeg" in out
        assert "Transition total:" in out
        assert "Total execution time:" in out

    def test_single_mode_scenario_prints_ordinary_listing(self, capsys):
        rc = main(["emulate", "--workload", "bursty"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Total execution time:" in out

    def test_engine_flag_applies(self, capsys):
        rc = main(
            ["emulate", "--workload", "mp3_jpeg_multimode", "--engine", "fast"]
        )
        assert rc == 0
        assert "engine: fast" in capsys.readouterr().out


class TestEstimateWorkload:
    def test_multimode_breakdown(self, capsys):
        rc = main(["estimate", "--workload", "mp3_jpeg_multimode"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "analytic lower bound:" in out
        assert "switch(es)" in out
        assert "expected TCT:" in out
        assert "emulated TCT" not in out

    def test_multimode_emulate_reports_signed_error(self, capsys):
        rc = main(
            ["estimate", "--workload", "mp3_jpeg_multimode", "--emulate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "emulated TCT:" in out
        assert "estimate off by" in out

    def test_single_mode_scenario_uses_the_queue_table(self, capsys):
        rc = main(["estimate", "--workload", "long_tail"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical chain:" in out
        assert "resource" in out


class TestArgumentValidation:
    def test_neither_files_nor_workload_errors(self, capsys):
        assert main(["emulate"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_both_files_and_workload_errors(self, capsys, tmp_path):
        psdf = tmp_path / "a.xml"
        psm = tmp_path / "b.xml"
        psdf.write_text("<x/>")
        psm.write_text("<x/>")
        rc = main(
            ["estimate", str(psdf), str(psm), "--workload", "bursty"]
        )
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_files_only_path_still_works(self, capsys, tmp_path):
        from repro.apps.mp3 import (
            PAPER_PACKAGE_SIZE,
            mp3_decoder_psdf,
            paper_platform,
        )
        from repro.xmlio.psdf_writer import psdf_to_xml
        from repro.xmlio.psm_writer import psm_to_xml

        psdf = tmp_path / "app.xml"
        psm = tmp_path / "platform.xml"
        psdf.write_text(psdf_to_xml(mp3_decoder_psdf(), PAPER_PACKAGE_SIZE))
        psm.write_text(psm_to_xml(paper_platform(3)))
        assert main(["emulate", str(psdf), str(psm)]) == 0
        assert "Total execution time:" in capsys.readouterr().out


class TestRemovedBatchEngine:
    """``batch`` is no longer an engine: each boundary refuses it cleanly."""

    def test_env_var_exits_2_naming_the_known_engines(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("SEGBUS_ENGINE", "batch")
        assert main(["emulate", "--workload", "bursty"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("segbus: error: unknown emulation engine")
        assert "'batch'; known engines: stepped, fast" in err

    def test_serve_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--engine", "batch"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice: 'batch'" in err
