"""The ``segbus faults`` subcommand and the CLI's error handling."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.kind == "package_corruption"
        assert args.seeds == 3
        assert args.on_exhaustion == "degrade"

    def test_debug_flag_is_global(self):
        args = build_parser().parse_args(["--debug", "faults"])
        assert args.debug is True

    def test_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--kind", "gremlins"])


class TestFaultsCommand:
    def test_sweep_prints_table(self, capsys):
        rc = main(["faults", "--rates", "0.0", "0.02", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "package_corruption sweep" in out
        assert "| rate |" in out
        assert out.count("\n| 0.0") >= 1

    def test_writes_csv_and_plan_xml(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        xml_path = tmp_path / "plan.xml"
        rc = main(
            [
                "faults",
                "--rates",
                "0.0",
                "0.02",
                "--seeds",
                "1",
                "--csv",
                str(csv_path),
                "--plan-xml",
                str(xml_path),
            ]
        )
        assert rc == 0
        assert csv_path.read_text(encoding="utf-8").startswith("rate,")
        from repro.xmlio.faults_xml import parse_fault_plan_xml

        plan = parse_fault_plan_xml(xml_path.read_text(encoding="utf-8"))
        assert plan.records[0].rate == 0.02

    def test_rejects_unknown_app(self, capsys):
        rc = main(["faults", "--app", "doom"])
        assert rc == 2

    def test_a_timeout_on_one_worker_exits_2_before_any_work(
        self, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("segbus faults emulated")

        monkeypatch.setattr(
            "repro.analysis.reliability.SegBusEmulator.from_models", refuse
        )
        rc = main(["faults", "--workers", "1", "--timeout", "5"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "segbus: error: a per-job timeout needs workers >= 2: the "
            "in-process path cannot interrupt a job\n"
        )

    def test_a_repeated_rate_exits_2(self, capsys):
        rc = main(
            [
                "faults", "--app", "mp3", "--segments", "2",
                "--rates", "0.001", "0.001", "--seeds", "2",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "segbus: error: rates names 0.001 twice\n"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, workers, capsys):
        rc = main(
            ["faults", "--rates", "0.0", "--seeds", "1", "--workers", workers]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"segbus: error: workers must be >= 1, got {workers}\n"


class TestErrorHandling:
    def test_segbus_error_exits_2_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<not-a-scheme/>", encoding="utf-8")
        rc = main(["emulate", str(bad), str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("segbus: error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["emulate", str(tmp_path / "a.xml"), str(tmp_path / "b.xml")])
        assert rc == 2
        assert "segbus: error:" in capsys.readouterr().err

    def test_debug_reraises(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<not-a-scheme/>", encoding="utf-8")
        from repro.errors import XMLFormatError

        with pytest.raises(XMLFormatError):
            main(["--debug", "emulate", str(bad), str(bad)])
