"""CLI wiring tests for ``segbus selftest`` and ``segbus bench``."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestSelftestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["selftest"])
        assert args.count is None
        assert args.seed == 1
        assert not args.quick
        assert not args.update_golden

    def test_quick_flag(self):
        args = build_parser().parse_args(["selftest", "--quick"])
        assert args.quick


class TestSelftestCommand:
    def test_small_run_passes(self, capsys):
        rc = main(["selftest", "--count", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selftest PASS" in out
        assert "3 random model(s)" in out
        assert "golden traces" in out

    def test_skip_golden(self, capsys):
        rc = main(["selftest", "--count", "1", "--skip-golden"])
        assert rc == 0
        assert "golden traces" not in capsys.readouterr().out

    def test_update_golden_into_tmp_store(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        rc = main(
            [
                "selftest",
                "--count",
                "1",
                "--update-golden",
                "--golden-store",
                str(store),
            ]
        )
        assert rc == 0
        assert store.is_file()
        assert "re-pinned" in capsys.readouterr().out

    def test_missing_models_dir_is_cli_error(self, tmp_path, capsys):
        rc = main(
            [
                "selftest",
                "--count",
                "1",
                "--models-dir",
                str(tmp_path / "nope"),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestBenchCommand:
    def test_list(self, capsys):
        rc = main(["bench", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mp3_3seg_emulate" in out
        assert "random_oracle_batch" in out

    def test_run_without_check(self, capsys):
        rc = main(["bench", "mp3_3seg_analytic", "--repeats", "1"])
        assert rc == 0
        assert "execution_time_ps=" in capsys.readouterr().out

    def test_check_against_committed_baselines(self, capsys):
        rc = main(
            [
                "bench",
                "mp3_3seg_analytic",
                "mp3_3seg_emulate",
                "--repeats",
                "1",
                "--check",
            ]
        )
        assert rc == 0
        assert "bench check" in capsys.readouterr().out

    def test_update_writes_baselines(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "mp3_3seg_analytic",
                "--repeats",
                "1",
                "--update",
                "--baseline-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        path = tmp_path / "BENCH_mp3_3seg_analytic.json"
        assert path.is_file()
        data = json.loads(path.read_text())
        assert data["name"] == "mp3_3seg_analytic"
        assert data["ticks"]

    def test_unknown_scenario_is_cli_error(self, capsys):
        rc = main(["bench", "warp_drive", "--repeats", "1"])
        assert rc == 2
        assert "unknown bench scenario" in capsys.readouterr().err

    def test_check_with_update_is_usage_error(self, tmp_path, capsys):
        # a drifted baseline must not be silently re-pinned by a run
        # that also asked for the check
        name = "mp3_3seg_analytic"
        path = tmp_path / f"BENCH_{name}.json"
        committed = json.loads(
            (Path("benchmarks") / "baselines" / path.name).read_text()
        )
        committed["ticks"]["execution_time_ps"] += 1
        path.write_text(json.dumps(committed))
        drifted = path.read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "bench",
                    name,
                    "--repeats",
                    "1",
                    "--check",
                    "--update",
                    "--baseline-dir",
                    str(tmp_path),
                ]
            )
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert path.read_bytes() == drifted

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_is_cli_error(self, repeats, capsys):
        rc = main(["bench", "mp3_3seg_analytic", "--repeats", repeats])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("segbus: error: bench repeats must be at least")

    def test_failing_scenario_is_one_line_error(self, monkeypatch, capsys):
        from repro.testing import bench

        diverging = bench.BenchScenario(
            "diverging",
            "synthetic divergence probe",
            prepare=lambda engine: (
                lambda: {"events": 1 if engine == "stepped" else 2}
            ),
        )
        monkeypatch.setattr(bench, "SCENARIOS", (diverging,))
        rc = main(["bench", "diverging", "--repeats", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("segbus: error: diverging: tick counters")
        assert err.count("\n") == 1
