"""CLI tests (argparse wiring and end-to-end subcommands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.segments == 3
        assert args.package_size == 36


class TestGenerate:
    def test_writes_schemes(self, tmp_path, capsys):
        rc = main(["generate", "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "psdf.xml" in out and "psm.xml" in out
        assert (tmp_path / "out" / "psdf.xml").exists()

    def test_rejects_non_mp3_app(self, tmp_path, capsys):
        rc = main(
            ["generate", "--app", "chain4", "--output-dir", str(tmp_path)]
        )
        assert rc == 2


class TestEmulate:
    def test_emulates_generated_schemes(self, tmp_path, capsys):
        main(["generate", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(
            ["emulate", str(tmp_path / "psdf.xml"), str(tmp_path / "psm.xml")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CA TCT =" in out
        assert "Total execution time" in out


class TestAccuracy:
    def test_prints_accuracy_row(self, capsys):
        rc = main(["accuracy", "--segments", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimated" in out and "accuracy" in out


class TestExplore:
    def test_ranks_configurations(self, capsys):
        rc = main(
            [
                "explore",
                "--segment-counts", "2",
                "--package-sizes", "36",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "placetool" in out

    def test_explore_synthetic_workload(self, capsys):
        rc = main(
            [
                "explore",
                "--app", "chain4",
                "--segment-counts", "2",
                "--package-sizes", "36",
            ]
        )
        assert rc == 0
        assert "placetool" in capsys.readouterr().out

    def test_repeated_grid_values_exit_2(self, capsys):
        rc = main(
            [
                "explore",
                "--segment-counts", "2", "2",
                "--package-sizes", "6", "6",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "segbus: error: segment_counts names 2 twice\n"

    @pytest.mark.parametrize("prune", ["0", "-1"])
    def test_bad_estimate_prune_exits_2(self, capsys, prune):
        rc = main(["explore", "--estimate-prune", prune])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"segbus: error: estimator_prune must be >= 1, got {prune}\n"
        )
