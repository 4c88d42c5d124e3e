"""Bench runner tests: exact ticks, v4 baselines, the two ratio gates."""

import json

import pytest

from repro.errors import SegBusError
from repro.testing.bench import (
    BASELINE_VERSION,
    DEFAULT_BASELINE_DIR,
    SCENARIO_NAMES,
    BenchResult,
    BenchScenario,
    baseline_path,
    check_bench,
    format_results,
    load_baseline,
    run_bench,
    run_scenario,
    scenario,
    write_baselines,
)

FAST = "mp3_3seg_analytic"
EMU = "mp3_1seg_emulate"  # cheapest engine-aware scenario, no speedup pin
GATED = "mp3_2seg_emulate"  # the scenario pinning speedup_min


class TestRegistry:
    def test_known_scenarios(self):
        assert "mp3_3seg_emulate" in SCENARIO_NAMES
        assert scenario(FAST).name == FAST

    def test_unknown_scenario_raises(self):
        with pytest.raises(SegBusError, match="unknown bench scenario"):
            scenario("warp_drive")

    def test_ticks_are_deterministic(self):
        a = run_scenario(scenario(FAST), repeats=1)
        b = run_scenario(scenario(FAST), repeats=1)
        assert a.ticks == b.ticks
        # an engineless scenario runs once and records ticks only
        assert a.engine_wall_ms == {}
        assert a.speedup is None

    @pytest.mark.parametrize(
        "hooks",
        [
            {},
            {"run": lambda: {}, "prepare": lambda engine: (lambda: {})},
        ],
        ids=["neither", "both"],
    )
    def test_scenario_sets_run_or_prepare(self, hooks):
        with pytest.raises(SegBusError, match="exactly one of run and"):
            BenchScenario("odd", "neither or both hooks", **hooks)

    @pytest.mark.parametrize("repeats", [0, -3])
    @pytest.mark.parametrize("name", [FAST, EMU])
    def test_repeats_below_one_raise(self, name, repeats):
        with pytest.raises(SegBusError, match="repeats must be at least 1"):
            run_scenario(scenario(name), repeats=repeats)


class TestCommittedBaselines:
    def test_every_scenario_has_a_committed_baseline(self):
        for name in SCENARIO_NAMES:
            baseline = load_baseline(name, DEFAULT_BASELINE_DIR)
            assert baseline.name == name
            assert baseline.ticks
        # and no file pins a scenario the registry no longer has
        committed = sorted(DEFAULT_BASELINE_DIR.glob("BENCH_*.json"))
        assert committed == sorted(
            baseline_path(name, DEFAULT_BASELINE_DIR)
            for name in SCENARIO_NAMES
        )

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_committed_ticks_match_reality(self, name, tmp_path):
        # tick counters are machine-independent and a baseline holds
        # nothing else, so re-pinning on any host reproduces the
        # committed file byte for byte
        results = run_bench(names=[name], repeats=1)
        (written,) = write_baselines(results, tmp_path)
        committed = baseline_path(name, DEFAULT_BASELINE_DIR)
        assert written.read_bytes() == committed.read_bytes()


class TestGates:
    def _pinned(self, tmp_path):
        results = run_bench(names=[FAST], repeats=1)
        write_baselines(results, tmp_path)
        return results

    def test_clean_rerun_passes(self, tmp_path):
        self._pinned(tmp_path)
        check = check_bench(
            run_bench(names=[FAST], repeats=1), baseline_dir=tmp_path
        )
        assert check.ok

    def test_tick_drift_fails_even_without_wall(self, tmp_path):
        baseline = self._pinned(tmp_path)[0]
        drifted = BenchResult(
            name=baseline.name,
            ticks={k: v + 1 for k, v in baseline.ticks.items()},
        )
        check = check_bench([drifted], baseline_dir=tmp_path)
        assert not check.ok
        assert any("drifted" in f for f in check.failures)

    def test_missing_baseline_raises(self, tmp_path):
        results = run_bench(names=[FAST], repeats=1)
        with pytest.raises(SegBusError, match="no baseline"):
            check_bench(results, baseline_dir=tmp_path / "empty")

    def test_other_baseline_version_refused(self, tmp_path):
        self._pinned(tmp_path)
        path = baseline_path(FAST, tmp_path)
        data = json.loads(path.read_text())
        path.write_text(json.dumps(dict(data, version=3)))
        with pytest.raises(SegBusError, match="unsupported version 3"):
            load_baseline(FAST, tmp_path)


class TestEngineAwareness:
    def test_every_engine_timed_by_default(self):
        result = run_bench(names=[EMU], repeats=1)[0]
        assert set(result.engine_wall_ms) == {"stepped", "fast"}
        assert result.speedup is not None and result.speedup > 0

    def test_single_engine_run_has_no_speedup(self):
        result = run_bench(names=[EMU], repeats=1, engine="stepped")[0]
        assert set(result.engine_wall_ms) == {"stepped"}
        assert result.speedup is None

    def test_engines_report_identical_ticks(self):
        stepped = run_bench(names=[EMU], repeats=1, engine="stepped")[0]
        fast = run_bench(names=[EMU], repeats=1, engine="fast")[0]
        assert stepped.ticks == fast.ticks

    def test_tick_divergence_between_engines_raises(self):
        item = BenchScenario(
            "diverging",
            "synthetic divergence probe",
            prepare=lambda engine: (
                lambda: {"events": 1 if engine == "stepped" else 2}
            ),
        )
        with pytest.raises(SegBusError, match="diverge between engines"):
            run_scenario(item, repeats=1)

    def test_v4_baseline_roundtrip(self, tmp_path):
        results = run_bench(names=[EMU], repeats=1)
        (path,) = write_baselines(results, tmp_path)
        data = json.loads(path.read_text())
        assert data == {
            "version": BASELINE_VERSION,
            "name": EMU,
            "ticks": results[0].ticks,
        }
        assert BASELINE_VERSION == 4
        # ticks in, ticks out: no wall measurement survives the file
        loaded = load_baseline(EMU, tmp_path)
        assert loaded == BenchResult(name=EMU, ticks=results[0].ticks)


class TestSpeedupGate:
    def _pinned(self, tmp_path):
        pinned = BenchResult(name=GATED, ticks={"events": 1018})
        write_baselines([pinned], tmp_path)
        return pinned

    def test_low_speedup_fails_even_without_wall(self, tmp_path):
        baseline = self._pinned(tmp_path)
        regressed = BenchResult(
            name=baseline.name,
            ticks=baseline.ticks,
            engine_wall_ms={"stepped": 3.0, "fast": 2.5},
            speedup=1.2,
        )
        check = check_bench([regressed], baseline_dir=tmp_path)
        assert not check.ok
        assert any("below the pinned minimum" in f for f in check.failures)

    def test_missing_speedup_noted_not_failed(self, tmp_path):
        baseline = self._pinned(tmp_path)
        single = BenchResult(
            name=baseline.name,
            ticks=baseline.ticks,
            engine_wall_ms={"fast": 2.5},
            speedup=None,
        )
        check = check_bench([single], baseline_dir=tmp_path)
        assert check.ok
        assert any("speedup gate" in n for n in check.notes)


class TestEstimatorGate:
    """dse_estimator_sweep pins ``estimator_speedup_min`` at 50x.

    Gate logic runs on hand-built results (same convention as the
    speedup gate above); one live single-repeat run covers the real
    plumbing — interleaved estimator timing, ``est_``-prefixed ticks,
    the measured ratio — without re-running the full grid per test.
    """

    GATED_EST = "dse_estimator_sweep"

    def _result(self, estimator_speedup, ticks=None):
        return BenchResult(
            name=self.GATED_EST,
            ticks=ticks if ticks is not None else {"events": 480},
            engine_wall_ms={"stepped": 40.0, "fast": 12.0},
            speedup=3.3,
            estimator_speedup=estimator_speedup,
        )

    def test_scenario_pins_estimator_minimum(self):
        assert scenario(self.GATED_EST).estimator_speedup_min == 50.0

    def test_live_run_measures_the_claim(self):
        result = run_bench(names=[self.GATED_EST], repeats=1)[0]
        # the estimator's own predictions ride along as est_ ticks, one
        # per emulated candidate, exempt from the cross-engine assert
        est_ticks = [k for k in result.ticks if k.startswith("est_")]
        emulated = [
            k for k in result.ticks if k.endswith("_execution_time_ps")
        ]
        assert len(est_ticks) == len(emulated) == 6
        # the estimator is a pseudo-engine, not an engine
        assert set(result.engine_wall_ms) == {"stepped", "fast"}
        assert result.estimator_speedup is not None
        assert result.estimator_speedup >= 50.0

    def test_low_estimator_speedup_fails_even_without_wall(self, tmp_path):
        write_baselines([self._result(70.0)], tmp_path)
        check = check_bench([self._result(8.0)], baseline_dir=tmp_path)
        assert not check.ok
        assert any(
            "stochastic estimator" in f and "below the pinned minimum" in f
            for f in check.failures
        )

    def test_missing_estimator_speedup_noted_not_failed(self, tmp_path):
        write_baselines([self._result(70.0)], tmp_path)
        check = check_bench([self._result(None)], baseline_dir=tmp_path)
        assert check.ok
        assert any("estimator speedup gate" in n for n in check.notes)


class TestFormatting:
    def test_table_lists_every_result(self):
        results = run_bench(names=[FAST], repeats=1)
        table = format_results(results)
        assert FAST in table
        assert "execution_time_ps=" in table

    def test_speedup_column(self):
        engine_aware = run_bench(names=[EMU], repeats=1)
        table = format_results(engine_aware)
        assert "speedup" in table
        assert "x" in table.split("\n")[1]

    def test_speedup_dash_for_engineless_scenarios(self):
        table = format_results(run_bench(names=[FAST], repeats=1))
        assert " - " in table.split("\n")[1] + " "

    def test_wall_column_reads_the_fast_median(self):
        both = BenchResult(
            name=EMU, ticks={}, engine_wall_ms={"stepped": 9.0, "fast": 3.0}
        )
        stepped_only = BenchResult(
            name=EMU, ticks={}, engine_wall_ms={"stepped": 9.0}
        )
        rows = format_results([both, stepped_only]).split("\n")[1:]
        assert rows[0].split()[1] == "3.0"
        assert rows[1].split()[1] == "-"


class TestMultimodeScenario:
    def test_registered_with_committed_baseline(self):
        assert "multimode_switch" in SCENARIO_NAMES
        baseline = load_baseline("multimode_switch", DEFAULT_BASELINE_DIR)
        assert baseline.ticks["switches"] == 1
        assert baseline.ticks["transition_ps"] > 0

    def test_ticks_agree_with_the_composed_report(self):
        from repro.apps.workloads import workload_model
        from repro.emulator.multimode import run_multimode

        result = run_scenario(scenario("multimode_switch"), repeats=1)
        scenario_model = workload_model("mp3_jpeg_multimode")
        composed = run_multimode(
            scenario_model.application, scenario_model.platform
        )
        assert result.ticks["events"] == composed.total_events
        assert result.ticks["execution_time_ps"] == \
            composed.execution_time_ps
