"""Bench runner tests: deterministic ticks, baselines, regression gates."""

import pytest

from repro.errors import SegBusError
from repro.testing.bench import (
    DEFAULT_BASELINE_DIR,
    SCENARIO_NAMES,
    BenchResult,
    BenchScenario,
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
        assert a.wall_ms > 0


class TestCommittedBaselines:
    def test_every_scenario_has_a_committed_baseline(self):
        for name in SCENARIO_NAMES:
            baseline = load_baseline(name, DEFAULT_BASELINE_DIR)
            assert baseline.name == name
            assert baseline.ticks

    def test_committed_ticks_match_reality(self):
        # tick counters are machine-independent, so the committed
        # baselines must reproduce exactly on any host
        results = run_bench(names=[FAST, "mp3_3seg_emulate"], repeats=1)
        check = check_bench(
            results, baseline_dir=DEFAULT_BASELINE_DIR, check_wall=False
        )
        assert check.ok, check.format()


class TestGates:
    def _pinned(self, tmp_path):
        # medians over 3 repeats: a single-sample baseline can absorb an
        # injected slowdown when the pinning run itself caught a noisy host
        results = run_bench(names=[FAST], repeats=3)
        write_baselines(results, tmp_path)
        return results

    def test_clean_rerun_passes(self, tmp_path):
        self._pinned(tmp_path)
        check = check_bench(
            run_bench(names=[FAST], repeats=1),
            baseline_dir=tmp_path,
            check_wall=False,
        )
        assert check.ok

    def test_injected_slowdown_fails_wall_gate(self, tmp_path):
        self._pinned(tmp_path)
        slow = run_bench(names=[FAST], repeats=3, inject_slowdown=4.0)
        check = check_bench(slow, baseline_dir=tmp_path, wall_ratio_max=1.5)
        assert not check.ok
        assert any("perf regression" in f for f in check.failures)

    def test_no_wall_ignores_slowdown(self, tmp_path):
        self._pinned(tmp_path)
        slow = run_bench(names=[FAST], repeats=1, inject_slowdown=10.0)
        check = check_bench(slow, baseline_dir=tmp_path, check_wall=False)
        assert check.ok

    def test_tick_drift_fails_even_without_wall(self, tmp_path):
        baseline = self._pinned(tmp_path)[0]
        drifted = BenchResult(
            name=baseline.name,
            ticks={k: v + 1 for k, v in baseline.ticks.items()},
            wall_ms=baseline.wall_ms,
            wall_median_ms=baseline.wall_median_ms,
            repeats=1,
        )
        check = check_bench([drifted], baseline_dir=tmp_path, check_wall=False)
        assert not check.ok
        assert any("drifted" in f for f in check.failures)

    def test_missing_baseline_raises(self, tmp_path):
        results = run_bench(names=[FAST], repeats=1)
        with pytest.raises(SegBusError, match="no baseline"):
            check_bench(results, baseline_dir=tmp_path / "empty")

    def test_much_faster_run_noted_not_failed(self, tmp_path):
        baseline = self._pinned(tmp_path)[0]
        quick = BenchResult(
            name=baseline.name,
            ticks=baseline.ticks,
            wall_ms=baseline.wall_ms / 100.0,
            wall_median_ms=baseline.wall_median_ms / 100.0,
            repeats=1,
        )
        check = check_bench([quick], baseline_dir=tmp_path)
        assert check.ok
        assert check.notes


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
            lambda: {"events": 1},
            prepare=lambda engine: (
                lambda: {"events": 1 if engine == "stepped" else 2}
            ),
        )
        with pytest.raises(SegBusError, match="diverge between engines"):
            run_scenario(item, repeats=1)

    def test_v3_baseline_roundtrip(self, tmp_path):
        results = run_bench(names=[EMU], repeats=1)
        write_baselines(results, tmp_path)
        loaded = load_baseline(EMU, tmp_path)
        assert set(loaded.engine_wall_ms) == {"stepped", "fast"}
        assert loaded.speedup == round(results[0].speedup, 2)
        assert set(loaded.throughput_models_per_s) == set(
            loaded.engine_wall_ms
        )
        assert set(loaded.jitter_ms) == set(loaded.engine_wall_ms)
        assert set(loaded.peak_mem_kb) == set(loaded.engine_wall_ms)

    def test_v3_metrics_are_sane(self):
        result = run_bench(names=[EMU], repeats=3)[0]
        for engine, pcts in result.jitter_ms.items():
            assert 0 < pcts["p50"] <= pcts["p90"] <= pcts["p99"]
        for engine, peak in result.peak_mem_kb.items():
            assert peak > 0
        for engine, median in result.engine_wall_ms.items():
            # models/sec must be consistent with the median round wall
            expected = scenario(EMU).models_per_round * 1e3 / median
            assert result.throughput_models_per_s[engine] == pytest.approx(
                expected
            )

    @pytest.mark.parametrize("engine", ["stepped", "fast"])
    def test_slowdown_trips_wall_gate_for_each_engine(self, tmp_path, engine):
        # --inject-slowdown must scale whichever engine feeds the gate
        pinned = run_bench(names=[EMU], repeats=3, engine=engine)
        write_baselines(pinned, tmp_path)
        slow = run_bench(
            names=[EMU], repeats=3, engine=engine, inject_slowdown=10.0
        )
        check = check_bench(slow, baseline_dir=tmp_path, wall_ratio_max=1.5)
        assert not check.ok
        assert any("perf regression" in f for f in check.failures)


class TestSpeedupGate:
    def _pinned(self, tmp_path):
        results = run_bench(names=[GATED], repeats=1)
        write_baselines(results, tmp_path)
        return results[0]

    def test_low_speedup_fails_even_without_wall(self, tmp_path):
        baseline = self._pinned(tmp_path)
        regressed = BenchResult(
            name=baseline.name,
            ticks=baseline.ticks,
            wall_ms=baseline.wall_ms,
            wall_median_ms=baseline.wall_median_ms,
            repeats=baseline.repeats,
            engine_wall_ms=baseline.engine_wall_ms,
            speedup=1.2,
        )
        check = check_bench(
            [regressed], baseline_dir=tmp_path, check_wall=False
        )
        assert not check.ok
        assert any("below the pinned minimum" in f for f in check.failures)

    def test_missing_speedup_noted_not_failed(self, tmp_path):
        baseline = self._pinned(tmp_path)
        single = BenchResult(
            name=baseline.name,
            ticks=baseline.ticks,
            wall_ms=baseline.wall_ms,
            wall_median_ms=baseline.wall_median_ms,
            repeats=baseline.repeats,
            engine_wall_ms={"fast": baseline.wall_median_ms},
            speedup=None,
        )
        check = check_bench([single], baseline_dir=tmp_path, check_wall=False)
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
            wall_ms=1.0,
            wall_median_ms=1.0,
            repeats=1,
            engine_wall_ms={"stepped": 40.0, "fast": 12.0},
            speedup=3.3,
            estimator_wall_ms=0.12,
            estimator_speedup=estimator_speedup,
        )

    def test_scenario_pins_estimator_minimum(self):
        assert scenario(self.GATED_EST).estimator_speedup_min == 50.0

    def test_live_run_measures_the_claim(self):
        result = run_bench(names=[self.GATED_EST], repeats=1)[0]
        # the estimator's own predictions ride along as est_ ticks,
        # exempt from the cross-engine equality assert
        est_ticks = [k for k in result.ticks if k.startswith("est_")]
        assert len(est_ticks) == scenario(self.GATED_EST).models_per_round
        assert result.estimator_wall_ms is not None
        assert result.estimator_speedup is not None
        assert result.estimator_speedup >= 50.0

    def test_low_estimator_speedup_fails_even_without_wall(self, tmp_path):
        write_baselines([self._result(70.0)], tmp_path)
        check = check_bench(
            [self._result(8.0)], baseline_dir=tmp_path, check_wall=False
        )
        assert not check.ok
        assert any(
            "stochastic estimator" in f and "below the pinned minimum" in f
            for f in check.failures
        )

    def test_missing_estimator_speedup_noted_not_failed(self, tmp_path):
        write_baselines([self._result(70.0)], tmp_path)
        check = check_bench(
            [self._result(None)], baseline_dir=tmp_path, check_wall=False
        )
        assert check.ok
        assert any("estimator speedup gate" in n for n in check.notes)

    def test_estimator_fields_roundtrip_through_baseline(self, tmp_path):
        write_baselines([self._result(70.0)], tmp_path)
        loaded = load_baseline(self.GATED_EST, tmp_path)
        assert loaded.estimator_wall_ms == pytest.approx(0.12)
        assert loaded.estimator_speedup == pytest.approx(70.0)

    def test_committed_baseline_records_fifty_x(self):
        # the acceptance bar: the committed measurement must show the
        # estimator >=50x faster than the fast engine on the DSE grid
        baseline = load_baseline(self.GATED_EST, DEFAULT_BASELINE_DIR)
        assert baseline.estimator_speedup is not None
        assert baseline.estimator_speedup >= 50.0
        assert any(k.startswith("est_") for k in baseline.ticks)


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


class TestMultimodeScenario:
    def test_registered_with_committed_baseline(self):
        assert "multimode_switch" in SCENARIO_NAMES
        baseline = load_baseline("multimode_switch", DEFAULT_BASELINE_DIR)
        assert baseline.ticks["switches"] == 1
        assert baseline.ticks["transition_ps"] > 0

    def test_committed_ticks_match_reality(self):
        results = run_bench(names=["multimode_switch"], repeats=1)
        check = check_bench(
            results, baseline_dir=DEFAULT_BASELINE_DIR, check_wall=False
        )
        assert check.ok, check.format()

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
