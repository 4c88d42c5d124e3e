"""The reliability sweep: completion probability and overhead curves."""

import json

import pytest

from repro.analysis.reliability import ReliabilityCurve, reliability_sweep
from repro.errors import FaultConfigError, SegBusError
from repro.faults import RetryPolicy


@pytest.fixture(scope="module")
def curve(request):
    mp3_graph = request.getfixturevalue("mp3_graph")
    platform_3seg = request.getfixturevalue("platform_3seg")
    return reliability_sweep(
        mp3_graph,
        platform_3seg,
        rates=[0.0, 0.05],
        seeds=(1, 2),
        retry_policy=RetryPolicy(max_attempts=8, on_exhaustion="degrade"),
    )


class TestSweep:
    def test_zero_rate_point_is_baseline(self, curve):
        point = curve.point_at(0.0)
        assert point.completion_probability == 1.0
        assert point.overhead_pct == 0.0
        assert point.mean_retries == 0.0

    def test_nonzero_rate_costs_time(self, curve):
        point = curve.point_at(0.05)
        assert point.mean_retries > 0
        assert point.mean_nacks > 0
        assert point.overhead_pct > 0
        assert point.runs == 2
        assert point.completed + point.degraded + point.failed == 2

    def test_unknown_rate_raises(self, curve):
        with pytest.raises(KeyError):
            curve.point_at(0.5)

    def test_rejects_permanent_kind(self, mp3_graph, platform_3seg):
        with pytest.raises(FaultConfigError, match="transient"):
            reliability_sweep(
                mp3_graph,
                platform_3seg,
                rates=[0.0],
                kind="permanent_failure",
            )


    @pytest.mark.parametrize(
        "rates, seeds, message",
        [
            ([0.001, 0.001], (1,), "rates names 0.001 twice"),
            ([0.0, 1e-3, 0.001], (1,), "rates names 0.001 twice"),
            ([0.001], (2, 3, 2), "seeds names 2 twice"),
        ],
    )
    def test_a_repeated_grid_value_is_refused_before_simulation(
        self, mp3_graph, platform_3seg, monkeypatch, rates, seeds, message
    ):
        # a repeat would print its curve row twice and simulate its
        # points again
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep simulated before the check")

        monkeypatch.setattr("repro.analysis.reliability.emulate", refuse)
        with pytest.raises(SegBusError, match=message):
            reliability_sweep(mp3_graph, platform_3seg, rates=rates, seeds=seeds)


class TestExports:
    def test_markdown_table(self, curve):
        table = curve.to_markdown()
        assert table.startswith("| rate |")
        assert table.count("\n") == 1 + len(curve.points)

    def test_csv(self, curve, tmp_path):
        target = tmp_path / "curve.csv"
        text = curve.to_csv(target)
        assert target.read_text(encoding="utf-8") == text
        assert text.splitlines()[0].startswith("rate,")
        assert len(text.splitlines()) == 1 + len(curve.points)

    def test_json_round_trip(self, curve):
        data = json.loads(curve.to_json())
        assert data["application"] == "MP3Decoder"
        assert data["kind"] == "package_corruption"
        assert len(data["points"]) == 2
        rebuilt_rates = [p["rate"] for p in data["points"]]
        assert rebuilt_rates == [0.0, 0.05]

    def test_as_dict_matches_points(self, curve):
        data = curve.as_dict()
        assert data["points"][1]["mean_retries"] == round(
            curve.point_at(0.05).mean_retries, 2
        )


class TestEngineMatrix:
    """The sweep's aggregated curve is engine-independent (ENG-1 applied)."""

    @pytest.mark.parametrize("engine", ["fast"])
    def test_curve_identical_to_stepped(self, request, engine):
        mp3_graph = request.getfixturevalue("mp3_graph")
        platform_3seg = request.getfixturevalue("platform_3seg")
        kwargs = dict(
            rates=[0.0, 0.01],
            seeds=(1, 2, 3),
            retry_policy=RetryPolicy(max_attempts=8, on_exhaustion="degrade"),
            workers=1,
        )
        stepped = reliability_sweep(
            mp3_graph, platform_3seg, engine="stepped", **kwargs
        )
        other = reliability_sweep(
            mp3_graph, platform_3seg, engine=engine, **kwargs
        )
        assert other.as_dict() == stepped.as_dict()


class TestZeroHitClones:
    """Zero-hit points take the counting reference's measurement."""

    GRID = dict(rates=[0.0, 0.0005, 0.01], seeds=(1, 2, 3, 4), workers=1)

    @staticmethod
    def _sweep_pair(mp3_graph, platform_3seg, monkeypatch, policy):
        """The grid's curve with the zero-hit classifier on, then off."""
        kwargs = dict(TestZeroHitClones.GRID, retry_policy=policy)
        cloned = reliability_sweep(mp3_graph, platform_3seg, **kwargs)
        with monkeypatch.context() as patch:
            # classifier off: every point is simulated
            patch.setattr(
                "repro.faults.zerohit.zero_hit",
                lambda plans, opportunities: [False] * len(plans),
            )
            simulated = reliability_sweep(mp3_graph, platform_3seg, **kwargs)
        return cloned, simulated

    def test_curve_identical_to_simulating_every_point(
        self, mp3_graph, platform_3seg, monkeypatch
    ):
        cloned, simulated = self._sweep_pair(
            mp3_graph,
            platform_3seg,
            monkeypatch,
            RetryPolicy(on_exhaustion="degrade"),
        )
        assert cloned.as_dict() == simulated.as_dict()
        # one attempt: every injected fault fails its run, so the grid
        # mixes cloned, failing and completing points
        cloned, simulated = self._sweep_pair(
            mp3_graph,
            platform_3seg,
            monkeypatch,
            RetryPolicy(max_attempts=1, on_exhaustion="fail"),
        )
        assert cloned.as_dict() == simulated.as_dict()
        assert simulated.point_at(0.01).failed > 0
        assert simulated.point_at(0.01).completed > 0
        assert simulated.point_at(0.0).completed == 4

    def test_reference_that_fails_is_not_cloned(
        self, mp3_graph, platform_3seg, monkeypatch
    ):
        # a 1-tick CA budget times out fault-free, and one attempt under
        # ``fail`` raises: every point fails, the sweep itself does not
        cloned, simulated = self._sweep_pair(
            mp3_graph,
            platform_3seg,
            monkeypatch,
            RetryPolicy(timeout_ticks=1, max_attempts=1, on_exhaustion="fail"),
        )
        assert cloned.as_dict() == simulated.as_dict()
        assert all(point.failed == point.runs for point in cloned.points)

    def test_reference_that_degrades_is_not_cloned(
        self, mp3_graph, platform_3seg, monkeypatch, tmp_path
    ):
        from repro.analysis.executor import CheckpointJournal

        policy = RetryPolicy(
            timeout_ticks=1, max_attempts=1, on_exhaustion="degrade"
        )
        cloned, simulated = self._sweep_pair(
            mp3_graph, platform_3seg, monkeypatch, policy
        )
        assert cloned.as_dict() == simulated.as_dict()
        assert all(point.degraded == point.runs for point in cloned.points)
        reliability_sweep(
            mp3_graph,
            platform_3seg,
            retry_policy=policy,
            checkpoint_dir=tmp_path,
            checkpoint_name="sweep",
            **self.GRID,
        )
        # every point is simulated and journaled, none cloned
        assert len(CheckpointJournal(tmp_path, "sweep").load()) == 12

    def test_journal_holds_simulated_points_only(
        self, mp3_graph, platform_3seg, tmp_path
    ):
        from repro.analysis.executor import CheckpointJournal

        direct = reliability_sweep(mp3_graph, platform_3seg, **self.GRID)
        journaled = reliability_sweep(
            mp3_graph,
            platform_3seg,
            checkpoint_dir=tmp_path,
            checkpoint_name="sweep",
            **self.GRID,
        )
        assert journaled.as_dict() == direct.as_dict()
        entries = CheckpointJournal(tmp_path, "sweep").load()
        labels = sorted(label for label, _ in entries.values())
        # the rate-0 points and 0.0005#s2-s4, 0.01#s4 draw no fault
        assert labels == [
            "package_corruption@0.0005#s1",
            "package_corruption@0.01#s1",
            "package_corruption@0.01#s2",
            "package_corruption@0.01#s3",
        ]
        resumed = reliability_sweep(
            mp3_graph,
            platform_3seg,
            checkpoint_dir=tmp_path,
            checkpoint_name="sweep",
            resume=True,
            **self.GRID,
        )
        assert resumed.as_dict() == direct.as_dict()


class TestOneFaultFreeRun:
    """The counting reference doubles as the baseline when it can."""

    GRID = dict(rates=[0.0], seeds=(1, 2), workers=1)

    @staticmethod
    def _sweep_counting_runs(mp3_graph, platform_3seg, monkeypatch, policy):
        from repro.emulator.kernel import Simulation

        runs = []
        real_run = Simulation.run

        def counted(sim):
            runs.append(type(sim).__name__)
            return real_run(sim)

        with monkeypatch.context() as patch:
            patch.setattr(Simulation, "run", counted)
            curve = reliability_sweep(
                mp3_graph,
                platform_3seg,
                retry_policy=policy,
                **TestOneFaultFreeRun.GRID,
            )
        return curve, len(runs)

    def test_without_timeout_the_reference_is_the_baseline(
        self, mp3_graph, platform_3seg, monkeypatch
    ):
        from repro.emulator.emulator import emulate

        curve, runs = self._sweep_counting_runs(
            mp3_graph,
            platform_3seg,
            monkeypatch,
            RetryPolicy(on_exhaustion="degrade"),
        )
        # both rate-0 points are cloned: the counting reference is the
        # sweep's only kernel run (a separate baseline made it two)
        assert runs == 1
        expected = emulate(mp3_graph, platform_3seg).execution_time_us
        assert curve.baseline_execution_time_us == expected
        assert curve.point_at(0.0).overhead_pct == 0.0

    def test_a_timeout_policy_keeps_the_separate_baseline(
        self, mp3_graph, platform_3seg, monkeypatch
    ):
        from repro.emulator.emulator import emulate

        curve, runs = self._sweep_counting_runs(
            mp3_graph,
            platform_3seg,
            monkeypatch,
            RetryPolicy(timeout_ticks=100_000, on_exhaustion="degrade"),
        )
        assert runs == 2
        expected = emulate(mp3_graph, platform_3seg).execution_time_us
        assert curve.baseline_execution_time_us == expected
