"""The progress watchdog and the kernel's event/tick budgets."""

import pytest

from repro.emulator.config import EmulationConfig
from repro.emulator.fastkernel import ENGINE_NAMES, make_simulation
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.report import build_report
from repro.errors import DeadlockError, StallError
from repro.faults import FaultPlan, RetryPolicy, Watchdog


@pytest.fixture
def spec_3seg(platform_3seg):
    return PlatformSpec.from_platform(platform_3seg)


class TestWatchdog:
    def test_validation(self):
        from repro.errors import FaultConfigError

        with pytest.raises(FaultConfigError):
            Watchdog(stall_ticks=0)
        with pytest.raises(FaultConfigError):
            Watchdog(check_every=0)

    def test_fires_on_livelock(self, mp3_graph, spec_3seg):
        # every grant lost: time advances forever but nothing ever retires
        sim = Simulation(
            mp3_graph,
            spec_3seg,
            fault_plan=FaultPlan.transient(seed=3, grant_loss_rate=1.0),
            retry_policy=RetryPolicy(max_attempts=100_000, backoff="none"),
            watchdog=Watchdog(stall_ticks=5_000, check_every=64),
        )
        with pytest.raises(StallError) as excinfo:
            sim.run()
        error = excinfo.value
        assert "watchdog" in str(error)
        assert error.pending
        assert error.stalled_elements
        assert error.last_progress_tick is not None

    def test_silent_on_healthy_run(self, mp3_graph, spec_3seg):
        sim = Simulation(
            mp3_graph,
            spec_3seg,
            watchdog=Watchdog(stall_ticks=100_000, check_every=64),
        ).run()
        assert not sim.degraded


class TestBudgets:
    def test_event_budget_raises_stall_error(self, mp3_graph, spec_3seg):
        sim = Simulation(
            mp3_graph, spec_3seg, config=EmulationConfig(max_events=200)
        )
        with pytest.raises(StallError, match="event budget exhausted"):
            sim.run()

    def test_tick_budget_raises_stall_error(self, mp3_graph, spec_3seg):
        # MP3 needs ~54k CA ticks; a 1k budget must trip the guard
        sim = Simulation(
            mp3_graph, spec_3seg, config=EmulationConfig(max_ticks=1_000)
        )
        with pytest.raises(StallError, match="tick budget exhausted"):
            sim.run()

    def test_budget_errors_carry_diagnostics(self, mp3_graph, spec_3seg):
        sim = Simulation(
            mp3_graph, spec_3seg, config=EmulationConfig(max_events=200)
        )
        with pytest.raises(StallError) as excinfo:
            sim.run()
        assert excinfo.value.pending
        assert isinstance(excinfo.value, DeadlockError)

    def test_timeout_sweep_past_the_horizon_ends_a_finished_run(
        self, mp3_graph, spec_3seg, report_3seg
    ):
        # every inter-segment request arms a CA timeout sweep at arrival +
        # T + 1 ticks; with T at the default 10**9-tick horizon those
        # sweeps land past it after the work is done, and must not fail
        # the run
        policy = RetryPolicy(timeout_ticks=10**9)
        reports = {
            engine: build_report(
                make_simulation(
                    mp3_graph, spec_3seg, engine=engine, retry_policy=policy
                ).run()
            )
            for engine in ENGINE_NAMES
        }
        assert len({report.digest() for report in reports.values()}) == 1
        for report in reports.values():
            assert report.execution_time_fs == report_3seg.execution_time_fs
            assert not report.degraded

    def test_work_left_past_the_horizon_still_raises(self, mp3_graph, spec_3seg):
        for engine in ENGINE_NAMES:
            sim = make_simulation(
                mp3_graph,
                spec_3seg,
                EmulationConfig(max_ticks=1_000),
                engine=engine,
                retry_policy=RetryPolicy(timeout_ticks=10**9),
            )
            with pytest.raises(StallError, match="tick budget exhausted"):
                sim.run()

    def test_default_budgets_do_not_interfere(self, report_3seg):
        # the session-scoped paper run finished under the default budgets
        assert report_3seg.execution_time_fs > 0
