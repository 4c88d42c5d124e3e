"""Multi-mode properties: liveness, engine lift, zero-cost degeneration.

Three laws over random mode-switch schedules on lint-clean inputs:

* **liveness** — any seeded schedule over well-formed modes executes to
  completion (the kernels' end-of-iteration invariants are the drain, so
  no schedule can deadlock a switch);
* **engine lift** — the composed trace/timeline/report digests are
  byte-identical across the stepped and fast kernels for every
  schedule (ENG-1 lifted to mode-switch traces);
* **zero-cost degeneration** — with a zero :class:`TransitionSpec` the
  composition collapses to the exact sum of per-mode runs, and the
  stochastic estimate stays inside the documented SAN-1 band.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stochastic import stochastic_estimate_multimode
from repro.emulator.fastkernel import ENGINE_NAMES
from repro.emulator.kernel import PlatformSpec
from repro.emulator.multimode import run_multimode
from repro.model.mapping import Allocation, map_application
from repro.psdf.graph import PSDFGraph
from repro.psdf.modes import (
    ModePhase,
    ModeSchedule,
    MultiModeApplication,
    TransitionSpec,
)

_MODES = {
    "lo": PSDFGraph.from_edges(
        [("A", "B", 36, 1, 10), ("B", "C", 36, 2, 10)], name="lo"
    ),
    "hi": PSDFGraph.from_edges(
        [("A", "B", 72, 1, 20), ("B", "C", 72, 2, 20)], name="hi"
    ),
    "burst": PSDFGraph.from_edges(
        [("A", "B", 108, 1, 5), ("B", "C", 36, 2, 15)], name="burst"
    ),
}

_SPEC = PlatformSpec.from_platform(
    map_application(
        _MODES["lo"],
        Allocation.from_groups([("A", "B"), ("C",)]),
        segment_frequencies_mhz=(100.0, 100.0),
        ca_frequency_mhz=120.0,
        package_size=36,
        name="PropToy",
    ).platform
)


def _app(seed, transition):
    schedule = ModeSchedule.seeded(
        seed,
        tuple(sorted(_MODES)),
        phase_count=5,
        transition=transition,
        dwell_probability=0.2,
        max_dwell_ticks=4096,
    )
    return MultiModeApplication(
        name=f"prop_{seed}", modes=_MODES, schedule=schedule
    )


transitions = st.builds(
    TransitionSpec,
    reconfig_ticks=st.integers(min_value=0, max_value=200),
    flush_ticks_per_bu=st.integers(min_value=0, max_value=20),
)


class TestLiveness:
    @given(seed=st.integers(min_value=0, max_value=10**6),
           transition=transitions)
    @settings(max_examples=20, deadline=None)
    def test_random_schedules_never_deadlock(self, seed, transition):
        composed = run_multimode(_app(seed, transition), _SPEC)
        assert composed.execution_time_fs > 0
        assert len(composed.phases) == 5
        assert all(p.iterations >= 1 for p in composed.phases)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_transition_charges_match_switch_count(self, seed):
        transition = TransitionSpec(reconfig_ticks=7, flush_ticks_per_bu=1)
        composed = run_multimode(_app(seed, transition), _SPEC)
        charged = sum(1 for p in composed.phases if p.transition_after_fs)
        assert charged == composed.switch_count
        assert composed.switch_count <= len(composed.phases) - 1


class TestEngineLift:
    @given(seed=st.integers(min_value=0, max_value=10**6),
           transition=transitions)
    @settings(max_examples=10, deadline=None)
    def test_composed_digests_identical_across_engines(self, seed, transition):
        app = _app(seed, transition)
        observed = [
            run_multimode(app, _SPEC, engine=engine)
            for engine in ENGINE_NAMES
        ]
        reference = observed[0]
        for composed in observed[1:]:
            assert composed.trace_digest() == reference.trace_digest()
            assert composed.timeline_digest() == reference.timeline_digest()
            assert composed.report_digest() == reference.report_digest()
            assert composed.execution_time_fs == reference.execution_time_fs


class TestZeroCostDegeneration:
    @given(mode=st.sampled_from(sorted(_MODES)),
           count=st.integers(min_value=1, max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_same_mode_phases_sum_exactly(self, mode, count):
        app = MultiModeApplication(
            name="flat",
            modes=_MODES,
            schedule=ModeSchedule(
                phases=tuple(ModePhase(mode) for _ in range(count)),
                transition=TransitionSpec(),
            ),
        )
        composed = run_multimode(app, _SPEC)
        single = composed.mode_runs[mode].iteration_fs
        assert composed.transition_total_fs == 0
        assert composed.execution_time_fs == count * single

    @given(seed=st.integers(min_value=1, max_value=50))
    @settings(max_examples=6, deadline=None)
    def test_stochastic_band_holds_with_zero_transition(self, seed):
        # SAN-1 on lint-clean *generated* applications: force the
        # transition to zero so the band is purely the per-mode estimator
        from repro.psdf.modes import MultiModeApplication as MMA
        from repro.testing.generators import generate_multimode_model

        model = generate_multimode_model(seed)
        app = MMA(
            name=model.application.name,
            modes=model.application.modes,
            schedule=ModeSchedule(
                phases=model.application.schedule.phases,
                transition=TransitionSpec(),
            ),
        )
        spec = PlatformSpec.from_platform(model.platform)
        composed = run_multimode(app, spec)
        estimate = stochastic_estimate_multimode(app, spec)
        error = abs(
            estimate.execution_time_fs - composed.execution_time_fs
        ) / composed.execution_time_fs
        assert error <= 0.15
        assert estimate.analytic_fs <= estimate.execution_time_fs
