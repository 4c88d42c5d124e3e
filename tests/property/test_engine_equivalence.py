"""Differential property suite: every derived engine mirrors the stepped one.

Every generated model — fault-free, under seeded transient fault plans,
with retry/timeout policies (including degraded outcomes), and under the
store-and-forward protocol — must produce *byte-identical* trace,
timeline and report digests and the same executed-event count across the
engine matrix: the cycle-stepped reference and the event-driven fast
kernel.  Each model also runs untraced on every engine, and those digests
and counts must agree too.  This is the enforcement arm of the engine
equivalence contract (docs/PERFORMANCE.md): anything the stepped kernel
observes, the derived kernel must observe identically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.config import EmulationConfig
from repro.emulator.fastkernel import FastSimulation
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.report import build_report
from repro.emulator.trace import Tracer
from repro.errors import StallError
from repro.faults import FaultPlan, RetryPolicy
from repro.testing.generators import generate_model

ENGINES = (Simulation, FastSimulation)


def _observe(engine_cls, application, spec, config=None, fault_plan=None,
             retry_policy=None):
    """Run one engine and collect everything the contract pins.

    The model runs twice, traced and untraced: some of a kernel's paths
    run only without a tracer, so the untraced run's digests and event
    count are observed as well.
    """
    def run(tracer):
        return engine_cls(
            application,
            spec,
            config or EmulationConfig(),
            tracer=tracer,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        ).run()

    tracer = Tracer()
    sim = run(tracer)
    report = build_report(sim)
    bare = run(None)
    bare_report = build_report(bare)
    return {
        "trace": tracer.digest(),
        "timeline": report.timeline.digest(),
        "report": report.digest(),
        "events": sim.queue.executed,
        "execution_time_fs": sim.execution_time_fs(),
        "degraded": sim.degraded,
        "failed_elements": tuple(sorted(sim.failed_elements)),
        "untraced": (
            bare_report.timeline.digest(),
            bare_report.digest(),
            bare.queue.executed,
        ),
    }


def _assert_equivalent(application, spec, config=None, make_fault_plan=None,
                       retry_policy=None):
    """Every engine, fresh fault plans each (plans hold RNG state)."""
    observations = {
        engine_cls.__name__: _observe(
            engine_cls,
            application,
            spec,
            config=config,
            fault_plan=make_fault_plan() if make_fault_plan else None,
            retry_policy=retry_policy,
        )
        for engine_cls in ENGINES
    }
    reference_name = ENGINES[0].__name__
    reference = observations[reference_name]
    for name, observed in observations.items():
        assert observed == reference, (
            f"{name} diverged from {reference_name}: "
            + ", ".join(
                key for key in reference if reference[key] != observed[key]
            )
        )


class TestFaultFreeEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=50_000))
    def test_random_models_identical_digests(self, seed):
        model = generate_model(seed)
        spec = PlatformSpec.from_platform(model.platform)
        _assert_equivalent(model.application, spec)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=50_000))
    def test_reference_fidelity_config(self, seed):
        # the non-default timing knobs (grant latency, turnaround,
        # handshake, sync) exercise every f_* constant the fast engine
        # precomputes
        model = generate_model(seed)
        spec = PlatformSpec.from_platform(model.platform)
        _assert_equivalent(
            model.application, spec, config=EmulationConfig.reference()
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=50_000))
    def test_store_and_forward_protocol(self, seed):
        model = generate_model(seed)
        spec = PlatformSpec.from_platform(model.platform)
        _assert_equivalent(
            model.application,
            spec,
            config=EmulationConfig(
                inter_segment_protocol="store-and-forward"
            ),
        )


class TestFaultedEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=50_000),
        fault_seed=st.integers(min_value=1, max_value=10_000),
        corruption=st.sampled_from([0.0, 0.02, 0.08]),
        grant_loss=st.sampled_from([0.0, 0.05]),
    )
    def test_transient_faults_identical_digests(
        self, seed, fault_seed, corruption, grant_loss
    ):
        model = generate_model(seed)
        spec = PlatformSpec.from_platform(model.platform)
        _assert_equivalent(
            model.application,
            spec,
            make_fault_plan=lambda: FaultPlan.transient(
                seed=fault_seed,
                corruption_rate=corruption,
                grant_loss_rate=grant_loss,
                stall_rate=0.02,
                stall_ticks=7,
            ),
            retry_policy=RetryPolicy(max_attempts=5),
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=50_000),
        fault_seed=st.integers(min_value=1, max_value=10_000),
    )
    def test_timeout_policy_identical_digests(self, seed, fault_seed):
        # timeout_ticks arms the CA wait bookkeeping — the one cold path
        # the fast engine guards behind its _has_timeout flag
        model = generate_model(seed)
        spec = PlatformSpec.from_platform(model.platform)
        _assert_equivalent(
            model.application,
            spec,
            make_fault_plan=lambda: FaultPlan.transient(
                seed=fault_seed, corruption_rate=0.05, bu_drop_rate=0.02
            ),
            retry_policy=RetryPolicy(
                max_attempts=6, timeout_ticks=400, on_exhaustion="degrade"
            ),
        )


def _budgeted(engine_cls, application, spec, config):
    """A run's end under a budget: its digest, or the StallError text."""
    sim = engine_cls(application, spec, config)
    try:
        sim.run()
    except StallError as exc:
        return "stall", str(exc), sim.queue.executed, sim.queue.now_fs
    digest = build_report(sim).digest()
    return "done", digest, sim.queue.executed, sim.queue.now_fs


class TestBudgetEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=50_000),
        offset=st.integers(min_value=-12, max_value=2),
    )
    def test_event_budget_near_the_run_length(self, seed, offset):
        # the fast engine counts empty CA checks instead of queueing them;
        # a budget that ends the run at, just before or just after its
        # last events must stop both engines at the same logical event
        model = generate_model(seed)
        spec = PlatformSpec.from_platform(model.platform)
        events = Simulation(model.application, spec).run().queue.executed
        config = EmulationConfig(max_events=max(1, events + offset))
        stepped, fast = (
            _budgeted(engine_cls, model.application, spec, config)
            for engine_cls in ENGINES
        )
        assert fast == stepped
