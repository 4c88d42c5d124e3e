"""A finished run frees itself: nothing it leaves needs the cyclic collector.

Every run below executes with the cyclic garbage collector disabled.  Once
the caller drops the simulation, reference counting alone must have freed
it (its weak reference is dead) and a full collection must find nothing —
on both engines, whether the run completed, degraded or raised.  The same
holds for a lint call, which runs the built-in rule catalogue built once
per process.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.apps.workloads import workload_model
from repro.emulator.config import EmulationConfig
from repro.emulator.fastkernel import ENGINE_NAMES, make_simulation
from repro.emulator.kernel import PlatformSpec
from repro.emulator.multimode import run_multimode_detailed
from repro.errors import StallError
from repro.faults import FaultPlan, RetryPolicy, Watchdog
from repro.faults.model import KIND_PERMANENT, FaultRecord
from repro.lint import Rule, Severity, builtin_registry, default_registry
from repro.lint import engine as lint_engine
from repro.lint import lint_models


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _mp3(engine, config=None, **kwargs):
    """An unrun simulation of MP3 on the paper's three segments."""
    return make_simulation(
        mp3_decoder_psdf(),
        PlatformSpec.from_platform(paper_platform(3)),
        config,
        engine=engine,
        **kwargs,
    )


def _stalled(sim, reason):
    try:
        sim.run()
    except StallError as exc:
        assert reason in str(exc)
    else:
        pytest.fail("the run should have stalled")
    return [weakref.ref(sim)]


def _completed(engine):
    sim = _mp3(engine).run()
    assert not sim.degraded
    return [weakref.ref(sim)]


def _degraded(engine):
    failure = FaultRecord(site="fu:P2", kind=KIND_PERMANENT, at_tick=100)
    sim = _mp3(
        engine,
        fault_plan=FaultPlan(seed=9, records=(failure,)),
        retry_policy=RetryPolicy(on_permanent_failure="degrade"),
    ).run()
    assert sim.degraded
    return [weakref.ref(sim)]


def _event_budget(engine):
    return _stalled(
        _mp3(engine, EmulationConfig(max_events=200)), "event budget"
    )


def _watchdog(engine):
    # every grant is lost: time advances, nothing retires
    sim = _mp3(
        engine,
        fault_plan=FaultPlan.transient(seed=3, grant_loss_rate=1.0),
        retry_policy=RetryPolicy(max_attempts=100_000, backoff="none"),
        watchdog=Watchdog(stall_ticks=5_000, check_every=64),
    )
    return _stalled(sim, "watchdog")


def _multimode(engine):
    model = workload_model("mp3_jpeg_multimode")
    report, measurements = run_multimode_detailed(
        model.application, model.platform, engine=engine
    )
    assert report.switch_count == 1
    return [weakref.ref(measured.sim) for measured in measurements.values()]


RUNS = {
    "completed": _completed,
    "degraded": _degraded,
    "event-budget": _event_budget,
    "watchdog": _watchdog,
    "multimode": _multimode,
}


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("case", sorted(RUNS))
def test_a_dropped_run_is_freed_by_reference_counting(case, engine):
    RUNS[case](engine)  # warm: first-call imports and caches settle here
    with collector_off():
        refs = RUNS[case](engine)
        assert refs and all(ref() is None for ref in refs)
        assert gc.collect() == 0


def test_served_emulate_jobs_leave_nothing():
    # the report digest's indented JSON text used to come from the stdlib's
    # pure-Python encoder, whose closures left 33 cyclic objects per job
    from repro.serve.jobs import execute_job, parse_job, response_bytes
    from repro.xmlio.psdf_writer import psdf_to_xml
    from repro.xmlio.psm_writer import psm_to_xml

    platform = paper_platform(2)
    payload = {
        "kind": "emulate",
        "psdf_xml": psdf_to_xml(mp3_decoder_psdf(), platform.package_size),
        "psm_xml": psm_to_xml(platform),
    }
    expected = response_bytes(execute_job(parse_job(payload)))
    with collector_off():
        for _ in range(3):
            assert response_bytes(execute_job(parse_job(payload))) == expected
        assert gc.collect() == 0


class TestLintCatalogue:
    def test_two_lint_calls_leave_nothing_and_build_once(self, monkeypatch):
        builds = []
        real = lint_engine.default_registry

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(lint_engine, "default_registry", counted)
        application, platform = mp3_decoder_psdf(), paper_platform(3)
        # the one build, and the eviction of the previous one, happen here
        assert builtin_registry() is builtin_registry()
        with collector_off():
            for _ in range(2):
                report = lint_models(application=application, platform=platform)
                assert report.checked_rules == len(builtin_registry()) - 1
            del report
            assert gc.collect() == 0
        assert len(builds) == 1

    def test_served_lint_jobs_leave_nothing(self):
        from repro.serve.jobs import execute_job, parse_job, response_bytes
        from repro.xmlio.psdf_writer import psdf_to_xml
        from repro.xmlio.psm_writer import psm_to_xml

        platform = paper_platform(2)
        payload = {
            "kind": "lint",
            "psdf_xml": psdf_to_xml(mp3_decoder_psdf(), platform.package_size),
            "psm_xml": psm_to_xml(platform),
        }
        expected = response_bytes(execute_job(parse_job(payload)))
        with collector_off():
            for _ in range(3):
                body = response_bytes(execute_job(parse_job(payload)))
                assert body == expected
            assert gc.collect() == 0

    def test_default_registry_stays_fresh_and_open(self):
        first, second = default_registry(), default_registry()
        assert first is not second
        assert first is not builtin_registry()
        first.register(
            Rule(
                id="SB990",
                name="caller-rule",
                severity=Severity.INFO,
                category="engine",
                description="a caller may add its own rules",
                rationale="default_registry is the caller's to extend",
                example="a project-specific naming check",
                check=lambda ctx: [],
            )
        )
        assert "SB990" in first
        assert "SB990" not in second
        assert "SB990" not in builtin_registry()
