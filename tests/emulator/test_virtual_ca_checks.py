"""The fast kernel's leaner paths keep every count exact.

A CA check scheduled while the CA queue is empty is *virtual* on the fast
engine: it is counted as one executed event once the run passes it, and
never queued.  An SA check that a local request schedules on an idle
segment, with nothing queued ahead of it, is *fused*: it runs inside the
request's event and is counted, not queued.  Budgets and horizons still
count logical events, so every run, fault-free or under a transient
plan, must end exactly where the stepped engine ends it: the same
executed count and digest, or the same ``StallError`` text.  The fast
engine's jobs follow the transfers (fault-free) or the packages in
flight (under faults), so its memory does not grow with the data volume
of a flow.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.apps.jpeg import jpeg_decoder_psdf, jpeg_platform
from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator import fastkernel
from repro.emulator.config import EmulationConfig
from repro.emulator.events import PRIO_CA
from repro.emulator.fastkernel import make_simulation
from repro.emulator.kernel import PlatformSpec
from repro.emulator.report import build_report
from repro.errors import StallError
from repro.faults import FaultPlan, RetryPolicy, Watchdog
from repro.psdf.graph import PSDFGraph

MODELS = {
    "mp3_1seg": (mp3_decoder_psdf, lambda: paper_platform(1)),
    "mp3_2seg": (mp3_decoder_psdf, lambda: paper_platform(2)),
    "mp3_3seg": (mp3_decoder_psdf, lambda: paper_platform(3)),
    "jpeg_3seg": (jpeg_decoder_psdf, lambda: jpeg_platform(3)),
}


#: transient plans, with and without grant loss (a lost SA grant
#: re-schedules the check it fused in)
PLANS = {
    "fault-free": {},
    "corruption": dict(corruption_rate=0.05),
    "corruption+grant-loss": dict(corruption_rate=0.05, grant_loss_rate=0.05),
}


def _model(name):
    application, platform = MODELS[name]
    return application(), PlatformSpec.from_platform(platform())


def _faults(plan):
    """Keyword arguments that run a model under ``PLANS[plan]``."""
    if not PLANS[plan]:
        return {}
    return dict(
        fault_plan=FaultPlan.transient(seed=7, **PLANS[plan]),
        retry_policy=RetryPolicy(max_attempts=8, on_exhaustion="degrade"),
    )


def _outcome(engine, application, spec, config, plan="fault-free"):
    """How a run ends: its digest, or the StallError text that stopped it."""
    sim = make_simulation(
        application, spec, config, engine=engine, **_faults(plan)
    )
    try:
        sim.run()
    except StallError as exc:
        return "stall", str(exc), sim.queue.executed, sim.queue.now_fs
    digest = build_report(sim).digest()
    return "done", digest, sim.queue.executed, sim.queue.now_fs


def _budgets(name, plan):
    """Event budgets and tick horizons around the run's own length.

    The fast engine counts virtual and fused checks while fewer than a
    quarter of the budget's events have run; budgets near a quarter and
    a third of the run end it there.
    """
    application, spec = _model(name)
    full = make_simulation(
        application, spec, engine="stepped", **_faults(plan)
    ).run()
    events = full.queue.executed
    ticks = full.ca.clock.ticks(full.queue.now_fs)
    rng = random.Random(f"{name}/{plan}")
    configs = [
        EmulationConfig(max_events=budget)
        for budget in (1, 2, 3, 4, 5, 63, 64, 65)
        + tuple(range(events // 4 - 2, events // 4 + 3))
        + tuple(range(events // 3 - 2, events // 3 + 3))
        + tuple(range(events - 2, events + 2))
    ]
    configs += [
        EmulationConfig(max_events=rng.randint(1, events)) for _ in range(12)
    ]
    configs += [
        EmulationConfig(max_ticks=rng.randint(1, ticks + 2)) for _ in range(12)
    ]
    configs += [
        EmulationConfig(
            max_events=rng.randint(1, events + 1),
            max_ticks=rng.randint(1, ticks + 2),
        )
        for _ in range(6)
    ]
    return application, spec, configs


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_budgets_and_horizons_end_both_engines_alike(name, plan):
    application, spec, configs = _budgets(name, plan)
    for config in configs:
        stepped = _outcome("stepped", application, spec, config, plan)
        fast = _outcome("fast", application, spec, config, plan)
        assert fast == stepped, (config.max_events, config.max_ticks)


class TestCaPushes:
    """Which CA and SA checks reach the fast engine's heap."""

    @staticmethod
    def _run_counting(monkeypatch, **kwargs):
        application, spec = _model("mp3_3seg")
        sim = make_simulation(application, spec, engine="fast", **kwargs)
        pushes = {"empty": 0, "queued": 0}
        real_push = fastkernel.heappush

        def counting(heap, entry):
            if entry[1] == PRIO_CA and entry[4] == sim._on_ca_check:
                pushes["queued" if sim.ca.queue else "empty"] += 1
            real_push(heap, entry)

        monkeypatch.setattr(fastkernel, "heappush", counting)
        sim.run()
        return sim, pushes

    def test_fault_free_runs_queue_no_empty_check(self, monkeypatch):
        sim, pushes = self._run_counting(monkeypatch)
        assert pushes["empty"] == 0
        assert pushes["queued"] > 0
        # about a quarter of MP3's logical events are empty CA checks
        assert sim._ca_virtual_count > sim.queue.executed // 5
        assert sim._fused_count > 0
        application, spec = _model("mp3_3seg")
        stepped = make_simulation(application, spec, engine="stepped").run()
        assert sim.queue.executed == stepped.queue.executed

    def test_a_watchdog_keeps_every_check_real(self, monkeypatch):
        sim, pushes = self._run_counting(
            monkeypatch, watchdog=Watchdog(stall_ticks=1_000_000)
        )
        assert pushes["empty"] > 0
        assert sim._ca_virtual_count == 0
        assert sim._fused_count == 0

    def test_a_timeout_policy_keeps_every_check_real(self, monkeypatch):
        sim, pushes = self._run_counting(
            monkeypatch, retry_policy=RetryPolicy(timeout_ticks=100_000)
        )
        assert pushes["empty"] > 0
        assert sim._ca_virtual_count == 0
        assert sim._fused_count == 0


def _large_flow_mp3(data_items: int) -> PSDFGraph:
    """MP3 with its P2 -> P3 flow raised to ``data_items`` items."""
    base = mp3_decoder_psdf()
    return PSDFGraph.from_edges(
        [
            (
                flow.source,
                flow.target,
                data_items
                if (flow.source, flow.target) == ("P2", "P3")
                else flow.data_items,
                flow.order,
                flow.cost,
            )
            for flow in base.flows
        ],
        name=base.name,
    )


def _traced_peak(engine, application, spec):
    tracemalloc.start()
    try:
        sim = make_simulation(application, spec, engine=engine).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, build_report(sim).digest()


def test_fast_memory_follows_packages_in_flight():
    # Precreated jobs held one object per package for the whole run, so
    # the fast engine's peak grew with the data volume (100x the flow's
    # volume added ~230 KiB over the stepped engine's peak).  Its
    # precomputed per-element constants stay: a fixed few KiB on MP3.
    spec = PlatformSpec.from_platform(paper_platform(2))
    gaps = {}
    for items in (540, 54_000):
        application = _large_flow_mp3(items)
        for engine in ("stepped", "fast"):  # warm caches outside the trace
            make_simulation(application, spec, engine=engine).run()
        stepped_peak, stepped_digest = _traced_peak(
            "stepped", application, spec
        )
        fast_peak, fast_digest = _traced_peak("fast", application, spec)
        assert fast_digest == stepped_digest
        gaps[items] = fast_peak - stepped_peak
    assert gaps[54_000] <= gaps[540] + 4096
