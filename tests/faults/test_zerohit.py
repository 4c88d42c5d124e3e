"""Zero-hit classifier tests: exact predraws, the census, pinned counts.

A reliability sweep skips simulating every point whose fault streams
provably never fire and takes the counting reference's measurement
instead.  These tests pin the machinery that proof leans on (the
predraw against the fault streams it replays, the counting injector's
opportunity census), the exact counts on the bench's
``faults_sweep`` grid, and the claim itself: every point classified
zero-hit reports exactly what simulating it reports.
"""

import random

import pytest

from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.fastkernel import ENGINE_NAMES, make_simulation
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.report import build_report
from repro.faults import FaultPlan, FaultRecord, RetryPolicy
from repro.faults.model import KIND_PERMANENT
from repro.faults.prng import DeterministicStream, stream_state
from repro.faults.zerohit import (
    CountingPlan,
    predraw_any_hit,
    record_draws,
    zero_hit,
)

#: the bench's faults_sweep grid (repro.testing.bench)
GRID_RATES = (0.0, 0.0001, 0.0002, 0.0005)
GRID_SEEDS = tuple(range(1, 13))
POLICY = RetryPolicy(on_exhaustion="degrade")


def _spec(segments=2, package_size=8):
    return PlatformSpec.from_platform(
        paper_platform(segments, package_size=package_size)
    )


def _census(engine, spec=None):
    return make_simulation(
        mp3_decoder_psdf(),
        spec or _spec(),
        engine=engine,
        fault_plan=CountingPlan(),
        retry_policy=POLICY,
    ).run()


def _grid_plans(rates=GRID_RATES, seeds=GRID_SEEDS):
    return [
        FaultPlan.transient(seed=seed, corruption_rate=rate, stall_ticks=50)
        for rate in rates
        for seed in seeds
    ]


def _digest(plan, engine="stepped", spec=None):
    sim = make_simulation(
        mp3_decoder_psdf(),
        spec or _spec(),
        engine=engine,
        fault_plan=plan,
        retry_policy=POLICY,
    ).run()
    return build_report(sim).digest()


class TestPredrawMachinery:
    def test_predraw_matches_stream_draws(self):
        # the replay must make exactly the decisions the injector's
        # streams make, given the same states, rates and draw counts
        rng = random.Random(99)
        keys = [
            (rng.getrandbits(32), f"segment:{rng.randint(0, 3)}", str(i))
            for i in range(40)
        ]
        rates = [rng.choice([1e-4, 1e-3, 0.02, 0.3]) for _ in keys]
        draws = [rng.randint(0, 50) for _ in keys]
        streams = [DeterministicStream(*key) for key in keys]
        expected = [
            any(stream.chance(rate) for _ in range(count))
            for stream, rate, count in zip(streams, rates, draws)
        ]
        states = [stream_state(*key) for key in keys]
        assert predraw_any_hit(states, rates, draws) == expected
        assert any(expected) and not all(expected)

    def test_counting_reference_census_bounds_the_plan_draws(self):
        # the counting run tallies every fault-draw opportunity of the
        # fault-free execution; a real plan over the same model can only
        # draw at sites/kinds that census knows about
        plan = FaultPlan.transient(seed=1, corruption_rate=0.001)
        opportunities = _census("fast").faults.opportunities
        assert opportunities
        assert all(count > 0 for count in opportunities.values())
        draws = record_draws(plan, opportunities)
        assert draws
        for _index, record, count in draws:
            assert count == sum(
                n
                for (kind, site), n in opportunities.items()
                if kind == record.kind and record.matches(site)
            )

    def test_zero_rate_plan_report_is_bit_identical_to_fault_free(self):
        # the invariant the clone path leans on: a plan whose streams
        # never fire must leave no trace in the report
        spec = _spec()
        bare = build_report(Simulation(mp3_decoder_psdf(), spec).run())
        assert _digest(FaultPlan.transient(seed=1)) == bare.digest()
        assert build_report(_census("stepped", spec)).digest() == bare.digest()


class TestPinnedCounts:
    """Exact counts on the faults_sweep grid: a census that misses an
    opportunity, or a classifier that clones too few or too many plans,
    moves one of them."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_census_sees_3188_opportunities(self, engine):
        assert sum(_census(engine).faults.opportunities.values()) == 3188

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_43_of_48_grid_plans_are_zero_hit(self, engine):
        verdicts = zero_hit(_grid_plans(), _census(engine).faults.opportunities)
        assert len(verdicts) == 48
        assert sum(verdicts) == 43
        # every rate-0 plan is zero-hit; the five misses all carry faults
        assert all(verdicts[: len(GRID_SEEDS)])


class TestClassifier:
    def test_zero_hit_plans_report_exactly_the_reference(self):
        # the proof obligation itself: a plan classified zero-hit must
        # simulate to the reference's report, a hit plan must not
        spec = _spec()
        reference = build_report(_census("fast", spec)).digest()
        plans = _grid_plans(rates=(0.0, 0.0005, 0.002), seeds=(1, 2, 3, 4))
        verdicts = zero_hit(plans, _census("fast", spec).faults.opportunities)
        assert any(verdicts) and not all(verdicts)
        for plan, clone in zip(plans, verdicts):
            assert (_digest(plan, "fast", spec) == reference) == clone

    def test_permanent_records_are_never_zero_hit(self):
        plan = FaultPlan(
            seed=1, records=(FaultRecord("fu:P1", KIND_PERMANENT, at_tick=5),)
        )
        opportunities = _census("fast").faults.opportunities
        assert zero_hit([plan, FaultPlan.transient(seed=1)], opportunities) == [
            False,
            True,
        ]

    def test_empty_population(self):
        assert zero_hit([], {}) == []
