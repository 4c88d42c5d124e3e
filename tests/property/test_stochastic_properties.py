"""Property suite for the stochastic contention estimator (SAN-1 band).

Two invariants, asserted across the random model generators:

- the stochastic estimate is never below the analytic lower bound
  (contention only ever adds time), and
- it lands within the SAN-1 error band of the *emulated* TCT — on every
  engine, which is trivially one check because the engines are
  digest-identical, but we assert it against each anyway so a future
  engine divergence cannot hide behind the estimator tolerance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.analytic import analytic_estimate
from repro.analysis.stochastic import stochastic_estimate
from repro.emulator.config import EmulationConfig
from repro.emulator.fastkernel import FastSimulation
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.testing.generators import generate_model
from repro.testing.oracles import OracleTolerance

ENGINES = (Simulation, FastSimulation)

seeds = st.integers(min_value=1, max_value=50_000)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_estimate_dominates_analytic_bound(seed):
    model = generate_model(seed)
    spec = PlatformSpec.from_platform(model.platform)
    config = EmulationConfig()
    estimate = stochastic_estimate(model.application, spec, config)
    analytic = analytic_estimate(model.application, spec, config)
    assert estimate.execution_time_fs >= analytic.execution_time_fs
    assert estimate.contention_fs >= 0
    assert estimate.contention_ratio >= 1.0


@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_estimate_within_san1_band_of_every_engine(seed):
    model = generate_model(seed)
    spec = PlatformSpec.from_platform(model.platform)
    config = EmulationConfig()
    band = OracleTolerance().stochastic_error_max
    estimated = stochastic_estimate(
        model.application, spec, config
    ).execution_time_fs
    for engine_cls in ENGINES:
        emulated = engine_cls(
            model.application, spec, config
        ).run().execution_time_fs()
        error = abs(estimated - emulated) / emulated
        assert error <= band, (
            f"{model.label} vs {engine_cls.__name__}: err {error:.3f} "
            f"exceeds the SAN-1 band {band}"
        )


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_resource_models_are_internally_consistent(seed):
    model = generate_model(seed)
    spec = PlatformSpec.from_platform(model.platform)
    estimate = stochastic_estimate(model.application, spec)
    gauges = [estimate.ca, *estimate.segments.values(),
              *estimate.border_units.values()]
    for q in gauges:
        assert q.window_fs == estimate.analytic_fs
        assert q.utilization >= 0.0
        assert q.mean_wait_fs >= 0.0
        assert q.mean_queue_depth >= 0.0
        dist = q.occupancy_distribution()
        assert abs(sum(dist) - 1.0) < 1e-9
