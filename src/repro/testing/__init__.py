"""Conformance harness: random model generators, differential oracles,
golden-trace pinning, and the headless perf-regression bench.

Entry points:

* :func:`repro.testing.generators.generate_model` — seeded, lint-clean
  random (application, platform) pairs.
* :func:`repro.testing.oracles.run_differential_oracle` — one model
  through the emulator plus every independent invariant.
* :func:`repro.testing.golden.check_goldens` — digest drift detection
  over ``examples/models/``.
* :func:`repro.testing.bench.run_bench` / ``check_bench`` — headless
  scenarios: exact ticks against the committed ``BENCH_*.json``
  baselines plus two same-host speed-ratio gates.
* :func:`repro.testing.selftest.run_selftest` — the ``segbus selftest``
  orchestration of all of the above.
"""

from repro.testing.generators import (
    ADVERSARIAL_SHAPES,
    DEFAULT_PROFILE,
    GenerationError,
    GeneratorProfile,
    RandomModel,
    RandomMultiModeModel,
    generate_adversarial_model,
    generate_model,
    generate_models,
    generate_multimode_model,
)
from repro.testing.oracles import (
    OracleReport,
    OracleTolerance,
    run_differential_oracle,
    run_multimode_oracle,
)

__all__ = [
    "ADVERSARIAL_SHAPES",
    "DEFAULT_PROFILE",
    "GenerationError",
    "GeneratorProfile",
    "OracleReport",
    "OracleTolerance",
    "RandomModel",
    "RandomMultiModeModel",
    "generate_adversarial_model",
    "generate_model",
    "generate_models",
    "generate_multimode_model",
    "run_differential_oracle",
    "run_multimode_oracle",
]
