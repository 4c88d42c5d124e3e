"""Event-ordering determinism regression (audit of kernel.py/events.py).

The audit's conclusions, pinned as executable checks:

* the event queue breaks (time, priority) ties with a monotone sequence
  counter, never object identity;
* every dict/set iteration that feeds scheduling is sorted or
  insertion-ordered deterministically;
* therefore two runs of the same model — in the same process or in fresh
  interpreters with *different* ``PYTHONHASHSEED`` — produce byte-identical
  canonical traces, timelines and reports.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.report import build_report
from repro.emulator.trace import Tracer
from repro.testing.generators import generate_model

REPO_ROOT = Path(__file__).resolve().parents[2]

_DIGEST_SCRIPT = """
import hashlib

from repro.analysis.reliability import reliability_sweep
from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.report import build_report
from repro.emulator.trace import Tracer
from repro.testing.generators import generate_model

def digests(application, platform):
    spec = PlatformSpec.from_platform(platform)
    tracer = Tracer()
    sim = Simulation(application, spec, tracer=tracer).run()
    report = build_report(sim)
    return tracer.digest(), report.timeline.digest(), report.digest()

model = generate_model(7)
for d in digests(mp3_decoder_psdf(), paper_platform(3)):
    print(d)
for d in digests(model.application, model.platform):
    print(d)

# one faulted reliability sweep: the opportunity census and zero-hit
# classification must be just as independent of str-hash randomization
# as the single-run engines
curve = reliability_sweep(
    mp3_decoder_psdf(), paper_platform(2, package_size=8),
    rates=[0.0, 0.0005, 0.01], seeds=(1, 2, 3), workers=1,
)
print(hashlib.sha256(curve.to_json().encode()).hexdigest())
"""


def _run_digests(application, platform):
    spec = PlatformSpec.from_platform(platform)
    tracer = Tracer()
    sim = Simulation(application, spec, tracer=tracer).run()
    report = build_report(sim)
    return tracer.digest(), report.timeline.digest(), report.digest()


class TestSameProcess:
    def test_mp3_double_run_identical_digests(self):
        first = _run_digests(mp3_decoder_psdf(), paper_platform(3))
        second = _run_digests(mp3_decoder_psdf(), paper_platform(3))
        assert first == second

    def test_generated_model_double_run_identical_digests(self):
        a = generate_model(7)
        b = generate_model(7)
        assert a.application.name == b.application.name
        assert _run_digests(a.application, a.platform) == _run_digests(
            b.application, b.platform
        )

    def test_trace_digest_covers_every_event(self):
        tracer = Tracer()
        spec = PlatformSpec.from_platform(paper_platform(3))
        Simulation(mp3_decoder_psdf(), spec, tracer=tracer).run()
        assert len(tracer.canonical_lines()) == len(tracer)
        assert sum(tracer.kind_counts().values()) == len(tracer)

    def test_reliability_sweep_double_run_identical_curves(self):
        from repro.analysis.reliability import reliability_sweep

        def curve():
            return reliability_sweep(
                mp3_decoder_psdf(),
                paper_platform(2, package_size=8),
                rates=[0.0, 0.0005, 0.01],
                seeds=(1, 2, 3, 4),
                workers=1,
            ).to_json()

        assert curve() == curve()


class TestAcrossInterpreters:
    def _digests_under_hashseed(self, hashseed: str):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            check=True,
        )
        lines = result.stdout.split()
        assert len(lines) == 7
        return lines

    def test_digests_stable_across_hash_randomization(self):
        # different PYTHONHASHSEED perturbs str hashing (and so any latent
        # set/dict-order dependence); byte-identical output proves the
        # kernel's ordering never leans on it
        assert self._digests_under_hashseed(
            "1"
        ) == self._digests_under_hashseed("4242")
