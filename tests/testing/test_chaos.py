"""Chaos harness tests and the PR's chaos equivalence gate.

The gate (ISSUE 6 acceptance): with seeded chaos killing >= 2 workers and
one mid-campaign SIGTERM + resume, a ``segbus faults`` sweep and a
selftest batch produce byte-identical results to an uninterrupted run,
and a poisoned job surfaces in the failure ledger without aborting the
batch.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.executor import ExecutorPolicy, execute_batch
from repro.testing.chaos import (
    KILL,
    POISON,
    STALL,
    ChaosConfigError,
    ChaosPlan,
    ChaosPoisonError,
    ProbeJob,
    run_probe,
)

PARALLEL = dict(workers=2, serial_threshold=1)
SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestChaosPlan:
    def test_decide_is_deterministic(self):
        plan = ChaosPlan(seed=7, kill_rate=0.3, stall_rate=0.3, poison_rate=0.3)
        first = [plan.decide(f"j{i}", 1) for i in range(50)]
        second = [plan.decide(f"j{i}", 1) for i in range(50)]
        assert first == second
        assert any(h == KILL for h in first)
        assert any(h is None for h in first)

    def test_seed_changes_schedule(self):
        a = [ChaosPlan(seed=1, kill_rate=0.5).decide(f"j{i}", 1) for i in range(40)]
        b = [ChaosPlan(seed=2, kill_rate=0.5).decide(f"j{i}", 1) for i in range(40)]
        assert a != b

    def test_pinned_combos_beat_rates(self):
        plan = ChaosPlan(
            kill_on=("a:1",), stall_on=("b:2",), poison_on=("c:1",),
            poison_labels=("bad",),
        )
        assert plan.decide("a", 1) == KILL
        assert plan.decide("a", 2) is None
        assert plan.decide("b", 2) == STALL
        assert plan.decide("c", 1) == POISON
        assert plan.decide("bad", 1) == POISON
        assert plan.decide("bad", 99) == POISON  # every attempt

    def test_env_round_trip(self):
        plan = ChaosPlan(
            seed=9,
            kill_rate=0.25,
            stall_s=12.5,
            kill_on=("x:1", "y:2"),
            poison_labels=("bad",),
            interrupt_after=4,
        )
        assert ChaosPlan.from_env(plan.to_env()) == plan

    def test_from_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(ChaosPlan.ENV_VAR, raising=False)
        assert ChaosPlan.from_env() is None

    def test_invalid_specs_rejected(self):
        with pytest.raises(ChaosConfigError):
            ChaosPlan(kill_rate=1.5)
        with pytest.raises(ChaosConfigError):
            ChaosPlan(interrupt_after=0)
        with pytest.raises(ChaosConfigError):
            ChaosPlan.from_env("kill")
        with pytest.raises(ChaosConfigError):
            ChaosPlan.from_env("unknown_key=1")


class TestPoisonedJob:
    def test_poison_lands_in_ledger_without_aborting(self):
        plan = ChaosPlan(poison_labels=("j3",))
        jobs = [ProbeJob(label=f"j{i}", value=i) for i in range(6)]
        batch = execute_batch(
            jobs,
            run_probe,
            policy=ExecutorPolicy(max_attempts=2, backoff_base_s=0.0),
            chaos=plan,
            **PARALLEL,
        )
        assert not batch.ok
        (failure,) = batch.failures
        assert failure.label == "j3"
        assert failure.error == "ChaosPoisonError"
        assert failure.attempts == 2
        # the other five completed despite the poison
        assert len(batch.completed) == 5
        assert batch.results[0] == run_probe(jobs[0])

    def test_poison_error_message_names_label_and_attempt(self):
        with pytest.raises(ChaosPoisonError, match="'j0' \\(attempt 1\\)"):
            from repro.testing.chaos import chaotic_call

            chaotic_call(
                run_probe, ChaosPlan(poison_labels=("j0",)), 1, ProbeJob("j0")
            )


class TestEquivalenceGate:
    """Chaotic campaigns must reproduce calm ones byte for byte."""

    def test_reliability_sweep_survives_two_worker_kills(
        self, monkeypatch, caplog
    ):
        from repro.analysis.reliability import reliability_sweep
        from repro.apps.mp3 import mp3_decoder_psdf, paper_platform

        app = mp3_decoder_psdf()
        plat = paper_platform(2)
        # rate-0 points and 0.01#s4 draw no fault and are cloned, so the
        # executor simulates 0.01#s1-s3 in worker processes
        kwargs = dict(
            rates=[0.0, 0.01], seeds=(1, 2, 3, 4), stall_ticks=5, workers=2
        )

        monkeypatch.delenv(ChaosPlan.ENV_VAR, raising=False)
        calm_csv = reliability_sweep(app, plat, **kwargs).to_csv()

        # two first attempts SIGKILL their workers (labels are rate#seed)
        killed = ("package_corruption@0.01#s1", "package_corruption@0.01#s2")
        monkeypatch.setenv(
            ChaosPlan.ENV_VAR, "kill_on=" + ";".join(f"{k}:1" for k in killed)
        )
        with caplog.at_level(logging.DEBUG, logger="repro.analysis.executor"):
            chaotic = reliability_sweep(app, plat, **kwargs)
        assert chaotic.to_csv() == calm_csv
        for label in killed:
            assert f"executor: {label} attempt 1 failed" in caplog.text

    def test_lone_simulated_point_is_supervised(self, monkeypatch, caplog):
        from repro.analysis.reliability import reliability_sweep
        from repro.apps.mp3 import mp3_decoder_psdf, paper_platform

        app = mp3_decoder_psdf()
        plat = paper_platform(2)
        # 0.0#s1 is cloned: one simulated point, still run by a worker
        kwargs = dict(rates=[0.0, 0.01], seeds=(1,), stall_ticks=5, workers=2)

        monkeypatch.delenv(ChaosPlan.ENV_VAR, raising=False)
        calm_csv = reliability_sweep(app, plat, **kwargs).to_csv()

        label = "package_corruption@0.01#s1"
        monkeypatch.setenv(ChaosPlan.ENV_VAR, f"kill_on={label}:1")
        with caplog.at_level(logging.DEBUG, logger="repro.analysis.executor"):
            chaotic = reliability_sweep(app, plat, **kwargs)
        assert chaotic.to_csv() == calm_csv
        assert f"executor: {label} attempt 1 failed" in caplog.text

    def test_selftest_batch_equivalence_under_kills(self, monkeypatch):
        from repro.testing.selftest import run_selftest

        kwargs = dict(count=4, base_seed=1, include_golden=False, workers=2)
        monkeypatch.delenv(ChaosPlan.ENV_VAR, raising=False)
        calm = run_selftest(**kwargs)

        monkeypatch.setenv(
            ChaosPlan.ENV_VAR, "kill_on=fuzz#1:1;fuzz#3:1"
        )
        chaotic = run_selftest(**kwargs)
        assert chaotic.ok == calm.ok
        assert chaotic.models == calm.models
        assert chaotic.checks == calm.checks
        assert chaotic.divergent == calm.divergent
        assert chaotic.failures == calm.failures


class TestCliSigtermResume:
    """Mid-campaign SIGTERM against the real CLI, then --resume."""

    def _run(self, args, tmp_path, chaos=""):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        if chaos:
            env[ChaosPlan.ENV_VAR] = chaos
        else:
            env.pop(ChaosPlan.ENV_VAR, None)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=300,
        )

    def test_faults_sigterm_then_resume_byte_identical(self, tmp_path):
        # 0.01#s1-s3 are simulated (the other points are zero-hit clones),
        # so interrupt_after=2 leaves one to go
        common = [
            "faults",
            "--segments", "2",
            "--rates", "0.0", "0.01",
            "--seeds", "4",
            "--workers", "2",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        clean = self._run(common + ["--csv", "clean.csv"], tmp_path)
        assert clean.returncode == 0, clean.stderr

        # chaos kills one worker, then SIGTERMs the supervisor mid-campaign
        interrupted = self._run(
            common + ["--csv", "never.csv"],
            tmp_path,
            chaos="kill_on=package_corruption@0.01#s1:1,interrupt_after=2",
        )
        assert interrupted.returncode == 2
        assert "interrupted" in interrupted.stderr.lower()
        assert not (tmp_path / "never.csv").exists()
        (journal,) = (tmp_path / "ck").glob("*.jsonl")
        records = journal.read_text(encoding="utf-8").splitlines()
        assert len(records) == 2, "the interrupt must leave a point unfinished"

        resumed = self._run(
            common + ["--csv", "resumed.csv", "--resume"], tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "resumed.csv").read_bytes() == (
            tmp_path / "clean.csv"
        ).read_bytes()
        assert "replayed" not in resumed.stdout  # quiet path; csv is the proof
