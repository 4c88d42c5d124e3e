"""Supervisor tests: crash recovery, timeouts, retries, checkpoint/resume.

The worker-death paths use :class:`repro.testing.chaos.ProbeJob` — a tiny
deterministic job — plus pinned :class:`ChaosPlan` hazards so each test
exercises exactly one failure mode.  The machine running CI may have a
single CPU, so every parallel-path test pins ``workers`` explicitly.
"""

from __future__ import annotations

import logging
import time

import pytest

from repro.analysis import executor as executor_module
from repro.analysis.executor import (
    BatchResult,
    CampaignExecutor,
    CheckpointError,
    CheckpointJournal,
    ExecutorError,
    ExecutorInterrupted,
    ExecutorPolicy,
    JobError,
    JobFailure,
    _BACKOFF_MAX_S,
    _JITTER,
    canonical_digest,
)
from repro.testing.chaos import ChaosPlan, ChaosPoisonError, ProbeJob, run_probe

PARALLEL = dict(workers=2)


def probe_jobs(count: int):
    return [ProbeJob(label=f"j{i}", value=i) for i in range(count)]


def expected(count: int):
    return [run_probe(job) for job in probe_jobs(count)]


class TestHappyPath:
    def test_parallel_results_in_input_order(self):
        batch = CampaignExecutor(run_probe, **PARALLEL).run(probe_jobs(8))
        assert batch.ok
        assert list(batch.results) == expected(8)
        assert batch.failures == ()

    def test_serial_matches_parallel(self):
        serial = CampaignExecutor(run_probe, workers=1).run(probe_jobs(6))
        parallel = CampaignExecutor(run_probe, **PARALLEL).run(probe_jobs(6))
        assert list(serial.results) == list(parallel.results)

    def test_empty_batch(self):
        batch = CampaignExecutor(run_probe, **PARALLEL).run([])
        assert batch.ok and batch.results == ()

    def test_decision_debug_lines(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.analysis.executor"):
            CampaignExecutor(run_probe, workers=1).run(probe_jobs(2))
            CampaignExecutor(run_probe, **PARALLEL).run(probe_jobs(6))
        text = caplog.text
        assert "serial path" in text
        assert "parallel path with 2 worker(s)" in text
        assert "chunksize" in text


class TestFailurePaths:
    def test_retry_exhaustion_lands_in_ledger(self):
        jobs = [ProbeJob("good", value=1), ProbeJob("bad", fail=True)]
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=2),
            workers=1,
        ).run(jobs)
        assert not batch.ok
        assert batch.results[0] == run_probe(jobs[0])
        assert batch.results[1] is None
        (failure,) = batch.failures
        assert isinstance(failure, JobFailure)
        assert failure.label == "bad"
        assert failure.attempts == 2
        assert failure.kind == "error"
        assert failure.error == "ValueError"
        assert "always fails" in failure.message
        assert failure.traceback_tail

    def test_job_error_carries_structure(self):
        jobs = [ProbeJob("ok"), ProbeJob("bad_a", fail=True), ProbeJob("bad_b", fail=True)]
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=1),
            workers=1,
        ).run(jobs)
        with pytest.raises(JobError) as excinfo:
            batch.raise_on_failure(what="probe")
        err = excinfo.value
        assert "2 of 3" in str(err)
        assert "bad_a" in str(err) and "bad_b" in str(err)
        assert [f.label for f in err.failures] == ["bad_a", "bad_b"]
        assert err.partial_results == [run_probe(jobs[0])]

    def test_parallel_job_error_names_every_failed_label(self):
        jobs = probe_jobs(4) + [
            ProbeJob("bad_a", fail=True),
            ProbeJob("bad_b", fail=True),
        ]
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=1),
            **PARALLEL,
        ).run(jobs)
        with pytest.raises(JobError, match="bad_a.*bad_b") as excinfo:
            batch.raise_on_failure(what="probe")
        err = excinfo.value
        assert "2 of 6" in str(err)
        # the completed results survive the failures, in input order
        assert err.partial_results == expected(4)
        assert [f.label for f in err.failures] == ["bad_a", "bad_b"]
        assert all(f.traceback_tail for f in err.failures)

    def test_worker_crash_recovery(self):
        # j2's first attempt SIGKILLs its worker; the supervisor must
        # respawn and the retry must produce the same results as a calm run
        plan = ChaosPlan(kill_on=("j2:1",))
        batch = CampaignExecutor(run_probe, chaos=plan, **PARALLEL).run(
            probe_jobs(6)
        )
        assert batch.ok
        assert list(batch.results) == expected(6)
        assert batch.stats.crashes == 1
        assert batch.stats.respawned_workers >= 1
        assert batch.stats.retries >= 1

    def test_per_job_timeout_expiry(self):
        # j1 stalls on attempt 1; the per-job timeout kills the worker and
        # the retry (no stall pinned for attempt 2) succeeds
        plan = ChaosPlan(stall_on=("j1:1",), stall_s=30.0)
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(timeout_s=0.5),
            chaos=plan,
            **PARALLEL,
        ).run(probe_jobs(4))
        assert batch.ok
        assert list(batch.results) == expected(4)
        assert batch.stats.timeouts == 1

    def test_timeout_exhaustion_is_a_failure_not_a_hang(self):
        plan = ChaosPlan(stall_on=("j0:1", "j0:2"), stall_s=30.0)
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=2, timeout_s=0.4),
            chaos=plan,
            **PARALLEL,
        ).run(probe_jobs(2))
        assert not batch.ok
        (failure,) = batch.failures
        assert failure.label == "j0"
        assert failure.kind == "timeout"
        assert batch.results[1] == run_probe(ProbeJob("j1", value=1))

    def test_crash_exhaustion_reports_crash_kind(self):
        plan = ChaosPlan(kill_on=("j0:1", "j0:2"))
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=2),
            chaos=plan,
            **PARALLEL,
        ).run(probe_jobs(2))
        assert not batch.ok
        (failure,) = batch.failures
        assert failure.kind == "crash"
        assert failure.attempts == 2


class TestBackoffDeterminism:
    def test_delay_schedule_is_reproducible(self):
        policy = ExecutorPolicy(max_attempts=9)
        a = [policy.delay_s("job", k) for k in range(1, 4)]
        b = [ExecutorPolicy().delay_s("job", k) for k in range(1, 4)]
        assert a == b
        assert a[0] < a[1] < a[2]

    def test_different_labels_jitter_differently(self):
        policy = ExecutorPolicy()
        assert policy.delay_s("job", 1) != policy.delay_s("other", 1)

    def test_delay_capped(self):
        policy = ExecutorPolicy()
        for failures in (7, 10, 40, 5000):
            delay = policy.delay_s("job", failures)
            assert _BACKOFF_MAX_S <= delay <= _BACKOFF_MAX_S * (1 + _JITTER)

    @pytest.mark.parametrize(
        "label, failures, delay",
        [
            ("j1", 1, 0.0554807839856596),
            ("j1", 2, 0.11889151850114076),
            ("j1", 3, 0.23236478777987257),
            ("fuzz:random#7", 1, 0.06108082313023816),
            ("x", 10, 2.30271235690992),
            ("x", 40, 2.4061971293489943),
        ],
    )
    def test_delay_values_pinned(self, label, failures, delay):
        assert ExecutorPolicy().delay_s(label, failures) == delay


class TestPathRule:
    """``workers`` alone decides where a batch runs."""

    @pytest.mark.parametrize("count", [1, 2])
    def test_explicit_workers_enforce_timeouts_on_small_batches(self, count):
        jobs = [ProbeJob(f"slow{i}", sleep_s=30.0) for i in range(count)]
        started = time.monotonic()
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=1, timeout_s=0.5),
            **PARALLEL,
        ).run(jobs)
        assert time.monotonic() - started < 5.0
        assert [f.kind for f in batch.failures] == ["timeout"] * count
        assert batch.stats.timeouts == count

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ExecutorError, match="workers must be >= 1"):
            CampaignExecutor(run_probe, workers=workers)


class TestCheckpointResume:
    def test_resume_equivalence(self, tmp_path):
        jobs = probe_jobs(8)
        clean = CampaignExecutor(run_probe, **PARALLEL).run(jobs)

        # interrupted run: SIGTERM after 3 completions
        with pytest.raises(ExecutorInterrupted):
            CampaignExecutor(
                run_probe,
                checkpoint_dir=tmp_path,
                checkpoint_name="camp",
                chaos=ChaosPlan(interrupt_after=3),
                **PARALLEL,
            ).run(jobs)
        journal = CheckpointJournal(tmp_path, "camp")
        journaled = journal.load()
        assert 0 < len(journaled) < len(jobs)

        resumed = CampaignExecutor(
            run_probe,
            checkpoint_dir=tmp_path,
            checkpoint_name="camp",
            resume=True,
            **PARALLEL,
        ).run(jobs)
        assert resumed.ok
        assert list(resumed.results) == list(clean.results)
        assert resumed.stats.replayed == len(journaled)
        # the finished batch is consolidated atomically
        assert journal.done_path.is_file()
        assert not journal.path.is_file()

    def test_resume_digest_keyed_not_position_keyed(self, tmp_path):
        jobs = probe_jobs(4)
        with pytest.raises(ExecutorInterrupted):
            CampaignExecutor(
                run_probe,
                checkpoint_dir=tmp_path,
                checkpoint_name="k",
                chaos=ChaosPlan(interrupt_after=2),
                **PARALLEL,
            ).run(jobs)
        # same digests in a different order still replay
        resumed = CampaignExecutor(
            run_probe,
            checkpoint_dir=tmp_path,
            checkpoint_name="k",
            resume=True,
            **PARALLEL,
        ).run(list(reversed(jobs)))
        assert resumed.ok
        assert list(resumed.results) == list(reversed(expected(4)))
        assert resumed.stats.replayed >= 2

    def test_torn_trailing_record_tolerated(self, tmp_path):
        jobs = probe_jobs(4)
        with pytest.raises(ExecutorInterrupted):
            CampaignExecutor(
                run_probe,
                checkpoint_dir=tmp_path,
                checkpoint_name="torn",
                chaos=ChaosPlan(interrupt_after=2),
                **PARALLEL,
            ).run(jobs)
        journal = CheckpointJournal(tmp_path, "torn")
        before = len(journal.load())
        with open(journal.path, "ab") as fh:
            fh.write(b'{"v": 1, "digest": "abc", "payl')  # torn mid-write
        assert len(journal.load()) == before  # dropped, not fatal
        resumed = CampaignExecutor(
            run_probe,
            checkpoint_dir=tmp_path,
            checkpoint_name="torn",
            resume=True,
            **PARALLEL,
        ).run(jobs)
        assert resumed.ok and list(resumed.results) == expected(4)

    def test_corrupt_middle_record_rejected(self, tmp_path):
        journal = CheckpointJournal(tmp_path, "bad")
        journal.open(fresh=True)
        journal.record("d1", "a", {"x": 1})
        journal.record("d2", "b", {"x": 2})
        journal.close()
        lines = journal.path.read_bytes().splitlines()
        lines[0] = b"not json at all"
        journal.path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            journal.load()

    def test_failed_batch_keeps_live_journal_for_retry(self, tmp_path):
        jobs = [ProbeJob("ok", value=3), ProbeJob("bad", fail=True)]
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=1),
            checkpoint_dir=tmp_path,
            checkpoint_name="partial",
            workers=1,
        ).run(jobs)
        assert not batch.ok
        journal = CheckpointJournal(tmp_path, "partial")
        assert journal.path.is_file()          # live journal kept
        assert not journal.done_path.is_file() # no premature finalize
        # a resume replays the good job and retries only the bad one
        resumed = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=1),
            checkpoint_dir=tmp_path,
            checkpoint_name="partial",
            resume=True,
            workers=1,
        ).run(jobs)
        assert resumed.stats.replayed == 1
        assert resumed.results[0] == run_probe(jobs[0])


class TestJournalKeys:
    def test_keys_are_computed_only_for_a_journal(self, tmp_path, monkeypatch):
        calls = []
        real = executor_module.canonical_digest

        def counting(*values):
            calls.append(values)
            return real(*values)

        monkeypatch.setattr(executor_module, "canonical_digest", counting)
        jobs = probe_jobs(4)
        CampaignExecutor(run_probe, workers=1).run(jobs)
        assert calls == []
        CampaignExecutor(
            run_probe, workers=1, checkpoint_dir=tmp_path, checkpoint_name="k"
        ).run(jobs)
        assert calls == [(job,) for job in jobs]
        journaled = CheckpointJournal(tmp_path, "k").load()
        assert set(journaled) == {real(job) for job in jobs}

    def test_a_job_differing_in_any_field_reruns(self, tmp_path):
        journal = dict(workers=1, checkpoint_dir=tmp_path, checkpoint_name="f")
        CampaignExecutor(run_probe, **journal).run([ProbeJob("j0", value=1)])
        batch = CampaignExecutor(
            run_probe,
            policy=ExecutorPolicy(max_attempts=1),
            resume=True,
            **journal,
        ).run([ProbeJob("j0", value=1, fail=True)])
        assert batch.stats.replayed == 0
        assert [f.label for f in batch.failures] == ["j0"]


class TestCanonicalDigest:
    def test_stable_across_processes(self):
        # xdist/hash-seed independence: pure function of the values
        assert canonical_digest("a", 1) == canonical_digest("a", 1)
        assert canonical_digest("a", 1) != canonical_digest("a", 2)

    def test_emulation_job_key_covers_config(self):
        from repro.analysis.reliability import _ReliabilityJob
        from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
        from repro.emulator.config import EmulationConfig
        from repro.emulator.kernel import PlatformSpec
        from repro.faults import RetryPolicy

        def job(**extra):
            return _ReliabilityJob(
                label="x",
                application=mp3_decoder_psdf(),
                spec=PlatformSpec.from_platform(paper_platform(2)),
                kind="package_corruption",
                rate=0.01,
                seed=1,
                stall_ticks=50,
                retry_policy=RetryPolicy(),
                **extra,
            )

        a = canonical_digest(job())
        assert a != canonical_digest(job(config=EmulationConfig(bu_sync_ticks=5)))
        assert a != canonical_digest(job(engine="stepped"))
        assert a == canonical_digest(job())

    def test_emulation_job_default_config_is_per_instance(self):
        # field(default_factory=...) — no shared default object
        import dataclasses

        from repro.analysis.campaign import Variant

        fields = {f.name: f for f in dataclasses.fields(Variant)}
        config_field = fields["config"]
        assert config_field.default is dataclasses.MISSING
        assert config_field.default_factory is not dataclasses.MISSING


class TestBatchResult:
    def test_completed_counts(self):
        batch = BatchResult(
            results=(1, None, 3),
            failures=(
                JobFailure(
                    label="x",
                    attempts=1,
                    kind="error",
                    error="ValueError",
                    message="m",
                    traceback_tail="",
                ),
            ),
            stats=None,
        )
        assert batch.completed == [1, 3]
        assert not batch.ok


class TestWiredLayers:
    def test_campaign_parallel_matches_serial(self):
        from repro.analysis.campaign import Campaign
        from repro.apps.mp3 import mp3_decoder_psdf, paper_platform

        app = mp3_decoder_psdf()
        serial = (
            Campaign("t")
            .add("a", app, paper_platform(2))
            .add("b", app, paper_platform(3))
            .run(workers=1)
        )
        parallel = (
            Campaign("t")
            .add("a", app, paper_platform(2))
            .add("b", app, paper_platform(3))
            .run(workers=2)
        )
        assert serial == parallel

    def test_dse_accepts_executor_params(self, tmp_path):
        from repro.analysis.dse import explore_design_space
        from repro.apps.mp3 import mp3_decoder_psdf

        points = explore_design_space(
            mp3_decoder_psdf(),
            segment_counts=[2],
            package_sizes=[18, 36],
            segment_frequencies_mhz=lambda n: [200.0] * n,
            ca_frequency_mhz=400.0,
            workers=2,
            checkpoint_dir=tmp_path,
            checkpoint_name="dse",
        )
        assert len(points) == 2
        again = explore_design_space(
            mp3_decoder_psdf(),
            segment_counts=[2],
            package_sizes=[18, 36],
            segment_frequencies_mhz=lambda n: [200.0] * n,
            ca_frequency_mhz=400.0,
            workers=2,
            checkpoint_dir=tmp_path,
            checkpoint_name="dse",
            resume=True,
        )
        assert [p.execution_time_us for p in again] == [
            p.execution_time_us for p in points
        ]
