"""Parallel emulation batch tests.

A batch of independent emulations is a list of campaign variants run by
the supervised :class:`~repro.analysis.executor.CampaignExecutor`; these
tests pin what such a batch guarantees on real emulations: input order,
parallel == serial, the failure ledger and checkpoint/resume.
"""

import logging

import pytest

from repro.analysis.campaign import (
    Variant,
    VariantResult,
    _run_variant,
    _VariantTask,
)
from repro.analysis.executor import JobError, JobFailure, execute_batch
from repro.analysis.power import PowerCoefficients
from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.config import EmulationConfig
from repro.psdf.generators import chain_psdf


def make_jobs():
    mp3 = mp3_decoder_psdf()
    jobs = [
        Variant(f"s{size}", mp3, paper_platform(3, package_size=size))
        for size in (18, 36, 72)
    ]
    jobs.append(
        Variant(
            "chain",
            chain_psdf(4, items_per_stage=144, ticks_per_package=60),
            paper_platform(1, package_size=36),
            config=EmulationConfig.reference(),
        )
    )
    return jobs


def make_broken_job(label="broken"):
    """A job whose worker must fail: its event budget stalls the run."""
    return Variant(
        label,
        mp3_decoder_psdf(),
        paper_platform(2),
        config=EmulationConfig(max_events=10),
    )


def emulate(jobs, **kwargs):
    tasks = [_VariantTask(job, PowerCoefficients()) for job in jobs]
    return execute_batch(tasks, _run_variant, **kwargs)


def emulate_rows(jobs, **kwargs):
    batch = emulate(jobs, **kwargs)
    return list(batch.raise_on_failure(what="variant").results)


class TestParallelEmulate:
    def test_results_in_input_order(self):
        results = emulate_rows(make_jobs(), workers=2)
        assert [r.name for r in results] == ["s18", "s36", "s72", "chain"]

    def test_parallel_equals_serial(self):
        jobs = make_jobs()
        serial = emulate_rows(jobs, workers=1)
        parallel = emulate_rows(jobs, workers=2)
        assert serial == parallel  # bit-identical rows

    def test_small_batch_runs_serially(self, caplog):
        jobs = make_jobs()[:2]
        with caplog.at_level(logging.DEBUG, logger="repro.analysis.executor"):
            batch = emulate(jobs, workers=4, serial_threshold=3)
        assert batch.ok and len(batch.results) == 2
        assert "serial path" in caplog.text  # no pool spun up
        assert "parallel path" not in caplog.text

    def test_result_contents(self):
        (result,) = emulate_rows(make_jobs()[:1], workers=1)
        assert isinstance(result, VariantResult)
        assert result.execution_time_us > 0
        assert result.total_events > 0
        assert result.segment_count == 3
        assert result.package_size == 18

    def test_empty_batch(self):
        batch = emulate([], workers=2)
        assert batch.ok and batch.results == ()


class TestWorkerFailure:
    def test_serial_failure_names_the_job(self):
        with pytest.raises(JobError, match="broken"):
            emulate_rows([make_broken_job()], workers=1)

    def test_parallel_failure_names_the_job(self):
        jobs = make_jobs() + [make_broken_job()]
        with pytest.raises(JobError, match="broken"):
            emulate_rows(jobs, workers=2)

    def test_multiple_failures_all_reported(self):
        jobs = [make_broken_job("bad_a"), make_broken_job("bad_b")]
        with pytest.raises(JobError, match="bad_a.*bad_b"):
            emulate_rows(jobs, workers=1)

    def test_failure_reports_counts(self):
        jobs = make_jobs() + [make_broken_job()]
        with pytest.raises(JobError, match=r"1 of 5"):
            emulate_rows(jobs, workers=2)

    def test_healthy_batch_unaffected_by_wrapping(self):
        batch = emulate(make_jobs(), workers=2)
        assert batch.ok and batch.failures == ()
        assert all(isinstance(r, VariantResult) for r in batch.results)

    def test_job_error_keeps_partial_results_and_ledger(self):
        jobs = make_jobs() + [make_broken_job()]
        with pytest.raises(JobError) as excinfo:
            emulate_rows(jobs, workers=2)
        err = excinfo.value
        # the completed rows are not discarded
        assert len(err.partial_results) == 4
        assert all(isinstance(r, VariantResult) for r in err.partial_results)
        (failure,) = err.failures
        assert isinstance(failure, JobFailure)
        assert failure.label == "broken"
        assert failure.attempts >= 1
        assert failure.error == "StallError"
        assert failure.traceback_tail

    def test_failed_batch_degrades_gracefully(self):
        jobs = make_jobs() + [make_broken_job()]
        batch = emulate(jobs, workers=2)
        assert not batch.ok
        assert batch.results[-1] is None
        assert [r.name for r in batch.results[:-1]] == [
            "s18", "s36", "s72", "chain"
        ]
        assert batch.failures[0].label == "broken"


class TestCheckpointedEmulation:
    def test_resumed_digests_equal_clean_run(self, tmp_path):
        jobs = make_jobs()
        clean = emulate_rows(jobs, workers=2)
        first = emulate_rows(
            jobs,
            workers=2,
            checkpoint_dir=tmp_path,
            checkpoint_name="emu",
        )
        resumed = emulate(
            jobs,
            workers=2,
            checkpoint_dir=tmp_path,
            checkpoint_name="emu",
            resume=True,
        )
        assert resumed.stats.replayed == len(jobs)  # nothing re-emulated
        assert clean == first == list(resumed.results)  # bit-identical rows
