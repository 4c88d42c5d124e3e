"""Service core: dispositions, coalescing, batching, stats, lifecycle."""

from __future__ import annotations

import json
import threading
import time

from repro.serve.jobs import execute_job, parse_job, response_bytes
from repro.serve.service import SegbusService, ServiceConfig


def _emulate_payload(schemes, **extra):
    psdf_xml, psm_xml = schemes
    return {"kind": "emulate", "psdf_xml": psdf_xml, "psm_xml": psm_xml, **extra}


class TestDispositions:
    def test_miss_then_hit_serves_identical_bytes(
        self, service_factory, inline_schemes
    ):
        service = service_factory()
        payload = _emulate_payload(inline_schemes)
        first = service.submit(payload)
        second = service.submit(payload)
        assert (first.status, first.cache) == (200, "miss")
        assert (second.status, second.cache) == (200, "hit")
        assert first.body == second.body
        assert first.body == response_bytes(execute_job(parse_job(payload)))

    def test_rejected_schema_is_a_400(self, service_factory):
        service = service_factory()
        response = service.submit({"kind": "warp"})
        assert (response.status, response.cache) == (400, "rejected")
        error = json.loads(response.body)["error"]
        assert error["kind"] == "invalid"

    def test_rejected_deep_validation_names_the_scheme(
        self, service_factory, inline_schemes
    ):
        service = service_factory()
        _, psm_xml = inline_schemes
        response = service.submit(
            {"kind": "emulate", "psdf_xml": "<broken/>", "psm_xml": psm_xml}
        )
        assert (response.status, response.cache) == (400, "rejected")
        assert "psdf_xml" in json.loads(response.body)["error"]["message"]

    def test_timeout_is_a_504(self, service_factory, inline_schemes):
        # no dispatcher running: the wait budget expires
        service = service_factory(auto_start=False)
        response = service.submit(
            _emulate_payload(inline_schemes), timeout_s=0.05
        )
        assert (response.status, response.cache) == (504, "timeout")
        service.start()  # let teardown drain the queued ticket

    def test_counters_track_dispositions(
        self, service_factory, inline_schemes
    ):
        service = service_factory()
        payload = _emulate_payload(inline_schemes)
        service.submit(payload)
        service.submit(payload)
        service.submit({"kind": "warp"})
        stats = service.stats()
        assert stats["requests"] == 3
        assert stats["by_disposition"]["miss"] == 1
        assert stats["by_disposition"]["hit"] == 1
        assert stats["by_disposition"]["rejected"] == 1
        assert stats["cache"]["entries"] == 1
        assert stats["latency_ms"]["p50"] >= 0.0


class TestCoalescing:
    def test_concurrent_same_key_computes_once(
        self, service_factory, inline_schemes
    ):
        service = service_factory(auto_start=False)
        payload = _emulate_payload(inline_schemes)
        owner = service.submit_async(payload)
        follower = service.submit_async(payload)
        assert owner.role == "miss"
        assert follower.role == "coalesced"
        service.start()
        assert owner.event.wait(30)
        assert follower.event.wait(30)
        assert owner.body == follower.body
        # exactly one computation: one miss recorded, nothing queued
        assert service.cache.stats().entries == 1


class TestBatching:
    def test_jobs_queued_before_start_go_out_in_one_dispatch(
        self, service_factory, inline_schemes, inline_schemes_1seg
    ):
        service = service_factory(auto_start=False)
        payloads = [
            _emulate_payload(inline_schemes, engine="stepped"),
            _emulate_payload(inline_schemes_1seg, engine="fast"),
        ]
        tickets = [service.submit_async(p) for p in payloads]
        service.start()
        for ticket in tickets:
            assert ticket.event.wait(60)
        stats = service.stats()
        assert stats["dispatch_batches"] == 1
        assert stats["executor"]["attempts"] == 2
        # a micro-batch is invisible in the bytes: each body equals the
        # direct per-job path
        for payload, ticket in zip(payloads, tickets):
            assert ticket.body == response_bytes(
                execute_job(parse_job(payload))
            )

    def test_mixed_batch_keeps_per_job_path_for_the_rest(
        self, service_factory, inline_schemes, inline_schemes_1seg
    ):
        service = service_factory(auto_start=False)
        psdf_xml, psm_xml = inline_schemes_1seg
        payloads = [
            _emulate_payload(inline_schemes, engine="fast"),
            {"kind": "estimate", "psdf_xml": psdf_xml, "psm_xml": psm_xml},
            {"kind": "lint", "psdf_xml": psdf_xml, "psm_xml": psm_xml},
        ]
        tickets = [service.submit_async(p) for p in payloads]
        service.start()
        for ticket in tickets:
            assert ticket.event.wait(60)
        stats = service.stats()
        # one micro-batch of mixed kinds: every job runs on its own
        assert stats["dispatch_batches"] == 1
        assert stats["executor"]["attempts"] == len(payloads)
        for payload, ticket in zip(payloads, tickets):
            assert ticket.body == response_bytes(
                execute_job(parse_job(payload))
            )

    def test_single_worker_serves_a_miss_without_waiting(
        self, inline_schemes, monkeypatch
    ):
        # one in-process worker has no companions to gather: the
        # dispatcher must not sleep before running a miss
        sleepers = []
        real_sleep = time.sleep

        def record(seconds):
            sleepers.append(threading.current_thread().name)
            real_sleep(seconds)

        monkeypatch.setattr("repro.serve.service.time.sleep", record)
        service = SegbusService(ServiceConfig())
        try:
            response = service.submit(_emulate_payload(inline_schemes))
        finally:
            service.stop()
        assert (response.status, response.cache) == (200, "miss")
        assert "segbus-serve-dispatcher" not in sleepers

    def test_stats_report_the_effective_window(self, service_factory):
        # /v1/stats keeps the config.batch_window_s key: the wait the
        # dispatcher actually applies, which only a worker pool gets
        alone = service_factory(auto_start=False)
        pooled = service_factory(auto_start=False, workers=2)
        assert alone.stats()["config"]["batch_window_s"] == 0.0
        assert pooled.stats()["config"]["batch_window_s"] == 0.005


class TestLifecycle:
    def test_stop_fails_queued_tickets_with_503(
        self, service_factory, inline_schemes
    ):
        service = service_factory(auto_start=False)
        ticket = service.submit_async(_emulate_payload(inline_schemes))
        service.stop()
        assert ticket.event.wait(5)
        assert ticket.failure_status == 503
        assert json.loads(ticket.failure_body)["error"]["kind"] == "shutdown"

    def test_reset_clears_counters_and_cache(
        self, service_factory, inline_schemes
    ):
        service = service_factory()
        payload = _emulate_payload(inline_schemes)
        service.submit(payload)
        service.submit(payload)
        service.reset()
        stats = service.stats()
        assert stats["requests"] == 0
        assert stats["cache"]["entries"] == 0
        # the next submission recomputes from scratch
        assert service.submit(payload).cache == "miss"

    def test_start_is_idempotent(self, service_factory, inline_schemes):
        service = service_factory()
        service.start()
        response = service.submit(_emulate_payload(inline_schemes))
        assert response.status == 200

    def test_stats_echo_the_config(self, service_factory):
        service = service_factory(queue_depth=7)
        assert service.stats()["config"]["queue_depth"] == 7
