"""Service core: dispositions, refusals, coalescing, batching, stats,
lifecycle."""

from __future__ import annotations

import json
import re
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.faults.model import FaultPlan, FaultRecord
from repro.serve.jobs import execute_job, parse_job, response_bytes
from repro.serve.service import SegbusService, ServiceConfig
from repro.xmlio.faults_xml import fault_plan_to_xml
from tests.integration.test_cli_lint import deadlock_psdf


def _emulate_payload(schemes, **extra):
    psdf_xml, psm_xml = schemes
    return {"kind": "emulate", "psdf_xml": psdf_xml, "psm_xml": psm_xml, **extra}


def _cyclic_payload(schemes, kind="emulate"):
    """A PSDF that parses but whose graph is a cycle (SB207)."""
    _, psm_xml = schemes
    return {"kind": kind, "psdf_xml": deadlock_psdf(), "psm_xml": psm_xml}


def _sb303_payload(schemes):
    """A strict emulation whose fault plan targets a missing FU (SB303)."""
    plan = FaultPlan(
        seed=1,
        records=(
            FaultRecord(site="fu:NOPE", kind="fu_stall", rate=0.1, ticks=5),
        ),
    )
    return _emulate_payload(
        schemes, fault_plan_xml=fault_plan_to_xml(plan), strict=True
    )


def _arbiter_stripped(psm_xml: str) -> str:
    stripped = re.sub(
        r'\s*<xs:element name="arbiter" type="SA1" />', "", psm_xml
    )
    assert stripped != psm_xml
    return stripped


def _count_calls(monkeypatch, *functions):
    """Count calls to ``functions`` through every ``repro`` module binding."""
    counts = dict.fromkeys((f.__name__ for f in functions), 0)
    for function in functions:

        def counting(*args, _function=function, **kwargs):
            counts[_function.__name__] += 1
            return _function(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro":
                continue
            if getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, counting)
    return counts


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


class TestSchemeRefusals:
    """Admission parses no XML: the job's one load refuses a bad scheme."""

    def test_clean_inline_schemes_answer_200(
        self, service_factory, inline_schemes
    ):
        service = service_factory()
        for kind in ("emulate", "estimate", "lint"):
            response = service.submit(_emulate_payload(inline_schemes, kind=kind))
            assert (response.status, response.cache) == (200, "miss")

    def test_broken_psdf_names_the_scheme(
        self, service_factory, inline_schemes
    ):
        _, psm_xml = inline_schemes
        response = service_factory().submit(
            {"kind": "emulate", "psdf_xml": "<nope/>", "psm_xml": psm_xml}
        )
        assert (response.status, response.cache) == (400, "rejected")
        message = json.loads(response.body)["error"]["message"]
        assert message.startswith("psdf_xml: ")

    def test_broken_psm_names_the_scheme(
        self, service_factory, inline_schemes
    ):
        psdf_xml, _ = inline_schemes
        response = service_factory().submit(
            {"kind": "emulate", "psdf_xml": psdf_xml, "psm_xml": "<nope/>"}
        )
        assert (response.status, response.cache) == (400, "rejected")
        message = json.loads(response.body)["error"]["message"]
        assert message.startswith("psm_xml: ")

    def test_broken_fault_plan_names_the_scheme(
        self, service_factory, inline_schemes
    ):
        response = service_factory().submit(
            _emulate_payload(inline_schemes, fault_plan_xml="<nope/>")
        )
        assert (response.status, response.cache) == (400, "rejected")
        message = json.loads(response.body)["error"]["message"]
        assert message.startswith("fault_plan_xml: ")

    @pytest.mark.parametrize(
        "case, expected",
        [
            (
                "psdf",
                b'{"error":{"kind":"invalid","message":"psdf_xml: root element'
                b" is 'broken', expected xs:schema in"
                b" 'http://www.w3.org/2001/XMLSchema'\"}}",
            ),
            (
                "psm",
                b'{"error":{"kind":"invalid","message":"psm_xml: not'
                b' well-formed XML: syntax error: line 1, column 0"}}',
            ),
            (
                "fault_plan",
                b'{"error":{"kind":"invalid","message":"fault_plan_xml: not'
                b' well-formed XML: mismatched tag: line 1, column 8"}}',
            ),
            (
                "lint",
                b'{"error":{"kind":"invalid","message":"psdf_xml: root element'
                b" is 'nope', expected xs:schema in"
                b" 'http://www.w3.org/2001/XMLSchema'\"}}",
            ),
            (
                "arbiter",
                b'{"error":{"kind":"invalid","message":"psm_xml: scheme'
                b" integrity check failed:\\n  - complexType 'SA1' is"
                b' unreachable from any top-level element"}}',
            ),
        ],
    )
    def test_refusal_bytes_are_pinned(
        self, case, expected, service_factory, inline_schemes
    ):
        psdf_xml, psm_xml = inline_schemes
        payload = {
            "psdf": _emulate_payload(("<broken/>", psm_xml)),
            "psm": _emulate_payload((psdf_xml, "not xml")),
            "fault_plan": _emulate_payload(
                inline_schemes, fault_plan_xml="<a><b></a>"
            ),
            "lint": {"kind": "lint", "psdf_xml": "<nope/>", "psm_xml": psm_xml},
            "arbiter": _emulate_payload(
                (psdf_xml, _arbiter_stripped(psm_xml))
            ),
        }[case]
        response = service_factory().submit(payload)
        assert (response.status, response.cache) == (400, "rejected")
        assert response.body == expected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "case, needle",
        [
            ("cyclic-emulate", "cycle through processes: A, B, C"),
            ("cyclic-estimate", "cycle through processes: A, B, C"),
            ("sb303-strict", "SB303"),
        ],
    )
    def test_a_refused_input_answers_400_after_one_attempt(
        self, case, needle, workers, service_factory, inline_schemes
    ):
        payload = {
            "cyclic-emulate": _cyclic_payload(inline_schemes),
            "cyclic-estimate": _cyclic_payload(inline_schemes, "estimate"),
            "sb303-strict": _sb303_payload(inline_schemes),
        }[case]
        service = service_factory(workers=workers)
        response = service.submit(payload)
        assert (response.status, response.cache) == (400, "rejected")
        error = json.loads(response.body)["error"]
        assert error["kind"] == "invalid"
        assert needle in error["message"]
        stats = service.stats()
        assert stats["executor"]["attempts"] == 1
        assert stats["executor"]["retries"] == 0
        # refusals are never cached: the next request refuses afresh
        assert stats["cache"]["entries"] == 0
        assert stats["by_disposition"] == {"rejected": 1}

    def test_a_refusal_does_not_stall_the_jobs_behind_it(
        self, service_factory, inline_schemes, inline_schemes_1seg, monkeypatch
    ):
        sleepers = []
        real_sleep = time.sleep

        def record(seconds):
            sleepers.append(threading.current_thread().name)
            real_sleep(seconds)

        service = service_factory(auto_start=False)
        bad = service.submit_async(_cyclic_payload(inline_schemes))
        good = [
            service.submit_async(
                {"kind": "estimate", "psdf_xml": psdf, "psm_xml": psm}
            )
            for psdf, psm in (inline_schemes, inline_schemes_1seg)
        ]
        monkeypatch.setattr("repro.serve.service.time.sleep", record)
        service.start()
        for ticket in (bad, *good):
            assert ticket.event.wait(30)
        assert bad.failure_status == 400
        assert all(ticket.body is not None for ticket in good)
        # no backoff: the dispatcher never slept on the refused job
        assert "segbus-serve-dispatcher" not in sleepers

    def test_coalesced_refusal_computes_once(
        self, service_factory, inline_schemes
    ):
        service = service_factory(auto_start=False)
        payload = _cyclic_payload(inline_schemes)
        responses = []
        client = threading.Thread(
            target=lambda: responses.extend(
                service.submit_batch([payload, payload])
            )
        )
        client.start()
        # both jobs are admitted (two cache lookups) before dispatching
        deadline = time.monotonic() + 30
        while service.stats()["cache"]["misses"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        service.start()
        client.join(30)
        assert not client.is_alive()
        assert [(r.status, r.cache) for r in responses] == [
            (400, "rejected"),
            (400, "rejected"),
        ]
        assert responses[0].body == responses[1].body
        stats = service.stats()
        assert stats["executor"]["attempts"] == 1
        assert stats["by_disposition"] == {"rejected": 2}

    def test_cyclic_lint_reports_findings_like_segbus_lint(
        self, service_factory, tmp_path, capsys
    ):
        psdf_xml = deadlock_psdf()
        response = service_factory().submit(
            {"kind": "lint", "psdf_xml": psdf_xml}
        )
        assert (response.status, response.cache) == (200, "miss")
        body = json.loads(response.body)
        assert body["exit_code"] == 2
        path = tmp_path / "deadlock.xml"
        path.write_text(psdf_xml)
        assert main(["lint", "--format", "json", str(path)]) == 2
        cli = json.loads(capsys.readouterr().out)
        for finding in cli["findings"]:
            finding["location"].pop("file", None)
        assert body["result"]["findings"] == cli["findings"]
        assert "SB207" in {f["rule"] for f in cli["findings"]}


class TestParseOnce:
    @pytest.mark.parametrize(
        "kind, strict",
        [
            ("emulate", False),
            ("emulate", True),
            ("estimate", False),
            ("lint", False),
        ],
    )
    def test_a_cold_miss_parses_and_keys_once(
        self, kind, strict, service_factory, inline_schemes, monkeypatch
    ):
        from repro.serve.jobs import cache_key
        from repro.xmlio.psdf_parser import parse_psdf_xml
        from repro.xmlio.psm_parser import parse_psm_xml

        counts = _count_calls(
            monkeypatch, parse_psdf_xml, parse_psm_xml, cache_key
        )
        payload = _emulate_payload(inline_schemes, kind=kind)
        if strict:
            payload["strict"] = True
        response = service_factory().submit(payload)
        assert (response.status, response.cache) == (200, "miss")
        assert counts == {
            "parse_psdf_xml": 1,
            "parse_psm_xml": 1,
            "cache_key": 1,
        }


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
