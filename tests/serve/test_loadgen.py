"""Load generator: deterministic plans, in-process runs, reporting."""

from __future__ import annotations

import threading

import pytest

from repro.emulator.fastkernel import ENGINE_NAMES
from repro.errors import SegBusError
from repro.serve.loadgen import (
    LoadPlan,
    _percentile_ms,
    build_plan,
    run_loadgen,
    serving_corpus,
)
from repro.serve.server import create_server

WORKLOAD_CORPUS = (
    {"kind": "emulate", "workload": "bursty"},
    {"kind": "emulate", "workload": "long_tail"},
)


class TestCorpus:
    def test_generated_plus_workloads(self):
        corpus = serving_corpus(
            generated=2, base_seed=77, workloads=("bursty",)
        )
        assert len(corpus) == 3
        inline = [p for p in corpus if "psdf_xml" in p]
        assert len(inline) == 2
        assert all(p["kind"] == "emulate" for p in corpus)
        assert corpus[-1]["workload"] == "bursty"

    def test_kind_applies_to_every_payload(self):
        corpus = serving_corpus(
            generated=0, workloads=("bursty",), kind="estimate"
        )
        assert corpus[0]["kind"] == "estimate"

    def test_empty_corpus_raises(self):
        with pytest.raises(SegBusError, match="empty loadgen corpus"):
            serving_corpus(generated=0, workloads=())

    def test_generated_corpus_is_seed_deterministic(self):
        a = serving_corpus(generated=2, base_seed=77)
        b = serving_corpus(generated=2, base_seed=77)
        assert a == b


class TestPlan:
    def test_same_seed_same_schedule(self):
        a = build_plan(WORKLOAD_CORPUS, requests=40, seed=5)
        b = build_plan(WORKLOAD_CORPUS, requests=40, seed=5)
        assert a.payload_ids == b.payload_ids
        assert a.arrival_s == b.arrival_s

    def test_different_seed_different_schedule(self):
        a = build_plan(WORKLOAD_CORPUS, requests=40, seed=5)
        b = build_plan(WORKLOAD_CORPUS, requests=40, seed=6)
        assert a.payload_ids != b.payload_ids

    def test_repeat_ratio_zero_cycles_the_corpus(self):
        plan = build_plan(WORKLOAD_CORPUS, requests=6, repeat_ratio=0.0)
        assert plan.payload_ids == (0, 1, 0, 1, 0, 1)
        assert plan.unique_payloads == 2

    def test_repeat_ratio_one_reissues_the_first(self):
        plan = build_plan(WORKLOAD_CORPUS, requests=5, repeat_ratio=1.0)
        assert plan.payload_ids == (0, 0, 0, 0, 0)
        assert plan.unique_payloads == 1

    def test_open_loop_arrivals_are_monotonic(self):
        plan = build_plan(WORKLOAD_CORPUS, requests=10, rate_rps=100.0)
        assert all(
            a < b for a, b in zip(plan.arrival_s, plan.arrival_s[1:])
        )

    def test_closed_loop_arrivals_are_zero(self):
        plan = build_plan(WORKLOAD_CORPUS, requests=4)
        assert plan.arrival_s == (0.0, 0.0, 0.0, 0.0)

    def test_engine_is_stamped_on_every_payload(self):
        plan = build_plan(WORKLOAD_CORPUS, requests=4, engine="fast")
        assert all(p["engine"] == "fast" for p in plan.payloads)
        # the source corpus dicts stay untouched
        assert "engine" not in WORKLOAD_CORPUS[0]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(requests=0), "requests must be"),
            (dict(repeat_ratio=1.5), "repeat_ratio"),
        ],
    )
    def test_bad_parameters_raise(self, kwargs, match):
        with pytest.raises(SegBusError, match=match):
            build_plan(WORKLOAD_CORPUS, **kwargs)

    def test_empty_corpus_raises(self):
        with pytest.raises(SegBusError, match="corpus must not be empty"):
            build_plan([], requests=4)


class TestRun:
    def test_in_process_run_accounts_exactly(self, service_factory):
        service = service_factory()
        plan = build_plan(
            WORKLOAD_CORPUS, requests=12, repeat_ratio=0.5, seed=3
        )
        report = run_loadgen(plan, service=service, concurrency=2)
        assert report.requests == 12
        assert report.errors == 0
        assert report.ok == 12
        # coalescing makes the computed/reused split deterministic
        assert report.computed == plan.unique_payloads
        assert report.reused == 12 - plan.unique_payloads
        assert report.hit_rate == report.reused / 12
        assert report.exec_ps_sum > 0
        assert report.digest_checksum > 0
        assert set(report.latency_ms) == {"p50", "p90", "p99"}
        assert report.throughput_rps > 0

    def test_verify_passes_against_the_service(self, service_factory):
        service = service_factory()
        plan = build_plan(WORKLOAD_CORPUS, requests=4, repeat_ratio=0.0)
        report = run_loadgen(
            plan, service=service, concurrency=1, verify=True
        )
        assert report.verified == plan.unique_payloads
        assert report.divergences == []

    def test_invalid_payloads_count_as_errors(self, service_factory):
        service = service_factory()
        plan = LoadPlan(
            payloads=({"kind": "warp"},),
            payload_ids=(0,),
            arrival_s=(0.0,),
            seed=1,
            repeat_ratio=0.0,
        )
        report = run_loadgen(plan, service=service, concurrency=1)
        assert report.errors == 1
        assert report.by_status == {"400": 1}

    def test_needs_exactly_one_target(self, service_factory):
        plan = build_plan(WORKLOAD_CORPUS, requests=2)
        with pytest.raises(SegBusError, match="exactly one"):
            run_loadgen(plan)
        with pytest.raises(SegBusError, match="exactly one"):
            run_loadgen(
                plan, url="http://localhost:1", service=service_factory()
            )

    def test_bad_concurrency_raises(self, service_factory):
        plan = build_plan(WORKLOAD_CORPUS, requests=2)
        with pytest.raises(SegBusError, match="concurrency"):
            run_loadgen(plan, service=service_factory(), concurrency=0)


class TestRepeatHeavyPins:
    """A seeded repeat-heavy plan over real sockets, on every engine.

    Coalescing makes the computed/reused split exact under concurrency,
    and the summed completion times and report digests are the same
    constants on both engines: ENG-1 at the HTTP boundary.
    """

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_counts_and_checksums(self, engine, service_factory):
        server = create_server(
            service_factory(engine=engine, queue_depth=1024)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            corpus = serving_corpus(
                generated=4, base_seed=9101, workloads=("bursty", "long_tail")
            )
            plan = build_plan(
                corpus,
                requests=120,
                repeat_ratio=0.9,
                seed=20260808,
                engine=engine,
            )
            report = run_loadgen(plan, url=server.url, concurrency=4)
        finally:
            server.shutdown()
            server.server_close()
        assert report.errors == 0
        assert report.requests == 120
        # 6 distinct payloads: a 95 % hit rate
        assert (report.computed, report.reused) == (6, 114)
        assert report.exec_ps_sum == 1389389844
        assert report.digest_checksum == 16543197458949702


class TestPercentiles:
    def test_empty_is_zero(self):
        assert _percentile_ms([], 50) == 0.0

    def test_nearest_rank(self):
        latencies = [0.001 * v for v in range(1, 11)]  # 1..10 ms
        assert _percentile_ms(latencies, 50) == pytest.approx(5.0)
        assert _percentile_ms(latencies, 90) == pytest.approx(9.0)
        assert _percentile_ms(latencies, 99) == pytest.approx(10.0)
