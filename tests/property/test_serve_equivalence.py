"""Serving equivalence: served bytes == direct library bytes, per engine.

The ENG-1 contract lifted to the HTTP boundary: for every job kind and
every engine, the body a real server answers with must be byte-identical
to ``response_bytes(execute_job(parse_job(payload)))`` computed directly
in-process — digest for digest.  Emulate digests must additionally agree
*across* engines (tick-for-tick equivalence), while cache hits must
replay the very same bytes the miss produced.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.emulator.fastkernel import ENGINE_NAMES
from repro.serve.jobs import execute_job, parse_job, response_bytes
from repro.serve.loadgen import serving_corpus
from repro.serve.server import create_server
from repro.serve.service import SegbusService, ServiceConfig


@pytest.fixture(scope="module")
def equivalence_server():
    service = SegbusService(ServiceConfig(workers=1, queue_depth=256))
    server = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.stop()


def _post(server, payload):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request("POST", "/v1/jobs", body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _corpus():
    # two generated lint-clean models (inline schemes) plus one curated
    # workload — enough shape diversity to exercise the loaders, the
    # workload path and the multimode path
    payloads = serving_corpus(generated=2, base_seed=31415)
    payloads.append({"kind": "emulate", "workload": "bursty"})
    return payloads


class TestServedEquivalence:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_emulate_bytes_match_direct_execution(
        self, equivalence_server, engine
    ):
        for payload in _corpus():
            stamped = {**payload, "engine": engine}
            status, served = _post(equivalence_server, stamped)
            assert status == 200
            expected = response_bytes(execute_job(parse_job(stamped)))
            assert served == expected

    def test_emulate_digests_agree_across_engines(self, equivalence_server):
        for payload in _corpus():
            digests = set()
            for engine in ENGINE_NAMES:
                status, served = _post(
                    equivalence_server, {**payload, "engine": engine}
                )
                assert status == 200
                digests.add(json.loads(served)["digest"])
            assert len(digests) == 1  # tick-for-tick across engines

    @pytest.mark.parametrize("kind", ("estimate", "lint"))
    def test_analysis_kinds_match_direct_execution(
        self, equivalence_server, kind
    ):
        payload = dict(_corpus()[0])
        payload["kind"] = kind
        status, served = _post(equivalence_server, payload)
        assert status == 200
        assert served == response_bytes(execute_job(parse_job(payload)))

    def test_selftest_matches_direct_execution(self, equivalence_server):
        payload = {"kind": "selftest", "count": 2, "seed": 11}
        status, served = _post(equivalence_server, payload)
        assert status == 200
        assert served == response_bytes(execute_job(parse_job(payload)))

    def test_cache_hits_replay_the_miss_bytes(self, equivalence_server):
        payload = {**_corpus()[0], "engine": "fast"}
        _, first = _post(equivalence_server, payload)
        _, second = _post(equivalence_server, payload)
        assert first == second

    def test_multimode_workload_served_equivalently(self, equivalence_server):
        payload = {"kind": "emulate", "workload": "mp3_jpeg_multimode"}
        digests = set()
        for engine in ENGINE_NAMES:
            stamped = {**payload, "engine": engine}
            status, served = _post(equivalence_server, stamped)
            assert status == 200
            assert served == response_bytes(execute_job(parse_job(stamped)))
            digests.add(json.loads(served)["digest"])
        assert len(digests) == 1
