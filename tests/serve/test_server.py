"""HTTP layer: endpoints, headers, error statuses, client batches."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.serve.server import MAX_BODY_BYTES, create_server


@pytest.fixture
def http_server(service_factory):
    service = service_factory()
    server = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _request(server, method, path, body=None, headers=None):
    host, port = server.server_address[0], server.server_address[1]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


def _emulate_payload(schemes):
    psdf_xml, psm_xml = schemes
    return {"kind": "emulate", "psdf_xml": psdf_xml, "psm_xml": psm_xml}


class TestEndpoints:
    def test_health(self, http_server):
        status, _, data = _request(http_server, "GET", "/v1/health")
        assert status == 200
        body = json.loads(data)
        assert body["ok"] is True
        assert body["service"] == "segbus-serve"

    def test_stats(self, http_server):
        status, _, data = _request(http_server, "GET", "/v1/stats")
        assert status == 200
        body = json.loads(data)
        assert "cache" in body and "by_disposition" in body

    def test_unknown_paths_404(self, http_server):
        for method, path in (("GET", "/nope"), ("POST", "/v1/nope")):
            status, _, data = _request(
                http_server, method, path, body=b"{}"
            )
            assert status == 404
            assert json.loads(data)["error"]["kind"] == "not-found"

    def test_url_property_is_connectable(self, http_server):
        assert http_server.url.startswith("http://127.0.0.1:")


class TestJobRequests:
    def test_miss_then_hit_with_cache_headers(
        self, http_server, inline_schemes
    ):
        body = json.dumps(_emulate_payload(inline_schemes))
        status1, headers1, data1 = _request(
            http_server, "POST", "/v1/jobs", body=body
        )
        status2, headers2, data2 = _request(
            http_server, "POST", "/v1/jobs", body=body
        )
        assert status1 == status2 == 200
        assert headers1["X-Segbus-Cache"] == "miss"
        assert headers2["X-Segbus-Cache"] == "hit"
        assert data1 == data2  # byte-identical replay
        assert float(headers1["X-Segbus-Elapsed-Ms"]) >= 0.0

    def test_bad_json_is_400(self, http_server):
        status, _, data = _request(
            http_server, "POST", "/v1/jobs", body=b"{nope"
        )
        assert status == 400
        assert "bad JSON" in json.loads(data)["error"]["message"]

    def test_invalid_job_is_400(self, http_server):
        status, headers, data = _request(
            http_server, "POST", "/v1/jobs", body=json.dumps({"kind": "x"})
        )
        assert status == 400
        assert headers["X-Segbus-Cache"] == "rejected"

    def test_removed_batch_engine_is_400_naming_the_engines(
        self, http_server, inline_schemes
    ):
        payload = {**_emulate_payload(inline_schemes), "engine": "batch"}
        status, headers, data = _request(
            http_server, "POST", "/v1/jobs", body=json.dumps(payload)
        )
        assert status == 400
        assert headers["X-Segbus-Cache"] == "rejected"
        error = json.loads(data)["error"]
        assert error["kind"] == "invalid"
        assert "'batch'" in error["message"]
        assert "stepped, fast" in error["message"]

    def test_oversized_body_is_413(self, http_server):
        # advertise an over-cap Content-Length; the server must refuse
        # before attempting to read the body
        host, port = http_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["error"]["kind"] == "too-large"
        finally:
            conn.close()

    def test_client_batch_answers_per_job(self, http_server, inline_schemes):
        payload = _emulate_payload(inline_schemes)
        body = json.dumps({"jobs": [payload, payload, {"kind": "x"}]})
        status, _, data = _request(http_server, "POST", "/v1/jobs", body=body)
        assert status == 200
        responses = json.loads(data)["responses"]
        assert len(responses) == 3
        assert responses[0]["status"] == 200
        assert responses[1]["status"] == 200
        # same key admitted together: the second one coalesces (or hits
        # if the first already fulfilled) — never a second computation
        assert responses[1]["cache"] in ("coalesced", "hit")
        assert responses[0]["body"] == responses[1]["body"]
        assert responses[2]["status"] == 400

    def test_client_batch_jobs_count_like_single_requests(
        self, http_server, inline_schemes
    ):
        payload = _emulate_payload(inline_schemes)
        body = json.dumps({"jobs": [payload, payload, {"kind": "x"}]})
        _, _, before = _request(http_server, "GET", "/v1/stats")
        _request(http_server, "POST", "/v1/jobs", body=body)
        _, _, after = _request(http_server, "GET", "/v1/stats")
        before, after = json.loads(before), json.loads(after)
        assert after["requests"] - before["requests"] == 3
        roles = after["by_disposition"]
        assert roles["miss"] == 1
        assert roles.get("coalesced", 0) + roles.get("hit", 0) == 1
        assert roles["rejected"] == 1

    def test_undispatched_client_batch_job_answers_the_deadline(
        self, service_factory, inline_schemes, monkeypatch
    ):
        # no dispatcher: the job waits out the request timeout and must
        # answer the same 504 a single request would
        monkeypatch.setattr("repro.serve.service.REQUEST_TIMEOUT_S", 0.05)
        service = service_factory(auto_start=False)
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            body = json.dumps({"jobs": [_emulate_payload(inline_schemes)]})
            status, _, data = _request(server, "POST", "/v1/jobs", body=body)
        finally:
            server.shutdown()
            server.server_close()
        assert status == 200
        (response,) = json.loads(data)["responses"]
        assert (response["status"], response["cache"]) == (504, "timeout")
        assert response["body"]["error"]["kind"] == "deadline"
        assert service.stats()["by_disposition"] == {"timeout": 1}

    def test_jobs_must_be_an_array(self, http_server):
        status, _, data = _request(
            http_server, "POST", "/v1/jobs", body=json.dumps({"jobs": "x"})
        )
        assert status == 400
        assert "array" in json.loads(data)["error"]["message"]
