"""The stdlib HTTP front end of ``segbus serve`` (no new dependencies).

A :class:`ThreadingHTTPServer` whose handler threads block on
:meth:`SegbusService.submit` — the service's own admission queue, not
the socket backlog, is the concurrency limiter.  Endpoints:

``POST /v1/jobs``
    One job object, or ``{"jobs": [...]}`` for a client-side batch.
    Single jobs answer with the job's own status (200/400/429/500/504)
    and the deterministic body bytes; the cache disposition and latency
    travel in ``X-Segbus-Cache`` / ``X-Segbus-Elapsed-Ms`` headers so a
    hit's body stays byte-identical to the miss that populated it.
    Batches always answer 200 with ``{"responses": [...]}``, each entry
    carrying its own ``status``/``cache``/``body``; every job is answered
    and counted exactly as a single request would be.

``GET /v1/health``
    Liveness: ``{"ok": true, "engine_default": ...}``.

``GET /v1/stats``
    The service counters: cache hits/misses/evictions, per-disposition
    request counts, queue depth, executor supervision counters, latency
    percentiles.

Shed requests carry ``Retry-After`` (seconds, integer-rounded up) as the
backpressure contract promises.
"""

from __future__ import annotations

import json
import logging
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.serve.service import SegbusService, ServeResponse

logger = logging.getLogger(__name__)

#: request bodies above this are refused with 413 before reading more
MAX_BODY_BYTES = 32 << 20


class SegbusHTTPServer(ThreadingHTTPServer):
    """The bound server; holds the service the handlers dispatch into."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: SegbusService):
        super().__init__(address, _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server_version = "segbus-serve/1"
    protocol_version = "HTTP/1.1"  # keep-alive: loadgen reuses connections
    # one TCP segment per response: buffered writes plus TCP_NODELAY.
    # Unbuffered head-then-body writes on a keep-alive connection trip
    # the Nagle/delayed-ACK interaction — a flat ~40 ms stall per
    # request that would swamp every latency percentile loadgen reports
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    @property
    def service(self) -> SegbusService:
        assert isinstance(self.server, SegbusHTTPServer)
        return self.server.service

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send(
        self,
        status: int,
        body: bytes,
        cache: Optional[str] = None,
        elapsed_s: Optional[float] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if cache is not None:
            self.send_header("X-Segbus-Cache", cache)
        if elapsed_s is not None:
            self.send_header("X-Segbus-Elapsed-Ms", f"{elapsed_s * 1e3:.3f}")
        if retry_after_s is not None:
            self.send_header("Retry-After", str(math.ceil(retry_after_s)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: object) -> None:
        self._send(
            status,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    def _send_serve_response(self, response: ServeResponse) -> None:
        self._send(
            response.status,
            response.body,
            cache=response.cache,
            elapsed_s=response.elapsed_s,
            retry_after_s=response.retry_after_s,
        )

    # -- endpoints ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/v1/health":
            self._send_json(
                200,
                {
                    "ok": True,
                    "service": "segbus-serve",
                    "engine_default": self.service.config.engine,
                },
            )
        elif self.path == "/v1/stats":
            self._send_json(200, self.service.stats())
        else:
            self._send_json(
                404, {"error": {"kind": "not-found", "message": self.path}}
            )

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path != "/v1/jobs":
            self._send_json(
                404, {"error": {"kind": "not-found", "message": self.path}}
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(
                413,
                {
                    "error": {
                        "kind": "too-large",
                        "message": f"body must be 0..{MAX_BODY_BYTES} bytes",
                    }
                },
            )
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(
                400,
                {"error": {"kind": "invalid", "message": f"bad JSON: {exc}"}},
            )
            return
        if isinstance(payload, dict) and "jobs" in payload:
            jobs = payload.get("jobs")
            if not isinstance(jobs, list):
                self._send_json(
                    400,
                    {
                        "error": {
                            "kind": "invalid",
                            "message": "jobs must be a JSON array",
                        }
                    },
                )
                return
            responses = [
                {
                    "status": response.status,
                    "cache": response.cache,
                    "body": json.loads(response.body.decode("utf-8")),
                }
                for response in self.service.submit_batch(jobs)
            ]
            self._send_json(200, {"responses": responses})
            return
        response = self.service.submit(payload)
        self._send_serve_response(response)


def create_server(
    service: SegbusService, host: str = "127.0.0.1", port: int = 0
) -> SegbusHTTPServer:
    """Bind (port 0 = ephemeral) without starting the accept loop.

    Callers run ``serve_forever()`` on a thread of their choosing; tests
    use a daemon thread, the CLI blocks on it.
    """
    return SegbusHTTPServer((host, port), service)
