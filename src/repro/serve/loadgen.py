"""Seeded deterministic load generator for ``segbus serve``.

The *schedule* is fully deterministic: :func:`build_plan` draws request
order, repeat choices and (open-loop) arrival offsets from
``numpy.random.default_rng(seed)`` over a corpus built by
:func:`serving_corpus` — generated lint-clean models serialized to their
schemes plus curated workload scenarios.  ``repeat_ratio`` controls how
often a previously issued payload is re-submitted, which is the knob
that exercises the result cache; with the service's request coalescing,
the *number of computed (unique) and reused responses per run is itself
deterministic*, concurrency notwithstanding — ``tests/serve`` pins
both, along with the summed completion times and report digests.

Two drivers share the plan: HTTP (persistent stdlib connections against
a running server) and in-process (straight into
:meth:`SegbusService.submit` — no sockets, used by unit tests).
``--verify`` re-executes every distinct payload locally and requires the
served bytes to match — the equivalence smoke CI runs.

Runnable as ``python -m repro.serve.loadgen`` or ``segbus loadgen``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.errors import SegBusError

DEFAULT_SEED = 1
DEFAULT_REQUESTS = 50
DEFAULT_REPEAT_RATIO = 0.8
DEFAULT_CONCURRENCY = 4


# ---------------------------------------------------------------------------
# corpus and plan
# ---------------------------------------------------------------------------


def serving_corpus(
    generated: int = 4,
    base_seed: int = 4242,
    workloads: Sequence[str] = (),
    kind: str = "emulate",
) -> List[Dict[str, object]]:
    """Job payloads over generated models and curated workload scenarios.

    Generated models are serialized to their XML schemes (inline jobs —
    the server parses them back through the loaders); workload entries
    ride by name.  ``kind`` applies to every payload (estimate/lint reuse
    the same corpus).
    """
    payloads: List[Dict[str, object]] = []
    if generated > 0:
        from repro.testing.generators import generate_models
        from repro.xmlio.psdf_writer import psdf_to_xml
        from repro.xmlio.psm_writer import psm_to_xml

        for model in generate_models(generated, base_seed=base_seed):
            payloads.append(
                {
                    "kind": kind,
                    "psdf_xml": psdf_to_xml(
                        model.application, model.platform.package_size
                    ),
                    "psm_xml": psm_to_xml(model.platform),
                }
            )
    for name in workloads:
        payloads.append({"kind": kind, "workload": name})
    if not payloads:
        raise SegBusError(
            "empty loadgen corpus: need generated > 0 or workload names"
        )
    return payloads


@dataclass(frozen=True)
class LoadPlan:
    """A fully materialized schedule: payloads in order plus arrivals.

    ``payload_ids`` maps each request to its distinct-payload index —
    the verify pass and the reuse accounting key on it.  ``arrival_s``
    is all zeros for closed-loop plans.
    """

    payloads: Tuple[Mapping[str, object], ...]
    payload_ids: Tuple[int, ...]
    arrival_s: Tuple[float, ...]
    seed: int
    repeat_ratio: float

    @property
    def requests(self) -> int:
        return len(self.payloads)

    @property
    def unique_payloads(self) -> int:
        return len(set(self.payload_ids))


def build_plan(
    corpus: Sequence[Mapping[str, object]],
    requests: int = DEFAULT_REQUESTS,
    repeat_ratio: float = DEFAULT_REPEAT_RATIO,
    seed: int = DEFAULT_SEED,
    rate_rps: Optional[float] = None,
    engine: Optional[str] = None,
) -> LoadPlan:
    """Draw a deterministic request schedule over ``corpus``.

    Each step either repeats a uniformly chosen earlier request (with
    probability ``repeat_ratio``, once anything was issued) or issues the
    next corpus entry, cycling when the corpus is exhausted.  With
    ``rate_rps`` set, arrivals are open-loop Poisson offsets at that
    rate; otherwise the plan is closed-loop (drivers fire as fast as
    their concurrency allows).  ``engine`` stamps every payload so one
    plan can be re-targeted per engine.
    """
    if requests < 1:
        raise SegBusError("loadgen requests must be >= 1")
    if not 0.0 <= repeat_ratio <= 1.0:
        raise SegBusError("repeat_ratio must be in [0, 1]")
    if not corpus:
        raise SegBusError("loadgen corpus must not be empty")
    base: List[Dict[str, object]] = []
    for payload in corpus:
        item = dict(payload)
        if engine is not None:
            item["engine"] = engine
        base.append(item)
    rng = np.random.default_rng(seed)
    payloads: List[Mapping[str, object]] = []
    payload_ids: List[int] = []
    issued: List[int] = []
    next_new = 0
    for _ in range(requests):
        if issued and float(rng.random()) < repeat_ratio:
            payload_id = issued[int(rng.integers(0, len(issued)))]
        else:
            payload_id = next_new % len(base)
            next_new += 1
        issued.append(payload_id)
        payloads.append(base[payload_id])
        payload_ids.append(payload_id)
    if rate_rps is not None and rate_rps > 0:
        gaps = rng.exponential(1.0 / rate_rps, size=requests)
        arrivals = tuple(float(v) for v in np.cumsum(gaps))
    else:
        arrivals = tuple(0.0 for _ in range(requests))
    return LoadPlan(
        payloads=tuple(payloads),
        payload_ids=tuple(payload_ids),
        arrival_s=arrivals,
        seed=seed,
        repeat_ratio=repeat_ratio,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass
class _Record:
    status: int = 0
    cache: str = ""
    elapsed_s: float = 0.0
    digest: str = ""
    exec_ps: int = 0


@dataclass
class LoadgenReport:
    """Everything one load run measured (see :meth:`format`)."""

    requests: int
    ok: int
    errors: int
    by_status: Dict[str, int]
    by_cache: Dict[str, int]
    unique_payloads: int
    elapsed_s: float
    throughput_rps: float
    latency_ms: Dict[str, float]
    hit_rate: float
    computed: int
    reused: int
    exec_ps_sum: int
    digest_checksum: int
    divergences: List[str] = field(default_factory=list)
    verified: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "by_status": dict(sorted(self.by_status.items())),
            "by_cache": dict(sorted(self.by_cache.items())),
            "unique_payloads": self.unique_payloads,
            "elapsed_s": round(self.elapsed_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_ms": {
                k: round(v, 3) for k, v in sorted(self.latency_ms.items())
            },
            "hit_rate": round(self.hit_rate, 6),
            "computed": self.computed,
            "reused": self.reused,
            "exec_ps_sum": self.exec_ps_sum,
            "digest_checksum": self.digest_checksum,
            "verified": self.verified,
            "divergences": list(self.divergences),
        }

    def format(self) -> str:
        lines = [
            f"loadgen: {self.requests} request(s), {self.ok} ok, "
            f"{self.errors} error(s), {self.unique_payloads} unique "
            f"payload(s), {self.elapsed_s:.2f}s "
            f"({self.throughput_rps:.1f} req/s)",
            f"  cache: {self.reused} reused / {self.computed} computed "
            f"(hit rate {self.hit_rate:.1%})",
            "  latency ms: "
            + " ".join(
                f"{k}={v:.1f}" for k, v in sorted(self.latency_ms.items())
            ),
        ]
        if self.verified:
            lines.append(
                f"  verify: {self.verified} distinct payload(s), "
                f"{len(self.divergences)} divergence(s)"
            )
        lines.extend(f"  DIVERGENT {item}" for item in self.divergences)
        return "\n".join(lines)


def _percentile_ms(latencies: Sequence[float], q: int) -> float:
    """Nearest-rank percentile in milliseconds."""
    ordered = sorted(latencies)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[rank] * 1e3


class _HTTPWorkerClient:
    """One persistent keep-alive connection, rebuilt on transport errors."""

    def __init__(self, url: str, timeout_s: float) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or parts.hostname is None:
            raise SegBusError(f"loadgen needs an http:// URL, got {url!r}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, payload: Mapping[str, object]) -> Tuple[int, str, bytes]:
        body = json.dumps(payload).encode("utf-8")
        for attempt in (1, 2):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout_s
                )
            try:
                self._conn.request(
                    "POST",
                    "/v1/jobs",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = self._conn.getresponse()
                data = response.read()
                cache = response.getheader("X-Segbus-Cache") or ""
                return response.status, cache, data
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


def run_loadgen(
    plan: LoadPlan,
    *,
    url: Optional[str] = None,
    service=None,
    concurrency: int = DEFAULT_CONCURRENCY,
    request_timeout_s: float = 300.0,
    verify: bool = False,
) -> LoadgenReport:
    """Drive ``plan`` against a server (``url``) or a service in-process.

    Exactly one of ``url``/``service`` must be given.  ``concurrency``
    worker threads consume the schedule; open-loop plans are paced by a
    producer thread at their arrival offsets.
    """
    if (url is None) == (service is None):
        raise SegBusError("loadgen needs exactly one of url= or service=")
    if concurrency < 1:
        raise SegBusError("concurrency must be >= 1")

    records: List[_Record] = [_Record() for _ in range(plan.requests)]
    first_body: Dict[int, bytes] = {}
    body_lock = threading.Lock()
    work: "queue.Queue[Optional[int]]" = queue.Queue()

    def handle(index: int, client: Optional[_HTTPWorkerClient]) -> None:
        payload = plan.payloads[index]
        record = records[index]
        started = time.perf_counter()
        if client is not None:
            try:
                status, cache, data = client.post(payload)
            except (OSError, http.client.HTTPException) as exc:
                record.status = 599
                record.cache = "transport-error"
                record.elapsed_s = time.perf_counter() - started
                record.digest = f"transport: {exc}"
                return
        else:
            response = service.submit(payload, timeout_s=request_timeout_s)
            status, cache, data = (
                response.status,
                response.cache,
                response.body,
            )
        record.status = status
        record.cache = cache
        record.elapsed_s = time.perf_counter() - started
        if 200 <= status < 300:
            with body_lock:
                first_body.setdefault(plan.payload_ids[index], data)
            try:
                body = json.loads(data.decode("utf-8"))
                record.digest = str(body.get("digest", ""))
                result = body.get("result", {})
                if isinstance(result, dict):
                    record.exec_ps = int(
                        result.get("execution_time_ps", 0) or 0
                    )
            except (ValueError, UnicodeDecodeError):
                record.digest = "unparseable"

    def worker() -> None:
        client = (
            _HTTPWorkerClient(url, request_timeout_s)
            if url is not None
            else None
        )
        try:
            while True:
                index = work.get()
                if index is None:
                    return
                handle(index, client)
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    open_loop = any(offset > 0 for offset in plan.arrival_s)
    if open_loop:
        for index in range(plan.requests):
            delay = plan.arrival_s[index] - (time.perf_counter() - started)
            if delay > 0:
                time.sleep(delay)
            work.put(index)
    else:
        for index in range(plan.requests):
            work.put(index)
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    by_status: Dict[str, int] = {}
    by_cache: Dict[str, int] = {}
    latencies: List[float] = []
    ok = 0
    exec_ps_sum = 0
    digest_checksum = 0
    for record in records:
        by_status[str(record.status)] = by_status.get(str(record.status), 0) + 1
        if record.cache:
            by_cache[record.cache] = by_cache.get(record.cache, 0) + 1
        latencies.append(record.elapsed_s)
        if 200 <= record.status < 300:
            ok += 1
            exec_ps_sum += record.exec_ps
            if record.digest:
                digest_checksum += int(record.digest[:12] or "0", 16)
    reused = by_cache.get("hit", 0) + by_cache.get("coalesced", 0)
    computed = by_cache.get("miss", 0)

    divergences: List[str] = []
    verified = 0
    if verify:
        from repro.serve.jobs import execute_job, parse_job, response_bytes

        for payload_id, served in sorted(first_body.items()):
            verified += 1
            payload = None
            for index, pid in enumerate(plan.payload_ids):
                if pid == payload_id:
                    payload = plan.payloads[index]
                    break
            assert payload is not None
            expected = response_bytes(execute_job(parse_job(payload)))
            if expected != served:
                divergences.append(
                    f"payload {payload_id}: served bytes differ from "
                    "direct execution"
                )

    return LoadgenReport(
        requests=plan.requests,
        ok=ok,
        errors=plan.requests - ok,
        by_status=by_status,
        by_cache=by_cache,
        unique_payloads=plan.unique_payloads,
        elapsed_s=elapsed,
        throughput_rps=plan.requests / elapsed if elapsed > 0 else 0.0,
        latency_ms={
            "p50": _percentile_ms(latencies, 50),
            "p90": _percentile_ms(latencies, 90),
            "p99": _percentile_ms(latencies, 99),
        },
        hit_rate=reused / ok if ok else 0.0,
        computed=computed,
        reused=reused,
        exec_ps_sum=exec_ps_sum,
        digest_checksum=digest_checksum,
        divergences=divergences,
        verified=verified,
    )


# ---------------------------------------------------------------------------
# CLI (python -m repro.serve.loadgen / segbus loadgen)
# ---------------------------------------------------------------------------


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The loadgen flags (shared with ``segbus loadgen``)."""
    parser.add_argument(
        "--url", required=True, help="server base URL, e.g. http://127.0.0.1:8787"
    )
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS,
        help="total requests to send (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="schedule seed (default %(default)s)",
    )
    parser.add_argument(
        "--repeat-ratio", type=float, default=DEFAULT_REPEAT_RATIO,
        help="probability a request repeats an earlier one "
        "(cache exercise; default %(default)s)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=DEFAULT_CONCURRENCY,
        help="worker threads (default %(default)s)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate in req/s (default: closed loop)",
    )
    parser.add_argument(
        "--models", type=int, default=4,
        help="generated corpus models (default %(default)s)",
    )
    parser.add_argument(
        "--model-seed", type=int, default=4242,
        help="base seed of the generated corpus (default %(default)s)",
    )
    parser.add_argument(
        "--workload", action="append", default=[], metavar="NAME",
        help="add a curated workload scenario to the corpus (repeatable)",
    )
    parser.add_argument(
        "--kind", choices=("emulate", "estimate", "lint"), default="emulate",
        help="job kind for every request (default %(default)s)",
    )
    parser.add_argument(
        "--engine", default=None,
        help="engine stamped on every payload (default: server default)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-request timeout in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="re-execute each distinct payload locally and require the "
        "served bytes to match (equivalence smoke)",
    )
    parser.add_argument(
        "--expect-hit-rate", type=float, default=None, metavar="RATIO",
        help="exit non-zero when the measured cache hit rate is below this",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )


def run_from_args(args: argparse.Namespace) -> int:
    corpus = serving_corpus(
        generated=args.models,
        base_seed=args.model_seed,
        workloads=args.workload,
        kind=args.kind,
    )
    plan = build_plan(
        corpus,
        requests=args.requests,
        repeat_ratio=args.repeat_ratio,
        seed=args.seed,
        rate_rps=args.rate,
        engine=args.engine,
    )
    report = run_loadgen(
        plan,
        url=args.url,
        concurrency=args.concurrency,
        request_timeout_s=args.timeout,
        verify=args.verify,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    if report.errors:
        return 1
    if report.divergences:
        return 1
    if (
        args.expect_hit_rate is not None
        and report.hit_rate < args.expect_hit_rate
    ):
        print(
            f"hit rate {report.hit_rate:.3f} below expected "
            f"{args.expect_hit_rate:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="seeded deterministic load generator for segbus serve",
    )
    add_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run_from_args(args)
    except SegBusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
