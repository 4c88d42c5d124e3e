"""The simulation service: admission, caching, batching, dispatch.

:class:`SegbusService` is the transport-free core of ``segbus serve``:
the HTTP layer (:mod:`repro.serve.server`), the in-process load
generator and the test suites all drive the same :meth:`submit` path.

One request's life:

1. ``parse_job`` schema-validates the payload (400 on failure).
2. The cache is consulted under the job's key, computed once
   (:attr:`~repro.serve.jobs.ServeJob.key`); a hit replays the stored
   bytes verbatim.  Steps 2-4 run under one lock and parse no XML.
3. A concurrent request for the *same* key joins the in-flight
   computation ("coalesced") instead of queueing a duplicate — so one
   key computes at most once per cache epoch, which is also what makes
   loadgen's computed/reused counts deterministic under concurrency.
4. Otherwise the job enters the bounded admission queue; when the
   queue is full the request is shed with a deterministic 429 +
   Retry-After.
5. The dispatcher thread takes whatever the admission queue holds as
   one micro-batch, at once, and runs it through :class:`CampaignExecutor`
   with per-job timeouts and retries.  With ``workers >= 2`` the service
   opens that executor when it is built, before any thread exists: one
   pool per server, whose workers every micro-batch reuses and which
   :meth:`SegbusService.stop` closes.  The runner (:func:`_run_job`)
   loads each job once, its only deep check: a refused input answers
   400 after one attempt, so retries see only crashes, timeouts and
   non-library exceptions.
6. Fulfilment caches a 200's canonical response bytes and wakes every
   waiter; a 400 answers them all ``rejected``.  Exhausted jobs produce
   a structured 500 carrying the :class:`JobFailure` ledger; neither is
   cached.  The waiting request then builds its :class:`ServeResponse`
   (or a 504 past :data:`REQUEST_TIMEOUT_S`) and is counted; each job
   of a client batch (:meth:`SegbusService.submit_batch`) goes through
   the same code.

Nondeterministic facts (latency, cache disposition) live in the
:class:`ServeResponse` envelope and become HTTP headers — never body
bytes.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.executor import (
    CampaignExecutor,
    ExecutorPolicy,
    JobFailure,
)
from repro.emulator.fastkernel import resolve_engine
from repro.errors import AdmissionError, JobValidationError, SegBusError
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    ServeJob,
    execute_job,
    parse_job,
    refusal_message,
    response_bytes,
)


#: how long a request thread waits for its result before 504
REQUEST_TIMEOUT_S = 300.0
#: the Retry-After a shed request advertises
RETRY_AFTER_S = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """The serving settings a deployment picks (CLI flags mirror these).

    The request deadline and the ``Retry-After`` of a shed request are
    module constants, not settings.
    """

    #: default engine for jobs that do not name one (None = SEGBUS_ENGINE)
    engine: Optional[str] = None
    #: executor width; 1 = in-process, >= 2 = one supervised pool forked
    #: when the service is built and kept until it stops
    workers: int = 1
    #: per-job timeout; refused unless workers >= 2
    timeout_s: Optional[float] = None
    #: executor attempts per job, the first included (``--retries N``
    #: gives N + 1)
    max_attempts: int = 3
    #: bounded admission queue depth; beyond it requests shed with 429
    queue_depth: int = 64
    #: result-cache caps
    cache_entries: int = 1024
    cache_bytes: int = 64 << 20


@dataclass
class ServeResponse:
    """One finished request: HTTP-ish status, body bytes, side channel."""

    status: int
    body: bytes
    #: cache disposition: hit | coalesced | miss | rejected | shed |
    #: failed | timeout
    cache: str
    elapsed_s: float = 0.0
    retry_after_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class _Ticket:
    """One admitted (or instantly resolved) request the caller waits on."""

    def __init__(self, key: str, job: Optional[ServeJob]) -> None:
        self.key = key
        self.job = job
        self.event = threading.Event()
        self.body: Optional[bytes] = None
        self.failure_status: Optional[int] = None
        self.failure_body: Optional[bytes] = None
        self.role = "miss"
        self.retry_after_s: Optional[float] = None
        #: coalesced requests for the same key, resolved with the owner
        self.followers: List["_Ticket"] = []

    def resolve_ok(self, body: bytes) -> None:
        self.body = body
        self.event.set()

    def resolve_error(self, status: int, body: bytes) -> None:
        self.failure_status = status
        self.failure_body = body
        self.event.set()


def _error_bytes(
    kind: str,
    message: str,
    failures: Optional[List[Dict[str, object]]] = None,
    **extra: object,
) -> bytes:
    error: Dict[str, object] = {"kind": kind, "message": message, **extra}
    if failures is not None:
        error["failures"] = failures
    return json.dumps(
        {"error": error}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _job_failed_bytes(failure: Optional[JobFailure]) -> bytes:
    """The 500 body of an exhausted job: its :class:`JobFailure` ledger."""
    if failure is None:
        return _error_bytes(
            "job-failed", "job failed without a ledger", failures=[]
        )
    entry: Dict[str, object] = {
        "label": failure.label,
        "attempts": failure.attempts,
        "kind": failure.kind,
        "error": failure.error,
        "message": failure.message,
    }
    return _error_bytes("job-failed", failure.message, failures=[entry])


def _run_job(job: ServeJob) -> Tuple[int, bytes]:
    """The executor's runner: one job to its status and body bytes.

    A :class:`SegBusError` is deterministic — another attempt would
    raise it again — so it becomes the job's 400 here instead of
    reaching the retry loop.  A pool worker ships the encoded bytes.
    """
    try:
        return 200, response_bytes(execute_job(job))
    except SegBusError as exc:
        return 400, _error_bytes("invalid", refusal_message(job, exc))


@dataclass
class _Counters:
    """Per-disposition request counters (the stats endpoint)."""

    by_role: Dict[str, int] = field(default_factory=dict)

    def bump(self, role: str) -> None:
        self.by_role[role] = self.by_role.get(role, 0) + 1

    def total(self) -> int:
        return sum(self.by_role.values())


class SegbusService:
    """The dispatcher, pool, cache and counters behind ``segbus serve``."""

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        *,
        chaos=None,
        auto_start: bool = True,
    ) -> None:
        self.config = config
        #: the engine of every job that names none, resolved once so a
        #: bad ``SEGBUS_ENGINE`` fails here and ``/v1/stats`` can report it
        self.engine = resolve_engine(config.engine)
        self.cache = ResultCache(
            max_entries=config.cache_entries, max_bytes=config.cache_bytes
        )
        policy = ExecutorPolicy(
            max_attempts=config.max_attempts,
            timeout_s=config.timeout_s,
        )
        self.executor = CampaignExecutor(
            _run_job, policy=policy, workers=config.workers, chaos=chaos
        )
        self._lock = threading.Lock()
        self._queue: Deque[_Ticket] = deque()
        self._inflight: Dict[str, _Ticket] = {}
        self._wake = threading.Event()
        self._counters = _Counters()
        self._latencies: Deque[float] = deque(maxlen=4096)
        self._executor_stats: Dict[str, int] = {}
        self._batches = 0
        self._running = False
        self._dispatcher: Optional[threading.Thread] = None
        # fork the pool (workers >= 2) while this is the only thread
        self.executor.open()
        if auto_start:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._running:
                return
            self._running = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="segbus-serve-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    def stop(self) -> None:
        """Stop dispatching; fail queued tickets with 503, join, close the pool.

        The pool closes once the dispatcher has returned: the dispatcher
        closes it on its way out, so a batch still running past the join
        budget keeps its workers until it ends.
        """
        with self._lock:
            self._running = False
            pending = list(self._queue)
            self._queue.clear()
            for ticket in pending:
                self._inflight.pop(ticket.key, None)
        self._wake.set()
        for ticket in pending:
            ticket.resolve_error(
                503, _error_bytes("shutdown", "service stopping")
            )
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
            self._dispatcher = None
        else:
            self.executor.close()

    def reset(self) -> None:
        """Clear cache, counters and latency samples."""
        self.cache.clear()
        with self._lock:
            self._counters = _Counters()
            self._latencies.clear()
            self._executor_stats = {}
            self._batches = 0

    # -- submission ---------------------------------------------------------

    def submit_async(self, payload: object) -> _Ticket:
        """Admit a payload; the returned ticket resolves to its response.

        Never raises: schema failures, cache hits and shed requests come
        back as already-resolved tickets.
        """
        try:
            job = parse_job(payload, default_engine=self.engine)
        except JobValidationError as exc:
            ticket = _Ticket("", None)
            ticket.role = "rejected"
            ticket.resolve_error(
                400, _error_bytes("invalid", exc.detail)
            )
            return ticket
        key = job.key
        ticket = _Ticket(key, job)
        with self._lock:
            cached = self.cache.get(key)
            if cached is not None:
                ticket.role = "hit"
                ticket.resolve_ok(cached)
                return ticket
            inflight = self._inflight.get(key)
            if inflight is not None:
                ticket.role = "coalesced"
                inflight.followers.append(ticket)
                return ticket
            if len(self._queue) >= self.config.queue_depth:
                return self._shed(ticket)
            self._inflight[key] = ticket
            self._queue.append(ticket)
        self._wake.set()
        return ticket

    def _shed(self, ticket: _Ticket) -> _Ticket:
        """Resolve a ticket as shed: deterministic 429 + Retry-After."""
        ticket.role = "shed"
        ticket.retry_after_s = RETRY_AFTER_S
        ticket.resolve_error(
            429,
            _error_bytes(
                "busy",
                str(AdmissionError(self.config.queue_depth, RETRY_AFTER_S)),
                retry_after_s=RETRY_AFTER_S,
            ),
        )
        return ticket

    def submit(
        self, payload: object, timeout_s: Optional[float] = None
    ) -> ServeResponse:
        """Admit and wait: the blocking request path the HTTP layer uses."""
        started = time.perf_counter()
        return self._respond(self.submit_async(payload), started, timeout_s)

    def submit_batch(self, payloads: List[object]) -> List[ServeResponse]:
        """A client batch: admit every job, then answer each like :meth:`submit`.

        Admitting all of them before waiting lets same-key jobs coalesce,
        and jobs the dispatcher finds queued together share a
        micro-batch.  Each job is counted and sampled on its own; its
        latency runs from the batch's arrival.
        """
        started = time.perf_counter()
        tickets = [self.submit_async(payload) for payload in payloads]
        return [self._respond(ticket, started) for ticket in tickets]

    def _respond(
        self,
        ticket: _Ticket,
        started: float,
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        """Wait for one ticket, then build, count and sample its response."""
        budget = REQUEST_TIMEOUT_S if timeout_s is None else timeout_s
        finished = ticket.event.wait(budget)
        elapsed = time.perf_counter() - started
        if not finished:
            response = ServeResponse(
                status=504,
                body=_error_bytes(
                    "deadline",
                    f"no result within {budget:g}s (job still running)",
                ),
                cache="timeout",
                elapsed_s=elapsed,
            )
        elif ticket.body is not None:
            response = ServeResponse(
                status=200,
                body=ticket.body,
                cache=ticket.role,
                elapsed_s=elapsed,
            )
        else:
            disposition = (
                ticket.role if ticket.role in ("shed", "rejected") else "failed"
            )
            response = ServeResponse(
                status=ticket.failure_status or 500,
                body=ticket.failure_body
                or _error_bytes("internal", "no failure body"),
                cache=disposition,
                elapsed_s=elapsed,
                retry_after_s=ticket.retry_after_s,
            )
        with self._lock:
            self._counters.bump(response.cache)
            self._latencies.append(elapsed)
        return response

    # -- dispatching --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        try:
            while True:
                self._wake.wait(timeout=0.1)
                with self._lock:
                    if not self._running:
                        return
                    batch = list(self._queue)
                    self._queue.clear()
                    self._wake.clear()
                if batch:
                    self._run_batch(batch)
        finally:
            # the pool's only user closes it
            self.executor.close()

    @staticmethod
    def _job_of(ticket: _Ticket) -> ServeJob:
        job = ticket.job
        assert job is not None  # queued tickets always carry their job
        return job

    def _run_batch(self, batch: List[_Ticket]) -> None:
        with self._lock:
            self._batches += 1
        result = self.executor.run([self._job_of(t) for t in batch])
        with self._lock:
            for key, value in (
                ("attempts", result.stats.attempts),
                ("retries", result.stats.retries),
                ("crashes", result.stats.crashes),
                ("timeouts", result.stats.timeouts),
                ("respawned_workers", result.stats.respawned_workers),
            ):
                self._executor_stats[key] = (
                    self._executor_stats.get(key, 0) + value
                )
        failures_by_label = {f.label: f for f in result.failures}
        for ticket, outcome in zip(batch, result.results):
            if outcome is None:
                failure = failures_by_label.get(self._job_of(ticket).label)
                outcome = (500, _job_failed_bytes(failure))
            self._fulfil(ticket, *outcome)

    def _fulfil(self, ticket: _Ticket, status: int, body: bytes) -> None:
        """Answer the owner and its coalesced followers with one outcome."""
        with self._lock:
            # only a 200 is cached: a transient crash must not be
            # replayed to every future request for the same model
            if status == 200:
                self.cache.put(ticket.key, body)
            self._inflight.pop(ticket.key, None)
            waiters = [ticket, *ticket.followers]
        for waiter in waiters:
            if status == 200:
                waiter.resolve_ok(body)
            else:
                if status == 400:
                    waiter.role = "rejected"
                waiter.resolve_error(status, body)

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters.by_role)
            total = self._counters.total()
            latencies = sorted(self._latencies)
            queue_depth = len(self._queue)
            inflight = len(self._inflight)
            executor_stats = dict(self._executor_stats)
            batches = self._batches

        def pct(q: int) -> float:
            if not latencies:
                return 0.0
            rank = max(
                0,
                min(len(latencies) - 1, -(-q * len(latencies) // 100) - 1),
            )
            return latencies[rank] * 1e3

        return {
            "requests": total,
            "by_disposition": counters,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "dispatch_batches": batches,
            "executor": executor_stats,
            "cache": self.cache.stats().to_dict(),
            "latency_ms": {
                "p50": pct(50),
                "p90": pct(90),
                "p99": pct(99),
            },
            "config": {
                "engine": self.engine,
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                # the dispatcher never waits; the key stays for readers
                "batch_window_s": 0.0,
            },
        }
