"""Supervised campaign execution: retries, timeouts, checkpoints, chaos.

A bare ``pool.map`` lets one hung worker stall a whole reliability sweep,
one dead worker process lose every completed result, and an interrupted
campaign restart from zero.  Every campaign instead runs on this
*supervised* executor:

* jobs are submitted individually (or in small chunks) to a pool of
  worker processes, each owning a private pipe — a ``SIGKILL``-ed worker
  can corrupt only its own channel, never the shared result stream;
* every job gets a per-job **timeout** (measured from the worker's last
  progress) and a bounded number of **retries** with exponential backoff
  plus jitter drawn from a :class:`repro.faults.prng.DeterministicStream`,
  so a rerun of the same campaign waits the same milliseconds;
* a worker that dies (chaos kill, OOM, segfault) is detected, its
  in-flight jobs are requeued, and a replacement process is spawned —
  the supervised equivalent of ``BrokenProcessPool`` recovery, except
  completed results survive;
* failures degrade gracefully: the batch finishes and returns a
  :class:`BatchResult` carrying the completed results *plus* a
  structured ledger of :class:`JobFailure` entries, instead of an
  all-or-nothing exception;
* completed results are journaled to a crash-safe append-only JSONL
  checkpoint keyed by each job's :func:`canonical_digest`
  (``.segbus/checkpoints/`` by default, one fsync per record, atomic
  rename on finalize), so an interrupted campaign resumes by replaying
  the journal and re-running only the missing jobs — byte-identical
  final reports, proven by the chaos suite
  (``tests/testing/test_chaos.py``).

The chaos harness (:mod:`repro.testing.chaos`) plugs in through the
``SEGBUS_CHAOS`` environment variable or the ``chaos=`` parameter and
injects worker kills, stalls, poisoned jobs and mid-campaign SIGTERM —
all decided by the same seeded-PRNG discipline the fault injector uses.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import hashlib
import json
import logging
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SegBusError
from repro.faults.prng import DeterministicStream

logger = logging.getLogger("repro.analysis.executor")

DEFAULT_CHECKPOINT_DIR = Path(".segbus") / "checkpoints"
JOURNAL_VERSION = 1

#: supervisor poll cadence (seconds) — bounds timeout/death detection lag
_POLL_S = 0.05
#: graceful worker join budget before escalating to SIGKILL
_JOIN_S = 5.0
#: the same budget when a run aborts (SIGTERM, Ctrl-C) with jobs in flight
_ABORT_JOIN_S = 0.5
#: traceback lines a worker ships back with a failed attempt
_TRACEBACK_TAIL_LINES = 6
#: with ``workers`` unset, a batch of fewer pending jobs runs in-process
_SERIAL_BELOW = 3
#: retry backoff: the delay doubles from the base per failure up to the
#: cap, then stretches by up to ``_JITTER`` x a seeded uniform draw
_BACKOFF_BASE_S = 0.05
_BACKOFF_MAX_S = 2.0
_JITTER = 0.25


class ExecutorError(SegBusError):
    """Executor infrastructure failure (not an individual job failure)."""


class CheckpointError(ExecutorError):
    """The checkpoint journal is unreadable or corrupt (beyond a torn tail)."""


class ExecutorInterrupted(ExecutorError):
    """The campaign was interrupted (SIGTERM); the journal survives.

    Re-run the same campaign with ``resume=True`` (CLI ``--resume``) to
    replay the checkpoint and run only the missing jobs.
    """


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutorPolicy:
    """Retry/timeout discipline for one campaign.

    ``max_attempts``
        total tries per job (first attempt included); crashes and
        timeouts of the *running* job count as failed attempts, so a
        job that always kills its worker cannot respawn forever.
    ``timeout_s``
        per-job wall-clock budget measured from the worker's last
        progress; ``None`` disables it.  Expiry kills the worker
        (a stalled process cannot be cancelled politely) and counts as
        a failed attempt.  The in-process path cannot interrupt a job,
        so an executor with ``workers=1`` refuses a timeout; with
        ``workers`` unset, a batch small enough to run in-process runs
        without one.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutorError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExecutorError("timeout_s must be positive (or None)")

    def delay_s(self, label: str, failures: int) -> float:
        """Backoff delay before the retry after the ``failures``-th failure.

        The jitter draw is keyed on ``(label, failures)``, so reruns
        wait identically; the exponent cap only keeps the float finite.
        """
        base = min(
            _BACKOFF_BASE_S * 2 ** min(failures - 1, 20), _BACKOFF_MAX_S
        )
        draw = DeterministicStream(
            1, "executor-backoff", label, str(failures)
        ).next_float()
        return base * (1.0 + _JITTER * draw)


# ---------------------------------------------------------------------------
# failure ledger and batch result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobFailure:
    """One exhausted job: what failed, how often, and why.

    ``kind`` is ``"error"`` (the job raised), ``"timeout"`` (per-job
    budget expired) or ``"crash"`` (the worker process died while
    running it).
    """

    label: str
    attempts: int
    kind: str
    error: str
    message: str
    traceback_tail: str = ""

    def format(self) -> str:
        return f"{self.label}: {self.error}: {self.message}"


@dataclass(frozen=True)
class ExecutorStats:
    """Supervision counters for one batch (chaos tests pin these)."""

    attempts: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    respawned_workers: int = 0
    replayed: int = 0


@dataclass(frozen=True)
class BatchResult:
    """Everything one campaign run produced, completed and failed alike.

    ``results`` is in input order with ``None`` at failed positions;
    ``failures`` is the structured ledger, also in input order.
    """

    results: Tuple[Optional[object], ...]
    failures: Tuple[JobFailure, ...]
    stats: ExecutorStats = ExecutorStats()

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> List[object]:
        return [r for r in self.results if r is not None]

    def raise_on_failure(self, what: str = "job") -> "BatchResult":
        if self.failures:
            raise JobError.from_batch(self, what=what)
        return self


class JobError(SegBusError):
    """A batch had exhausted jobs; carries the ledger and partial results.

    Raw worker exceptions surface out of a process pool stripped of any
    hint of *which* configuration died, which makes hundred-job sweeps
    miserable to debug — the message names every failed label, and the
    structured attributes keep what the old joined string threw away:

    ``failures``
        the :class:`JobFailure` ledger (label, attempt count, error
        class, message, traceback tail), in input order;
    ``partial_results``
        every completed result of the batch — a single bad variant no
        longer discards the rest of the sweep.
    """

    def __init__(
        self,
        message: str,
        failures: Sequence[JobFailure] = (),
        partial_results: Sequence[object] = (),
    ) -> None:
        super().__init__(message)
        self.failures = list(failures)
        self.partial_results = list(partial_results)

    @classmethod
    def from_batch(cls, batch: BatchResult, what: str = "job") -> "JobError":
        total = len(batch.results)
        summary = "; ".join(f.format() for f in batch.failures)
        return cls(
            f"{len(batch.failures)} of {total} {what}(s) failed — {summary}",
            failures=batch.failures,
            partial_results=batch.completed,
        )


# ---------------------------------------------------------------------------
# canonical digests (checkpoint keys)
# ---------------------------------------------------------------------------


def canonical_form(value: object) -> object:
    """A JSON-able, hash-seed-independent canonical view of ``value``.

    Handles primitives, dataclasses, enums, mappings (sorted), sequences
    and the repo's model types (a :class:`~repro.psdf.graph.PSDFGraph`
    by name/processes/flows, a platform via its
    :class:`~repro.emulator.kernel.PlatformSpec` projection).  Unknown
    objects fall back to ``repr`` — fine for digesting as long as the
    repr is stable across processes.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        form: Dict[str, object] = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            form[f.name] = canonical_form(getattr(value, f.name))
        return form
    if isinstance(value, Mapping):
        entries = sorted(
            (
                json.dumps(canonical_form(k), sort_keys=True, default=repr),
                canonical_form(v),
            )
            for k, v in value.items()
        )
        return {"__map__": entries}
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                json.dumps(canonical_form(v), sort_keys=True, default=repr)
                for v in value
            )
        }
    if isinstance(value, (list, tuple)):
        return [canonical_form(v) for v in value]

    from repro.psdf.graph import PSDFGraph  # local: avoid import cycles

    if isinstance(value, PSDFGraph):
        return {
            "__psdf__": value.name,
            "processes": [
                canonical_form(p)
                for p in sorted(value.processes, key=lambda p: p.name)
            ],
            "flows": [canonical_form(f) for f in value.flows],
        }

    from repro.model.elements import SegBusPlatform

    if isinstance(value, SegBusPlatform):
        from repro.emulator.kernel import PlatformSpec

        return {
            "__platform__": canonical_form(PlatformSpec.from_platform(value))
        }
    if callable(value):
        return {
            "__callable__": f"{getattr(value, '__module__', '?')}."
            f"{getattr(value, '__qualname__', repr(value))}"
        }
    return {"__repr__": repr(value)}


def canonical_digest(*values: object) -> str:
    """SHA-256 (hex) over the canonical forms of ``values``."""
    payload = json.dumps(
        [canonical_form(v) for v in values],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# checkpoint journal
# ---------------------------------------------------------------------------


def _encode_payload(result: object) -> str:
    return base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_payload(text: str) -> object:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


class CheckpointJournal:
    """Append-only JSONL journal of completed results, keyed by job digest.

    Crash safety contract:

    * every completed result is one JSON line, flushed and fsynced
      before the supervisor moves on — a ``kill -9`` at any instant
      loses at most the in-flight jobs, never a journaled one;
    * :meth:`load` tolerates a torn trailing line (the record a crash
      interrupted mid-write) and rejects corruption anywhere else;
    * :meth:`finalize` consolidates every entry of the finished batch
      into ``<name>.done.jsonl`` via an atomic ``os.replace`` and
      removes the live journal — a finished campaign is a single
      self-contained snapshot.
    """

    def __init__(self, directory, name: str) -> None:
        self.directory = Path(directory)
        self.name = name
        self.path = self.directory / f"{name}.jsonl"
        self.done_path = self.directory / f"{name}.done.jsonl"
        self._fh = None

    # -- reading --------------------------------------------------------------

    def load(self) -> Dict[str, Tuple[str, object]]:
        """Replay: digest -> (label, result), from snapshot then live journal."""
        entries: Dict[str, Tuple[str, object]] = {}
        for path in (self.done_path, self.path):
            if not path.is_file():
                continue
            lines = path.read_bytes().splitlines()
            for lineno, raw in enumerate(lines):
                if not raw.strip():
                    continue
                try:
                    record = json.loads(raw.decode("utf-8"))
                    if record.get("v") != JOURNAL_VERSION:
                        raise ValueError(
                            f"unsupported journal version {record.get('v')!r}"
                        )
                    digest = str(record["digest"])
                    payload = _decode_payload(record["payload"])
                    label = str(record.get("label", ""))
                except Exception as exc:  # noqa: BLE001 - classified below
                    if path == self.path and lineno == len(lines) - 1:
                        # the record a crash tore mid-write; the job it
                        # belonged to simply re-runs
                        logger.debug(
                            "checkpoint %s: dropping torn trailing record",
                            path,
                        )
                        continue
                    raise CheckpointError(
                        f"corrupt checkpoint record {path}:{lineno + 1} "
                        f"({exc}) — delete the file to start over"
                    ) from exc
                entries[digest] = (label, payload)
        return entries

    # -- writing --------------------------------------------------------------

    def open(self, fresh: bool) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        if fresh:
            # a new campaign under an old name: stale snapshots would
            # otherwise leak into a later --resume
            self.done_path.unlink(missing_ok=True)
        self._fh = open(  # noqa: SIM115 - held across the whole batch
            self.path, "w" if fresh else "a", encoding="utf-8"
        )

    def record(self, digest: str, label: str, result: object) -> None:
        if self._fh is None:
            return
        line = json.dumps(
            {
                "v": JOURNAL_VERSION,
                "digest": digest,
                "label": label,
                "payload": _encode_payload(result),
            },
            sort_keys=True,
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def finalize(self, entries: Mapping[str, Tuple[str, object]]) -> Path:
        """Atomically snapshot the finished batch and drop the live journal."""
        self.close()
        tmp = self.directory / f".{self.name}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for digest, (label, result) in sorted(entries.items()):
                fh.write(
                    json.dumps(
                        {
                            "v": JOURNAL_VERSION,
                            "digest": digest,
                            "label": label,
                            "payload": _encode_payload(result),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.done_path)
        self.path.unlink(missing_ok=True)
        return self.done_path


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(conn) -> None:  # pragma: no cover - runs in worker processes
    """Worker loop: receive a chunk, report one message per job, repeat."""
    # a terminal's Ctrl-C reaches the whole process group; the
    # supervisor, not the signal, decides when a worker stops
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        for index, attempt, call, job in task:
            try:
                result = call(job)
            except Exception as exc:  # noqa: BLE001 - shipped to supervisor
                tail = "\n".join(
                    traceback.format_exc().strip().splitlines()[
                        -_TRACEBACK_TAIL_LINES:
                    ]
                )
                message = (
                    index,
                    attempt,
                    "error",
                    (type(exc).__name__, str(exc), tail),
                )
            else:
                message = (index, attempt, "ok", result)
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                return


class _Worker:
    """One supervised worker process plus its private pipe."""

    __slots__ = ("proc", "conn", "pending", "last_progress")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.pending: List["_Task"] = []
        self.last_progress = time.monotonic()

    @property
    def busy(self) -> bool:
        return bool(self.pending)

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self.proc.join(timeout=_JOIN_S)
        self.conn.close()


@dataclass
class _Task:
    """Supervisor-side bookkeeping for one job."""

    index: int
    attempts: int = 0
    ready_at: float = 0.0


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


class CampaignExecutor:
    """Run batches of independent jobs under supervision.

    ``runner`` must be a picklable callable (a module-level function or
    a picklable dataclass instance) mapping one job to one picklable
    result; each worker process rebuilds its own state.  Jobs should
    expose a ``label`` attribute for diagnostics and, for checkpointing,
    be canonically digestible: the journal keys a job by
    :func:`canonical_digest` over every one of its fields.

    Parameters mirror the CLI flags: ``policy`` (timeout/retries),
    ``workers`` (1 runs the batch in-process and refuses a timeout;
    ``>= 2`` runs every job in a supervised worker; unset runs fewer
    than three pending jobs in-process and larger batches on one worker
    per CPU), ``checkpoint_dir``/``checkpoint_name``/``resume``
    (journal), and ``chaos`` (a :class:`repro.testing.chaos.ChaosPlan`;
    defaults to the ``SEGBUS_CHAOS`` environment spec, which is how the
    chaos suite reaches a ``segbus`` subprocess).

    :meth:`open` (or ``with``) forks the workers once, so a long-lived
    caller such as ``segbus serve`` pays the fork once: every later run
    reuses them and replaces only a worker lost to a crash, a timeout or
    a chaos kill, until :meth:`close` — or a run that is interrupted —
    shuts them down.  A run on an executor nobody opened forks and joins
    its own pool, so a one-shot sweep leaves no process behind.
    """

    def __init__(
        self,
        runner: Callable[[object], object],
        *,
        policy: Optional[ExecutorPolicy] = None,
        workers: Optional[int] = None,
        checkpoint_dir=None,
        checkpoint_name: Optional[str] = None,
        resume: bool = False,
        on_result: Optional[Callable[[str, object], None]] = None,
        chaos=None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ExecutorError(f"workers must be >= 1, got {workers}")
        self.runner = runner
        self.policy = policy or ExecutorPolicy()
        if workers == 1 and self.policy.timeout_s is not None:
            raise ExecutorError(
                "a per-job timeout needs workers >= 2: the in-process "
                "path cannot interrupt a job"
            )
        self.workers = workers
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_name = checkpoint_name
        self.resume = resume
        self.on_result = on_result
        if chaos is None:
            from repro.testing.chaos import ChaosPlan  # local: no cycle

            chaos = ChaosPlan.from_env()
        self.chaos = chaos
        #: the workers :meth:`open` forked, kept until :meth:`close`
        self._pool: Optional[List[_Worker]] = None

        # per-run state
        self._results: List[Optional[object]] = []
        self._failures: Dict[int, JobFailure] = {}
        self._labels: List[str] = []
        self._digests: List[str] = []
        self._journal: Optional[CheckpointJournal] = None
        self._completed = 0
        self._stats: Dict[str, int] = {}
        self._interrupted = False

    # -- pool lifetime --------------------------------------------------------

    def open(self) -> "CampaignExecutor":
        """Fork the workers now; later runs reuse them until :meth:`close`.

        A no-op when already open, and for ``workers=1``, which runs
        in-process.
        """
        if self._pool is None and self.workers != 1:
            ctx = multiprocessing.get_context()
            self._pool = [_Worker(ctx) for _ in range(self._configured())]
        return self

    def close(self) -> None:
        """Shut the opened workers down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            self._shutdown(pool, _JOIN_S)

    def __enter__(self) -> "CampaignExecutor":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public entry ---------------------------------------------------------

    def run(self, jobs: Sequence[object]) -> BatchResult:
        jobs = list(jobs)
        self._results = [None] * len(jobs)
        self._failures = {}
        self._completed = 0
        self._interrupted = False
        self._stats = {
            "attempts": 0,
            "retries": 0,
            "crashes": 0,
            "timeouts": 0,
            "respawned_workers": 0,
            "replayed": 0,
        }
        self._labels = [
            getattr(job, "label", None) or f"job{i}"
            for i, job in enumerate(jobs)
        ]

        pending = self._replay(len(jobs), self._open_journal(jobs))

        if not pending:
            return self._finish()

        serial = self.workers == 1 or (
            self.workers is None and len(pending) < _SERIAL_BELOW
        )
        if serial:
            logger.debug(
                "executor: serial path (%d job(s), workers=%s); "
                "per-job timeout not enforced in-process",
                len(pending),
                self.workers,
            )
        previous_handler = self._install_sigterm()
        try:
            if serial:
                self._run_serial(jobs, pending)
            else:
                self._run_parallel(jobs, pending)
        finally:
            self._restore_sigterm(previous_handler)
            if self._journal is not None:
                self._journal.close()
        return self._finish()

    # -- signal handling ------------------------------------------------------

    def _install_sigterm(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        try:
            previous = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, self._on_sigterm)
            return previous
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            return None

    def _restore_sigterm(self, previous) -> None:
        if previous is None:
            return
        try:
            signal.signal(signal.SIGTERM, previous)
        except (ValueError, OSError):  # pragma: no cover
            pass

    def _on_sigterm(self, signum, frame) -> None:  # noqa: ARG002
        self._interrupted = True

    def _interrupt(self) -> None:
        where = (
            f"checkpoint journal retained at {self._journal.path}"
            if self._journal is not None
            else "no checkpoint journal configured"
        )
        raise ExecutorInterrupted(
            f"campaign interrupted after {self._completed} completed "
            f"job(s) — {where}; re-run with resume to continue"
        )

    # -- journal --------------------------------------------------------------

    def _open_journal(
        self, jobs: Sequence[object]
    ) -> Dict[str, Tuple[str, object]]:
        """Key the jobs and open the journal; return what a resume replays.

        Keys exist only for the journal, so without one nothing is
        digested.
        """
        if self.checkpoint_dir is None:
            self._journal = None
            self._digests = []
            return {}
        self._digests = [canonical_digest(job) for job in jobs]
        name = self.checkpoint_name or f"batch-{canonical_digest(self._digests)[:16]}"
        self._journal = CheckpointJournal(self.checkpoint_dir, name)
        entries = self._journal.load() if self.resume else {}
        self._journal.open(fresh=not self.resume)
        return entries

    def _replay(
        self, count: int, entries: Mapping[str, Tuple[str, object]]
    ) -> "deque[_Task]":
        pending: deque[_Task] = deque()
        for index in range(count):
            if entries and self._digests[index] in entries:
                self._results[index] = entries[self._digests[index]][1]
                self._completed += 1
                self._stats["replayed"] += 1
            else:
                pending.append(_Task(index=index))
        if self._stats["replayed"]:
            logger.debug(
                "executor: replayed %d of %d job(s) from checkpoint %s",
                self._stats["replayed"],
                count,
                self._journal.name if self._journal else "?",
            )
        return pending

    # -- completion bookkeeping -----------------------------------------------

    def _complete(self, index: int, result: object) -> None:
        if self._results[index] is not None or index in self._failures:
            return  # stale duplicate (late message after a requeue)
        self._results[index] = result
        self._completed += 1
        if self._journal is not None:
            self._journal.record(
                self._digests[index], self._labels[index], result
            )
        if self.on_result is not None:
            self.on_result(self._labels[index], result)
        if (
            self.chaos is not None
            and self.chaos.interrupt_after is not None
            and self._stats["attempts"] > 0
            and (self._completed - self._stats["replayed"])
            >= self.chaos.interrupt_after
        ):
            # deterministic mid-campaign SIGTERM: delivered as a real
            # signal so the chaos suite exercises the handler path
            self._interrupted = True
            os.kill(os.getpid(), signal.SIGTERM)

    def _attempt_failed(
        self,
        task: _Task,
        kind: str,
        error: str,
        message: str,
        tail: str = "",
        requeue: "Optional[deque[_Task]]" = None,
    ) -> None:
        """Count a failed attempt; retry with backoff or close the ledger."""
        task.attempts += 1
        label = self._labels[task.index]
        if kind == "crash":
            self._stats["crashes"] += 1
        elif kind == "timeout":
            self._stats["timeouts"] += 1
        if task.attempts >= self.policy.max_attempts:
            self._failures[task.index] = JobFailure(
                label=label,
                attempts=task.attempts,
                kind=kind,
                error=error,
                message=message,
                traceback_tail=tail,
            )
            logger.debug(
                "executor: %s exhausted after %d attempt(s): %s: %s",
                label,
                task.attempts,
                error,
                message,
            )
            return
        self._stats["retries"] += 1
        delay = self.policy.delay_s(label, task.attempts)
        task.ready_at = time.monotonic() + delay
        logger.debug(
            "executor: %s attempt %d failed (%s: %s); retrying in %.3fs",
            label,
            task.attempts,
            error,
            message,
            delay,
        )
        if requeue is not None:
            requeue.append(task)

    def _finish(self) -> BatchResult:
        failures = tuple(
            self._failures[i] for i in sorted(self._failures)
        )
        stats = ExecutorStats(
            attempts=self._stats["attempts"],
            retries=self._stats["retries"],
            crashes=self._stats["crashes"],
            timeouts=self._stats["timeouts"],
            respawned_workers=self._stats["respawned_workers"],
            replayed=self._stats["replayed"],
        )
        if self._journal is not None:
            if not failures and all(r is not None for r in self._results):
                entries = {
                    self._digests[i]: (self._labels[i], self._results[i])
                    for i in range(len(self._results))
                }
                done = self._journal.finalize(entries)
                logger.debug("executor: finalized checkpoint at %s", done)
            else:
                # keep the live journal: a rerun with resume retries the
                # failed/missing jobs and replays the completed ones
                self._journal.close()
        return BatchResult(
            results=tuple(self._results), failures=failures, stats=stats
        )

    # -- serial path ----------------------------------------------------------

    def _run_serial(
        self, jobs: Sequence[object], pending: "deque[_Task]"
    ) -> None:
        if self.chaos is not None and self.chaos.active:
            logger.debug(
                "executor: chaos plan ignored on the serial path "
                "(worker kills need worker processes)"
            )
        while pending:
            if self._interrupted:
                self._interrupt()
            task = pending.popleft()
            job = jobs[task.index]
            while True:
                self._stats["attempts"] += 1
                try:
                    result = self.runner(job)
                except Exception as exc:  # noqa: BLE001 - ledgered
                    tail = "\n".join(
                        traceback.format_exc().strip().splitlines()[
                            -_TRACEBACK_TAIL_LINES:
                        ]
                    )
                    self._attempt_failed(
                        task, "error", type(exc).__name__, str(exc), tail
                    )
                    if task.index in self._failures:
                        break
                    time.sleep(max(0.0, task.ready_at - time.monotonic()))
                    if self._interrupted:
                        self._interrupt()
                else:
                    self._complete(task.index, result)
                    break
            if self._interrupted:
                self._interrupt()

    # -- parallel path --------------------------------------------------------

    def _configured(self) -> int:
        return self.workers or os.cpu_count() or 2

    def _chunk_size(self, pending: int, workers: int) -> int:
        # large batches amortize pipe round-trips; small ones keep
        # per-job supervision (timeout attribution) exact
        size = max(1, min(16, pending // (workers * 4)))
        logger.debug(
            "executor: chunksize %d (%d job(s) over %d worker(s))",
            size,
            pending,
            workers,
        )
        return size

    def _attempt_call(self, attempt: int) -> Callable[[object], object]:
        if self.chaos is None or not self.chaos.active:
            return self.runner
        from repro.testing.chaos import chaotic_call  # local: no cycle
        from functools import partial

        return partial(chaotic_call, self.runner, self.chaos, attempt)

    def _run_parallel(
        self, jobs: Sequence[object], pending: "deque[_Task]"
    ) -> None:
        ctx = multiprocessing.get_context()
        # a worker of the open pool that died between runs fails its
        # first send without losing an attempt and is replaced below
        workers = self._pool
        if workers is None:
            count = max(1, min(self._configured(), len(pending)))
            workers = [_Worker(ctx) for _ in range(count)]
        logger.debug(
            "executor: parallel path with %d worker(s) for %d job(s) "
            "(configured %s, cpu %s, %s)",
            len(workers),
            len(pending),
            self.workers,
            os.cpu_count(),
            "open pool" if workers is self._pool else "pool per run",
        )
        chunk = self._chunk_size(len(pending), len(workers))
        try:
            while True:
                if self._interrupted:
                    self._interrupt()
                open_tasks = len(pending) + sum(
                    len(w.pending) for w in workers
                )
                if open_tasks == 0:
                    break
                self._assign(jobs, pending, workers, chunk)
                self._wait_for_progress(pending, workers)
                self._reap_and_requeue(pending, workers, ctx, jobs)
        except BaseException:
            # an interrupted run takes its pool down, opened or not
            self._pool = None
            self._shutdown(workers, _ABORT_JOIN_S)
            raise
        if workers is not self._pool:
            self._shutdown(workers, _JOIN_S)

    def _assign(
        self,
        jobs: Sequence[object],
        pending: "deque[_Task]",
        workers: List[_Worker],
        chunk: int,
    ) -> None:
        now = time.monotonic()
        for worker in workers:
            if worker.busy or not pending:
                continue
            ready: List[_Task] = []
            deferred: List[_Task] = []
            while pending and len(ready) < chunk:
                task = pending.popleft()
                (ready if task.ready_at <= now else deferred).append(task)
            pending.extendleft(reversed(deferred))
            if not ready:
                return  # everything left is backing off
            payload = []
            for task in ready:
                attempt = task.attempts + 1
                payload.append(
                    (
                        task.index,
                        attempt,
                        self._attempt_call(attempt),
                        jobs[task.index],
                    )
                )
                self._stats["attempts"] += 1
            try:
                worker.conn.send(payload)
            except (BrokenPipeError, OSError):
                # the worker died between batches; no attempt consumed
                self._stats["attempts"] -= len(payload)
                pending.extendleft(reversed(ready))
                continue
            worker.pending = ready
            worker.last_progress = time.monotonic()

    def _wait_for_progress(
        self, pending: "deque[_Task]", workers: List[_Worker]
    ) -> None:
        busy = [w for w in workers if w.busy]
        if not busy:
            # nothing in flight: sleep until the nearest backoff expires
            if pending:
                wake = min(t.ready_at for t in pending)
                time.sleep(
                    min(_POLL_S, max(0.0, wake - time.monotonic()))
                )
            return
        try:
            ready = mp_connection.wait(
                [w.conn for w in busy], timeout=_POLL_S
            )
        except OSError:  # pragma: no cover - a conn died mid-wait
            ready = []
        for worker in busy:
            if worker.conn not in ready:
                continue
            self._drain(worker, pending)

    def _drain(self, worker: _Worker, pending: "deque[_Task]") -> None:
        """Consume every buffered message from one worker."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                index, attempt, status, payload = worker.conn.recv()
            except (EOFError, OSError):
                return  # death is handled by _reap_and_requeue
            worker.last_progress = time.monotonic()
            task = next(
                (t for t in worker.pending if t.index == index), None
            )
            if task is None:
                continue  # stale duplicate after a requeue
            worker.pending.remove(task)
            if status == "ok":
                task.attempts = attempt
                self._complete(index, payload)
            else:
                error, message, tail = payload
                task.attempts = attempt - 1  # _attempt_failed adds one
                self._attempt_failed(
                    task, "error", error, message, tail, requeue=pending
                )

    def _reap_and_requeue(
        self,
        pending: "deque[_Task]",
        workers: List[_Worker],
        ctx,
        jobs: Sequence[object],
    ) -> None:
        now = time.monotonic()
        for i, worker in enumerate(workers):
            crashed = not worker.proc.is_alive()
            timed_out = (
                worker.busy
                and self.policy.timeout_s is not None
                and now - worker.last_progress > self.policy.timeout_s
            )
            if not crashed and not timed_out:
                continue
            # collect results the worker managed to ship first
            self._drain(worker, pending)
            if not crashed:
                # progress may have arrived while draining
                if (
                    not worker.busy
                    or time.monotonic() - worker.last_progress
                    <= self.policy.timeout_s
                ):
                    continue
                logger.debug(
                    "executor: killing stalled worker pid=%s "
                    "(no progress for %.1fs)",
                    worker.proc.pid,
                    self.policy.timeout_s,
                )
                worker.kill()
            else:
                worker.conn.close()
                worker.proc.join(timeout=_JOIN_S)
            victims = list(worker.pending)
            worker.pending = []
            if victims:
                # the first pending task is the one that was running;
                # chunk-mates behind it requeue without losing an attempt
                head, rest = victims[0], victims[1:]
                if crashed:
                    self._attempt_failed(
                        head,
                        "crash",
                        "WorkerCrashed",
                        "worker process died while running the job",
                        requeue=pending,
                    )
                else:
                    self._attempt_failed(
                        head,
                        "timeout",
                        "JobTimeout",
                        f"no progress within {self.policy.timeout_s}s",
                        requeue=pending,
                    )
                pending.extend(rest)
            open_tasks = len(pending) + sum(
                len(w.pending) for w in workers
            )
            if open_tasks > 0:
                workers[i] = _Worker(ctx)
                self._stats["respawned_workers"] += 1

    def _shutdown(self, workers: List[_Worker], grace_s: float) -> None:
        for worker in workers:
            if worker.proc.is_alive():
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + grace_s
        for worker in workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.proc.is_alive():
                worker.kill()
            else:
                worker.conn.close()
