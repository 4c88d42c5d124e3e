"""Chaos harness: seeded worker kills, stalls, poisoned jobs, SIGTERM.

The supervised executor (:mod:`repro.analysis.executor`) claims four
properties — worker-crash recovery, per-job timeout enforcement, graceful
degradation on poisoned jobs, and crash-safe checkpoint/resume.  This
module *attacks* all four, with the same seeded-determinism discipline
the fault injector follows: every hazard decision is one draw from a
:class:`repro.faults.prng.DeterministicStream` keyed on
``(seed, label, attempt)``, so a chaotic run is exactly reproducible and
adding a hazard never perturbs the draws of the others.

A :class:`ChaosPlan` is either built directly (tests) or parsed from the
``SEGBUS_CHAOS`` environment variable (how the chaos suite reaches a
``segbus`` subprocess)::

    SEGBUS_CHAOS="seed=7,kill=0.2,stall=0.1,stall_s=30,interrupt_after=3"
    SEGBUS_CHAOS="kill_on=s18:1;s36:2,poison_labels=bad"

Hazards, decided per ``(job label, attempt)`` in fixed order:

``kill``     the worker SIGKILLs itself mid-job (crash recovery path);
``stall``    the worker sleeps ``stall_s`` (timeout/kill path);
``poison``   the job raises :class:`ChaosPoisonError` — with
             ``poison_labels`` it raises on *every* attempt, exhausting
             retries and landing in the failure ledger;
``interrupt_after``
             after N newly completed jobs the supervisor sends itself a
             real SIGTERM (mid-campaign interruption + resume path).

Because the hazards wrap the runner *outside* the job function, the job
results themselves are untouched: a chaotic campaign that completes must
be byte-identical to a calm one — the equivalence gate in
``tests/testing/test_chaos.py`` pins exactly that.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import SegBusError
from repro.faults.prng import DeterministicStream

#: hazard identifiers, in decision order
KILL, STALL, POISON = "kill", "stall", "poison"


class ChaosConfigError(SegBusError):
    """A chaos spec (env var or constructor) is malformed."""


class ChaosPoisonError(RuntimeError):
    """The chaos plan poisoned this (label, attempt) combination."""


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic hazard schedule for one campaign.

    ``kill_rate``/``stall_rate``/``poison_rate`` are Bernoulli rates per
    (label, attempt); ``kill_on``/``stall_on``/``poison_on`` pin exact
    ``"label:attempt"`` combinations (tests use these for precise
    scenarios); ``poison_labels`` poisons every attempt of the named
    jobs — the canonical "poisoned job" that must surface in the
    failure ledger without aborting the batch.
    """

    seed: int = 1
    kill_rate: float = 0.0
    stall_rate: float = 0.0
    poison_rate: float = 0.0
    stall_s: float = 3600.0
    kill_on: Tuple[str, ...] = ()
    stall_on: Tuple[str, ...] = ()
    poison_on: Tuple[str, ...] = ()
    poison_labels: Tuple[str, ...] = ()
    interrupt_after: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("kill_rate", "stall_rate", "poison_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ChaosConfigError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if self.stall_s < 0:
            raise ChaosConfigError("stall_s must be non-negative")
        if self.interrupt_after is not None and self.interrupt_after < 1:
            raise ChaosConfigError("interrupt_after must be >= 1 (or None)")

    @property
    def active(self) -> bool:
        """True when any worker-side hazard can fire."""
        return bool(
            self.kill_rate
            or self.stall_rate
            or self.poison_rate
            or self.kill_on
            or self.stall_on
            or self.poison_on
            or self.poison_labels
        )

    def decide(self, label: str, attempt: int) -> Optional[str]:
        """The hazard for this (label, attempt), or None.

        Pinned combinations win over rates; rates draw once per hazard
        in fixed order from a private stream, so enabling ``stall``
        never changes which attempts ``kill`` hits.
        """
        key = f"{label}:{attempt}"
        if label in self.poison_labels or key in self.poison_on:
            return POISON
        if key in self.kill_on:
            return KILL
        if key in self.stall_on:
            return STALL
        stream = DeterministicStream(
            self.seed, "chaos", str(label), str(int(attempt))
        )
        kill = stream.chance(self.kill_rate)
        stall = stream.chance(self.stall_rate)
        poison = stream.chance(self.poison_rate)
        if kill:
            return KILL
        if stall:
            return STALL
        if poison:
            return POISON
        return None

    # -- environment round-trip ----------------------------------------------

    ENV_VAR = "SEGBUS_CHAOS"

    @classmethod
    def from_env(cls, text: Optional[str] = None) -> Optional["ChaosPlan"]:
        """Parse ``SEGBUS_CHAOS`` (or ``text``); None when unset/empty."""
        if text is None:
            text = os.environ.get(cls.ENV_VAR, "")
        text = text.strip()
        if not text:
            return None
        values: dict = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ChaosConfigError(
                    f"chaos spec entry {item!r} is not key=value"
                )
            key, raw = (part.strip() for part in item.split("=", 1))
            if key in ("seed", "interrupt_after"):
                values[key] = int(raw)
            elif key in ("kill", "stall", "poison"):
                values[f"{key}_rate"] = float(raw)
            elif key == "stall_s":
                values[key] = float(raw)
            elif key in ("kill_on", "stall_on", "poison_on", "poison_labels"):
                values[key] = tuple(
                    entry for entry in raw.split(";") if entry
                )
            else:
                raise ChaosConfigError(
                    f"unknown chaos spec key {key!r} "
                    "(expected seed, kill, stall, poison, stall_s, "
                    "kill_on, stall_on, poison_on, poison_labels, "
                    "interrupt_after)"
                )
        return cls(**values)

    def to_env(self) -> str:
        """The spec string that :meth:`from_env` parses back to this plan."""
        parts = [f"seed={self.seed}"]
        if self.kill_rate:
            parts.append(f"kill={self.kill_rate}")
        if self.stall_rate:
            parts.append(f"stall={self.stall_rate}")
        if self.poison_rate:
            parts.append(f"poison={self.poison_rate}")
        if self.stall_s != 3600.0:
            parts.append(f"stall_s={self.stall_s}")
        for name in ("kill_on", "stall_on", "poison_on", "poison_labels"):
            entries = getattr(self, name)
            if entries:
                parts.append(f"{name}={';'.join(entries)}")
        if self.interrupt_after is not None:
            parts.append(f"interrupt_after={self.interrupt_after}")
        return ",".join(parts)


def chaotic_call(
    runner: Callable[[object], object],
    plan: ChaosPlan,
    attempt: int,
    job: object,
) -> object:
    """Apply the plan's hazard for this attempt, then run the job.

    Executed *inside the worker process* (the executor wraps each
    assignment with ``functools.partial``): ``kill`` SIGKILLs the
    worker itself — the supervisor sees a genuine dead process, not a
    simulated one.
    """
    label = str(getattr(job, "label", job))
    hazard = plan.decide(label, attempt)
    if hazard == KILL:  # pragma: no cover - dies before reporting
        os.kill(os.getpid(), signal.SIGKILL)
    elif hazard == STALL:  # pragma: no cover - killed by the supervisor
        time.sleep(plan.stall_s)
    elif hazard == POISON:
        raise ChaosPoisonError(
            f"chaos poisoned {label!r} (attempt {attempt})"
        )
    return runner(job)


# ---------------------------------------------------------------------------
# probe jobs: tiny deterministic work for exercising the executor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeJob:
    """A trivial deterministic job for chaos/executor tests.

    ``sleep_s`` simulates genuinely slow work (every attempt), and
    ``fail_attempts`` raises on the listed attempt numbers — but the
    *attempt-aware* behaviours are normally injected via
    :class:`ChaosPlan`, keeping the job itself pure.
    """

    label: str
    value: int = 0
    sleep_s: float = 0.0
    fail: bool = False


def run_probe(job: ProbeJob) -> dict:
    """The module-level (picklable) runner for :class:`ProbeJob`."""
    if job.sleep_s:
        time.sleep(job.sleep_s)  # pragma: no cover - killed mid-sleep
    if job.fail:
        raise ValueError(f"probe {job.label} always fails")
    digest = hashlib.sha256(
        f"{job.label}:{job.value}".encode("utf-8")
    ).hexdigest()
    return {"label": job.label, "value": job.value * 2, "digest": digest}


__all__ = [
    "ChaosConfigError",
    "ChaosPlan",
    "ChaosPoisonError",
    "ProbeJob",
    "chaotic_call",
    "run_probe",
]
