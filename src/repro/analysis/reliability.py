"""Reliability analysis: execution-time overhead and completion probability.

The fault-injection subsystem (:mod:`repro.faults`) makes the emulator a
reliability-estimation tool as well: sweep a transient fault rate over a
seed population and measure

* the **completion probability** — the fraction of runs that retire every
  flow (a run counts as completed even when the retry protocol had to
  re-arbitrate packages, as long as nothing was abandoned);
* the **execution-time overhead** of the retry/backoff protocol against the
  fault-free baseline of the same configuration.

The sweep reuses the campaign machinery's variant/export conventions: each
(rate, seed) pair is one :class:`~repro.analysis.campaign.Variant`, and the
curve exports as CSV/Markdown exactly like a
:class:`~repro.analysis.campaign.Campaign` table.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.campaign import Variant, emulate_variant, refuse_repeats
from repro.analysis.executor import CampaignExecutor, ExecutorPolicy
from repro.emulator.config import EmulationConfig
from repro.emulator.emulator import SegBusEmulator, emulate
from repro.emulator.fastkernel import resolve_engine
from repro.errors import FaultConfigError, SegBusError
from repro.faults.model import KIND_CORRUPTION, TRANSIENT_KINDS, FaultPlan
from repro.faults.policy import RetryPolicy
from repro.faults.zerohit import CountingPlan, zero_hit
from repro.model.elements import SegBusPlatform
from repro.psdf.graph import PSDFGraph


@dataclass(frozen=True)
class ReliabilityPoint:
    """Aggregated measurements at one fault rate (over all seeds)."""

    rate: float
    runs: int
    completed: int
    degraded: int
    failed: int
    mean_execution_time_us: float  # over runs that produced a report
    overhead_pct: float            # vs the fault-free baseline
    mean_retries: float
    mean_nacks: float
    mean_injected: float

    @property
    def completion_probability(self) -> float:
        return self.completed / self.runs if self.runs else 0.0

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "runs": self.runs,
            "completed": self.completed,
            "degraded": self.degraded,
            "failed": self.failed,
            "completion_probability": round(self.completion_probability, 4),
            "mean_execution_time_us": round(self.mean_execution_time_us, 3),
            "overhead_pct": round(self.overhead_pct, 3),
            "mean_retries": round(self.mean_retries, 2),
            "mean_nacks": round(self.mean_nacks, 2),
            "mean_injected": round(self.mean_injected, 2),
        }


COLUMNS = (
    "rate",
    "runs",
    "completed",
    "degraded",
    "failed",
    "completion_probability",
    "mean_execution_time_us",
    "overhead_pct",
    "mean_retries",
    "mean_nacks",
    "mean_injected",
)


@dataclass(frozen=True)
class ReliabilityCurve:
    """One fault-rate sweep of an (application, platform) pair."""

    application: str
    kind: str
    baseline_execution_time_us: float
    points: Tuple[ReliabilityPoint, ...]

    def point_at(self, rate: float) -> ReliabilityPoint:
        for point in self.points:
            if point.rate == rate:
                return point
        raise KeyError(f"no sweep point at rate {rate}")

    def as_dict(self) -> dict:
        return {
            "application": self.application,
            "kind": self.kind,
            "baseline_execution_time_us": round(
                self.baseline_execution_time_us, 3
            ),
            "points": [p.as_dict() for p in self.points],
        }

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        for point in self.points:
            writer.writerow(point.as_dict())
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_markdown(self) -> str:
        header = "| " + " | ".join(COLUMNS) + " |"
        rule = "|" + "|".join("---" for _ in COLUMNS) + "|"
        body = [
            "| " + " | ".join(str(p.as_dict()[c]) for c in COLUMNS) + " |"
            for p in self.points
        ]
        return "\n".join([header, rule] + body)


#: the :meth:`FaultPlan.transient` rate each transient kind sets
_RATE_KW = {
    "package_corruption": "corruption_rate",
    "grant_loss": "grant_loss_rate",
    "fu_stall": "stall_rate",
    "bu_drop": "bu_drop_rate",
}


def transient_plan(
    kind: str, rate: float, seed: int, stall_ticks: int = 50
) -> FaultPlan:
    """The uniform plan of one sweep point: ``kind`` faults at ``rate``."""
    return FaultPlan.transient(
        seed=seed, stall_ticks=stall_ticks, **{_RATE_KW[kind]: rate}
    )


def _run_reliability_job(variant: Variant) -> Dict[str, object]:
    """Emulate one sweep point; emulation-level failure is a *result*.

    A :class:`~repro.errors.SegBusError` (retry exhaustion under a
    ``fail`` policy, a watchdog/budget stop) is the measurement — the
    run counts as *failed* — so only infrastructure problems (worker
    death, timeout, poisoned pickle) reach the executor's failure
    ledger.
    """
    try:
        report = emulate_variant(variant)
    except SegBusError:
        return {"status": "failed"}
    return _report_outcome(report)


def _report_outcome(report) -> Dict[str, object]:
    """The per-run measurement dict, shared by simulated and cloned points."""
    return {
        "status": "degraded" if report.degraded else "completed",
        "time_us": report.execution_time_us,
        "retries": report.total_retries,
        "nacks": report.total_nacks,
        "injected": (
            report.fault_summary["total"] if report.fault_summary else 0
        ),
    }


def reliability_sweep(
    application: PSDFGraph,
    platform: SegBusPlatform,
    rates: Sequence[float],
    kind: str = KIND_CORRUPTION,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    retry_policy: Optional[RetryPolicy] = None,
    config: Optional[EmulationConfig] = None,
    stall_ticks: int = 50,
    workers: Optional[int] = None,
    executor_policy: Optional[ExecutorPolicy] = None,
    checkpoint_dir=None,
    checkpoint_name: Optional[str] = None,
    resume: bool = False,
    engine: Optional[str] = None,
) -> ReliabilityCurve:
    """Sweep ``kind`` fault rates over a seed population.

    Every (rate, seed) pair is one deterministic emulation; a run that
    raises a :class:`~repro.errors.SegBusError` (retry exhaustion under a
    ``fail`` policy, a watchdog/budget stop) counts as *failed*, a run that
    finishes with ``degraded=True`` as *degraded*, anything else as
    *completed*.  The models are routed through the schemes once
    (:meth:`SegBusEmulator.from_models
    <repro.emulator.emulator.SegBusEmulator.from_models>`); the
    fault-free baseline, the counting reference below and every
    simulated point run on that emulator's ``application`` and ``spec``
    through :func:`~repro.emulator.emulator.emulate`, each point as a
    :class:`~repro.analysis.campaign.Variant` carrying its own
    :func:`transient_plan`.  ``engine`` picks the simulation kernel
    (default honours ``SEGBUS_ENGINE``).

    Points whose fault streams provably never fire are not simulated: one
    counting reference run censuses the fault-draw opportunities of the
    fault-free execution, :func:`repro.faults.zerohit.zero_hit` replays
    every point's streams against it, and each
    zero-hit point takes the reference's measurement — exactly what its
    own run would report, since it would execute the same events.  When
    the reference itself fails or degrades (say a ``timeout_ticks``
    retry policy that times out fault-free), no point is cloned.  The
    reference also gives the baseline when it completes and the policy
    has no ``timeout_ticks``: a fault-free run never consults such a
    policy, so it runs the baseline's events.  Otherwise the baseline
    runs on its own, with the default policy.

    The remaining points run through the supervised campaign executor
    (:mod:`repro.analysis.executor`): ``workers`` parallelizes them (the
    executor runs every job in a worker process whenever ``workers >=
    2``, so a lone simulated point still gets timeouts),
    ``executor_policy`` sets per-job timeout/retries, and
    ``checkpoint_dir``/``resume`` journal completed points so an
    interrupted sweep continues where it stopped — the aggregated curve
    is byte-identical either way (chaos-gated in the test suite).  The
    journal holds simulated points only; cloned points are recomputed
    from the reference on every call.

    A value repeated in ``rates`` or ``seeds`` raises a
    :class:`~repro.errors.SegBusError` before any simulation.
    """
    if kind not in TRANSIENT_KINDS:
        raise FaultConfigError(
            f"reliability sweep needs a transient fault kind, got {kind!r} "
            f"(expected one of {sorted(TRANSIENT_KINDS)})"
        )
    refuse_repeats("rates", rates)
    refuse_repeats("seeds", seeds)
    executor = CampaignExecutor(
        _run_reliability_job,
        policy=executor_policy,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_name=checkpoint_name,
        resume=resume,
    )
    policy = retry_policy or RetryPolicy(on_exhaustion="degrade")
    resolved = resolve_engine(engine)
    emulator = SegBusEmulator.from_models(application, platform, config=config)
    routed = (emulator.application, emulator.spec, emulator.config)
    census = CountingPlan()
    try:
        reference_report = emulate(
            *routed, fault_plan=census, retry_policy=policy, engine=resolved
        )
    except SegBusError:  # e.g. a retry timeout exhausts fault-free
        reference_report = None
    if reference_report is not None and reference_report.degraded:
        reference_report = None
    if reference_report is not None and policy.timeout_ticks is None:
        # a fault-free run consults a policy only through its timeout, so
        # the reference ran exactly the baseline's events
        baseline_us = reference_report.execution_time_us
    else:
        baseline_us = emulate(*routed, engine=resolved).execution_time_us

    variants = [
        Variant(
            f"{kind}@{rate:g}#s{seed}",
            emulator.application,
            emulator.spec,
            emulator.config,
            fault_plan=transient_plan(kind, rate, seed, stall_ticks),
            retry_policy=policy,
            engine=resolved,
        )
        for rate in rates
        for seed in seeds
    ]
    if reference_report is None:
        # the fault-free run already fails or degrades: clone nothing
        cloned = [False] * len(variants)
    else:
        cloned = zero_hit(
            [variant.fault_plan for variant in variants], census.opportunities
        )
    simulated = [v for v, clone in zip(variants, cloned) if not clone]
    batch = executor.run(simulated).raise_on_failure(what="reliability job")
    outcomes = dict(zip((v.name for v in simulated), batch.results))
    if any(cloned):
        reference_outcome = _report_outcome(reference_report)
        for variant, clone in zip(variants, cloned):
            if clone:
                outcomes[variant.name] = reference_outcome

    points: List[ReliabilityPoint] = []
    for rate in rates:
        completed = degraded = failed = 0
        times_us: List[float] = []
        retries: List[int] = []
        nacks: List[int] = []
        injected: List[int] = []
        for seed in seeds:
            outcome = outcomes[f"{kind}@{rate:g}#s{seed}"]
            if outcome["status"] == "failed":
                failed += 1
                continue
            times_us.append(outcome["time_us"])
            retries.append(outcome["retries"])
            nacks.append(outcome["nacks"])
            injected.append(outcome["injected"])
            if outcome["status"] == "degraded":
                degraded += 1
            else:
                completed += 1
        reported = len(times_us)
        mean_us = sum(times_us) / reported if reported else 0.0
        points.append(
            ReliabilityPoint(
                rate=rate,
                runs=len(seeds),
                completed=completed,
                degraded=degraded,
                failed=failed,
                mean_execution_time_us=mean_us,
                overhead_pct=(
                    100.0 * (mean_us - baseline_us) / baseline_us
                    if reported
                    else 0.0
                ),
                mean_retries=sum(retries) / reported if reported else 0.0,
                mean_nacks=sum(nacks) / reported if reported else 0.0,
                mean_injected=sum(injected) / reported if reported else 0.0,
            )
        )
    return ReliabilityCurve(
        application=application.name,
        kind=kind,
        baseline_execution_time_us=baseline_us,
        points=tuple(points),
    )
