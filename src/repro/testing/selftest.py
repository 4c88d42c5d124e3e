"""``segbus selftest``: the conformance harness' one-shot entry point.

Two stages, both deterministic:

1. **Differential fuzzing** — generate ``count`` seeded lint-clean models
   (:mod:`repro.testing.generators`) and push each through the matching
   oracle (:mod:`repro.testing.oracles`).  The corpus cycles through
   *families* (:data:`FAMILY_CYCLE`): half uniform random models, one of
   each adversarial shape (bursty, hot-segment, long-tail, pipelined
   streaming), and one random multi-mode application per ten seeds — the
   multi-mode jobs run the MODE battery
   (:func:`~repro.testing.oracles.run_multimode_oracle`), everything else
   the single-mode differential oracle.  Any violation of the analytic
   bounds, the total-time law, TCT monotonicity, package conservation,
   engine equivalence (ENG-1 runs every model through the stepped *and*
   fast kernels and compares digests), or protocol conformance
   fails the selftest with the model's seed and family (re-run the
   matching ``generate_*`` function to reproduce it alone).
2. **Golden traces** — re-emulate every ``examples/models/`` pair *and*
   every pinned workload scenario (including the composed multi-mode
   digests of ``mp3_jpeg_multimode``) with *every* engine and compare
   trace/timeline/report digests against the pinned stores
   (:mod:`repro.testing.golden`).

The default ``count`` is 200 (the conformance bar); ``--quick`` drops to
25 for CI smoke runs.  Exit code 0 means fully conformant, 1 means at
least one divergence or drift.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis.executor import (
    CampaignExecutor,
    ExecutorPolicy,
    canonical_digest,
)
from repro.testing.generators import (
    ADVERSARIAL_SHAPES,
    DEFAULT_PROFILE,
    GenerationError,
    GeneratorProfile,
    generate_adversarial_model,
    generate_model,
    generate_multimode_model,
)
from repro.testing.golden import (
    DEFAULT_MODELS_DIR,
    DEFAULT_STORE,
    DEFAULT_WORKLOAD_STORE,
    GoldenCheck,
    check_goldens,
    check_workload_goldens,
    update_goldens,
    update_workload_goldens,
)
from repro.testing.oracles import (
    OracleTolerance,
    run_differential_oracle,
    run_multimode_oracle,
)

DEFAULT_COUNT = 200
QUICK_COUNT = 25

#: family of the job at seed offset ``i`` (cycled): half uniform random,
#: one of each adversarial shape, one multi-mode per ten seeds
FAMILY_CYCLE = ("random",) * 5 + ADVERSARIAL_SHAPES + ("multimode",)


@dataclass(frozen=True)
class _FuzzJob:
    """One seeded generate-and-oracle round, picklable for the executor.

    ``engine`` is the *resolved* oracle engine (the parent folds in
    ``SEGBUS_ENGINE``) so the checkpoint digest cannot silently replay a
    result produced under a different kernel.
    """

    seed: int
    profile: GeneratorProfile
    tolerance: OracleTolerance
    engine: Optional[str]
    family: str = "random"

    @property
    def label(self) -> str:
        return f"fuzz:{self.family}#{self.seed}"

    def digest(self) -> str:
        return canonical_digest(
            self.seed,
            self.profile,
            self.tolerance,
            self.engine or "",
            self.family,
        )


def _run_fuzz_job(job: _FuzzJob) -> Dict[str, object]:
    """Generate one model and run its family's oracle (worker-side)."""
    try:
        if job.family == "multimode":
            model = generate_multimode_model(job.seed, job.profile)
        elif job.family in ADVERSARIAL_SHAPES:
            model = generate_adversarial_model(
                job.seed, job.family, job.profile
            )
        else:
            model = generate_model(job.seed, job.profile)
    except GenerationError as exc:
        return {"generated": False, "failure": f"[GEN] {exc}"}
    if job.family == "multimode":
        oracle = run_multimode_oracle(
            model.application,
            model.platform,
            tolerance=job.tolerance,
            label=model.label,
            engine=job.engine,
        )
    else:
        oracle = run_differential_oracle(
            model.application,
            model.platform,
            tolerance=job.tolerance,
            label=model.label,
            engine=job.engine,
        )
    return {
        "generated": True,
        "checked": oracle.checked,
        "ok": oracle.ok,
        "failure": None if oracle.ok else oracle.format(),
    }


@dataclass
class SelftestReport:
    """Aggregated outcome of one selftest run."""

    models: int = 0
    divergent: int = 0
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    golden: Optional[GoldenCheck] = None
    workload_golden: Optional[GoldenCheck] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        if self.failures:
            return False
        if self.golden is not None and not self.golden.ok:
            return False
        return self.workload_golden is None or self.workload_golden.ok

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def format(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"selftest {verdict}: {self.models} random model(s), "
            f"{self.divergent} divergent, {self.checks} oracle check(s), "
            f"{self.elapsed_s:.1f}s"
        ]
        lines.extend(f"  {item}" for item in self.failures)
        if self.golden is not None:
            lines.append(self.golden.format())
        if self.workload_golden is not None:
            lines.append(
                self.workload_golden.format().replace(
                    "golden traces:", "workload goldens:", 1
                )
            )
        return "\n".join(lines)


def run_selftest(
    count: int = DEFAULT_COUNT,
    base_seed: int = 1,
    profile: GeneratorProfile = DEFAULT_PROFILE,
    tolerance: OracleTolerance = OracleTolerance(),
    include_golden: bool = True,
    models_dir: Union[str, Path] = DEFAULT_MODELS_DIR,
    store_path: Union[str, Path] = DEFAULT_STORE,
    workload_store_path: Union[str, Path] = DEFAULT_WORKLOAD_STORE,
    update_golden: bool = False,
    progress=None,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    executor_policy: Optional[ExecutorPolicy] = None,
    checkpoint_dir=None,
    checkpoint_name: Optional[str] = None,
    resume: bool = False,
) -> SelftestReport:
    """Run the full conformance selftest; see the module docstring.

    ``progress`` is an optional ``callable(str)`` for incremental status
    lines (the CLI passes ``print``); ``update_golden`` re-pins the golden
    store instead of checking it.  ``engine`` names the primary oracle
    engine (default honours ``SEGBUS_ENGINE``) — the ENG-1 check and the
    golden stage cover every engine regardless.

    The fuzz stage runs through the supervised campaign executor:
    ``workers`` parallelizes the seeds, ``executor_policy`` adds per-seed
    timeout/retries, and ``checkpoint_dir``/``resume`` journal finished
    seeds so an interrupted selftest resumes without re-fuzzing — the
    report aggregates in seed order either way.
    """
    report = SelftestReport()
    started = time.perf_counter()

    resolved_engine = engine or os.environ.get("SEGBUS_ENGINE") or None
    jobs = [
        _FuzzJob(
            seed=base_seed + offset,
            profile=profile,
            tolerance=tolerance,
            engine=resolved_engine,
            family=FAMILY_CYCLE[offset % len(FAMILY_CYCLE)],
        )
        for offset in range(count)
    ]

    done = 0

    def _tick(_label: str, _outcome: object) -> None:
        nonlocal done
        done += 1
        if progress and done % 50 == 0:
            progress(f"  ... {done}/{count} models")

    executor = CampaignExecutor(
        _run_fuzz_job,
        policy=executor_policy,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        checkpoint_name=checkpoint_name,
        resume=resume,
        on_result=_tick if progress else None,
    )
    batch = executor.run(jobs).raise_on_failure(what="selftest seed")

    for outcome in batch.results:
        if not outcome["generated"]:
            report.failures.append(outcome["failure"])
            continue
        report.models += 1
        report.checks += outcome["checked"]
        if not outcome["ok"]:
            report.divergent += 1
            report.failures.append(outcome["failure"])

    if update_golden:
        entries = update_goldens(models_dir, store_path)
        if progress:
            progress(
                f"golden traces: re-pinned {len(entries)} pair(s) "
                f"into {store_path}"
            )
        report.golden = check_goldens(models_dir, store_path)
        workload_entries = update_workload_goldens(workload_store_path)
        if progress:
            progress(
                f"workload goldens: re-pinned {len(workload_entries)} "
                f"scenario(s) into {workload_store_path}"
            )
        report.workload_golden = check_workload_goldens(workload_store_path)
    elif include_golden:
        report.golden = check_goldens(models_dir, store_path)
        report.workload_golden = check_workload_goldens(workload_store_path)

    report.elapsed_s = time.perf_counter() - started
    return report
