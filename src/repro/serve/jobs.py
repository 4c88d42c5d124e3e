"""Serve job schema: parse, key, and execute one JSON job.

Everything that gives a request its *meaning* lives here, importable
without any HTTP machinery, so the dispatcher, the load generator, the
equivalence suite and the CLI all share one code path:

* :func:`parse_job` turns a JSON payload into a frozen :class:`ServeJob`
  of primitives (picklable — the campaign executor ships it to worker
  processes) and rejects unknown fields, bad kinds and unknown engines.
* :func:`cache_key` derives the digest the result cache is keyed on,
  once per job (:attr:`ServeJob.key`).  The key covers every input byte
  (scheme texts, workload name, engine, flags) *and* the versions of
  the rule catalogue and the estimator — see :func:`cache_key` for
  exactly which jobs carry which version.
* :func:`emulate_model` and :func:`estimate_model` load a model from
  inline scheme texts or a workload name, pick the single- or multi-mode
  road and run it; ``segbus emulate``/``segbus estimate`` call them too.
* :func:`execute_job` loads the job once — its only deep check, worded
  by :func:`refusal_message` when it refuses — and produces the
  response body as a plain dict whose canonical JSON encoding is
  byte-identical to what the library produces directly — the ENG-1
  equivalence contract lifted to the HTTP boundary
  (tests/property/test_serve_equivalence.py).

Response bodies are deterministic by construction: no timestamps, no
wall clocks, no request ids.  Anything nondeterministic (latency, cache
disposition) travels in HTTP headers, never in the body, so a cache hit
can replay the stored bytes verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, Optional

from repro.analysis.executor import canonical_digest
from repro.analysis.stochastic import (
    ESTIMATOR_VERSION,
    MultiModeStochastic,
    StochasticEstimate,
    stochastic_estimate,
    stochastic_estimate_multimode,
)
from repro.emulator.emulator import SegBusEmulator
from repro.emulator.fastkernel import resolve_engine
from repro.emulator.kernel import PlatformSpec
from repro.emulator.multimode import MultiModeReport, run_multimode
from repro.errors import JobValidationError, LintError, SegBusError
from repro.psdf.modes import MultiModeApplication
from repro.units import fs_to_ps
from repro.xmlio.faults_xml import parse_fault_plan_xml
from repro.xmlio.psdf_parser import parse_psdf_xml
from repro.xmlio.psm_parser import parse_psm_xml

#: bump when the response body layout changes: old cached bytes are then
#: unreachable (the key includes this constant)
RESPONSE_SCHEMA_VERSION = 1

JOB_KINDS = ("emulate", "estimate", "lint", "selftest")

#: selftest jobs are bounded so one request cannot monopolize a worker
MAX_SELFTEST_COUNT = 50

_ALLOWED_FIELDS = {
    "kind",
    "engine",
    "psdf_xml",
    "psm_xml",
    "fault_plan_xml",
    "workload",
    "strict",
    "count",
    "seed",
}


@dataclass(frozen=True)
class ServeJob:
    """One validated job: primitives only, picklable, canonically digestible.

    The model arrives either as inline scheme texts (``psdf_xml`` +
    ``psm_xml``, optionally ``fault_plan_xml``) or as a curated scenario
    name (``workload``, see ``repro.apps.workloads.scenario_catalog``).
    ``engine`` is always resolved (never None) so two spellings of the
    default engine cannot fragment the cache.
    """

    kind: str
    engine: str
    psdf_xml: Optional[str] = None
    psm_xml: Optional[str] = None
    fault_plan_xml: Optional[str] = None
    workload: Optional[str] = None
    strict: bool = False
    count: int = 0
    seed: int = 1

    @cached_property
    def key(self) -> str:
        """:func:`cache_key`, computed once (not a field: equality and the
        canonical form ignore it; a pickled job carries it along)."""
        return cache_key(self)

    @property
    def label(self) -> str:
        """Executor/chaos label: the kind plus a stable key prefix."""
        return f"{self.kind}:{self.key[:12]}"


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise JobValidationError(detail)


def parse_job(
    payload: object, default_engine: Optional[str] = None
) -> ServeJob:
    """Schema-validate a JSON payload into a :class:`ServeJob`.

    Cheap checks only (field names, kinds, engine resolution, workload
    names, bounds): cache lookups must not pay XML parsing.  The deep
    check is the job's single load in :func:`execute_job`, which runs
    only on a cache miss.
    """
    _require(isinstance(payload, Mapping), "job must be a JSON object")
    assert isinstance(payload, Mapping)
    unknown = sorted(set(payload) - _ALLOWED_FIELDS)
    _require(not unknown, f"unknown field(s): {', '.join(unknown)}")

    kind = payload.get("kind")
    _require(
        isinstance(kind, str) and kind in JOB_KINDS,
        f"kind must be one of {', '.join(JOB_KINDS)} (got {kind!r})",
    )
    assert isinstance(kind, str)

    engine_arg = payload.get("engine", default_engine)
    _require(
        engine_arg is None or isinstance(engine_arg, str),
        "engine must be a string",
    )
    try:
        engine = resolve_engine(engine_arg)
    except SegBusError as exc:
        raise JobValidationError(str(exc)) from exc

    for field in ("psdf_xml", "psm_xml", "fault_plan_xml", "workload"):
        value = payload.get(field)
        _require(
            value is None or (isinstance(value, str) and value.strip() != ""),
            f"{field} must be a non-empty string",
        )
    strict = payload.get("strict", False)
    _require(isinstance(strict, bool), "strict must be a boolean")

    psdf_xml = payload.get("psdf_xml")
    psm_xml = payload.get("psm_xml")
    fault_plan_xml = payload.get("fault_plan_xml")
    workload = payload.get("workload")

    if workload is not None:
        from repro.apps.workloads import scenario_catalog

        catalog = scenario_catalog()
        _require(
            workload in catalog,
            f"unknown workload {workload!r}; known: {', '.join(catalog)}",
        )
        _require(
            psdf_xml is None and psm_xml is None and fault_plan_xml is None,
            "workload and inline schemes are mutually exclusive",
        )

    count = payload.get("count", 0)
    seed = payload.get("seed", 1)
    _require(
        isinstance(count, int) and not isinstance(count, bool),
        "count must be an integer",
    )
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        "seed must be an integer",
    )

    if kind == "selftest":
        _require(
            psdf_xml is None and psm_xml is None and workload is None,
            "selftest jobs take count/seed, not a model",
        )
        _require(
            1 <= count <= MAX_SELFTEST_COUNT,
            f"selftest count must be in 1..{MAX_SELFTEST_COUNT}",
        )
    else:
        _require(count == 0, f"count applies to selftest jobs, not {kind}")
        has_inline = psdf_xml is not None and psm_xml is not None
        if kind == "lint":
            _require(
                workload is not None
                or psdf_xml is not None
                or psm_xml is not None,
                "lint jobs need a workload or at least one inline scheme",
            )
        else:
            _require(
                workload is not None or has_inline,
                f"{kind} jobs need a workload or both psdf_xml and psm_xml",
            )
    if fault_plan_xml is not None:
        _require(
            kind == "emulate",
            f"fault_plan_xml applies to emulate jobs, not {kind}",
        )
    if strict:
        _require(kind == "emulate", f"strict applies to emulate jobs, not {kind}")

    return ServeJob(
        kind=kind,
        engine=engine,
        psdf_xml=psdf_xml,
        psm_xml=psm_xml,
        fault_plan_xml=fault_plan_xml,
        workload=workload,
        strict=strict,
        count=count if kind == "selftest" else 0,
        seed=seed if kind == "selftest" else 1,
    )


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------


def cache_key(job: ServeJob) -> str:
    """The digest a :class:`~repro.serve.cache.ResultCache` entry lives under.

    Covers every byte of input — scheme texts, workload name, the
    *resolved* engine, flags — plus the versions of whatever machinery
    shapes the response, so upgrading the server can never replay stale
    findings:

    * lint jobs and strict emulations key on the rule-catalogue hash
      (:func:`repro.lint.registry_hash`) — adding or rewording an SB rule
      invalidates them;
    * estimate jobs key on ``ESTIMATOR_VERSION`` — new estimator math
      invalidates them;
    * selftest jobs key on both (generation is lint-gated and the oracle
      battery embeds estimator invariants);
    * every key includes ``RESPONSE_SCHEMA_VERSION``.
    """
    parts = [
        "segbus-serve",
        RESPONSE_SCHEMA_VERSION,
        job.kind,
        job.engine,
        job.psdf_xml or "",
        job.psm_xml or "",
        job.fault_plan_xml or "",
        job.workload or "",
        job.strict,
    ]
    if job.kind == "lint" or job.strict or job.kind == "selftest":
        from repro.lint import registry_hash

        parts.append(("lint-registry", registry_hash()))
    if job.kind in ("estimate", "selftest"):
        parts.append(("estimator", ESTIMATOR_VERSION))
    if job.kind == "selftest":
        parts.append(("selftest", job.count, job.seed))
    return canonical_digest(*parts)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _load_models(
    psdf_xml: Optional[str], psm_xml: Optional[str], workload: Optional[str]
):
    """``(application, platform)`` of a workload scenario or inline schemes.

    Only a scenario's application can be multi-mode.  A PSM scheme loads
    into its platform model, whose elements check every value it carries.
    """
    if workload is not None:
        from repro.apps.workloads import workload_model

        model = workload_model(workload)
        return model.application, model.platform
    return (
        parse_psdf_xml(psdf_xml or "").to_graph(),
        parse_psm_xml(psm_xml or "").to_platform(),
    )


def emulate_model(
    psdf_xml: Optional[str] = None,
    psm_xml: Optional[str] = None,
    *,
    workload: Optional[str] = None,
    fault_plan_xml: Optional[str] = None,
    strict: bool = False,
    engine: Optional[str] = None,
):
    """The report of inline schemes or a workload scenario: an
    :class:`~repro.emulator.report.EmulationReport`, or a multi-mode
    scenario's :class:`~repro.emulator.multimode.MultiModeReport`.

    ``strict`` lints the inputs first on either road and raises
    :class:`~repro.errors.LintError` on any error-severity finding.
    """
    if workload is None:
        fault_plan = (
            None if fault_plan_xml is None else parse_fault_plan_xml(fault_plan_xml)
        )
        # the emulator parses the inline texts itself: one load per scheme
        emulator = SegBusEmulator(psdf_xml or "", psm_xml or "", fault_plan=fault_plan)
    else:
        application, platform = _load_models(None, None, workload)
        if isinstance(application, MultiModeApplication):
            if strict:
                from repro.lint import lint_multimode

                report = lint_multimode(application, platform=platform)
                if report.errors:
                    raise LintError([f.format() for f in report.errors], report=report)
            return run_multimode(application, platform, engine=engine)
        emulator = SegBusEmulator.from_models(application, platform)
    return emulator.run(strict=strict, engine=engine)


def estimate_model(
    psdf_xml: Optional[str] = None,
    psm_xml: Optional[str] = None,
    *,
    workload: Optional[str] = None,
):
    """The stochastic estimate of inline schemes or a workload scenario: a
    :class:`~repro.analysis.stochastic.StochasticEstimate`, or a
    :class:`~repro.analysis.stochastic.MultiModeStochastic`."""
    application, platform = _load_models(psdf_xml, psm_xml, workload)
    spec = PlatformSpec.from_platform(platform)
    if isinstance(application, MultiModeApplication):
        return stochastic_estimate_multimode(application, spec)
    return stochastic_estimate(application, spec)


def _queue_dict(model) -> Dict[str, object]:
    """One M/D/1 queue, ints exact and floats closed-form deterministic."""
    return {
        "name": model.name,
        "arrivals": model.arrivals,
        "busy_fs": model.busy_fs,
        "window_fs": model.window_fs,
        "utilization": model.utilization,
        "mean_wait_fs": model.mean_wait_fs,
        "mean_queue_depth": model.mean_queue_depth,
    }


def _estimate_dict(estimate: StochasticEstimate) -> Dict[str, object]:
    return {
        "analytic_fs": estimate.analytic_fs,
        "contention_fs": estimate.contention_fs,
        "execution_time_fs": estimate.execution_time_fs,
        "execution_time_ps": fs_to_ps(estimate.execution_time_fs),
        "contention_ratio": estimate.contention_ratio,
        "critical_chain": list(estimate.critical_chain),
        "segments": {
            str(index): _queue_dict(model)
            for index, model in sorted(estimate.segments.items())
        },
        "ca": _queue_dict(estimate.ca),
        "border_units": {
            f"{a}-{b}": _queue_dict(model)
            for (a, b), model in sorted(estimate.border_units.items())
        },
    }


def _multimode_estimate_dict(
    estimate: MultiModeStochastic,
) -> Dict[str, object]:
    return {
        "execution_time_fs": estimate.execution_time_fs,
        "execution_time_ps": fs_to_ps(estimate.execution_time_fs),
        "contention_fs": estimate.contention_fs,
        "per_mode": {
            name: _estimate_dict(per_mode)
            for name, per_mode in sorted(estimate.per_mode.items())
        },
    }


def _execute_emulate(job: ServeJob) -> Dict[str, object]:
    report = emulate_model(
        job.psdf_xml,
        job.psm_xml,
        workload=job.workload,
        fault_plan_xml=job.fault_plan_xml,
        strict=job.strict,
        engine=job.engine,
    )
    return {
        "kind": "emulate",
        "engine": job.engine,
        "multimode": isinstance(report, MultiModeReport),
        "result": report.to_dict(),
        "digest": report.digest(),
    }


def _execute_estimate(job: ServeJob) -> Dict[str, object]:
    estimate = estimate_model(job.psdf_xml, job.psm_xml, workload=job.workload)
    if isinstance(estimate, MultiModeStochastic):
        result: Dict[str, object] = _multimode_estimate_dict(estimate)
        result["multimode"] = True
    else:
        result = _estimate_dict(estimate)
        result["multimode"] = False
    body: Dict[str, object] = {
        "kind": "estimate",
        "estimator_version": ESTIMATOR_VERSION,
        "result": result,
    }
    body["digest"] = _dict_digest(result)
    return body


def _execute_lint(job: ServeJob) -> Dict[str, object]:
    from repro.lint import (
        lint_models,
        lint_multimode,
        registry_hash,
    )

    if job.workload is not None:
        application, platform = _load_models(None, None, job.workload)
        if isinstance(application, MultiModeApplication):
            report = lint_multimode(application, platform=platform)
        else:
            report = lint_models(application=application, platform=platform)
    else:
        application = platform = None
        if job.psdf_xml is not None:
            # the parsed scheme, as `segbus lint` reads it: a cyclic
            # graph is a finding, not a refusal
            application = parse_psdf_xml(job.psdf_xml)
        if job.psm_xml is not None:
            platform = parse_psm_xml(job.psm_xml).to_platform()
        report = lint_models(application=application, platform=platform)
    result = report.to_dict()
    return {
        "kind": "lint",
        "registry": registry_hash(),
        "exit_code": report.exit_code,
        "result": result,
        "digest": _dict_digest(result),
    }


def _execute_selftest(job: ServeJob) -> Dict[str, object]:
    from repro.testing.selftest import run_selftest

    report = run_selftest(
        count=job.count,
        base_seed=job.seed,
        include_golden=False,
        engine=job.engine,
        workers=1,
    )
    # elapsed_s is a wall clock — deliberately excluded: response bodies
    # must be byte-stable so cache hits replay them verbatim
    result = {
        "models": report.models,
        "divergent": report.divergent,
        "checks": report.checks,
        "failures": list(report.failures),
        "ok": report.ok,
    }
    return {
        "kind": "selftest",
        "engine": job.engine,
        "result": result,
        "digest": _dict_digest(result),
    }


def _dict_digest(result: Mapping) -> str:
    """SHA-256 over the canonical JSON of a result (sorted, compact)."""
    import hashlib

    return hashlib.sha256(
        json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def execute_job(job: ServeJob) -> Dict[str, object]:
    """Load and run one job to its response body.

    Each inline scheme is parsed once; a refused input raises its
    :class:`~repro.errors.SegBusError`.  The returned dict is the full
    deterministic response body; the service wraps it in bytes via
    :func:`response_bytes` and caches those bytes under its key.
    """
    if job.kind == "emulate":
        body = _execute_emulate(job)
    elif job.kind == "estimate":
        body = _execute_estimate(job)
    elif job.kind == "lint":
        body = _execute_lint(job)
    elif job.kind == "selftest":
        body = _execute_selftest(job)
    else:  # pragma: no cover - parse_job gates kinds
        raise SegBusError(f"unknown job kind {job.kind!r}")
    body["schema"] = RESPONSE_SCHEMA_VERSION
    body["key"] = job.key
    return body


def refusal_message(job: ServeJob, exc: SegBusError) -> str:
    """The 400 message for a job whose run raised ``exc``.

    Names the first inline scheme its loader refuses (``"psdf_xml: …"``).
    A PSM loads as the job loads it: into its platform model, whose
    elements check every value, and for emulate and estimate jobs on into
    the kernel's :class:`~repro.emulator.kernel.PlatformSpec`, so a value
    either refuses names ``psm_xml`` too.  Any other refusal, such as a
    cyclic graph, keeps ``exc``'s message.  Runs only after a failure, so
    a served miss parses each scheme once.
    """

    def load_psm(text: str) -> object:
        platform = parse_psm_xml(text).to_platform()
        if job.kind == "lint":
            return platform
        return PlatformSpec.from_platform(platform)

    for field, load in (
        ("psdf_xml", parse_psdf_xml),
        ("psm_xml", load_psm),
        ("fault_plan_xml", parse_fault_plan_xml),
    ):
        text = getattr(job, field)
        if text is None:
            continue
        try:
            load(text)
        except SegBusError as refused:
            return f"{field}: {refused}"
    return str(exc)


def response_bytes(body: Mapping) -> bytes:
    """Canonical over-the-wire encoding: sorted keys, compact separators.

    Byte-identity of served responses (the equivalence suite's contract)
    holds exactly because both the live path and the cache replay path
    round-trip through this one function.
    """
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
