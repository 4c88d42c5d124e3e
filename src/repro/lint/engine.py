"""The lint engine: registry assembly and rule execution.

:func:`default_registry` assembles the full ``SB1xx``–``SB5xx`` catalogue
from the rule modules; :func:`run_rules` executes a registry over one
:class:`~repro.lint.context.LintContext`.  A rule that raises is reported
as an ``SB999`` internal-error finding instead of aborting the run — one
broken checker must not hide every other rule's findings.

Convenience fronts: :func:`lint_models` for in-memory objects (the
emulator's strict mode), :func:`lint_paths` for XML scheme files (the CLI).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Optional, Sequence

from repro.lint.context import LintContext, SchemeFile
from repro.lint.core import LintReport, Rule, RuleRegistry, Severity

#: rule modules contributing to the default registry, in id order
_RULE_MODULE_NAMES = (
    "repro.lint.rules_platform",
    "repro.lint.rules_psdf",
    "repro.lint.rules_hazards",
    "repro.lint.rules_scheme",
    "repro.lint.rules_modes",
    "repro.lint.rules_performance",
)

INTERNAL_RULE_ID = "SB999"


def default_registry() -> RuleRegistry:
    """A fresh registry holding the complete built-in rule catalogue.

    Callers may register rules of their own on it.  The lint fronts,
    called without a ``registry``, run one shared build per process
    instead (:func:`builtin_registry`): the catalogue is code, and each
    build is a web of reference cycles (rules closing over their
    registration scope) that only the cyclic garbage collector frees.
    """
    import importlib

    registry = RuleRegistry()
    for module_name in _RULE_MODULE_NAMES:
        importlib.import_module(module_name).register(registry)
    registry.register(
        Rule(
            id=INTERNAL_RULE_ID,
            name="internal-error",
            severity=Severity.ERROR,
            category="engine",
            description="every rule checker runs to completion",
            rationale=(
                "a crashing checker would otherwise silently skip its rule; "
                "surfacing the crash keeps the lint run trustworthy"
            ),
            example="a rule tripping over an unexpected model shape",
            check=lambda ctx: [],
            fix_hint="report the traceback as a bug",
        )
    )
    return registry


def registry_hash(registry: Optional[RuleRegistry] = None) -> str:
    """SHA-256 fingerprint of a registry's finding-shaping surface.

    Hashes every rule's ``(id, name, severity, category, description)``
    in id order — the fields that determine which findings a lint run can
    produce and how they read.  The serving result cache keys lint and
    strict-emulate responses on this hash (docs/SERVING.md), so adding,
    removing, re-levelling or rewording a rule invalidates previously
    cached findings instead of replaying them stale.

    Without ``registry`` it fingerprints the built-in catalogue the lint
    fronts run.  The catalogue is code, so that digest is computed once
    per process, and again only if ``default_registry`` itself is
    replaced.
    """
    if registry is None:
        return _catalogue_hash(default_registry)
    digest = hashlib.sha256()
    for rule in registry:
        digest.update(
            f"{rule.id}|{rule.name}|{rule.severity.name}|"
            f"{rule.category}|{rule.description}\n".encode("utf-8")
        )
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def _catalogue(build: Callable[[], RuleRegistry]) -> RuleRegistry:
    return build()


@functools.lru_cache(maxsize=1)
def _catalogue_hash(build: Callable[[], RuleRegistry]) -> str:
    return registry_hash(_catalogue(build))


def builtin_registry() -> RuleRegistry:
    """The shared build of :func:`default_registry`'s catalogue.

    Built once per process, and again only if ``default_registry`` itself
    is replaced.  Read it, never register on it: every lint call without
    an explicit registry runs it.
    """
    return _catalogue(default_registry)


def run_rules(
    context: LintContext,
    registry: Optional[RuleRegistry] = None,
    disable: Sequence[str] = (),
) -> LintReport:
    """Execute every registered rule over ``context``."""
    registry = registry if registry is not None else builtin_registry()
    disabled = set(disable)
    internal = registry.get(INTERNAL_RULE_ID)
    report = LintReport()
    for rule in registry:
        if rule.id in disabled or rule.id == INTERNAL_RULE_ID:
            continue
        report.checked_rules += 1
        try:
            report.extend(rule.check(context))
        except Exception as exc:
            report.add(
                internal.finding(
                    f"rule {rule.id} ({rule.name}) crashed: "
                    f"{type(exc).__name__}: {exc}"
                )
            )
    return report


def lint_models(
    application=None,
    platform=None,
    fault_plan=None,
    documents: Sequence[SchemeFile] = (),
    registry: Optional[RuleRegistry] = None,
    disable: Sequence[str] = (),
) -> LintReport:
    """Lint in-memory models (the emulator strict-mode entry point)."""
    context = LintContext.from_models(
        application=application,
        platform=platform,
        fault_plan=fault_plan,
        documents=tuple(documents),
    )
    return run_rules(context, registry=registry, disable=disable)


def lint_multimode(
    multimode,
    platform=None,
    registry: Optional[RuleRegistry] = None,
    disable: Sequence[str] = (),
) -> LintReport:
    """Lint a multi-mode application: composition rules + per-mode passes.

    One pass runs the mode-consistency family (``SB23x``) over the
    composition; then every defined mode's graph goes through the full
    single-mode catalogue against the shared ``platform``.  The per-mode
    passes disable ``SB112`` (stray mapped process): the platform maps the
    *union* of every mode's processes, so processes of the other modes are
    expected strays.  Findings merge with the usual key-based dedup.
    """
    registry = registry if registry is not None else builtin_registry()
    context = LintContext.from_models(platform=platform, multimode=multimode)
    combined = run_rules(context, registry=registry, disable=disable)
    for name in sorted(multimode.modes):
        sub = lint_models(
            application=multimode.modes[name],
            platform=platform,
            registry=registry,
            disable=tuple(disable) + ("SB112",),
        )
        combined.checked_rules += sub.checked_rules
        for finding in sub.findings:
            combined.add(finding)
    return combined


def lint_paths(
    paths: Sequence[str],
    registry: Optional[RuleRegistry] = None,
    disable: Sequence[str] = (),
) -> LintReport:
    """Lint XML scheme files (the ``segbus lint`` entry point)."""
    registry = registry if registry is not None else builtin_registry()
    context, loader_findings = _load(paths, registry)
    report = run_rules(context, registry=registry, disable=disable)
    disabled = set(disable)
    report.extend(
        f for f in loader_findings if f.rule_id not in disabled
    )
    report.targets = [str(p) for p in paths]
    return report


def _load(paths: Sequence[str], registry: RuleRegistry):
    from repro.lint.loader import load_paths

    return load_paths(paths, registry)
