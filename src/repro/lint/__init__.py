"""Static analysis for SegBus models: the ``segbus lint`` subsystem.

Generalises the DSL's OCL validation step into a rule engine with stable
ids (``SB101`` …), a PSDF static verifier, a pre-simulation hazard
detector, and XML scheme linting — all before any emulation runs.  See
``docs/LINTING.md`` for the rule catalogue.
"""

from repro.lint.context import (
    KIND_FAULT_PLAN,
    KIND_PSDF,
    KIND_PSM,
    KIND_UNKNOWN,
    LintContext,
    SchemeFile,
)
from repro.lint.core import (
    Finding,
    LintReport,
    Rule,
    RuleRegistry,
    Severity,
    SourceLocation,
    merge_reports,
)
from repro.lint.engine import (
    INTERNAL_RULE_ID,
    builtin_registry,
    default_registry,
    lint_models,
    lint_multimode,
    lint_paths,
    registry_hash,
    run_rules,
)
from repro.lint.loader import classify_scheme, load_paths
from repro.lint.output import (
    FORMAT_JSON,
    FORMAT_SARIF,
    FORMAT_TEXT,
    FORMATS,
    format_json,
    format_sarif,
    format_text,
    render,
)

__all__ = [
    "Finding",
    "FORMATS",
    "FORMAT_JSON",
    "FORMAT_SARIF",
    "FORMAT_TEXT",
    "INTERNAL_RULE_ID",
    "KIND_FAULT_PLAN",
    "KIND_PSDF",
    "KIND_PSM",
    "KIND_UNKNOWN",
    "LintContext",
    "LintReport",
    "Rule",
    "RuleRegistry",
    "SchemeFile",
    "Severity",
    "SourceLocation",
    "builtin_registry",
    "classify_scheme",
    "default_registry",
    "format_json",
    "format_sarif",
    "format_text",
    "lint_models",
    "lint_multimode",
    "lint_paths",
    "load_paths",
    "merge_reports",
    "registry_hash",
    "render",
    "run_rules",
]
