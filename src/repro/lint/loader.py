"""Loading lint inputs from XML scheme files.

``segbus lint`` takes any mix of PSDF, PSM and fault-plan schemes.  The
loader classifies each file by *content* (not by file name), keeps the raw
:class:`~repro.xmlio.schema_writer.SchemaDocument` for the ``SB4xx`` rules,
and then attempts the model parses on that same document — each one
guarded, so a scheme too broken for :mod:`repro.xmlio`'s parsers still
reaches the document-level rules and produces precise findings alongside
an ``SB401`` record of the failed parse.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.lint.context import (
    KIND_FAULT_PLAN,
    KIND_PSDF,
    KIND_PSM,
    KIND_UNKNOWN,
    LintContext,
    SchemeFile,
)
from repro.lint.core import Finding, RuleRegistry
from repro.xmlio.faults_xml import (
    PLAN_TYPE,
    RECORD_TYPE_PREFIX,
    parse_fault_plan_schema,
)
from repro.xmlio.psdf_parser import parse_psdf_schema
from repro.xmlio.psm_parser import parse_psm_schema
from repro.xmlio.schema_writer import SchemaDocument

#: PSDF process stereotypes (duplicated from psdf_parser to stay cheap)
_STEREOTYPES = frozenset({"InitialNode", "ProcessNode", "FinalNode"})


def classify_scheme(doc: SchemaDocument) -> str:
    """Classify a scheme document by its content.

    * a root type named ``FaultPlan`` (or holding ``FaultRecordN`` children)
      is a fault plan;
    * a root type with a ``CA`` child (or ``Segment*`` children) is a PSM;
    * a root type whose children carry PSDF stereotypes is a PSDF scheme.
    """
    if not doc.top_level:
        return KIND_UNKNOWN
    root_type = doc.top_level[0].type
    try:
        root = doc.complex_type(root_type)
    except Exception:
        return KIND_UNKNOWN
    child_types = [child.type for child in root.children]
    if root_type == PLAN_TYPE or any(
        t.startswith(RECORD_TYPE_PREFIX) for t in child_types
    ):
        return KIND_FAULT_PLAN
    if "CA" in child_types or any(t.startswith("Segment") for t in child_types):
        return KIND_PSM
    if any(t in _STEREOTYPES for t in child_types):
        return KIND_PSDF
    return KIND_UNKNOWN


def load_paths(
    paths: Sequence[str], registry: RuleRegistry
) -> Tuple[LintContext, List[Finding]]:
    """Read, classify and parse ``paths`` into a :class:`LintContext`.

    Returns the context plus the loader's own findings (``SB401`` for files
    that fail to read, parse as XML, or build their model).  When several
    files of one kind are given, the first parseable one supplies the model;
    every file still gets the document-level rules.
    """
    parse_rule = registry.get("SB401")
    findings: List[Finding] = []
    documents: List[SchemeFile] = []
    source_files = {}
    application = None
    platform = None
    fault_plan = None

    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            findings.append(
                parse_rule.finding(f"cannot read input: {exc}", file=str(path))
            )
            continue
        try:
            doc = SchemaDocument.from_xml(text)
        except Exception as exc:
            findings.append(
                parse_rule.finding(
                    f"not a scheme document: {exc}", file=str(path)
                )
            )
            continue
        kind = classify_scheme(doc)
        documents.append(SchemeFile(path=str(path), kind=kind, document=doc))
        if kind == KIND_UNKNOWN:
            findings.append(
                parse_rule.finding(
                    "scheme is neither a PSDF, PSM nor fault-plan document",
                    file=str(path),
                )
            )
            continue

        model_error: Optional[Exception] = None
        try:
            if kind == KIND_PSDF and application is None:
                application = parse_psdf_schema(doc)
                source_files.setdefault(KIND_PSDF, str(path))
            elif kind == KIND_PSM and platform is None:
                parsed = parse_psm_schema(doc)
                source_files.setdefault(KIND_PSM, str(path))
                platform = parsed.to_platform()
            elif kind == KIND_FAULT_PLAN and fault_plan is None:
                fault_plan = parse_fault_plan_schema(doc)
                source_files.setdefault(KIND_FAULT_PLAN, str(path))
        except Exception as exc:
            model_error = exc
        if model_error is not None:
            findings.append(
                parse_rule.finding(
                    f"cannot build the {kind} model: {model_error}",
                    file=str(path),
                )
            )

    context = LintContext.from_models(
        application=application,
        platform=platform,
        fault_plan=fault_plan,
        documents=tuple(documents),
    )
    context.source_files.update(source_files)
    return context, findings
