"""Scheme-document rules (``SB4xx``): linting the XML artifacts themselves.

These rules look at the raw :class:`~repro.xmlio.schema_writer.SchemaDocument`
*before* any model parse, so a scheme too broken for
:func:`~repro.xmlio.psm_parser.parse_psm_xml` still yields precise findings
instead of one opaque parse error.  Referential integrity (undefined type
references, orphaned complex types, duplicate ids) is delegated to
:func:`repro.xmlio.schema_check.check_scheme` and its kind-tagged problem
entries; the PSM-dialect shape rules (segments without an arbiter or without
processes) are implemented here directly, telling a segment's children apart
exactly as the PSM parser does (:class:`~repro.xmlio.psm_parser.SegmentChildRoles`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.lint.context import KIND_PSM, LintContext, SchemeFile
from repro.lint.core import Finding, RuleRegistry, Severity
from repro.xmlio.psm_parser import ROLE_ARBITER, ROLE_FU, SegmentChildRoles
from repro.xmlio.schema_check import (
    KIND_DUPLICATE_CHILD,
    KIND_DUPLICATE_TYPE,
    KIND_ORPHAN_TYPE,
    KIND_UNDEFINED_REFERENCE,
    check_scheme,
)
from repro.xmlio.schema_writer import ComplexType

CATEGORY = "scheme"

#: schema_check problem kind → lint rule id
_PROBLEM_KIND_TO_RULE = {
    KIND_UNDEFINED_REFERENCE: "SB402",
    KIND_ORPHAN_TYPE: "SB403",
    KIND_DUPLICATE_TYPE: "SB404",
    KIND_DUPLICATE_CHILD: "SB404",
}


def _segment_index(type_name: str) -> Optional[int]:
    digits = type_name[len("Segment"):]
    return int(digits) if digits.isdecimal() else None


def _psm_segment_types(
    scheme: SchemeFile,
) -> Iterable[Tuple[ComplexType, SegmentChildRoles]]:
    """The Segment complex types referenced from a PSM scheme's root, each
    with the roles of its children."""
    doc = scheme.document
    if not doc.top_level:
        return
    try:
        root = doc.complex_type(doc.top_level[0].type)
    except Exception:
        return  # undefined root: SB402 already reports it
    roles = SegmentChildRoles.of_root(root)
    for entry in root.children:
        if not entry.type.startswith("Segment"):
            continue
        try:
            yield doc.complex_type(entry.type), roles
        except Exception:
            continue  # undefined segment type: SB402 territory


def register(registry: RuleRegistry) -> None:
    @registry.rule(
        "SB401",
        "xml-parse-error",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="every input file parses as a well-formed scheme document",
        rationale=(
            "nothing downstream — model parse, verifier, emulator — can run "
            "on a file that is not xs:schema XML"
        ),
        example="a truncated psm.xml, or a JSON file passed to segbus lint",
        fix_hint="regenerate the scheme with the M2T writers",
    )
    def _parse_error(ctx: LintContext) -> Iterable[Finding]:
        # Findings for this rule are produced by the loader, which is the
        # only place that still has the unparseable raw text in hand.
        return []

    @registry.rule(
        "SB402",
        "undefined-type-reference",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="every referenced type is defined or terminal",
        rationale=(
            "a dangling type attribute crashes the emulator's setup halfway "
            "through parsing (section 3.5)"
        ),
        example='<xs:element name="p5" type="P5"/> with no P5 complexType',
        fix_hint="define the missing complexType or fix the reference",
    )
    def _undefined(ctx: LintContext) -> Iterable[Finding]:
        yield from _scheme_findings(registry, ctx, "SB402")

    @registry.rule(
        "SB403",
        "orphan-complex-type",
        severity=Severity.WARNING,
        category=CATEGORY,
        description="every complex type is reachable from a top-level element",
        rationale=(
            "parsers ignore orphans, so an orphaned type is configuration "
            "that silently does nothing — usually a generator bug"
        ),
        example="an SA1 type left behind after its segment lost the arbiter",
        fix_hint="reference the type from the document root or delete it",
    )
    def _orphan(ctx: LintContext) -> Iterable[Finding]:
        yield from _scheme_findings(registry, ctx, "SB403")

    @registry.rule(
        "SB404",
        "duplicate-element-id",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="type names and per-type child names are unique",
        rationale=(
            "xs:all forbids duplicate ids; parsers keep only one of the "
            "duplicates, so half the configuration vanishes silently"
        ),
        example="two <xs:element name='p5' .../> children in one segment",
        fix_hint="rename or remove one of the duplicates",
    )
    def _duplicate(ctx: LintContext) -> Iterable[Finding]:
        yield from _scheme_findings(registry, ctx, "SB404")

    @registry.rule(
        "SB405",
        "psm-segment-without-arbiter",
        severity=Severity.ERROR,
        category=CATEGORY,
        description="every PSM segment type declares a Segment Arbiter child",
        rationale=(
            "a segment with no SA has no bus master arbitration — nothing "
            "on that segment can ever be granted the bus (section 2.1)"
        ),
        example='a Segment2 complexType with no <xs:element type="SA2"/>',
        fix_hint='add an <xs:element name="arbiter" type="SAn"/> child',
    )
    def _segment_without_arbiter(ctx: LintContext) -> Iterable[Finding]:
        rule = registry.get("SB405")
        for scheme in ctx.documents:
            if scheme.kind != KIND_PSM:
                continue
            for seg_type, roles in _psm_segment_types(scheme):
                if any(
                    roles.role(child.type) == ROLE_ARBITER
                    for child in seg_type.children
                ):
                    continue
                yield rule.finding(
                    f"segment type {seg_type.name!r} declares no Segment "
                    "Arbiter (no child of type SA<i> for a declared segment i)",
                    element=seg_type.name,
                    segment=_segment_index(seg_type.name),
                    file=scheme.path,
                )

    @registry.rule(
        "SB406",
        "psm-segment-without-process",
        severity=Severity.WARNING,
        category=CATEGORY,
        description="every PSM segment type hosts at least one process",
        rationale=(
            "an empty segment adds bus sections and arbitration latency "
            "without doing work; SEG-FU-1 catches this post-parse, this "
            "rule catches it even when the parse fails"
        ),
        example="a Segment3 type holding only its arbiter and frequency",
        fix_hint="map a process onto the segment or drop the segment",
    )
    def _segment_without_process(ctx: LintContext) -> Iterable[Finding]:
        rule = registry.get("SB406")
        for scheme in ctx.documents:
            if scheme.kind != KIND_PSM:
                continue
            for seg_type, roles in _psm_segment_types(scheme):
                hosts_process = any(
                    roles.role(child.type) == ROLE_FU
                    for child in seg_type.children
                )
                if not hosts_process:
                    yield rule.finding(
                        f"segment type {seg_type.name!r} hosts no process "
                        "(only arbiter/BU/parameter children)",
                        element=seg_type.name,
                        segment=_segment_index(seg_type.name),
                        file=scheme.path,
                    )


def _scheme_findings(
    registry: RuleRegistry, ctx: LintContext, rule_id: str
) -> Iterable[Finding]:
    """Findings of ``rule_id`` from check_scheme over every document."""
    rule = registry.get(rule_id)
    for scheme in ctx.documents:
        for problem in check_scheme(scheme.document).entries:
            if _PROBLEM_KIND_TO_RULE.get(problem.kind) != rule_id:
                continue
            yield rule.finding(
                problem.message,
                element=problem.type_name,
                file=scheme.path,
            )
