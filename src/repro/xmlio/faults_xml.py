"""Fault-plan serialization through the M2T scheme dialect.

A :class:`~repro.faults.model.FaultPlan` travels the same road as the PSDF
and PSM models: an XSD-style scheme document whose complex types carry
``<name>_<value>`` Parameter entries (section 3.4's convention).  The plan
becomes one ``FaultPlan`` complex type holding the seed plus one
``FaultRecordN`` child type per record; :func:`parse_fault_plan_xml`
(:func:`parse_fault_plan_schema` behind :meth:`SchemaDocument.from_xml`)
rebuilds a plan that is *equal* to the original — same seed, same records
in the same order — so an emulation driven by a parsed plan injects the
bit-identical fault sequence (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import XMLFormatError
from repro.faults.model import FaultPlan, FaultRecord
from repro.xmlio.psm_writer import PARAM_TYPE
from repro.xmlio.schema_writer import ComplexType, SchemaDocument

PLAN_TYPE = "FaultPlan"
RECORD_TYPE_PREFIX = "FaultRecord"


def fault_plan_to_scheme(plan: FaultPlan) -> SchemaDocument:
    """Render ``plan`` as a scheme document (M2T direction)."""
    doc = SchemaDocument()
    doc.add_top_level("faultPlan", PLAN_TYPE)
    root = ComplexType(name=PLAN_TYPE)
    root.add(f"seed_{plan.seed}", PARAM_TYPE)
    for i, record in enumerate(plan.records):
        root.add(f"record{i}", f"{RECORD_TYPE_PREFIX}{i}")
    doc.add_complex_type(root)
    for i, record in enumerate(plan.records):
        rtype = ComplexType(name=f"{RECORD_TYPE_PREFIX}{i}")
        rtype.add(f"site_{record.site}", PARAM_TYPE)
        rtype.add(f"kind_{record.kind}", PARAM_TYPE)
        # repr round-trips the float exactly; integral rates stay readable
        rtype.add(f"rate_{record.rate!r}", PARAM_TYPE)
        if record.at_tick is not None:
            rtype.add(f"atTick_{record.at_tick}", PARAM_TYPE)
        if record.ticks:
            rtype.add(f"ticks_{record.ticks}", PARAM_TYPE)
        doc.add_complex_type(rtype)
    return doc


def fault_plan_to_xml(plan: FaultPlan) -> str:
    """Serialize ``plan`` to the XML scheme text."""
    return fault_plan_to_scheme(plan).to_xml()


def parse_fault_plan_xml(text: str) -> FaultPlan:
    """Parse a scheme produced by :func:`fault_plan_to_xml`."""
    return parse_fault_plan_schema(SchemaDocument.from_xml(text))


def parse_fault_plan_schema(doc: SchemaDocument) -> FaultPlan:
    """Parse a fault-plan scheme document, such as
    :func:`fault_plan_to_scheme` builds."""
    if not doc.top_level:
        raise XMLFormatError("fault scheme has no top-level element")
    root = doc.complex_type(doc.top_level[0].type)

    seed: Optional[int] = None
    record_types: List[str] = []
    for entry in root.children:
        if entry.type == PARAM_TYPE:
            key, value = _split_param(entry.name, root.name)
            if key == "seed":
                seed = _int(value, "fault plan seed")
        elif entry.type.startswith(RECORD_TYPE_PREFIX):
            record_types.append(entry.type)
        else:
            raise XMLFormatError(
                f"fault plan {root.name!r}: unexpected child type {entry.type!r}"
            )
    if seed is None:
        raise XMLFormatError("fault scheme does not declare a seed parameter")

    records: List[FaultRecord] = []
    for type_name in record_types:
        rtype = doc.complex_type(type_name)
        site: Optional[str] = None
        kind: Optional[str] = None
        rate = 0.0
        at_tick: Optional[int] = None
        ticks = 0
        for entry in rtype.children:
            key, value = _split_param(entry.name, type_name)
            if key == "site":
                site = value
            elif key == "kind":
                kind = value
            elif key == "rate":
                rate = _float(value, f"{type_name} rate")
            elif key == "atTick":
                at_tick = _int(value, f"{type_name} atTick")
            elif key == "ticks":
                ticks = _int(value, f"{type_name} ticks")
            else:
                raise XMLFormatError(
                    f"{type_name}: unknown parameter {key!r}"
                )
        if site is None or kind is None:
            raise XMLFormatError(
                f"{type_name}: record needs site and kind parameters"
            )
        records.append(
            FaultRecord(site=site, kind=kind, rate=rate, at_tick=at_tick, ticks=ticks)
        )
    return FaultPlan(seed=seed, records=tuple(records))


def _split_param(name: str, owner: str) -> "tuple[str, str]":
    # the value may itself contain "_" (e.g. a kind like grant_loss), so
    # split on the FIRST underscore: keys are single camelCase words
    if "_" not in name:
        raise XMLFormatError(
            f"{owner}: parameter entry {name!r} is not '<name>_<value>'"
        )
    key, value = name.split("_", 1)
    return key, value


def _int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise XMLFormatError(f"{what}: {value!r} is not an integer") from exc


def _float(value: str, what: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise XMLFormatError(f"{what}: {value!r} is not a number") from exc
