"""Emulator-side parsing of PSDF XML schemes.

The emulator *"extracts the number of application processes, data transfers
from each process, ordering of transfers and clock ticks to be consumed by
each process while processing one package"* (section 3.5).  The parser
returns a :class:`ParsedPSDF` exposing exactly those four pieces plus a
reconstruction of the :class:`~repro.psdf.graph.PSDFGraph` (with constant
per-package costs, since the scheme stores ``C`` at a fixed package size).

:func:`parse_psdf_schema` reads a scheme document; :func:`parse_psdf_xml`
is the same parse behind :meth:`SchemaDocument.from_xml
<repro.xmlio.schema_writer.SchemaDocument.from_xml>`, for scheme text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import XMLFormatError
from repro.psdf.flow import PacketFlow
from repro.psdf.graph import PSDFGraph
from repro.psdf.process import Process, ProcessKind
from repro.xmlio.psdf_writer import TRANSFER_TYPE
from repro.xmlio.schema_check import assert_scheme_valid
from repro.xmlio.schema_writer import SchemaDocument

_STEREOTYPE_TO_KIND = {kind.value: kind for kind in ProcessKind}


@dataclass
class ParsedPSDF:
    """The information the emulator needs from a PSDF scheme."""

    name: str
    processes: Tuple[Process, ...]
    flows: Tuple[PacketFlow, ...]

    @property
    def process_count(self) -> int:
        return len(self.processes)

    def transfers_from(self, source: str) -> Tuple[PacketFlow, ...]:
        return tuple(f for f in self.flows if f.source == source)

    def to_graph(self) -> PSDFGraph:
        """Reconstruct the validated PSDF graph."""
        return PSDFGraph(self.processes, self.flows, name=self.name)


def parse_psdf_xml(text: str) -> ParsedPSDF:
    """Parse the XML scheme produced by :func:`repro.xmlio.psdf_writer.psdf_to_xml`.

    Raises :class:`~repro.errors.XMLFormatError` on text that is not a
    well-formed scheme and on every scheme :func:`parse_psdf_schema` refuses.
    """
    return parse_psdf_schema(SchemaDocument.from_xml(text))


def parse_psdf_schema(doc: SchemaDocument) -> ParsedPSDF:
    """Parse a PSDF scheme document, such as :func:`psdf_to_schema
    <repro.xmlio.psdf_writer.psdf_to_schema>` builds.

    Raises :class:`~repro.errors.XMLFormatError` on malformed schemes
    (integrity problems, missing header, dangling flow targets,
    unparseable element names).
    """
    assert_scheme_valid(doc)
    if not doc.top_level:
        raise XMLFormatError("PSDF scheme has no top-level element")
    header_type = doc.top_level[0].type
    try:
        header = doc.complex_type(header_type)
    except XMLFormatError as exc:
        raise XMLFormatError(
            f"PSDF scheme names header type {header_type!r} but does not define it"
        ) from exc

    processes: List[Process] = []
    for entry in header.children:
        kind = _STEREOTYPE_TO_KIND.get(entry.type)
        if kind is None:
            raise XMLFormatError(
                f"process {entry.name!r} has unknown stereotype {entry.type!r}"
            )
        processes.append(Process(entry.name, kind))
    declared = {p.name for p in processes}
    if len(declared) != len(processes):
        raise XMLFormatError("duplicate process declarations in PSDF header")

    flows: List[PacketFlow] = []
    for ctype in doc.complex_types:
        if ctype.name == header_type:
            continue
        if ctype.name not in declared:
            raise XMLFormatError(
                f"complexType {ctype.name!r} is not a declared process"
            )
        for entry in ctype.children:
            if entry.type != TRANSFER_TYPE:
                raise XMLFormatError(
                    f"process {ctype.name!r}: unexpected child type {entry.type!r}"
                )
            flow = PacketFlow.from_element_name(ctype.name, entry.name)
            if flow.target not in declared:
                raise XMLFormatError(
                    f"flow {entry.name!r} of {ctype.name!r} targets undeclared "
                    f"process {flow.target!r}"
                )
            flows.append(flow)
    return ParsedPSDF(
        name=header_type, processes=tuple(processes), flows=tuple(flows)
    )
