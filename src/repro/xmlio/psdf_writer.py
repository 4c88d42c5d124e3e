"""M2T transformation of PSDF models into XML schemes.

One ``xs:complexType`` per process, named after the process; each outgoing
flow becomes a child ``xs:element`` whose ``name`` encodes the transfer in
the underscore format of section 3.5::

    <xs:complexType name="P0">
      <xs:all>
        <xs:element name="P1_576_1_250" type="Transfer"/>
        ...

The target process, the number of data items, the sequencing order and the
per-package tick count are separated by ``_``; the ``type`` attribute is the
fixed marker ``Transfer``.  Process stereotype and total process count are
carried by a header complex type named after the graph, so the parser can
recover the full model without out-of-band information.
"""

from __future__ import annotations

from repro.psdf.graph import PSDFGraph
from repro.xmlio.schema_writer import ComplexType, SchemaDocument, check_xml_text

#: ``type`` attribute of flow elements.
TRANSFER_TYPE = "Transfer"
#: ``type`` attribute prefix for process references in the header.
PROCESS_TYPE_PREFIX = ""


def psdf_to_schema(graph: PSDFGraph, package_size: int) -> SchemaDocument:
    """Build the scheme document for ``graph`` at ``package_size``.

    The package size is needed because flow element names embed the
    per-package tick count ``C`` evaluated at the platform's package size
    (the paper's emulator reads the same number).  Raises
    :class:`~repro.errors.XMLFormatError` for a graph name that XML 1.0
    cannot carry (process names are letters and digits by construction).
    """
    doc = SchemaDocument()
    header = ComplexType(name=check_xml_text(graph.name, "PSDF graph name"))
    for proc in graph:
        header.add(proc.name, proc.stereotype)
    doc.add_complex_type(header)
    doc.add_top_level(graph.name.lower(), graph.name)
    for proc in graph:
        ctype = ComplexType(name=proc.name)
        for flow in graph.outgoing(proc.name):
            ctype.add(flow.element_name(package_size), TRANSFER_TYPE)
        doc.add_complex_type(ctype)
    return doc


def psdf_to_xml(graph: PSDFGraph, package_size: int) -> str:
    """Serialize ``graph`` to its XML scheme string (the M2T output)."""
    return psdf_to_schema(graph, package_size).to_xml()
