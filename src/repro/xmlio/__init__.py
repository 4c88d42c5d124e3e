"""Model-to-Text transformation and XML scheme parsing.

The paper exports PSDF and PSM models to XML schemes via MagicDraw's M2T
code-generation engine (section 3.4) and the emulator parses them back
(section 3.5).  This package reproduces both directions:

* :mod:`repro.xmlio.schema_writer` — the generic XSD-style scheme emitter
  (``xs:schema`` / ``xs:complexType`` / ``xs:element`` trees);
* :mod:`repro.xmlio.psdf_writer` / :mod:`repro.xmlio.psm_writer` — the two
  "code engineering sets" of the paper;
* :mod:`repro.xmlio.psdf_parser` / :mod:`repro.xmlio.psm_parser` — the
  emulator-side parsers (the ``DocumentBuilder`` role), each a
  document-level parse (``parse_*_schema``) behind a text wrapper
  (``parse_*_xml``);
* :mod:`repro.xmlio.codegen` — the code-engineering-set abstraction that
  drives writers and records output locations;
* :mod:`repro.xmlio.roundtrip` — write+parse convenience and fidelity
  checks of the scheme text, used by the tests.

Model objects reach the emulator as the writers' scheme documents, read by
the document-level parsers; files and served requests reach it as text.
"""

from repro.xmlio.schema_writer import SchemaDocument, ComplexType, Element
from repro.xmlio.psdf_writer import psdf_to_schema, psdf_to_xml
from repro.xmlio.psm_writer import psm_to_schema, psm_to_xml
from repro.xmlio.psdf_parser import ParsedPSDF, parse_psdf_schema, parse_psdf_xml
from repro.xmlio.psm_parser import ParsedPSM, parse_psm_schema, parse_psm_xml
from repro.xmlio.codegen import CodeEngineeringSet, generate_models
from repro.xmlio.roundtrip import psdf_roundtrip, psm_roundtrip

__all__ = [
    "SchemaDocument",
    "ComplexType",
    "Element",
    "psdf_to_schema",
    "psdf_to_xml",
    "psm_to_schema",
    "psm_to_xml",
    "ParsedPSDF",
    "parse_psdf_schema",
    "parse_psdf_xml",
    "ParsedPSM",
    "parse_psm_schema",
    "parse_psm_xml",
    "CodeEngineeringSet",
    "generate_models",
    "psdf_roundtrip",
    "psm_roundtrip",
]
