"""XSD-style scheme document model and serializer.

The generated XML *"consists of a schema element and a number of
sub-elements, in the form of complexType and element types; each complex
type represents a platform element or application component"* (section 3.4).
This module models exactly that subset of XML Schema:

* a :class:`SchemaDocument` holding top-level :class:`ComplexType` entries
  and optional top-level :class:`Element` declarations;
* each complex type contains an ``xs:all`` group of :class:`Element`
  children (``name`` + ``type`` attributes), following the paper's PSM
  snippet.

Serialization uses :mod:`xml.etree.ElementTree` with the conventional
``xs`` prefix bound to the XML Schema namespace.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import List
from xml.etree import ElementTree as ET

from repro.errors import XMLFormatError

XS_NS = "http://www.w3.org/2001/XMLSchema"
_XS = f"{{{XS_NS}}}"

#: a character outside XML 1.0's ``Char`` production: neither the raw
#: character nor a character reference to it is well-formed XML
_NON_XML_CHAR = re.compile(
    r"[^\t\n\r\x20-\uD7FF\uE000-\uFFFD\U00010000-\U0010FFFF]"
)


def check_xml_text(value: str, field: str) -> str:
    """Return ``value``, or raise if XML 1.0 text cannot carry it.

    The M2T writers call this on every free-text model field they embed,
    so a model they accept yields a document whose :meth:`SchemaDocument.to_xml`
    text parses back to that same document.
    """
    match = _NON_XML_CHAR.search(value)
    if match is not None:
        raise XMLFormatError(
            f"{field} {value!r} holds U+{ord(match.group()):04X}, which an "
            "XML 1.0 scheme cannot carry"
        )
    return value


@dataclass(frozen=True)
class Element:
    """An ``xs:element`` declaration: ``<xs:element name=... type=.../>``."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if not self.name or not self.type:
            raise XMLFormatError(
                f"xs:element needs name and type, got name={self.name!r} "
                f"type={self.type!r}"
            )


@dataclass
class ComplexType:
    """An ``xs:complexType`` with an ``xs:all`` group of child elements."""

    name: str
    children: List[Element] = field(default_factory=list)

    def add(self, name: str, type_: str) -> "ComplexType":
        self.children.append(Element(name=name, type=type_))
        return self

    def child(self, name: str) -> Element:
        for element in self.children:
            if element.name == name:
                return element
        raise XMLFormatError(f"complexType {self.name!r} has no child {name!r}")


@dataclass
class SchemaDocument:
    """A full scheme: top-level elements plus the complex-type definitions."""

    top_level: List[Element] = field(default_factory=list)
    complex_types: List[ComplexType] = field(default_factory=list)

    def add_top_level(self, name: str, type_: str) -> "SchemaDocument":
        self.top_level.append(Element(name=name, type=type_))
        return self

    def add_complex_type(self, ctype: ComplexType) -> ComplexType:
        if any(existing.name == ctype.name for existing in self.complex_types):
            raise XMLFormatError(f"duplicate complexType {ctype.name!r}")
        self.complex_types.append(ctype)
        return ctype

    def complex_type(self, name: str) -> ComplexType:
        for ctype in self.complex_types:
            if ctype.name == name:
                return ctype
        raise XMLFormatError(f"scheme has no complexType {name!r}")

    def type_names(self) -> List[str]:
        return [c.name for c in self.complex_types]

    # -- serialization -----------------------------------------------------------

    def to_xml(self) -> str:
        """Serialize to a UTF-8 XML string with the ``xs`` prefix."""
        ET.register_namespace("xs", XS_NS)
        root = ET.Element(f"{_XS}schema")
        for element in self.top_level:
            ET.SubElement(
                root, f"{_XS}element", {"name": element.name, "type": element.type}
            )
        for ctype in self.complex_types:
            ct_el = ET.SubElement(root, f"{_XS}complexType", {"name": ctype.name})
            group = ET.SubElement(ct_el, f"{_XS}all")
            for element in ctype.children:
                ET.SubElement(
                    group,
                    f"{_XS}element",
                    {"name": element.name, "type": element.type},
                )
        _indent(root)
        buffer = io.BytesIO()
        ET.ElementTree(root).write(buffer, encoding="utf-8", xml_declaration=True)
        return buffer.getvalue().decode("utf-8")

    @classmethod
    def from_xml(cls, text: str) -> "SchemaDocument":
        """Parse a scheme produced by :meth:`to_xml` (or the paper's tool)."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise XMLFormatError(f"not well-formed XML: {exc}") from exc
        if root.tag != f"{_XS}schema":
            raise XMLFormatError(
                f"root element is {root.tag!r}, expected xs:schema in {XS_NS!r}"
            )
        doc = cls()
        for child in root:
            if child.tag == f"{_XS}element":
                doc.add_top_level(
                    _required_attr(child, "name"), _required_attr(child, "type")
                )
            elif child.tag == f"{_XS}complexType":
                ctype = ComplexType(name=_required_attr(child, "name"))
                for group in child:
                    if group.tag not in (f"{_XS}all", f"{_XS}sequence"):
                        raise XMLFormatError(
                            f"complexType {ctype.name!r}: unexpected child "
                            f"{group.tag!r}"
                        )
                    for element in group:
                        if element.tag != f"{_XS}element":
                            raise XMLFormatError(
                                f"complexType {ctype.name!r}: unexpected group "
                                f"member {element.tag!r}"
                            )
                        ctype.add(
                            _required_attr(element, "name"),
                            _required_attr(element, "type"),
                        )
                doc.add_complex_type(ctype)
            else:
                raise XMLFormatError(f"unexpected top-level element {child.tag!r}")
        return doc


def _required_attr(node: ET.Element, attr: str) -> str:
    value = node.get(attr)
    if not value:
        raise XMLFormatError(f"element {node.tag!r} missing required {attr!r} attribute")
    return value


def _indent(node: ET.Element, level: int = 0) -> None:
    """Pretty-print indentation (ElementTree.indent exists only on 3.9+)."""
    pad = "\n" + "  " * level
    if len(node):
        if not (node.text or "").strip():
            node.text = pad + "  "
        for child in node:
            _indent(child, level + 1)
            if not (child.tail or "").strip():
                child.tail = pad + "  "
        last = node[-1]
        if not (last.tail or "").strip():
            last.tail = pad
    elif level and not (node.tail or "").strip():
        node.tail = pad
