"""XSD-style scheme document model tests."""

import pytest

from repro.errors import XMLFormatError
from repro.xmlio.schema_writer import ComplexType, Element, SchemaDocument, XS_NS


def sample_doc():
    doc = SchemaDocument()
    doc.add_top_level("sbp", "SBP")
    root = ComplexType("SBP")
    root.add("segment1", "Segment1")
    root.add("ca", "CA")
    doc.add_complex_type(root)
    doc.add_complex_type(ComplexType("Segment1").add("p0", "P0").add("arbiter", "SA1"))
    doc.add_complex_type(ComplexType("CA"))
    doc.add_complex_type(ComplexType("P0"))
    doc.add_complex_type(ComplexType("SA1"))
    return doc


class TestModel:
    def test_element_requires_name_and_type(self):
        with pytest.raises(XMLFormatError):
            Element("", "T")
        with pytest.raises(XMLFormatError):
            Element("n", "")

    def test_complex_type_child_lookup(self):
        ct = ComplexType("X").add("a", "A")
        assert ct.child("a").type == "A"
        with pytest.raises(XMLFormatError):
            ct.child("b")

    def test_duplicate_complex_type_rejected(self):
        doc = SchemaDocument()
        doc.add_complex_type(ComplexType("X"))
        with pytest.raises(XMLFormatError):
            doc.add_complex_type(ComplexType("X"))

    def test_missing_complex_type_lookup(self):
        with pytest.raises(XMLFormatError):
            SchemaDocument().complex_type("X")

    def test_type_names(self):
        assert sample_doc().type_names() == ["SBP", "Segment1", "CA", "P0", "SA1"]


class TestSerialization:
    def test_roundtrip(self):
        doc = sample_doc()
        recovered = SchemaDocument.from_xml(doc.to_xml())
        assert recovered.type_names() == doc.type_names()
        assert recovered.complex_type("Segment1").child("p0").type == "P0"
        assert [e.name for e in recovered.top_level] == ["sbp"]

    def test_xml_uses_xs_namespace(self):
        text = sample_doc().to_xml()
        assert XS_NS in text
        assert "complexType" in text
        assert 'name="SBP"' in text

    def test_xml_declaration_present(self):
        assert sample_doc().to_xml().startswith("<?xml")

    def test_paper_snippet_parses(self):
        # Structure of the paper's section 3.4 PSM snippet.
        snippet = f"""<?xml version='1.0' encoding='utf-8'?>
        <xs:schema xmlns:xs="{XS_NS}">
          <xs:complexType name="SBP">
            <xs:all>
              <xs:element name="segment1" type="Segment1"/>
              <xs:element name="segment2" type="Segment2"/>
              <xs:element name="ca" type="CA"/>
              <xs:element name="bu12" type="BU12"/>
            </xs:all>
          </xs:complexType>
          <xs:complexType name="Segment1">
            <xs:all>
              <xs:element name="buRight" type="BU12"/>
              <xs:element name="p5" type="P5"/>
              <xs:element name="arbiter" type="SA1"/>
            </xs:all>
          </xs:complexType>
        </xs:schema>"""
        doc = SchemaDocument.from_xml(snippet)
        assert doc.complex_type("SBP").child("bu12").type == "BU12"
        assert doc.complex_type("Segment1").child("arbiter").type == "SA1"

    def test_rejects_garbage(self):
        with pytest.raises(XMLFormatError):
            SchemaDocument.from_xml("not xml at all <")

    def test_rejects_wrong_root(self):
        with pytest.raises(XMLFormatError, match="root element"):
            SchemaDocument.from_xml("<root/>")

    def test_rejects_unexpected_top_level(self):
        text = f'<xs:schema xmlns:xs="{XS_NS}"><xs:simpleType name="x"/></xs:schema>'
        with pytest.raises(XMLFormatError, match="unexpected top-level"):
            SchemaDocument.from_xml(text)

    def test_rejects_missing_attr(self):
        text = f'<xs:schema xmlns:xs="{XS_NS}"><xs:element name="a"/></xs:schema>'
        with pytest.raises(XMLFormatError, match="missing required"):
            SchemaDocument.from_xml(text)

    def test_accepts_sequence_groups(self):
        text = f"""<xs:schema xmlns:xs="{XS_NS}">
          <xs:complexType name="X">
            <xs:sequence><xs:element name="a" type="A"/></xs:sequence>
          </xs:complexType>
        </xs:schema>"""
        doc = SchemaDocument.from_xml(text)
        assert doc.complex_type("X").child("a").type == "A"


def chain_scheme(types: int) -> str:
    """A scheme of ``types`` complex types, each referencing the next."""
    doc = SchemaDocument()
    doc.add_top_level("root", "T0")
    for index in range(types):
        ctype = ComplexType(f"T{index}")
        if index + 1 < types:
            ctype.add(f"c{index}", f"T{index + 1}")
        doc.add_complex_type(ctype)
    return doc.to_xml()


class TestNameIndex:
    def test_error_messages(self):
        doc = sample_doc()
        with pytest.raises(XMLFormatError, match="duplicate complexType 'CA'"):
            doc.add_complex_type(ComplexType("CA"))
        with pytest.raises(XMLFormatError, match="scheme has no complexType 'BU'"):
            doc.complex_type("BU")

    def test_direct_edits_of_the_type_list_are_seen(self):
        doc = sample_doc()
        assert doc.complex_type("SA1").name == "SA1"
        doc.complex_types = [t for t in doc.complex_types if t.name != "SA1"]
        with pytest.raises(XMLFormatError, match="no complexType 'SA1'"):
            doc.complex_type("SA1")
        first_ca = doc.complex_type("CA")
        doc.complex_types.append(ComplexType("CA"))
        doc.complex_types.append(ComplexType("BU12"))
        # the first type of a name wins, as the scan did
        assert doc.complex_type("CA") is first_ca
        assert doc.complex_type("BU12").name == "BU12"
        del doc.complex_types[-1]
        with pytest.raises(XMLFormatError, match="no complexType 'BU12'"):
            doc.complex_type("BU12")

    def test_parsing_reads_each_name_a_bounded_number_of_times(
        self, monkeypatch
    ):
        # a duplicate check or lookup that scans the list reads ~n^2/2
        # names over n types; the index reads a few per type
        from repro.xmlio import schema_writer

        reads = []

        class CountingType(ComplexType):
            @property
            def name(self):
                reads.append(1)
                return self._name

            @name.setter
            def name(self, value):
                self._name = value

        monkeypatch.setattr(schema_writer, "ComplexType", CountingType)
        per_size = {}
        for types in (500, 1000, 2000):
            text = chain_scheme(types)
            reads.clear()
            doc = SchemaDocument.from_xml(text)
            assert doc.complex_type(f"T{types - 1}").name == f"T{types - 1}"
            per_size[types] = len(reads)
        assert per_size[500] <= 4 * 500
        assert per_size[1000] <= 2.2 * per_size[500]
        assert per_size[2000] <= 2.2 * per_size[1000]
