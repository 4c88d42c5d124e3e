"""PSM writer + parser tests."""

import pytest

from repro.errors import XMLFormatError
from repro.model.builder import PlatformBuilder
from repro.xmlio.psm_parser import parse_psm_xml
from repro.xmlio.psm_writer import psm_to_schema, psm_to_xml


@pytest.fixture
def platform():
    p = (
        PlatformBuilder("SBP", package_size=36)
        .segment(frequency_mhz=91)
        .segment(frequency_mhz=98)
        .segment(frequency_mhz=89)
        .central_arbiter(frequency_mhz=111)
        .auto_border_units()
        .place("P0", 1)
        .place("P1", 2)
        .place("P4", 3)
        .build()
    )
    p.fu_of_process("P0").add_master()
    p.fu_of_process("P1").add_master()
    p.fu_of_process("P1").add_slave()
    p.fu_of_process("P4").add_slave()
    return p


class TestWriter:
    def test_platform_type_lists_structure(self, platform):
        root = psm_to_schema(platform).complex_type("SBP")
        names = [c.name for c in root.children]
        assert "segment1" in names and "segment3" in names
        assert "ca" in names
        assert "bu12" in names and "bu23" in names

    def test_segment_type_contains_processes_and_arbiter(self, platform):
        seg1 = psm_to_schema(platform).complex_type("Segment1")
        assert seg1.child("p0").type == "P0"
        assert seg1.child("arbiter").type == "SA1"

    def test_segment_bu_sides(self, platform):
        doc = psm_to_schema(platform)
        seg2 = doc.complex_type("Segment2")
        assert seg2.child("buLeft").type == "BU12"
        assert seg2.child("buRight").type == "BU23"
        seg1 = doc.complex_type("Segment1")
        assert seg1.child("buRight").type == "BU12"
        with pytest.raises(XMLFormatError):
            seg1.child("buLeft")

    def test_fu_endpoints_serialized(self, platform):
        doc = psm_to_schema(platform)
        p1 = doc.complex_type("P1")
        types = {c.type for c in p1.children}
        assert types == {"Master", "Slave"}


class TestParser:
    def test_roundtrip_structure(self, platform):
        parsed = parse_psm_xml(psm_to_xml(platform))
        assert parsed.segment_count == 3
        assert parsed.package_size == 36
        assert parsed.ca_frequency_mhz == pytest.approx(111)
        assert parsed.segment_frequencies_mhz == {1: 91.0, 2: 98.0, 3: 89.0}
        assert parsed.placement == {"P0": 1, "P1": 2, "P4": 3}
        assert parsed.bu_pairs == ((1, 2), (2, 3))

    def test_roundtrip_policies_and_depths(self, platform):
        parsed = parse_psm_xml(psm_to_xml(platform))
        assert parsed.sa_policies == {1: "round-robin", 2: "round-robin", 3: "round-robin"}
        assert parsed.bu_depths == {(1, 2): 1, (2, 3): 1}

    def test_roundtrip_endpoints(self, platform):
        parsed = parse_psm_xml(psm_to_xml(platform))
        assert len(parsed.masters_of["P1"]) == 1
        assert len(parsed.slaves_of["P1"]) == 1
        assert "P0" not in parsed.slaves_of

    def test_to_platform_rebuilds_model(self, platform):
        rebuilt = parse_psm_xml(psm_to_xml(platform)).to_platform()
        assert rebuilt.segment_count == 3
        assert rebuilt.package_size == 36
        assert rebuilt.process_placement() == platform.process_placement()
        assert len(rebuilt.fu_of_process("P1").masters) == 1

    def test_fractional_frequency_roundtrips(self):
        p = (
            PlatformBuilder()
            .segment(frequency_mhz=89.25)
            .central_arbiter(frequency_mhz=110.5)
            .place("P0", 1)
            .build()
        )
        p.fu_of_process("P0").add_slave()
        parsed = parse_psm_xml(psm_to_xml(p))
        assert parsed.segment_frequencies_mhz[1] == pytest.approx(89.25)
        assert parsed.ca_frequency_mhz == pytest.approx(110.5)

    def test_rejects_missing_package_size(self, platform):
        text = psm_to_xml(platform).replace("packageSize_36", "irrelevant_1")
        with pytest.raises(XMLFormatError, match="packageSize"):
            parse_psm_xml(text)

    def test_rejects_missing_ca_frequency(self, platform):
        text = psm_to_xml(platform).replace("frequencyMHz_111", "other_0")
        with pytest.raises(XMLFormatError, match="frequencyMHz"):
            parse_psm_xml(text)

    def test_rejects_duplicate_placement(self, platform):
        text = psm_to_xml(platform).replace(
            '<xs:element name="p4" type="P4"', '<xs:element name="p0b" type="P0"'
        )
        with pytest.raises(XMLFormatError):
            parse_psm_xml(text)

    def test_processes_named_like_arbiters_or_bus_are_placed(self):
        # only SA<i> of a declared segment is an arbiter and only a root BU
        # type a BU reference: SAmple and BUffer are processes
        p = (
            PlatformBuilder()
            .segment(frequency_mhz=91)
            .segment(frequency_mhz=98)
            .central_arbiter(frequency_mhz=111)
            .auto_border_units()
            .place("P0", 1)
            .place("BUffer", 1)
            .place("SAmple", 2)
            .arbitration_policy(2, "fixed-priority")
            .build()
        )
        p.fu_of_process("SAmple").add_master()
        parsed = parse_psm_xml(psm_to_xml(p))
        assert parsed.placement == {"P0": 1, "BUffer": 1, "SAmple": 2}
        assert parsed.sa_policies == {1: "round-robin", 2: "fixed-priority"}
        assert len(parsed.masters_of["SAmple"]) == 1

    @pytest.mark.parametrize(
        "old, new",
        [("Segment2", "Segment" + chr(0xB2)), ("BU12", "BU" + chr(0xB9) + chr(0xB2))],
    )
    def test_non_decimal_digits_are_a_format_error(self, platform, old, new):
        # superscript digits pass str.isdigit() but not int()
        text = psm_to_xml(platform).replace(old, new)
        with pytest.raises(XMLFormatError, match="cannot extract"):
            parse_psm_xml(text)

    def test_paper_platform_roundtrips(self, platform_3seg):
        parsed = parse_psm_xml(psm_to_xml(platform_3seg))
        assert parsed.segment_count == 3
        assert len(parsed.placement) == 15
