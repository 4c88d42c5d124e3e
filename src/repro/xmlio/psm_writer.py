"""M2T transformation of PSM models into XML schemes.

Follows the paper's PSM snippet (section 3.4): the platform complex type
lists its segments, the CA and the BUs; each segment complex type lists its
left/right BUs, the mapped processes and its arbiter::

    <xs:complexType name="SBP">
      <xs:all>
        <xs:element name="segment1" type="Segment1"/>
        ...
        <xs:element name="ca" type="CA"/>
        <xs:element name="bu12" type="BU12"/>
      </xs:all>
    </xs:complexType>
    <xs:complexType name="Segment1">
      <xs:all>
        <xs:element name="buRight" type="BU23"/>
        <xs:element name="p5" type="P5"/>
        ...
        <xs:element name="arbiter" type="SA1"/>
      </xs:all>
    </xs:complexType>

Numeric platform parameters (clock frequencies, package size, FIFO depths)
are emitted as dedicated complex types (``CA``, ``SAx``, ``BUxy``) whose
children carry ``<name>_<value>`` entries, keeping the whole configuration
inside the scheme.
"""

from __future__ import annotations

from repro.model.elements import SegBusPlatform
from repro.xmlio.schema_writer import ComplexType, SchemaDocument, check_xml_text

PARAM_TYPE = "Parameter"
PROCESS_REF_TYPE_PREFIX = ""


def _bu_type_name(left: int, right: int) -> str:
    return f"BU{left}{right}"


def psm_to_schema(platform: SegBusPlatform) -> SchemaDocument:
    """Build the scheme document for a platform model.

    Raises :class:`~repro.errors.XMLFormatError` for a platform, process,
    master or slave name that XML 1.0 cannot carry.
    """
    doc = SchemaDocument()
    root = ComplexType(name=check_xml_text(platform.name, "PSM platform name"))
    for segment in platform.segments:
        root.add(f"segment{segment.index}", f"Segment{segment.index}")
    root.add("ca", "CA")
    for bu in platform.border_units:
        type_name = _bu_type_name(bu.left, bu.right)
        root.add(type_name.lower(), type_name)
    root.add(f"packageSize_{platform.package_size}", PARAM_TYPE)
    doc.add_complex_type(root)
    doc.add_top_level(platform.name.lower(), platform.name)

    ca = platform.central_arbiter
    ca_type = ComplexType(name="CA")
    if ca is not None:
        ca_type.add(f"frequencyMHz_{_format_mhz(ca.frequency.mhz)}", PARAM_TYPE)
    doc.add_complex_type(ca_type)

    for segment in platform.segments:
        seg_type = ComplexType(name=f"Segment{segment.index}")
        for bu in platform.border_units:
            if bu.right == segment.index:
                seg_type.add("buLeft", _bu_type_name(bu.left, bu.right))
            if bu.left == segment.index:
                seg_type.add("buRight", _bu_type_name(bu.left, bu.right))
        for fu in segment.fus:
            check_xml_text(fu.process, "process name")
            seg_type.add(fu.process.lower(), fu.process)
        seg_type.add("arbiter", f"SA{segment.index}")
        seg_type.add(
            f"frequencyMHz_{_format_mhz(segment.frequency.mhz)}", PARAM_TYPE
        )
        doc.add_complex_type(seg_type)

        sa_type = ComplexType(name=f"SA{segment.index}")
        sa_type.add(f"policy_{segment.arbiter.policy}", PARAM_TYPE)
        doc.add_complex_type(sa_type)

        for fu in segment.fus:
            fu_type = ComplexType(name=fu.process)
            for master in fu.masters:
                fu_type.add(check_xml_text(master.name, "master name"), "Master")
            for slave in fu.slaves:
                fu_type.add(check_xml_text(slave.name, "slave name"), "Slave")
            doc.add_complex_type(fu_type)

    for bu in platform.border_units:
        bu_type = ComplexType(name=_bu_type_name(bu.left, bu.right))
        bu_type.add(f"depth_{bu.depth}", PARAM_TYPE)
        doc.add_complex_type(bu_type)

    return doc


def _format_mhz(mhz: float) -> str:
    """Frequency formatting that survives the underscore codec losslessly.

    Values use a dot decimal separator only if needed; the parser accepts
    both integral and fractional forms.
    """
    if float(mhz).is_integer():
        return str(int(mhz))
    return repr(float(mhz))


def psm_to_xml(platform: SegBusPlatform) -> str:
    """Serialize ``platform`` to its XML scheme string (the M2T output)."""
    return psm_to_schema(platform).to_xml()
