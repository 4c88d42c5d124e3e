"""Emulator-side parsing of PSM XML schemes.

The emulator extracts *"the number of segments in the platform, the number
of border units based on platform geometry, and the placement of application
processes on different segments"* (section 3.5) — plus, in our scheme
dialect, the clock frequencies, package size, arbitration policies and BU
FIFO depths that the writer embedded as ``<name>_<value>`` parameter
entries.  The parse mirrors the paper's procedure: first locate the platform
instance, count its segments and BUs, then walk each segment type to recover
the placement (:class:`SegmentChildRoles` tells its arbiter, BU references
and FUs apart).

:func:`parse_psm_schema` reads a scheme document; :func:`parse_psm_xml` is
the same parse behind :meth:`SchemaDocument.from_xml
<repro.xmlio.schema_writer.SchemaDocument.from_xml>`, for scheme text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import XMLFormatError
from repro.model.builder import PlatformBuilder
from repro.model.elements import SegBusPlatform
from repro.xmlio.psm_writer import PARAM_TYPE
from repro.xmlio.schema_check import assert_scheme_valid
from repro.xmlio.schema_writer import ComplexType, SchemaDocument

#: roles of a segment type's children (:meth:`SegmentChildRoles.role`)
ROLE_PARAMETER = "parameter"
ROLE_ARBITER = "arbiter"
ROLE_BU = "bu"
ROLE_FU = "fu"


@dataclass(frozen=True)
class SegmentChildRoles:
    """What each child of a PSM segment type is, by the platform root.

    A child is a parameter entry if its type is ``Parameter``, the arbiter
    only if its type is ``SA<i>`` for a segment ``i`` the root declares, a
    BU reference only if its type is one of the root's BU types, and an
    FU (a placed process) otherwise — so processes named ``SAmple`` or
    ``BUffer`` are FUs.  The parser and the ``SB405``/``SB406`` lint rules
    both decide through this class.
    """

    arbiter_types: FrozenSet[str]
    bu_types: FrozenSet[str]

    @classmethod
    def of_root(cls, root: ComplexType) -> "SegmentChildRoles":
        arbiters = set()
        border_units = set()
        for entry in root.children:
            if entry.type.startswith("Segment"):
                digits = entry.type[len("Segment"):]
                if digits.isdecimal():
                    arbiters.add(f"SA{int(digits)}")
            elif entry.type.startswith("BU"):
                border_units.add(entry.type)
        return cls(frozenset(arbiters), frozenset(border_units))

    def role(self, type_name: str) -> str:
        if type_name == PARAM_TYPE:
            return ROLE_PARAMETER
        if type_name in self.arbiter_types:
            return ROLE_ARBITER
        if type_name in self.bu_types:
            return ROLE_BU
        return ROLE_FU


@dataclass
class ParsedPSM:
    """The platform structure the emulator extracts from a PSM scheme."""

    name: str
    package_size: int
    segment_frequencies_mhz: Dict[int, float]
    ca_frequency_mhz: float
    placement: Dict[str, int]
    bu_pairs: Tuple[Tuple[int, int], ...]
    bu_depths: Dict[Tuple[int, int], int] = field(default_factory=dict)
    sa_policies: Dict[int, str] = field(default_factory=dict)
    masters_of: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    slaves_of: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def segment_count(self) -> int:
        return len(self.segment_frequencies_mhz)

    def to_platform(self) -> SegBusPlatform:
        """Rebuild the :class:`SegBusPlatform` object model."""
        builder = PlatformBuilder(name=self.name, package_size=self.package_size)
        for index in sorted(self.segment_frequencies_mhz):
            builder.segment(frequency_mhz=self.segment_frequencies_mhz[index], index=index)
        builder.central_arbiter(frequency_mhz=self.ca_frequency_mhz)
        for left, right in self.bu_pairs:
            builder.border_unit(left, right, depth=self.bu_depths.get((left, right), 1))
        builder.place_all(self.placement)
        for index, policy in self.sa_policies.items():
            builder.arbitration_policy(index, policy)
        platform = builder.build()
        for process, names in self.masters_of.items():
            fu = platform.fu_of_process(process)
            for name in names:
                fu.add_master(name)
        for process, names in self.slaves_of.items():
            fu = platform.fu_of_process(process)
            for name in names:
                fu.add_slave(name)
        return platform


def _split_param(name: str, owner: str) -> Tuple[str, str]:
    if "_" not in name:
        raise XMLFormatError(
            f"{owner}: parameter entry {name!r} is not '<name>_<value>'"
        )
    key, value = name.rsplit("_", 1)
    return key, value


def parse_psm_xml(text: str) -> ParsedPSM:
    """Parse the XML scheme produced by :func:`repro.xmlio.psm_writer.psm_to_xml`."""
    return parse_psm_schema(SchemaDocument.from_xml(text))


def parse_psm_schema(doc: SchemaDocument) -> ParsedPSM:
    """Parse a PSM scheme document, such as :func:`psm_to_schema
    <repro.xmlio.psm_writer.psm_to_schema>` builds.

    Raises :class:`~repro.errors.XMLFormatError` on malformed schemes.
    """
    assert_scheme_valid(doc)
    if not doc.top_level:
        raise XMLFormatError("PSM scheme has no top-level element")
    root_type_name = doc.top_level[0].type
    root = doc.complex_type(root_type_name)

    package_size: Optional[int] = None
    segment_types: List[str] = []
    bu_pairs: List[Tuple[int, int]] = []
    has_ca = False
    for entry in root.children:
        if entry.type == PARAM_TYPE:
            key, value = _split_param(entry.name, root_type_name)
            if key == "packageSize":
                package_size = _int(value, "packageSize")
        elif entry.type.startswith("Segment"):
            segment_types.append(entry.type)
        elif entry.type == "CA":
            has_ca = True
        elif entry.type.startswith("BU"):
            bu_pairs.append(_bu_pair(entry.type))
        else:
            raise XMLFormatError(
                f"platform {root_type_name!r}: unexpected child type {entry.type!r}"
            )
    if package_size is None:
        raise XMLFormatError("PSM scheme does not declare a packageSize parameter")
    if not has_ca:
        raise XMLFormatError("PSM scheme declares no CA element")

    ca_type = doc.complex_type("CA")
    ca_freq: Optional[float] = None
    for entry in ca_type.children:
        key, value = _split_param(entry.name, "CA")
        if key == "frequencyMHz":
            ca_freq = _float(value, "CA frequencyMHz")
    if ca_freq is None:
        raise XMLFormatError("CA type declares no frequencyMHz parameter")

    segment_frequencies: Dict[int, float] = {}
    placement: Dict[str, int] = {}
    sa_policies: Dict[int, str] = {}
    masters_of: Dict[str, Tuple[str, ...]] = {}
    slaves_of: Dict[str, Tuple[str, ...]] = {}
    roles = SegmentChildRoles.of_root(root)
    for type_name in segment_types:
        index = _segment_index(type_name)
        seg_type = doc.complex_type(type_name)
        freq: Optional[float] = None
        for entry in seg_type.children:
            role = roles.role(entry.type)
            if role == ROLE_PARAMETER:
                key, value = _split_param(entry.name, type_name)
                if key == "frequencyMHz":
                    freq = _float(value, f"{type_name} frequencyMHz")
            elif role == ROLE_ARBITER:
                sa_type = doc.complex_type(entry.type)
                for sa_entry in sa_type.children:
                    key, value = _split_param(sa_entry.name, entry.type)
                    if key == "policy":
                        sa_policies[index] = value
            elif role == ROLE_BU:
                continue  # adjacency is recovered from the platform root
            else:
                process = entry.type
                if process in placement:
                    raise XMLFormatError(
                        f"process {process!r} placed on both segment "
                        f"{placement[process]} and {index}"
                    )
                placement[process] = index
                masters, slaves = _fu_endpoints(doc.complex_type(process))
                if masters:
                    masters_of[process] = masters
                if slaves:
                    slaves_of[process] = slaves
        if freq is None:
            raise XMLFormatError(f"{type_name} declares no frequencyMHz parameter")
        segment_frequencies[index] = freq

    bu_depths: Dict[Tuple[int, int], int] = {}
    for left, right in bu_pairs:
        bu_type = doc.complex_type(f"BU{left}{right}")
        for entry in bu_type.children:
            key, value = _split_param(entry.name, bu_type.name)
            if key == "depth":
                bu_depths[(left, right)] = _int(value, "BU depth")

    return ParsedPSM(
        name=root_type_name,
        package_size=package_size,
        segment_frequencies_mhz=segment_frequencies,
        ca_frequency_mhz=ca_freq,
        placement=placement,
        bu_pairs=tuple(sorted(bu_pairs)),
        bu_depths=bu_depths,
        sa_policies=sa_policies,
        masters_of=masters_of,
        slaves_of=slaves_of,
    )


def _fu_endpoints(fu_type: ComplexType) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    masters: List[str] = []
    slaves: List[str] = []
    for entry in fu_type.children:
        if entry.type == "Master":
            masters.append(entry.name)
        elif entry.type == "Slave":
            slaves.append(entry.name)
        else:
            raise XMLFormatError(
                f"FU type {fu_type.name!r}: unexpected child type {entry.type!r}"
            )
    return tuple(masters), tuple(slaves)


def _segment_index(type_name: str) -> int:
    digits = type_name[len("Segment"):]
    if not digits.isdecimal():
        raise XMLFormatError(f"cannot extract segment index from {type_name!r}")
    return int(digits)


def _bu_pair(type_name: str) -> Tuple[int, int]:
    digits = type_name[len("BU"):]
    if len(digits) < 2 or not digits.isdecimal():
        raise XMLFormatError(f"cannot extract BU pair from {type_name!r}")
    # linear-topology BUs bridge adjacent segments; split so right = left + 1
    for cut in range(1, len(digits)):
        left, right = int(digits[:cut]), int(digits[cut:])
        if right == left + 1:
            return left, right
    raise XMLFormatError(f"BU type {type_name!r} does not bridge adjacent segments")


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
