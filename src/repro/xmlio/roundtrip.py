"""Write-then-parse round trips of the scheme text, with fidelity checks.

The emulator facade routes model objects through the scheme documents
without writing text (:meth:`SegBusEmulator.from_models
<repro.emulator.emulator.SegBusEmulator.from_models>`); files and served
requests arrive as text.  These helpers check that the text path loses
nothing the models hold — the tests run them over random and paper
models — so a scheme file describes the same system its models do.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import XMLFormatError
from repro.model.elements import SegBusPlatform
from repro.psdf.graph import PSDFGraph
from repro.xmlio.psdf_parser import ParsedPSDF, parse_psdf_xml
from repro.xmlio.psdf_writer import psdf_to_xml
from repro.xmlio.psm_parser import ParsedPSM, parse_psm_xml
from repro.xmlio.psm_writer import psm_to_xml


def psdf_roundtrip(graph: PSDFGraph, package_size: int) -> ParsedPSDF:
    """Serialize and re-parse ``graph``; verify structural fidelity.

    The per-package tick count is compared at ``package_size`` because the
    scheme stores ``C`` evaluated at the platform's package size.
    """
    parsed = parse_psdf_xml(psdf_to_xml(graph, package_size))
    if set(parsed.to_graph().process_names) != set(graph.process_names):
        raise XMLFormatError("PSDF roundtrip lost processes")
    original = {
        (f.source, f.target, f.order): (f.data_items, f.ticks_per_package(package_size))
        for f in graph.flows
    }
    recovered = {
        (f.source, f.target, f.order): (f.data_items, f.ticks_per_package(package_size))
        for f in parsed.flows
    }
    if original != recovered:
        raise XMLFormatError(
            "PSDF roundtrip changed flows: "
            f"lost={sorted(set(original) - set(recovered))} "
            f"gained={sorted(set(recovered) - set(original))}"
        )
    return parsed


def psm_roundtrip(platform: SegBusPlatform) -> ParsedPSM:
    """Serialize and re-parse ``platform``; verify structural fidelity."""
    parsed = parse_psm_xml(psm_to_xml(platform))
    if parsed.package_size != platform.package_size:
        raise XMLFormatError("PSM roundtrip changed package size")
    if parsed.placement != platform.process_placement():
        raise XMLFormatError("PSM roundtrip changed process placement")
    expected_pairs = tuple(sorted((bu.left, bu.right) for bu in platform.border_units))
    if parsed.bu_pairs != expected_pairs:
        raise XMLFormatError("PSM roundtrip changed BU adjacency")
    for segment in platform.segments:
        parsed_mhz = parsed.segment_frequencies_mhz.get(segment.index)
        if parsed_mhz is None or abs(parsed_mhz - segment.frequency.mhz) > 1e-9:
            raise XMLFormatError(
                f"PSM roundtrip changed segment {segment.index} frequency"
            )
    ca = platform.central_arbiter
    if ca is not None and abs(parsed.ca_frequency_mhz - ca.frequency.mhz) > 1e-9:
        raise XMLFormatError("PSM roundtrip changed CA frequency")
    return parsed


def roundtrip_pair(
    graph: PSDFGraph, platform: SegBusPlatform
) -> Tuple[ParsedPSDF, ParsedPSM]:
    """Round-trip application and platform together (the emulation inputs)."""
    return psdf_roundtrip(graph, platform.package_size), psm_roundtrip(platform)
