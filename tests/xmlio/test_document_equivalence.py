"""A scheme document and its XML text are one input: the equivalence oracle.

Model objects reach the emulator as the writers' scheme documents
(:meth:`SegBusEmulator.from_models`); scheme files and served requests reach
it as XML text.  For every model the writers accept, the two paths must
yield the same parse (field by field, dict and tuple order included) and the
same emulation, and a model whose names XML 1.0 cannot carry must be
refused by the writers on both paths alike.
"""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.jpeg import jpeg_decoder_psdf, jpeg_platform
from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.emulator import SegBusEmulator
from repro.errors import SegBusError, XMLFormatError
from repro.model.builder import PlatformBuilder
from repro.model.mapping import map_application
from repro.placement.placetool import PlaceTool
from repro.psdf.generators import random_dag_psdf
from repro.psdf.graph import PSDFGraph
from repro.testing.generators import (
    ADVERSARIAL_SHAPES,
    DEFAULT_PROFILE,
    GeneratorProfile,
    generate_adversarial_model,
    generate_model,
)
from repro.xmlio import (
    SchemaDocument,
    parse_psdf_schema,
    parse_psdf_xml,
    parse_psm_schema,
    parse_psm_xml,
    psdf_to_schema,
    psdf_to_xml,
    psm_to_schema,
    psm_to_xml,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "models"

#: the larger random family of perfbench's corpus
LARGE_PROFILE = GeneratorProfile(min_processes=10, max_processes=16, max_segments=4)


def _generated(seed, profile):
    model = generate_model(seed, profile)
    return model.application, model.platform


def _adversarial(shape):
    model = generate_adversarial_model(2026, shape)
    return model.application, model.platform


def _mp3_4seg():
    application = mp3_decoder_psdf()
    psm = map_application(
        application,
        PlaceTool().solve(application, 4).allocation(),
        segment_frequencies_mhz=[91, 98, 89, 95],
        ca_frequency_mhz=111,
        package_size=36,
        name="SBP",
    )
    return application, psm.platform


def _example(psm_file):
    psdf = parse_psdf_xml((EXAMPLES / "mp3_psdf.xml").read_text(encoding="utf-8"))
    psm = parse_psm_xml((EXAMPLES / psm_file).read_text(encoding="utf-8"))
    return psdf.to_graph(), psm.to_platform()


CORPUS = {
    **{
        f"default-{seed}": (lambda seed=seed: _generated(seed, DEFAULT_PROFILE))
        for seed in range(1, 9)
    },
    **{
        f"large-{seed}": (lambda seed=seed: _generated(seed, LARGE_PROFILE))
        for seed in range(1, 5)
    },
    **{
        f"adversarial-{shape}": (lambda shape=shape: _adversarial(shape))
        for shape in ADVERSARIAL_SHAPES
    },
    **{
        f"mp3-{n}seg": (lambda n=n: (mp3_decoder_psdf(), paper_platform(n)))
        for n in (1, 2, 3)
    },
    "mp3-4seg": _mp3_4seg,
    **{
        f"jpeg-{n}seg-s{size}": (
            lambda n=n, size=size: (
                jpeg_decoder_psdf(),
                jpeg_platform(n, package_size=size),
            )
        )
        for n, size in ((1, 6), (2, 9), (3, 12), (2, 18), (3, 36))
    },
    "example-2seg": lambda: _example("mp3_psm_2seg.xml"),
    "example-3seg": lambda: _example("mp3_psm_3seg.xml"),
}


def assert_same_fields(from_document, from_text):
    """Equal parses, field by field, with dict entries in the same order."""
    assert type(from_document) is type(from_text)
    for field in dataclasses.fields(from_document):
        a = getattr(from_document, field.name)
        b = getattr(from_text, field.name)
        if isinstance(a, dict):
            assert list(a.items()) == list(b.items()), field.name
        else:
            assert a == b, field.name


def outcome(parse, source):
    """``parse(source)``, or the library error it raised, as a comparable value."""
    try:
        return parse(source)
    except SegBusError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_outcome(parse_schema, parse_xml, doc):
    """The document parse and the parse of the document's text agree."""
    from_document = outcome(parse_schema, doc)
    from_text = outcome(parse_xml, doc.to_xml())
    if isinstance(from_document, tuple):
        assert from_document == from_text
    else:
        assert_same_fields(from_document, from_text)


def xml_carries(text):
    """True if every character is in XML 1.0's ``Char`` production."""
    return all(
        ord(c) in (0x9, 0xA, 0xD)
        or 0x20 <= ord(c) <= 0xD7FF
        or 0xE000 <= ord(c) <= 0xFFFD
        or ord(c) >= 0x10000
        for c in text
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_document_parse_equals_text_parse(name):
    application, platform = CORPUS[name]()
    size = platform.package_size
    assert_same_fields(
        parse_psdf_schema(psdf_to_schema(application, size)),
        parse_psdf_xml(psdf_to_xml(application, size)),
    )
    assert_same_fields(
        parse_psm_schema(psm_to_schema(platform)),
        parse_psm_xml(psm_to_xml(platform)),
    )


@pytest.mark.parametrize("model_costs", [True, False])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_from_models_emulates_what_the_text_carries(name, model_costs):
    application, platform = CORPUS[name]()
    text = SegBusEmulator(
        psdf_to_xml(application, platform.package_size), psm_to_xml(platform)
    )
    if not model_costs:
        # the graph the text carries: every C frozen at the package size
        application = text.application
    documents = SegBusEmulator.from_models(application, platform)
    costs = {(f.source, f.target, f.order): f.cost for f in application.flows}
    expected = [
        dataclasses.replace(f, cost=costs[(f.source, f.target, f.order)])
        for f in text.application.flows
    ]
    assert list(documents.application.flows) == expected
    assert documents.application.processes == text.application.processes
    assert documents.application.name == text.application.name
    assert documents.spec == text.spec
    assert documents.communication_matrix.names == text.communication_matrix.names
    assert (
        documents.communication_matrix.array == text.communication_matrix.array
    ).all()
    assert documents.run().digest() == text.run().digest()


@pytest.mark.parametrize("psm_file", ["mp3_psm_2seg.xml", "mp3_psm_3seg.xml"])
def test_example_files_emulate_as_their_models(psm_file):
    from_files = SegBusEmulator.from_files(
        EXAMPLES / "mp3_psdf.xml", EXAMPLES / psm_file
    )
    application, platform = _example(psm_file)
    rewritten = SegBusEmulator(
        psdf_to_xml(application, platform.package_size), psm_to_xml(platform)
    )
    assert rewritten.run().digest() == from_files.run().digest()
    from_models = SegBusEmulator.from_models(application, platform)
    assert from_models.run().digest() == from_files.run().digest()


#: any code point, surrogates and non-characters included
ANY_NAME = st.text(st.characters(blacklist_categories=()), min_size=1, max_size=10)


@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=999),
    size=st.sampled_from([9, 18, 36]),
    name=ANY_NAME,
)
@settings(max_examples=80, deadline=None)
def test_psdf_writer_accepts_exactly_what_its_text_carries(n, seed, size, name):
    base = random_dag_psdf(n, seed=seed)
    graph = PSDFGraph(base.processes, base.flows, name=name)
    if not xml_carries(name):
        with pytest.raises(XMLFormatError, match="PSDF graph name"):
            psdf_to_schema(graph, size)
        return
    try:
        doc = psdf_to_schema(graph, size)
    except XMLFormatError:
        # a name clashing with a process type: refused before any text
        assume(False)
    assert SchemaDocument.from_xml(doc.to_xml()) == doc
    assert_same_outcome(parse_psdf_schema, parse_psdf_xml, doc)


@given(
    platform_name=ANY_NAME,
    processes=st.lists(ANY_NAME, min_size=1, max_size=4, unique=True),
    endpoints=st.lists(ANY_NAME, max_size=3),
    segments=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_psm_writer_accepts_exactly_what_its_text_carries(
    platform_name, processes, endpoints, segments
):
    segments = min(segments, len(processes))
    builder = PlatformBuilder(platform_name, package_size=36)
    for index in range(1, segments + 1):
        builder.segment(frequency_mhz=90 + index, index=index)
    builder.central_arbiter(frequency_mhz=111).auto_border_units()
    try:
        for i, process in enumerate(processes):
            builder.place(process, i % segments + 1)
        platform = builder.build()
    except SegBusError:
        assume(False)
    fu = platform.fu_of_process(processes[0])
    for i, endpoint in enumerate(endpoints):
        (fu.add_master if i % 2 == 0 else fu.add_slave)(endpoint)
    names = [platform_name, *processes, *endpoints]
    if not all(xml_carries(name) for name in names):
        # refused by the field check, or earlier by a name clash
        with pytest.raises(XMLFormatError):
            psm_to_schema(platform)
        return
    try:
        doc = psm_to_schema(platform)
    except XMLFormatError:
        # a name clashing with a generated type: refused before any text
        assume(False)
    assert SchemaDocument.from_xml(doc.to_xml()) == doc
    assert_same_outcome(parse_psm_schema, parse_psm_xml, doc)


class TestNamesTheWritersRefuse:
    """XML 1.0 cannot carry these characters at all: the writers refuse
    them by field, so neither path ever sees a scheme it cannot read."""

    BAD_GRAPH_NAMES = ["mp3" + chr(0x01) + "x", "mp3" + chr(0xFFFE), "mp3" + chr(0xD800)]

    @pytest.mark.parametrize("name", BAD_GRAPH_NAMES)
    def test_graph_name(self, mp3_graph, name):
        graph = PSDFGraph(mp3_graph.processes, mp3_graph.flows, name=name)
        with pytest.raises(XMLFormatError, match="PSDF graph name"):
            psdf_to_xml(graph, 36)
        with pytest.raises(XMLFormatError, match="PSDF graph name"):
            SegBusEmulator.from_models(graph, paper_platform(3))

    def test_platform_name(self, mp3_graph):
        platform = paper_platform(3)
        platform.name = "SBP" + chr(0x02)
        with pytest.raises(XMLFormatError, match="PSM platform name"):
            psm_to_xml(platform)
        with pytest.raises(XMLFormatError, match="PSM platform name"):
            SegBusEmulator.from_models(mp3_graph, platform)

    def test_endpoint_name(self):
        platform = (
            PlatformBuilder("SBP").segment(frequency_mhz=100)
            .central_arbiter(frequency_mhz=100).place("A", 1).build()
        )
        platform.fu_of_process("A").add_master("m" + chr(0x1F))
        with pytest.raises(XMLFormatError, match="master name"):
            psm_to_xml(platform)

    @pytest.mark.parametrize(
        "name",
        [
            "mp3" + chr(0x09) + "x",
            "mp3" + chr(0x0A) + "x",
            "mp3" + chr(0x0D) + "x",
            "<&\"'",
            "MP3-d" + chr(0xE9) + "codeur " + chr(0x97F3) + chr(0x1F3B5),
        ],
    )
    def test_names_xml_carries_round_trip(self, mp3_graph, name):
        graph = PSDFGraph(mp3_graph.processes, mp3_graph.flows, name=name)
        assert parse_psdf_xml(psdf_to_xml(graph, 36)).name == name
        platform = paper_platform(3)
        platform.name = name
        assert parse_psm_xml(psm_to_xml(platform)).name == name
        assert (
            SegBusEmulator.from_models(graph, platform).run().digest()
            == SegBusEmulator(psdf_to_xml(graph, 36), psm_to_xml(platform))
            .run()
            .digest()
        )
