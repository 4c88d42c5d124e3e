"""Report JSON serialization tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.report import _emit_json


def test_to_dict_structure(report_3seg):
    data = report_3seg.to_dict()
    assert data["application"] == "MP3Decoder"
    assert data["segment_count"] == 3
    assert len(data["segment_arbiters"]) == 3
    assert len(data["border_units"]) == 2
    assert len(data["timeline"]) == 15


def test_dict_matches_report(report_3seg):
    data = report_3seg.to_dict()
    assert data["execution_time_ps"] == report_3seg.execution_time_ps
    assert data["ca"]["tct"] == report_3seg.ca_tct
    bu12 = next(b for b in data["border_units"] if b["name"] == "BU12")
    assert bu12["tct"] == report_3seg.bu(1, 2).tct
    sa2 = next(s for s in data["segment_arbiters"] if s["index"] == 2)
    assert sa2["intra_requests"] == report_3seg.sa(2).intra_requests


def test_json_roundtrips(report_3seg):
    parsed = json.loads(report_3seg.to_json())
    assert parsed == json.loads(json.dumps(report_3seg.to_dict(), sort_keys=True))


def test_timeline_rows_sorted_by_end(report_3seg):
    rows = report_3seg.to_dict()["timeline"]
    ends = [r["end_ps"] for r in rows]
    assert ends == sorted(ends)


def test_json_stable_across_runs(mp3_graph, platform_3seg):
    from repro.emulator.emulator import emulate

    a = emulate(mp3_graph, platform_3seg).to_json()
    b = emulate(mp3_graph, platform_3seg).to_json()
    assert a == b


# -- the digest's JSON text ----------------------------------------------------

# strings full of JSON punctuation, escapes and non-ASCII text
_TEXT = st.text(
    alphabet=st.sampled_from(list('[]{},:"\\\n\t\r abé中\U0001f600\x00\x7f')),
    max_size=12,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    max_leaves=20,
)


def _emitted(value) -> str:
    parts = []
    _emit_json(value, parts)
    return "".join(parts)


def test_digest_text_is_the_indented_json(report_3seg):
    data = report_3seg.to_dict()
    assert _emitted(data) == json.dumps(data, indent=0, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(value=_VALUES)
def test_emitter_matches_the_stdlib_encoder(value):
    assert _emitted(value) == json.dumps(value, indent=0, sort_keys=True)


def test_emitter_refuses_what_json_refuses():
    for bad in ({1: 2, "a": 3}, {(1, 2): 3}, object()):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=0, sort_keys=True)
        with pytest.raises(TypeError):
            _emitted(bad)
