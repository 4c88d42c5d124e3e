"""Process node tests."""

import pytest

from repro.errors import PSDFError
from repro.psdf.process import Process, ProcessKind


def test_default_kind_is_process_node():
    assert Process("P3").kind is ProcessKind.PROCESS


def test_stereotype_strings_match_profile():
    assert Process("P0", ProcessKind.INITIAL).stereotype == "InitialNode"
    assert Process("P3", ProcessKind.PROCESS).stereotype == "ProcessNode"
    assert Process("P14", ProcessKind.FINAL).stereotype == "FinalNode"


def test_description_is_free_text():
    proc = Process("P0", description="frame decoding")
    assert proc.description == "frame decoding"


@pytest.mark.parametrize("bad", ["", "0P", "P_1", "P 1", "P-1", "P1\n"])
def test_rejects_bad_names(bad):
    with pytest.raises(PSDFError):
        Process(bad)


@pytest.mark.parametrize("good", ["P0", "P14", "Source", "W12abc"])
def test_accepts_alnum_names(good):
    assert Process(good).name == good


def test_frozen():
    with pytest.raises(Exception):
        Process("P0").name = "P1"
