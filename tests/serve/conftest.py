"""Shared serving fixtures: inline schemes and a cheap service factory."""

from __future__ import annotations

import pytest

from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.serve.service import SegbusService, ServiceConfig
from repro.xmlio.psdf_writer import psdf_to_xml
from repro.xmlio.psm_writer import psm_to_xml


@pytest.fixture(scope="session")
def inline_schemes():
    """(psdf_xml, psm_xml) of the two-segment paper case study."""
    platform = paper_platform(segment_count=2)
    return (
        psdf_to_xml(mp3_decoder_psdf(), platform.package_size),
        psm_to_xml(platform),
    )


@pytest.fixture(scope="session")
def inline_schemes_1seg():
    """A second distinct model so tests can issue unrelated payloads."""
    platform = paper_platform(segment_count=1)
    return (
        psdf_to_xml(mp3_decoder_psdf(), platform.package_size),
        psm_to_xml(platform),
    )


@pytest.fixture
def service_factory():
    """Build services with test-sized knobs; stop them all at teardown."""
    built = []

    def make(**overrides) -> SegbusService:
        kwargs = dict(workers=1, queue_depth=64)
        auto_start = overrides.pop("auto_start", True)
        chaos = overrides.pop("chaos", None)
        kwargs.update(overrides)
        service = SegbusService(
            ServiceConfig(**kwargs), chaos=chaos, auto_start=auto_start
        )
        built.append(service)
        return service

    yield make
    for service in built:
        service.stop()
