"""Emulator facade tests: XML in, report out."""

import pytest

from repro.emulator.config import EmulationConfig
from repro.emulator.emulator import SegBusEmulator, emulate
from repro.psdf.flow import FlowCost
from repro.psdf.graph import PSDFGraph
from repro.xmlio.psdf_writer import psdf_to_xml
from repro.xmlio.psm_writer import psm_to_xml


class TestConstruction:
    def test_from_xml_strings(self, mp3_graph, platform_3seg):
        emulator = SegBusEmulator(
            psdf_to_xml(mp3_graph, 36), psm_to_xml(platform_3seg)
        )
        assert emulator.spec.segment_count == 3
        assert len(emulator.application) == 15

    def test_from_files(self, mp3_graph, platform_3seg, tmp_path):
        psdf = tmp_path / "psdf.xml"
        psm = tmp_path / "psm.xml"
        psdf.write_text(psdf_to_xml(mp3_graph, 36))
        psm.write_text(psm_to_xml(platform_3seg))
        emulator = SegBusEmulator.from_files(psdf, psm)
        assert emulator.run().segment_count == 3

    def test_communication_matrix_built(self, emulator_3seg):
        # section 3.5: the emulator builds the matrix from the PSDF
        assert emulator_3seg.communication_matrix["P0", "P1"] == 576

    def test_run_is_cached(self, mp3_graph, platform_3seg):
        emulator = SegBusEmulator.from_models(mp3_graph, platform_3seg)
        assert emulator.run() is emulator.run()


class TestCostPreservation:
    def graph(self):
        return PSDFGraph.from_edges(
            [("A", "B", 72, 1, FlowCost(c_fixed=10, c_item=5))]
        )

    def platform(self, package_size):
        from repro.model.builder import uniform_platform

        builder = uniform_platform(1, frequency_mhz=100, package_size=package_size)
        builder.place("A", 1).place("B", 1)
        return builder.build()

    def test_preserved_costs_reevaluate(self):
        emulator = SegBusEmulator.from_models(self.graph(), self.platform(18))
        flow = emulator.application.flow("A", "B")
        assert flow.ticks_per_package(18) == 100   # 10 + 5*18
        assert flow.ticks_per_package(36) == 190   # cost model survived

    def test_flattened_costs_freeze_c(self):
        emulator = SegBusEmulator.from_models(
            self.graph(), self.platform(18), preserve_costs=False
        )
        flow = emulator.application.flow("A", "B")
        assert flow.ticks_per_package(18) == 100
        assert flow.ticks_per_package(36) == 100  # constant after roundtrip


class TestProcessNames:
    def test_processes_named_like_arbiters_or_bus_emulate(self):
        from repro.model.mapping import Allocation, map_application

        graph = PSDFGraph.from_edges(
            [("P0", "SAmple", 72, 1, 50), ("SAmple", "BUffer", 72, 2, 50)]
        )
        psm = map_application(
            graph,
            Allocation.from_groups([["P0", "BUffer"], ["SAmple"]]),
            segment_frequencies_mhz=[100, 100],
            ca_frequency_mhz=120,
            package_size=36,
        )
        emulator = SegBusEmulator.from_models(graph, psm.platform)
        assert emulator.spec.placement == {"P0": 1, "BUffer": 1, "SAmple": 2}
        report = emulator.run(strict=True)
        assert report.digest() == SegBusEmulator(
            psdf_to_xml(graph, 36), psm_to_xml(psm.platform)
        ).run().digest()


class TestOneShot:
    def test_emulate_runs(self, mp3_graph, platform_1seg):
        report = emulate(mp3_graph, platform_1seg)
        assert report.segment_count == 1
        assert report.bu_results == ()

    def test_emulate_with_config(self, mp3_graph, platform_1seg):
        fast = emulate(mp3_graph, platform_1seg)
        slow = emulate(
            mp3_graph, platform_1seg, config=EmulationConfig.reference()
        )
        assert slow.execution_time_fs > fast.execution_time_fs

    def test_deterministic_across_runs(self, mp3_graph, platform_3seg):
        a = emulate(mp3_graph, platform_3seg)
        b = emulate(mp3_graph, platform_3seg)
        assert a.execution_time_fs == b.execution_time_fs
        assert a.ca_tct == b.ca_tct
        assert [s.tct for s in a.sa_results] == [s.tct for s in b.sa_results]
