"""Emulation-validated placement tests."""

import pytest

from repro.apps.mp3 import paper_allocation, paper_platform
from repro.emulator.emulator import emulate
from repro.placement.placetool import EmulatedPlacementResult, PlaceTool
from repro.psdf.generators import fork_join_psdf


class TestSolveEmulated:
    @pytest.fixture(scope="class")
    def result(self, mp3_graph):
        return PlaceTool().solve_emulated(
            mp3_graph, 3,
            segment_frequencies_mhz=[91, 98, 89],
            ca_frequency_mhz=111,
        )

    def test_returns_feasible_placement(self, result, mp3_graph):
        assert isinstance(result, EmulatedPlacementResult)
        assert set(result.placement) == set(mp3_graph.process_names)
        assert set(result.placement.values()) == {1, 2, 3}

    def test_evaluates_multiple_candidates(self, result):
        assert result.candidates_evaluated > 1

    def test_pinned_winner(self, result):
        # the base solve plus its 8 cheapest single moves, all emulated
        assert result.candidates_evaluated == 9
        assert result.execution_time_us == 452.927927475
        assert result.proxy_cost == 1250
        assert str(result.allocation()) == (
            "P5 P6 P7 P12 P13 P14 || P0 P1 P2 P3 P8 P9 P10 P11 || P4"
        )

    def test_not_worse_than_paper_allocation(self, result, mp3_graph):
        paper = emulate(mp3_graph, paper_platform(3))
        assert result.execution_time_us <= paper.execution_time_us + 1e-6

    def test_allocation_roundtrip(self, result):
        allocation = result.allocation()
        assert allocation.segment_count == 3
        assert allocation.placement() == result.placement

    def test_small_workload(self):
        graph = fork_join_psdf(3, items_per_worker=108)
        result = PlaceTool().solve_emulated(
            graph, 2,
            segment_frequencies_mhz=[100, 100],
            ca_frequency_mhz=120,
            neighbourhood=4,
        )
        assert result.execution_time_us > 0
        assert result.candidates_evaluated <= 5
