"""Estimator-pruned placement tests (rank wide, emulate narrow)."""

import pytest

from repro.apps.mp3 import paper_platform
from repro.emulator.emulator import emulate
from repro.placement.placetool import EstimatedPlacementResult, PlaceTool
from repro.psdf.generators import fork_join_psdf


class TestSolveEstimated:
    @pytest.fixture(scope="class")
    def result(self, mp3_graph):
        return PlaceTool().solve_estimated(
            mp3_graph, 3,
            segment_frequencies_mhz=[91, 98, 89],
            ca_frequency_mhz=111,
        )

    def test_returns_feasible_placement(self, result, mp3_graph):
        assert isinstance(result, EstimatedPlacementResult)
        assert set(result.placement) == set(mp3_graph.process_names)
        assert set(result.placement.values()) == {1, 2, 3}

    def test_estimates_wide_emulates_narrow(self, result):
        # the budget split this method exists for
        assert result.candidates_estimated > result.candidates_emulated
        assert result.candidates_emulated <= 4  # the default confirm

    def test_pinned_winner(self, result):
        # same winner as solve_emulated, from 29 estimates and 4 emulations
        assert (result.candidates_estimated, result.candidates_emulated) == (29, 4)
        assert result.execution_time_us == 452.927927475
        assert result.proxy_cost == 1250
        assert str(result.allocation()) == (
            "P5 P6 P7 P12 P13 P14 || P0 P1 P2 P3 P8 P9 P10 P11 || P4"
        )

    def test_winner_carries_both_numbers(self, result):
        assert result.execution_time_us > 0
        assert result.estimated_us > 0
        # the estimator overshoots the emulated truth by design
        # (contention model), never wildly: same order of magnitude
        ratio = result.estimated_us / result.execution_time_us
        assert 0.5 < ratio < 2.0

    def test_not_worse_than_paper_allocation(self, result, mp3_graph):
        paper = emulate(mp3_graph, paper_platform(3))
        assert result.execution_time_us <= paper.execution_time_us + 1e-6

    def test_allocation_roundtrip(self, result):
        allocation = result.allocation()
        assert allocation.segment_count == 3
        assert allocation.placement() == result.placement

    def test_confirm_must_be_positive(self, mp3_graph):
        with pytest.raises(ValueError, match="confirm"):
            PlaceTool().solve_estimated(
                mp3_graph, 3,
                segment_frequencies_mhz=[91, 98, 89],
                ca_frequency_mhz=111,
                confirm=0,
            )

    def test_small_workload_tracks_solve_emulated(self):
        # on a small neighbourhood both searches can afford ground truth
        # everywhere; the estimator-pruned path must find an equally good
        # placement while emulating fewer candidates
        graph = fork_join_psdf(3, items_per_worker=108)
        kwargs = dict(
            segment_frequencies_mhz=[100, 100], ca_frequency_mhz=120
        )
        emulated = PlaceTool().solve_emulated(
            graph, 2, neighbourhood=4, **kwargs
        )
        estimated = PlaceTool().solve_estimated(
            graph, 2, neighbourhood=4, confirm=2, **kwargs
        )
        assert estimated.candidates_emulated < emulated.candidates_evaluated
        assert estimated.execution_time_us <= (
            emulated.execution_time_us * 1.05
        )
