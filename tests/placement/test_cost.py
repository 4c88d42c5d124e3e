"""Placement cost-model tests."""

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.placement.cost import balance_penalty, objective, placement_cost
from repro.psdf.graph import PSDFGraph
from repro.psdf.matrix import CommunicationMatrix, build_communication_matrix


@pytest.fixture
def matrix():
    graph = PSDFGraph.from_edges(
        [("A", "B", 100, 1, 10), ("B", "C", 10, 2, 10)]
    )
    return build_communication_matrix(graph)


class TestPlacementCost:
    def test_zero_when_together(self, matrix):
        assert placement_cost(matrix, {"A": 1, "B": 1, "C": 1}, 3) == 0

    def test_counts_cut_traffic(self, matrix):
        assert placement_cost(matrix, {"A": 1, "B": 2, "C": 2}, 2) == 100

    def test_hop_weighting(self, matrix):
        near = placement_cost(matrix, {"A": 1, "B": 2, "C": 2}, 3)
        far = placement_cost(matrix, {"A": 1, "B": 3, "C": 3}, 3)
        assert far == 2 * near

    def test_missing_process_rejected(self, matrix):
        with pytest.raises(PlacementError):
            placement_cost(matrix, {"A": 1, "B": 1}, 2)

    def test_out_of_range_segment_rejected(self, matrix):
        with pytest.raises(PlacementError):
            placement_cost(matrix, {"A": 1, "B": 1, "C": 5}, 2)

    def test_bad_segment_count_rejected(self, matrix):
        with pytest.raises(PlacementError):
            placement_cost(matrix, {"A": 1, "B": 1, "C": 1}, 0)


class TestBalancePenalty:
    def test_zero_for_even_split(self):
        assert balance_penalty({"A": 1, "B": 2}, 2) == 0

    def test_positive_for_skew(self):
        assert balance_penalty({"A": 1, "B": 1, "C": 1, "D": 2}, 2) > 0

    @pytest.mark.parametrize(
        "placement, message",
        [
            # segment 0 used to be counted as the last segment
            ({"A": 0, "B": 1}, "process 'A' placed on segment 0, outside 1..2"),
            ({"A": -1, "B": 1, "C": 1}, "segment -1, outside 1..2"),
            ({"A": 3, "B": 1}, "segment 3, outside 1..2"),
        ],
    )
    def test_out_of_range_segment_rejected(self, placement, message):
        with pytest.raises(PlacementError, match=message):
            balance_penalty(placement, 2)

    def test_bad_segment_count_rejected(self):
        with pytest.raises(PlacementError, match="segment count must be >= 1, got 0"):
            balance_penalty({"A": 1}, 0)

    def test_weight_scales(self):
        placement = {"A": 1, "B": 1, "C": 2, "D": 1}
        assert balance_penalty(placement, 2, weight=3) == 3 * balance_penalty(
            placement, 2, weight=1
        )


class TestObjective:
    def test_sums_components(self, matrix):
        placement = {"A": 1, "B": 2, "C": 2}
        assert objective(matrix, placement, 2) == placement_cost(
            matrix, placement, 2
        ) + balance_penalty(placement, 2)
