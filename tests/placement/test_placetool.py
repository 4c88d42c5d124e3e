"""PlaceTool facade tests."""

import pytest

from repro.placement.cost import objective
from repro.placement.exhaustive import exhaustive_placement
from repro.placement.placetool import PlaceTool
from repro.psdf.generators import random_dag_psdf
from repro.psdf.graph import PSDFGraph
from repro.psdf.matrix import build_communication_matrix


@pytest.fixture
def small_app():
    return PSDFGraph.from_edges(
        [
            ("A", "B", 1000, 1, 10),
            ("C", "D", 1000, 1, 10),
            ("B", "C", 10, 2, 10),
        ]
    )


class TestSolve:
    def test_small_instance_uses_exhaustive(self, small_app):
        result = PlaceTool().solve(small_app, 2)
        assert result.solver == "exhaustive"
        matrix = build_communication_matrix(small_app)
        optimum = exhaustive_placement(matrix, 2)
        assert result.total_cost == objective(matrix, optimum, 2)

    def test_large_instance_uses_heuristics(self):
        app = random_dag_psdf(18, seed=8)
        result = PlaceTool(exact_budget=1000, anneal=False).solve(app, 3)
        assert result.solver == "greedy+kl"
        assert set(result.placement) == set(app.process_names)

    def test_anneal_flag_changes_solver_label(self):
        app = random_dag_psdf(18, seed=8)
        result = PlaceTool(exact_budget=1000).solve(app, 3)
        assert result.solver == "greedy+kl+sa"  # annealing is the default

    def test_mp3_decoder_solvable(self, mp3_graph):
        result = PlaceTool().solve(mp3_graph, 3)
        assert result.segment_count == 3
        assert len(result.placement) == 15
        alloc = result.allocation()
        assert alloc.segment_count == 3

    def test_cost_breakdown_consistent(self, small_app):
        result = PlaceTool().solve(small_app, 2)
        assert result.total_cost == result.traffic_cost + result.balance_cost


class TestMp3Pins:
    """The allocations PlaceTool hands the emulator for the paper's MP3
    decoder, per segment count: solver, placement (key order included)
    and the traffic/balance split."""

    PINS = {
        1: ("exhaustive", "P0 P1 P8 P2 P3 P9 P10 P11 P5 P4 P6 P7 P14 P12 P13",
            "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1", 0, 0),
        2: ("exhaustive", "P0 P1 P8 P2 P3 P9 P10 P11 P5 P4 P6 P7 P14 P12 P13",
            "1 1 1 1 1 1 1 1 1 2 1 1 1 1 1", 72, 84),
        3: ("greedy+kl+sa", "P3 P0 P1 P8 P11 P12 P13 P14 P7 P2 P9 P10 P4 P5 P6",
            "2 2 2 2 1 1 1 1 1 2 2 2 3 1 1", 1224, 24),
        4: ("greedy+kl+sa", "P3 P0 P1 P11 P12 P8 P13 P14 P7 P2 P5 P6 P9 P4 P10",
            "2 2 2 3 3 2 3 3 4 2 4 4 2 4 1", 2376, 12),
    }

    @pytest.mark.parametrize("segments", sorted(PINS))
    def test_solve(self, mp3_graph, segments):
        solver, names, segs, traffic, balance = self.PINS[segments]
        result = PlaceTool().solve(mp3_graph, segments)
        assert result.solver == solver
        assert list(result.placement.items()) == list(
            zip(names.split(), map(int, segs.split()))
        )
        assert (result.traffic_cost, result.balance_cost) == (traffic, balance)


class TestEvaluate:
    def test_costs_a_given_allocation(self, mp3_graph, allocation_3seg):
        matrix = build_communication_matrix(mp3_graph)
        result = PlaceTool().evaluate(matrix, allocation_3seg)
        assert result.solver == "given"
        # Fig. 9's allocation cuts: P3->P5(540)+P3->P11(540)+P3->P4(36*2 hops)
        # + P4->P5(36) + P10->P11(36) = 1224 + 72 + 36 = hop-weighted 1224+72+72...
        assert result.traffic_cost > 0

    def test_placetool_not_worse_than_paper_allocation(
        self, mp3_graph, allocation_3seg
    ):
        # the optimizer should find an allocation at least as cheap as Fig. 9
        matrix = build_communication_matrix(mp3_graph)
        tool = PlaceTool()
        solved = tool.solve(mp3_graph, 3)
        paper = tool.evaluate(matrix, allocation_3seg)
        assert solved.total_cost <= paper.total_cost
