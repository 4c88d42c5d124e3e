"""The PlaceTool facade: pick a solver, return an allocation.

Strategy: exact search when the instance is small enough, otherwise greedy
construction refined by Kernighan–Lin, optionally polished by simulated
annealing.  The result carries the cost breakdown so callers can compare
against hand-made allocations (benchmark A2 compares PlaceTool output with
the paper's Fig. 9 allocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.model.mapping import Allocation
from repro.placement.annealing import annealed_placement
from repro.placement.cost import balance_penalty, objective, placement_cost
from repro.placement.exhaustive import DEFAULT_BUDGET, exhaustive_placement
from repro.placement.greedy import greedy_placement
from repro.placement.kernighan_lin import refine_placement
from repro.psdf.graph import PSDFGraph
from repro.psdf.matrix import CommunicationMatrix, build_communication_matrix


@dataclass(frozen=True)
class PlacementResult:
    """A solved allocation with its cost breakdown."""

    placement: Dict[str, int]
    segment_count: int
    traffic_cost: int
    balance_cost: int
    solver: str

    @property
    def total_cost(self) -> int:
        return self.traffic_cost + self.balance_cost

    def allocation(self) -> Allocation:
        return Allocation.from_placement(self.placement)


class PlaceTool:
    """Find a device allocation given the platform specifics (section 3.5)."""

    def __init__(
        self,
        balance_weight: int = 1,
        exact_budget: int = DEFAULT_BUDGET,
        anneal: bool = True,
        seed: int = 0,
    ) -> None:
        self.balance_weight = balance_weight
        self.exact_budget = exact_budget
        self.anneal = anneal
        self.seed = seed

    def solve_matrix(
        self, matrix: CommunicationMatrix, segment_count: int
    ) -> PlacementResult:
        """Allocate the matrix's processes onto ``segment_count`` segments."""
        size = segment_count ** len(matrix.names)
        if size <= self.exact_budget:
            placement = exhaustive_placement(
                matrix,
                segment_count,
                balance_weight=self.balance_weight,
                budget=self.exact_budget,
            )
            solver = "exhaustive"
        else:
            placement = greedy_placement(matrix, segment_count)
            placement = refine_placement(
                matrix,
                placement,
                segment_count,
                balance_weight=self.balance_weight,
            )
            solver = "greedy+kl"
            if self.anneal:
                placement = annealed_placement(
                    matrix,
                    segment_count,
                    seed=self.seed,
                    initial=placement,
                    balance_weight=self.balance_weight,
                )
                placement = refine_placement(
                    matrix,
                    placement,
                    segment_count,
                    balance_weight=self.balance_weight,
                )
                solver = "greedy+kl+sa"
        return PlacementResult(
            placement=placement,
            segment_count=segment_count,
            traffic_cost=placement_cost(matrix, placement, segment_count),
            balance_cost=balance_penalty(
                placement, segment_count, weight=self.balance_weight
            ),
            solver=solver,
        )

    def solve(self, application: PSDFGraph, segment_count: int) -> PlacementResult:
        """Allocate an application (builds its communication matrix first)."""
        return self.solve_matrix(
            build_communication_matrix(application), segment_count
        )

    def evaluate(
        self, matrix: CommunicationMatrix, allocation: Allocation
    ) -> PlacementResult:
        """Cost a given allocation (e.g. the paper's Fig. 9) for comparison."""
        placement = allocation.placement()
        return PlacementResult(
            placement=placement,
            segment_count=allocation.segment_count,
            traffic_cost=placement_cost(
                matrix, placement, allocation.segment_count
            ),
            balance_cost=balance_penalty(
                placement, allocation.segment_count, weight=self.balance_weight
            ),
            solver="given",
        )

    def _neighbourhood(
        self,
        matrix: CommunicationMatrix,
        base: Dict[str, int],
        segment_count: int,
        limit: int,
    ) -> List[Dict[str, int]]:
        """``base`` and its ``limit`` cheapest single-move neighbours by
        objective (a stable sort, so scan order breaks ties), leaving out
        duplicates and any placement that empties a segment."""
        segments = set(range(1, segment_count + 1))
        neighbours = []
        for process in sorted(base):
            for seg in range(1, segment_count + 1):
                if seg == base[process]:
                    continue
                trial = dict(base)
                trial[process] = seg
                if set(trial.values()) == segments:
                    neighbours.append(
                        (objective(matrix, trial, segment_count,
                                   self.balance_weight), trial)
                    )
        neighbours.sort(key=lambda item: item[0])
        candidates: Dict[tuple, Dict[str, int]] = {}
        for placement in [base] + [trial for _, trial in neighbours[:limit]]:
            if set(placement.values()) == segments:
                key = tuple(sorted(placement.items()))
                candidates.setdefault(key, dict(placement))
        return list(candidates.values())

    def solve_emulated(
        self,
        application: PSDFGraph,
        segment_count: int,
        segment_frequencies_mhz,
        ca_frequency_mhz: float,
        package_size: int = 36,
        neighbourhood: int = 8,
    ) -> "EmulatedPlacementResult":
        """Pick the allocation by *emulated* execution time, not the proxy.

        The traffic objective is a proxy for performance; this method uses
        it only as a filter: solve for the best-cost placement, generate its
        single-move neighbourhood (bounded to the ``neighbourhood`` cheapest
        candidates by objective), emulate every candidate and return the one
        with the shortest execution time.  Ground truth at ~1 ms per
        candidate (benchmark A9's throughput numbers).
        """
        from repro.emulator.emulator import emulate  # local: avoid cycle
        from repro.model.mapping import map_application

        matrix = build_communication_matrix(application)
        base = self.solve_matrix(matrix, segment_count)
        candidates = self._neighbourhood(
            matrix, base.placement, segment_count, neighbourhood
        )

        best_placement: Optional[Dict[str, int]] = None
        best_us = float("inf")
        evaluated = 0
        for placement in candidates:
            psm = map_application(
                application,
                Allocation.from_placement(placement),
                segment_frequencies_mhz=segment_frequencies_mhz,
                ca_frequency_mhz=ca_frequency_mhz,
                package_size=package_size,
            )
            report = emulate(application, psm.platform)
            evaluated += 1
            if report.execution_time_us < best_us:
                best_us = report.execution_time_us
                best_placement = placement
        assert best_placement is not None
        return EmulatedPlacementResult(
            placement=best_placement,
            segment_count=segment_count,
            execution_time_us=best_us,
            candidates_evaluated=evaluated,
            proxy_cost=objective(
                matrix, best_placement, segment_count, self.balance_weight
            ),
        )


    def solve_estimated(
        self,
        application: PSDFGraph,
        segment_count: int,
        segment_frequencies_mhz,
        ca_frequency_mhz: float,
        package_size: int = 36,
        neighbourhood: int = 32,
        confirm: int = 4,
    ) -> "EstimatedPlacementResult":
        """Estimator-pruned placement search: rank wide, emulate narrow.

        Where :meth:`solve_emulated` emulates every neighbourhood candidate,
        this method ranks the whole (much larger) single-move neighbourhood
        with the stochastic contention estimator — microseconds per
        candidate — and emulates only the best ``confirm`` survivors to pick
        the winner by ground truth.  Same quality frontier, a fraction of
        the simulation budget (docs/PERFORMANCE.md, "estimate vs emulate").
        """
        from repro.analysis.stochastic import stochastic_estimate
        from repro.emulator.emulator import emulate  # local: avoid cycle
        from repro.emulator.kernel import PlatformSpec
        from repro.model.mapping import map_application

        if confirm < 1:
            raise ValueError(f"confirm must be >= 1, got {confirm}")
        matrix = build_communication_matrix(application)
        base = self.solve_matrix(matrix, segment_count)
        candidates = self._neighbourhood(
            matrix, base.placement, segment_count, neighbourhood
        )

        def mapped_platform(placement: Dict[str, int]):
            return map_application(
                application,
                Allocation.from_placement(placement),
                segment_frequencies_mhz=segment_frequencies_mhz,
                ca_frequency_mhz=ca_frequency_mhz,
                package_size=package_size,
            ).platform

        ranked = []
        for placement in candidates:
            platform = mapped_platform(placement)
            estimate = stochastic_estimate(
                application, PlatformSpec.from_platform(platform)
            )
            ranked.append((estimate.execution_time_us, placement, platform))
        ranked.sort(key=lambda item: item[0])

        best_placement: Optional[Dict[str, int]] = None
        best_us = float("inf")
        best_estimated = 0.0
        emulated = 0
        for estimated_us, placement, platform in ranked[:confirm]:
            report = emulate(application, platform)
            emulated += 1
            if report.execution_time_us < best_us:
                best_us = report.execution_time_us
                best_placement = placement
                best_estimated = estimated_us
        assert best_placement is not None
        return EstimatedPlacementResult(
            placement=best_placement,
            segment_count=segment_count,
            execution_time_us=best_us,
            estimated_us=best_estimated,
            candidates_estimated=len(ranked),
            candidates_emulated=emulated,
            proxy_cost=objective(
                matrix, best_placement, segment_count, self.balance_weight
            ),
        )


@dataclass(frozen=True)
class EmulatedPlacementResult:
    """An allocation chosen by emulated execution time."""

    placement: Dict[str, int]
    segment_count: int
    execution_time_us: float
    candidates_evaluated: int
    proxy_cost: int

    def allocation(self) -> Allocation:
        return Allocation.from_placement(self.placement)


@dataclass(frozen=True)
class EstimatedPlacementResult:
    """An allocation chosen by estimator-pruned emulation."""

    placement: Dict[str, int]
    segment_count: int
    #: emulated time of the confirmed winner (ground truth)
    execution_time_us: float
    #: the winner's stochastic pre-estimate
    estimated_us: float
    candidates_estimated: int
    candidates_emulated: int
    proxy_cost: int

    def allocation(self) -> Allocation:
        return Allocation.from_placement(self.placement)
