"""Seeded simulated annealing over placements.

A classic Metropolis loop on the move/swap neighbourhood of
:mod:`repro.placement.kernighan_lin`, with a geometric cooling schedule.
Fully deterministic for a fixed seed (``numpy.random.default_rng``).
Useful on instances too large for exhaustive search where greedy+KL get
stuck in local minima.  Each proposal is scored by its change in cost
(:class:`~repro.placement.cost.MoveScorer`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import PlacementError
from repro.placement.cost import MoveScorer, objective
from repro.placement.greedy import greedy_placement
from repro.psdf.matrix import CommunicationMatrix


def annealed_placement(
    matrix: CommunicationMatrix,
    segment_count: int,
    seed: int = 0,
    initial: Optional[Mapping[str, int]] = None,
    balance_weight: int = 1,
    steps: int = 4000,
    start_temperature: float = 200.0,
    cooling: float = 0.995,
) -> Dict[str, int]:
    """Anneal from ``initial`` (default: the greedy placement)."""
    if steps < 1:
        raise PlacementError(f"steps must be >= 1, got {steps}")
    if not 0.0 < cooling < 1.0:
        raise PlacementError(f"cooling must be in (0, 1), got {cooling}")
    rng = np.random.default_rng(seed)
    start: Dict[str, int] = dict(
        initial if initial is not None else greedy_placement(matrix, segment_count)
    )
    cost = objective(matrix, start, segment_count, balance_weight)
    scorer = MoveScorer(matrix, start, segment_count, balance_weight)
    segs, counts, n = scorer.segs, scorer.counts, len(scorer.names)
    best, best_cost = list(segs), cost
    temperature = start_temperature
    for _ in range(steps):
        if rng.random() < 0.5:
            # move: one process to a random other segment
            process = int(rng.integers(n))
            if counts[segs[process] - 1] <= 1:
                temperature *= cooling
                continue
            seg = int(rng.integers(1, segment_count + 1))
            if seg == segs[process]:
                temperature *= cooling
                continue
            delta = scorer.move_delta(process, seg)
            apply, args = scorer.move, (process, seg)
        else:
            # swap two processes on different segments
            a = int(rng.integers(n))
            b = int(rng.integers(n))
            if a == b or segs[a] == segs[b]:
                temperature *= cooling
                continue
            delta = scorer.swap_delta(a, b)
            apply, args = scorer.swap, (a, b)
        if delta <= 0 or rng.random() < np.exp(-delta / max(temperature, 1e-9)):
            apply(*args)
            cost += delta
            if cost < best_cost:
                best, best_cost = list(segs), cost
        temperature *= cooling
    return scorer.placement(start, best)
