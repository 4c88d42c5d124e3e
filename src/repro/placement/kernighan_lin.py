"""Kernighan–Lin-style local refinement of a placement.

Repeatedly tries single-process moves and pairwise swaps between segments,
accepting any change that lowers the full objective, until a fixed point
(or an iteration cap).  Preserves feasibility: a move never empties a
segment.  Deterministic scan order.

A candidate is scored by its change in cost: the traffic term changes only
on the moved processes' links, and the balance penalty only with the
per-segment counts (:class:`~repro.placement.cost.MoveScorer`).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.placement.cost import MoveScorer, objective
from repro.psdf.matrix import CommunicationMatrix


def refine_placement(
    matrix: CommunicationMatrix,
    placement: Mapping[str, int],
    segment_count: int,
    balance_weight: int = 1,
    max_rounds: int = 50,
) -> Dict[str, int]:
    """Hill-climb ``placement`` with moves and swaps; returns a new dict."""
    # validates the start (segments in range, no process missing)
    objective(matrix, placement, segment_count, balance_weight)
    scorer = MoveScorer(matrix, placement, segment_count, balance_weight)
    segs, counts, n = scorer.segs, scorer.counts, len(scorer.names)
    for _ in range(max_rounds):
        improved = False
        # single moves
        for process in range(n):
            for seg in range(1, segment_count + 1):
                if counts[segs[process] - 1] <= 1:
                    break  # a move would empty its (possibly new) segment
                if seg == segs[process]:
                    continue
                if scorer.move_delta(process, seg) < 0:
                    scorer.move(process, seg)
                    improved = True
        # pairwise swaps
        for a in range(n):
            for b in range(a + 1, n):
                if segs[a] == segs[b]:
                    continue
                if scorer.swap_delta(a, b) < 0:
                    scorer.swap(a, b)
                    improved = True
        if not improved:
            break
    return scorer.placement(placement)
