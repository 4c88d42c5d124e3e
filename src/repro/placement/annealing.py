"""Seeded simulated annealing over placements.

A classic Metropolis loop on the move/swap neighbourhood of
:mod:`repro.placement.kernighan_lin`, with a geometric cooling schedule.
Fully deterministic for a fixed seed: it takes the values
``numpy.random.default_rng(seed)`` would give (:class:`BlockDraws`).
Useful on instances too large for exhaustive search where greedy+KL get
stuck in local minima.  Each proposal is scored by its change in cost
(:class:`~repro.placement.cost.MoveScorer`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import PlacementError
from repro.placement.cost import MoveScorer, objective
from repro.placement.greedy import greedy_placement
from repro.psdf.matrix import CommunicationMatrix


#: raw words fetched per numpy call; an annealing step takes two or three
_BLOCK = 1024
_2_POW_M53 = 1.0 / (1 << 53)
_U32 = 0xFFFFFFFF


class BlockDraws:
    """``Generator.random()`` and ``Generator.integers(low, high)`` of
    ``numpy.random.default_rng(seed)``, value for value, without numpy's
    per-call dispatch.

    The raw 64-bit words of the generator's PCG64 come in blocks of
    ``bit_generator.random_raw``; each draw is numpy's own arithmetic on
    them:

    * ``random()`` is ``(word >> 11) * 2**-53``;
    * ``integers(low, high)`` with a span ``high - low`` of 1 draws
      nothing; a span from 2 to ``2**32 - 1`` is Lemire's bounded draw
      on 32-bit values, which PCG64 takes as the low and then the high
      half of one word, keeping the high half across calls (its
      ``has_uint32`` buffer: a ``random()`` in between leaves it be).

    Larger spans are not supported.  The generator is private, so the
    unread rest of a block is never observed.  numpy does not promise
    these streams across versions (NEP 19): the draw-replay test
    (``tests/placement/test_block_draws.py``) compares them with numpy's.
    """

    __slots__ = ("_raw", "_words", "_next", "_half")

    def __init__(self, seed) -> None:
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self._words: List[int] = []
        self._next = 0
        #: the buffered high half of a word, or -1 when none is
        self._half = -1

    def _word(self) -> int:
        i = self._next
        if i == len(self._words):
            self._words = self._raw(_BLOCK).tolist()
            i = 0
        self._next = i + 1
        return self._words[i]

    def random(self) -> float:
        """A float uniform on [0, 1), as ``Generator.random()``."""
        return (self._word() >> 11) * _2_POW_M53

    def _uint32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._word()
        self._half = word >> 32
        return word & _U32

    def integers(self, low: int, high: int) -> int:
        """An int uniform on [low, high), as ``Generator.integers``."""
        span = high - low
        if span == 1:
            return low
        m = self._uint32() * span
        if (m & _U32) < span:
            # reject the low values that would bias the result
            threshold = (_U32 + 1 - span) % span
            while (m & _U32) < threshold:
                m = self._uint32() * span
        return low + (m >> 32)


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
    rng = BlockDraws(seed)
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
            process = rng.integers(0, n)
            if counts[segs[process] - 1] <= 1:
                temperature *= cooling
                continue
            seg = rng.integers(1, segment_count + 1)
            if seg == segs[process]:
                temperature *= cooling
                continue
            delta = scorer.move_delta(process, seg)
            apply, args = scorer.move, (process, seg)
        else:
            # swap two processes on different segments
            a = rng.integers(0, n)
            b = rng.integers(0, n)
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
