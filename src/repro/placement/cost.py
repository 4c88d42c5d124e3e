"""Cost model for process-to-segment allocations.

An inter-segment package transfer on the SegBus occupies every segment on
its path (circuit switching, Fig. 2), so the natural cost of placing
communicating processes apart is traffic volume weighted by hop distance::

    cost(placement) = sum over flows  items(src, dst) * |seg(src) - seg(dst)|

A capacity-balance penalty discourages empty or overloaded segments (every
segment needs at least one FU — constraint SEG-FU-1 — and a segment hosting
everything is just a single bus again).

The search solvers call :func:`objective` once per solve, not once per
candidate.  Exhaustive search sums :func:`undirected_links` over numpy
blocks of assignments; refinement and annealing score a move or swap by
its change in cost (:class:`MoveScorer`).  Every penalty comes from
:func:`count_penalty`, so its float truncation is the same everywhere.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.psdf.matrix import CommunicationMatrix


def placement_cost(
    matrix: CommunicationMatrix,
    placement: Mapping[str, int],
    segment_count: int,
) -> int:
    """Hop-weighted inter-segment traffic of ``placement`` (lower is better)."""
    _check(matrix, placement, segment_count)
    total = 0
    for source, target, items in matrix.pairs():
        total += items * abs(placement[source] - placement[target])
    return total


def balance_penalty(
    placement: Mapping[str, int],
    segment_count: int,
    weight: int = 1,
) -> int:
    """Quadratic load-imbalance penalty, 0 for a perfectly even split.

    Computed on process counts; ``weight`` scales it against the traffic
    cost (the default keeps it a mild tie-breaker).  Raises
    :class:`~repro.errors.PlacementError` for a segment count below 1 or
    a process placed outside ``1..segment_count``.
    """
    return count_penalty(segment_counts(placement, segment_count), weight)


def objective(
    matrix: CommunicationMatrix,
    placement: Mapping[str, int],
    segment_count: int,
    balance_weight: int = 1,
) -> int:
    """The solvers' full objective: traffic cost plus balance penalty."""
    return placement_cost(matrix, placement, segment_count) + balance_penalty(
        placement, segment_count, weight=balance_weight
    )


def segment_counts(
    placement: Mapping[str, int], segment_count: int
) -> List[int]:
    """Processes per segment, segment 1 first; range-checked like
    :func:`placement_cost`."""
    if segment_count < 1:
        raise PlacementError(f"segment count must be >= 1, got {segment_count}")
    counts = [0] * segment_count
    for process, seg in placement.items():
        if not 1 <= seg <= segment_count:
            raise PlacementError(
                f"process {process!r} placed on segment {seg}, "
                f"outside 1..{segment_count}"
            )
        counts[seg - 1] += 1
    return counts


def count_penalty(counts: Sequence[int], weight: int = 1) -> int:
    """The balance penalty of per-segment process ``counts``.

    Every solver takes the penalty from here, so its float truncation is
    the same wherever a placement is scored.
    """
    mean = sum(counts) / len(counts)
    return int(weight * sum((c - mean) ** 2 for c in counts))


def undirected_links(matrix: CommunicationMatrix) -> Dict[Tuple[int, int], int]:
    """``(i, j) -> items(i, j) + items(j, i)`` for ``i < j`` over
    ``matrix.names``, non-zero pairs only, as exact Python ints.

    The hop distance is symmetric, so this is all the traffic term needs.
    """
    items = matrix.array
    links: Dict[Tuple[int, int], int] = {}
    rows, cols = np.nonzero(items)
    for i, j in zip(rows.tolist(), cols.tolist()):
        key = (i, j) if i < j else (j, i)
        links[key] = links.get(key, 0) + int(items[i, j])
    return links


class MoveScorer:
    """A placement's objective kept up to date under single moves and
    swaps by its change in cost, never recomputed.

    Processes are numbered in ``sorted(placement)`` order, the order the
    solvers scan; ``segs[i]`` is process ``i``'s segment and ``counts``
    the processes per segment.  Processes the matrix lacks have no links
    but still count toward the balance penalty.
    """

    def __init__(
        self,
        matrix: CommunicationMatrix,
        placement: Mapping[str, int],
        segment_count: int,
        balance_weight: int,
    ) -> None:
        self.names = sorted(placement)
        self.segs: List[int] = [placement[name] for name in self.names]
        self.counts = segment_counts(placement, segment_count)
        self.weight = balance_weight
        self.penalty = count_penalty(self.counts, balance_weight)
        self._position = {name: index for index, name in enumerate(self.names)}
        self._links: List[List[Tuple[int, int]]] = [[] for _ in self.names]
        for (i, j), items in undirected_links(matrix).items():
            a = self._position[matrix.names[i]]
            b = self._position[matrix.names[j]]
            self._links[a].append((b, items))
            self._links[b].append((a, items))

    def move_delta(self, process: int, seg: int) -> int:
        """Objective change of moving ``process`` to ``seg``."""
        counts = list(self.counts)
        counts[self.segs[process] - 1] -= 1
        counts[seg - 1] += 1
        penalty = count_penalty(counts, self.weight)
        return self._traffic_delta(process, seg) + penalty - self.penalty

    def move(self, process: int, seg: int) -> None:
        self.counts[self.segs[process] - 1] -= 1
        self.counts[seg - 1] += 1
        self.segs[process] = seg
        self.penalty = count_penalty(self.counts, self.weight)

    def swap_delta(self, a: int, b: int) -> int:
        """Objective change of exchanging the segments of ``a`` and ``b``.

        The counts, and so the penalty, stay as they are, and so does the
        hop distance of the link between the two.
        """
        seg_a, seg_b = self.segs[a], self.segs[b]
        return self._traffic_delta(a, seg_b, skip=b) + self._traffic_delta(
            b, seg_a, skip=a
        )

    def swap(self, a: int, b: int) -> None:
        segs = self.segs
        segs[a], segs[b] = segs[b], segs[a]

    def placement(
        self, order: Iterable[str], segs: Optional[Sequence[int]] = None
    ) -> Dict[str, int]:
        """``segs`` (default: the current segments) by name, keys in
        ``order``."""
        segs = self.segs if segs is None else segs
        return {name: segs[self._position[name]] for name in order}

    def _traffic_delta(self, process: int, seg: int, skip: int = -1) -> int:
        """Traffic change of putting ``process`` on ``seg`` with every
        other process fixed, leaving out its link to ``skip``."""
        home, segs = self.segs[process], self.segs
        delta = 0
        for other, items in self._links[process]:
            if other != skip:
                there = segs[other]
                delta += items * (abs(seg - there) - abs(home - there))
        return delta


def _check(
    matrix: CommunicationMatrix,
    placement: Mapping[str, int],
    segment_count: int,
) -> None:
    if segment_count < 1:
        raise PlacementError(f"segment count must be >= 1, got {segment_count}")
    missing = sorted(set(matrix.names) - set(placement))
    if missing:
        raise PlacementError(f"placement misses processes: {', '.join(missing)}")
    segment_counts(placement, segment_count)
