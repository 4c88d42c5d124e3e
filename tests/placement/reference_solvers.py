"""Reference placement solvers: scalar loops that score every candidate
with the full objective, computed in full each time.

``exhaustive_placement`` scores assignments with numpy, and
``refine_placement``/``annealed_placement`` score each move or swap by its
change in cost; they must return exactly what these loops return.
``tests/placement/test_reference_equivalence.py`` compares the two on
random instances, placements and dict key order included.
"""

from __future__ import annotations

import itertools
from typing import Dict, Mapping, Optional

import numpy as np

from repro.placement.greedy import greedy_placement
from repro.psdf.matrix import CommunicationMatrix


def reference_objective(
    matrix: CommunicationMatrix,
    placement: Mapping[str, int],
    segment_count: int,
    balance_weight: int = 1,
) -> int:
    """Hop-weighted traffic plus the balance penalty, one flow at a time."""
    traffic = 0
    for source, target, items in matrix.pairs():
        traffic += items * abs(placement[source] - placement[target])
    counts = [0] * segment_count
    for seg in placement.values():
        counts[seg - 1] += 1
    mean = len(placement) / segment_count
    return traffic + int(balance_weight * sum((c - mean) ** 2 for c in counts))


def reference_exhaustive(
    matrix: CommunicationMatrix, segment_count: int, balance_weight: int = 1
) -> Dict[str, int]:
    names = matrix.names
    best: Optional[Dict[str, int]] = None
    best_cost: Optional[int] = None
    for assignment in itertools.product(range(1, segment_count + 1), repeat=len(names)):
        if len(set(assignment)) != segment_count:
            continue  # some segment would be empty (SEG-FU-1)
        placement = dict(zip(names, assignment))
        cost = reference_objective(matrix, placement, segment_count, balance_weight)
        if best_cost is None or cost < best_cost:
            best, best_cost = placement, cost
    assert best is not None
    return best


def reference_refine(
    matrix: CommunicationMatrix,
    placement: Mapping[str, int],
    segment_count: int,
    balance_weight: int = 1,
    max_rounds: int = 50,
) -> Dict[str, int]:
    current: Dict[str, int] = dict(placement)
    names = sorted(current)
    cost = reference_objective(matrix, current, segment_count, balance_weight)
    for _ in range(max_rounds):
        improved = False
        # single moves
        for name in names:
            home = current[name]
            for seg in range(1, segment_count + 1):
                if sum(1 for s in current.values() if s == home) <= 1:
                    break  # a move would empty its (possibly new) segment
                if seg == home:
                    continue
                current[name] = seg
                trial = reference_objective(matrix, current, segment_count, balance_weight)
                if trial < cost:
                    cost = trial
                    home = seg
                    improved = True
                else:
                    current[name] = home
        # pairwise swaps
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if current[a] == current[b]:
                    continue
                current[a], current[b] = current[b], current[a]
                trial = reference_objective(matrix, current, segment_count, balance_weight)
                if trial < cost:
                    cost = trial
                    improved = True
                else:
                    current[a], current[b] = current[b], current[a]
        if not improved:
            break
    return current


def reference_anneal(
    matrix: CommunicationMatrix,
    segment_count: int,
    seed: int = 0,
    initial: Optional[Mapping[str, int]] = None,
    balance_weight: int = 1,
    steps: int = 4000,
    start_temperature: float = 200.0,
    cooling: float = 0.995,
) -> Dict[str, int]:
    rng = np.random.default_rng(seed)
    current: Dict[str, int] = dict(
        initial if initial is not None else greedy_placement(matrix, segment_count)
    )
    names = sorted(current)
    cost = reference_objective(matrix, current, segment_count, balance_weight)
    best, best_cost = dict(current), cost
    temperature = start_temperature
    for _ in range(steps):
        if rng.random() < 0.5:
            # move: one process to a random other segment
            name = names[int(rng.integers(len(names)))]
            home = current[name]
            if sum(1 for s in current.values() if s == home) <= 1:
                temperature *= cooling
                continue
            seg = int(rng.integers(1, segment_count + 1))
            if seg == home:
                temperature *= cooling
                continue
            current[name] = seg
            undo = [(name, home)]
        else:
            # swap two processes on different segments
            a = names[int(rng.integers(len(names)))]
            b = names[int(rng.integers(len(names)))]
            if a == b or current[a] == current[b]:
                temperature *= cooling
                continue
            current[a], current[b] = current[b], current[a]
            undo = [(a, current[b]), (b, current[a])]
        trial = reference_objective(matrix, current, segment_count, balance_weight)
        delta = trial - cost
        if delta <= 0 or rng.random() < np.exp(-delta / max(temperature, 1e-9)):
            cost = trial
            if cost < best_cost:
                best, best_cost = dict(current), cost
        else:
            for name, seg in undo:
                current[name] = seg
        temperature *= cooling
    return best
