"""Exact allocation by exhaustive enumeration (small instances only).

Enumerates every surjective assignment of processes to segments (every
segment must host at least one FU) and returns the cheapest under the full
objective.  The search space is ``segments^processes``; the solver refuses
instances beyond a configurable budget instead of silently taking hours.

The assignments are scored with numpy, a block of rows at a time, in
``itertools.product`` order: row ``r`` puts process ``i`` on segment
``(r // k^(n-1-i)) % k + 1``.  The first row of least cost wins, the
tie-break of a scan that keeps only a strictly cheaper assignment.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import PlacementError
from repro.placement.cost import count_penalty, undirected_links
from repro.psdf.matrix import CommunicationMatrix

#: refuse instances whose assignment count exceeds this.  It is also the
#: size at which :class:`~repro.placement.placetool.PlaceTool` switches to
#: the heuristics, so it decides which allocation a design-space
#: exploration emulates: MP3 on 2 segments (2^15 assignments) is solved
#: exactly, on 3 segments (3^15) heuristically.  Changing it changes DSE
#: output, however fast the search is.
DEFAULT_BUDGET = 60_000

#: assignments scored per numpy block; bounds the working arrays to
#: ``_BLOCK_ROWS x processes`` int64 cells whatever the instance size
_BLOCK_ROWS = 4096

_INT64_MAX = int(np.iinfo(np.int64).max)


def exhaustive_placement(
    matrix: CommunicationMatrix,
    segment_count: int,
    balance_weight: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> Dict[str, int]:
    """The provably optimal placement under the objective.

    Raises :class:`~repro.errors.PlacementError` when the instance exceeds
    ``budget`` assignments — use :class:`~repro.placement.placetool.PlaceTool`
    to fall back to heuristics automatically.
    """
    names = matrix.names
    if segment_count < 1:
        raise PlacementError(f"segment count must be >= 1, got {segment_count}")
    if segment_count > len(names):
        raise PlacementError(
            f"{segment_count} segments cannot all be non-empty with only "
            f"{len(names)} processes"
        )
    size = segment_count ** len(names)
    if size > budget:
        raise PlacementError(
            f"exhaustive search over {size} assignments exceeds budget {budget}"
        )
    n, k = len(names), segment_count
    links = undirected_links(matrix)
    # int64 sums are exact while this bound on every total and every link
    # weight fits; past it the same arithmetic runs on Python ints
    worst = k * sum(links.values()) + abs(balance_weight) * n * n
    dtype = np.int64 if worst <= _INT64_MAX else object
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # a row's per-segment counts packed as one base-(n+1) number, which
    # fits int64 whenever k^n does
    radix = (n + 1) ** np.arange(k, dtype=np.int64)
    penalties: Dict[int, Optional[int]] = {}
    best_row: Optional[int] = None
    best_cost = None
    for start in range(0, size, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, size), dtype=np.int64)
        assign = rows // powers[:, None] % k
        codes, inverse = np.unique(radix[assign].sum(axis=0), return_inverse=True)
        block = []
        for code in codes.tolist():
            if code not in penalties:
                penalties[code] = _penalty_of_code(code, n, k, balance_weight)
            block.append(penalties[code])
        # SEG-FU-1: a row that leaves a segment empty is no candidate
        feasible = np.array([p is not None for p in block])[inverse]
        if not feasible.any():
            continue
        rows = rows[feasible]
        assign = assign[:, feasible].astype(dtype, copy=False)
        totals = np.array([p or 0 for p in block], dtype=dtype)[inverse[feasible]]
        for (i, j), items in links.items():
            totals += items * np.abs(assign[i] - assign[j])
        local = int(np.argmin(totals))
        if best_cost is None or totals[local] < best_cost:
            best_row, best_cost = int(rows[local]), totals[local]
    assert best_row is not None  # segment_count <= len(names) guarantees feasibility
    return {
        name: best_row // k ** (n - 1 - i) % k + 1 for i, name in enumerate(names)
    }


def _penalty_of_code(code: int, n: int, k: int, weight: int) -> Optional[int]:
    """The balance penalty of the counts packed in ``code``, or None when a
    segment is empty."""
    counts = []
    for _ in range(k):
        code, count = divmod(code, n + 1)
        counts.append(count)
    return count_penalty(counts, weight) if all(counts) else None
