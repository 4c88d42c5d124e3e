"""The annealer's block draws replay numpy's Generator value for value.

:class:`~repro.placement.annealing.BlockDraws` computes ``random()`` and
``integers(low, high)`` from raw PCG64 words instead of calling numpy per
draw.  numpy does not promise its ``Generator`` streams across releases
(NEP 19), so this test is the tripwire: every draw of a mixed call
sequence must equal what ``numpy.random.default_rng(seed)`` returns for
the same calls, across block boundaries and the 32-bit half buffer.
"""

import random

import numpy as np
import pytest

from repro.placement.annealing import BlockDraws

#: a span draws nothing at 1, few rejections at 2-40, and near 2**31
#: Lemire's rejection threshold (2**32 mod span) is about half the range
SMALL_SPANS = range(2, 41)
WIDE_SPANS = (2**31 - 1, 2**31, 2**31 + 1, 2**31 + 12_345, 3 * 2**30 + 1)


def _calls(seed, count):
    """A seeded mix of ``random()`` and ``integers`` calls."""
    script = random.Random(seed)
    calls = []
    for _ in range(count):
        roll = script.random()
        if roll < 0.35:
            calls.append(None)
            continue
        low = script.randint(-3, 3)
        if roll < 0.45:
            span = 1
        elif roll < 0.9:
            span = script.choice(SMALL_SPANS)
        else:
            span = script.choice(WIDE_SPANS)
        calls.append((low, low + span))
    return calls


def _replay(draws, calls):
    return [
        draws.random() if call is None else draws.integers(*call)
        for call in calls
    ]


@pytest.mark.parametrize("chunk", range(4))
def test_block_draws_equal_numpy_over_mixed_calls(chunk):
    # 200 seeds; 2500 calls take more than one block of raw words
    for seed in range(chunk * 50, chunk * 50 + 50):
        calls = _calls(seed, 2500)
        expected = _replay(np.random.default_rng(seed), calls)
        assert _replay(BlockDraws(seed), calls) == expected, seed
