"""The vectorized and incremental solvers return the reference loops'
placements exactly: same processes, same segments, same key order.

Matrices are drawn directly (zero diagonal, a few weights so that equal
costs are common, whole rows and columns of zeros), so the tie-breaks of
the scans are exercised as often as the costs themselves.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import exhaustive
from repro.placement.annealing import annealed_placement
from repro.placement.cost import objective
from repro.placement.exhaustive import exhaustive_placement
from repro.placement.greedy import greedy_placement
from repro.placement.kernighan_lin import refine_placement
from repro.psdf.generators import random_dag_psdf
from repro.psdf.matrix import CommunicationMatrix, build_communication_matrix

from tests.placement.reference_solvers import (
    reference_anneal,
    reference_exhaustive,
    reference_objective,
    reference_refine,
)

#: matrix entries and balance weights: few values, so costs tie often
WEIGHTS = (0, 1, 2, 7, 1000)
#: names no matrix carries; they sort before, between and after "P<i>"
EXTRA_NAMES = ("A", "P05", "P1z", "Z")


def same(got, want):
    assert list(got.items()) == list(want.items())


@st.composite
def matrices(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    # shuffled "P<i>" names: matrix order, sorted order and index order
    # all differ once n > 10
    names = draw(st.permutations([f"P{i}" for i in range(n)]))
    cells = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n * n, max_size=n * n))
    items = np.array(cells, dtype=np.int64).reshape(n, n)
    np.fill_diagonal(items, 0)
    silent = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    items[silent, :] = 0
    items[:, silent] = 0
    return CommunicationMatrix(names, items)


@st.composite
def exhaustive_cases(draw):
    k = draw(st.integers(1, 4))
    max_n = max(n for n in range(k, 11) if k ** n <= 2000)
    matrix = draw(matrices(k, max_n))
    return matrix, k, draw(st.sampled_from(WEIGHTS))


@st.composite
def search_cases(draw):
    """(matrix, segment count, balance weight, start placement or None)."""
    k = draw(st.integers(1, 4))
    matrix = draw(matrices(k, 11))
    weight = draw(st.sampled_from(WEIGHTS))
    extras = draw(st.lists(st.sampled_from(EXTRA_NAMES), unique=True, max_size=3))
    kind = draw(st.sampled_from(("greedy", "random", "any", "none")))
    if kind == "none":
        return matrix, k, weight, None
    if kind == "greedy":
        start = greedy_placement(matrix, k)
        start.update((name, draw(st.integers(1, k))) for name in extras)
        return matrix, k, weight, start
    # a random placement, keys in a random order; "random" fills every
    # segment, "any" may leave some empty (the solvers accept that too)
    order = draw(st.permutations(list(matrix.names) + extras))
    segs = draw(st.lists(st.integers(1, k), min_size=len(order), max_size=len(order)))
    if kind == "random":
        for seg, index in enumerate(draw(st.permutations(range(len(order))))[:k], 1):
            segs[index] = seg
    return matrix, k, weight, dict(zip(order, segs))


@given(exhaustive_cases())
@settings(max_examples=120, deadline=None)
def test_exhaustive_matches_reference(case):
    matrix, k, weight = case
    same(
        exhaustive_placement(matrix, k, balance_weight=weight),
        reference_exhaustive(matrix, k, weight),
    )


@given(exhaustive_cases(), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_exhaustive_matches_reference_across_small_blocks(case, block_rows):
    # many blocks and a short last one: the first minimum must win
    # across block boundaries exactly as within one
    matrix, k, weight = case
    with mock.patch.object(exhaustive, "_BLOCK_ROWS", block_rows):
        got = exhaustive_placement(matrix, k, balance_weight=weight)
    same(got, reference_exhaustive(matrix, k, weight))


def test_exhaustive_mirror_ties_straddle_blocks():
    # on 2 segments every assignment ties with its mirror image, and for
    # 13 processes (8192 rows) each pair spans the two default blocks
    matrix = build_communication_matrix(random_dag_psdf(13, seed=3))
    same(exhaustive_placement(matrix, 2), reference_exhaustive(matrix, 2))


@given(search_cases())
@settings(max_examples=80, deadline=None)
def test_objective_matches_reference(case):
    # the penalty's float truncation included: weights up to 1000 scale
    # fractions such as 2/3 into the integer part
    matrix, k, weight, start = case
    if start is None:
        start = greedy_placement(matrix, k)
    assert objective(matrix, start, k, weight) == reference_objective(
        matrix, start, k, weight
    )


def test_refinement_never_empties_a_segment_it_just_filled():
    # "p" leaves a shared segment 1 for the empty segment 2; going on to
    # its partner on 3 would empty 2 again, so the count of the segment a
    # process is on is checked before every move, not once per scan
    items = np.zeros((3, 3), dtype=np.int64)
    items[0, 1] = 1000
    matrix = CommunicationMatrix(["p", "q", "r"], items)
    start = {"p": 1, "q": 3, "r": 1}
    got = refine_placement(matrix, start, 3)
    assert set(got.values()) == {1, 2, 3}
    same(got, reference_refine(matrix, start, 3))


@given(search_cases())
@settings(max_examples=80, deadline=None)
def test_refinement_matches_reference(case):
    matrix, k, weight, start = case
    if start is None:
        start = greedy_placement(matrix, k)
    same(
        refine_placement(matrix, start, k, balance_weight=weight),
        reference_refine(matrix, start, k, weight),
    )


@given(search_cases(), st.integers(0, 2**32 - 1), st.integers(1, 400))
@settings(max_examples=80, deadline=None)
def test_annealing_matches_reference(case, seed, steps):
    matrix, k, weight, start = case
    same(
        annealed_placement(
            matrix, k, seed=seed, initial=start, balance_weight=weight, steps=steps
        ),
        reference_anneal(
            matrix, k, seed=seed, initial=start, balance_weight=weight, steps=steps
        ),
    )


@pytest.mark.parametrize("k", [2, 3])
def test_costs_beyond_int64_stay_exact(k):
    # link weights whose hop-weighted sum overflows int64: the exhaustive
    # scores fall back to Python ints, the incremental deltas always are
    big = 2**62
    items = np.array(
        [[0, big, 0, 1], [big, 0, big - 1, 0], [0, 7, 0, big], [1, 0, big, 0]],
        dtype=np.int64,
    )
    matrix = CommunicationMatrix(["b", "a", "d", "c"], items)
    same(exhaustive_placement(matrix, k), reference_exhaustive(matrix, k))
    start = {"a": 1, "b": k, "c": 1, "d": 2}
    same(refine_placement(matrix, start, k), reference_refine(matrix, start, k))
    same(
        annealed_placement(matrix, k, seed=4, initial=start, steps=300),
        reference_anneal(matrix, k, seed=4, initial=start, steps=300),
    )
