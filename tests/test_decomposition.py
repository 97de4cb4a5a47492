"""Greedy decomposition, recompose and validate, against the exhaustive oracle."""

from bisect import bisect_right
from itertools import combinations
from math import log2

import pytest

from nzeck import (IndexNotFound, InvalidDecomposition, SequenceTable,
                   brute_force_decompositions, decompose, decomposition, get_table,
                   perturbed_table, recompose, sequence, term, validate)


@pytest.mark.parametrize("n,value,expected", [
    (3, 10, [3, 8]),
    (3, 1, [3]),
    (2, 100, [4, 6, 11]),
    (3, 0, []),
    (3, 7, [3, 7]),
])
def test_decompose_examples(n, value, expected):
    assert decompose(n, value) == expected


@pytest.mark.parametrize("n,indices,expected", [
    (3, [3, 8], 10),
    (3, [], 0),
    (3, [4, 7], 8),
])
def test_recompose_examples(n, indices, expected):
    assert recompose(n, indices) == expected


def test_recompose_rejects_small_gap():
    with pytest.raises(InvalidDecomposition):
        recompose(3, [3, 5])


def test_recompose_rejects_low_first_index():
    with pytest.raises(InvalidDecomposition):
        recompose(3, [2, 6])


@pytest.mark.parametrize("indices", [[3.0, 8], [3, 8.0], [3, 8.5], [True, 8], ["3", 8], [3, None],
                                     [3, 7.5, 11], [3, 1e9], [3, float("inf")]])
def test_recompose_rejects_non_integer_index(indices):
    with pytest.raises(ValueError, match="index must be an integer"):
        recompose(3, indices)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_recompose_empty_is_zero(n):
    assert recompose(n, []) == 0


def test_validate_messages():
    with pytest.raises(InvalidDecomposition, match="^first index 2 is below the order 3$"):
        validate(3, [2, 9])
    # several gaps are too small; the first one is reported
    with pytest.raises(InvalidDecomposition,
                       match="^gap 2 between indices 6 and 8 is below 3$"):
        validate(3, [3, 6, 8, 9, 10])
    validate(3, [3, 6, 9])
    validate(3, [])


# the order is checked as recompose checks it, with or without indices
@pytest.mark.parametrize("n,indices", [(1, [1, 2]), (3.5, [4]), (True, [1, 2]), (0, []),
                                       (-3, [5]), ("3", [3])])
def test_validate_rejects_a_bad_order(n, indices):
    with pytest.raises(ValueError, match=f"^order n must be an integer >= 2, got {n!r}$"):
        validate(n, indices)


def test_validate_reports_a_descending_pair_as_a_negative_gap():
    with pytest.raises(InvalidDecomposition, match="^gap -5 between indices 10 and 5 is below 3$"):
        validate(3, [10, 5])


# [3, 7, 11] with one index replaced: integral float, bool, digit string
@pytest.mark.parametrize("func", [validate, recompose])
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("make_bad", [float, lambda c: True, str], ids=["float", "bool", "str"])
def test_validate_and_recompose_reject_a_non_integer_index(func, position, make_bad):
    indices = [3, 7, 11]
    bad = indices[position] = make_bad(indices[position])
    with pytest.raises(ValueError, match=f"^index must be an integer, got {bad!r}$"):
        func(3, indices)


@pytest.mark.parametrize("n,value,max_index,expected", [
    (3, 10, 12, [[3, 8]]),
    (3, 7, 12, [[3, 7]]),
    (2, 4, 10, [[2, 4]]),
])
def test_brute_force_examples(n, value, max_index, expected):
    assert brute_force_decompositions(n, value, max_index) == expected


def _naive_gap_subsets(n, max_index):
    """Every gap-n subset of [n, max_index] by plain enumeration, by sum."""
    by_sum = {}
    pool = range(n, max_index + 1)
    for size in range(1, len(pool) + 1):
        for subset in combinations(pool, size):
            if all(b - a >= n for a, b in zip(subset, subset[1:])):
                by_sum.setdefault(sum(term(n, c) for c in subset), []).append(list(subset))
    return by_sum


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brute_force_matches_naive_enumeration(n):
    # max_index runs from below every greedy top to 2 above the largest
    top = get_table(n).largest_index_at_most(60)
    for max_index in range(n - 1, top + 3):
        naive = _naive_gap_subsets(n, max_index)
        for value in range(1, 61):
            assert brute_force_decompositions(n, value, max_index) == sorted(naive.get(value, [])), \
                (max_index, value)


def _uncapped_greedy(n, value):
    """Greedy that never restricts the next index; the gap should emerge."""
    table = get_table(n)
    indices = []
    remainder = value
    while remainder > 0:
        c = table.largest_index_at_most(remainder)
        indices.append(c)
        remainder -= table.term(c)
    return indices[::-1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gap_emerges_without_cap(n):
    for value in range(0, 2001):
        assert _uncapped_greedy(n, value) == decompose(n, value), value


def test_big_values_round_trip():
    for n in (2, 3, 5):
        for value in (10**18, 10**30 + 7, term(n, 200) - 1):
            assert recompose(n, decompose(n, value)) == value


class _CountingList(list):
    """A forward list that counts its reads; bisect_right reads through
    __getitem__ too."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_decompose_bisects_once_then_reads_linearly_in_the_top_index(monkeypatch):
    table = SequenceTable(3)
    table.forward_through(5000)
    fwd = table._fwd = _CountingList(table._fwd)
    monkeypatch.setitem(sequence._TABLES, 3, table)
    bisects = []

    def counted_bisect(*args):
        bisects.append(args[1])
        return bisect_right(*args)

    monkeypatch.setattr(decomposition, "bisect_right", counted_bisect)
    assert decompose(3, 10) == [3, 8]
    assert fwd.reads <= 30
    value = term(3, 3000) + 1
    fwd.reads = 0
    # the step-down walks from 2997 to 3, never the 5000-entry table
    assert decompose(3, value) == [3, 3000]
    assert fwd.reads <= 3000 + 4 * log2(5000)
    assert bisects == [10, value]


# F(3, 3) stored as 2 leaves no index >= 3 holding 1: once for the first
# summand, of value 1, and once after F(3, 5) = 4 is taken from 5
@pytest.mark.parametrize("value,hi", [(1, 4), (5, 3)])
def test_decompose_names_its_search_bound_on_a_corrupted_table(value, hi):
    with perturbed_table(3, 3):
        with pytest.raises(IndexNotFound, match=f"^no index >= 3 below {hi} fits the remainder 1$"):
            decompose(3, value)
