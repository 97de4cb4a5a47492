"""The certified split of `decompose` and `count_prefix` (orders 2..5)
against the plain greedy, `count_block` and one more letter, for n = 2..8."""

import random
import time

import pytest
from test_decomposition import _uncapped_greedy
from test_words import SplitDepth

from nzeck import (IndexNotFound, NzeckError, SequenceTable, char_at, count_block,
                   count_prefix, decompose, decomposition, get_table, perturbed_table,
                   sequence, term)

LEAF = decomposition.LEAF_BITS
SUMS_LEAF = decomposition.SUMS_LEAF_BITS


def _refused_first_split(n, top):
    """Eight greedy picks from F(top) down, then F(m) + 1 with F(m) far above
    both leaves: the estimate of F(m) + 1 moved down lands just below a
    term, so the kept summands leave L = F(lowest kept - n + 1) + 1, one
    past the certified bound, and the split is refused."""
    picks = [top - i * (n + 1) for i in range(8)]
    return sum(map(term, [n] * 8, picks)) + term(n, picks[-1] - 2 * n) + 1


def _big_values(n):
    """Values around both leaf sizes, random values of 3000, 4500 and 6000
    digits, and structured 6000-digit values: F(m), F(m) - 1, F(m) + 1,
    2 F(m - 1), F(m) - F(m/2), the dense staircase with every gap n, and
    one whose first split is refused."""
    rng = random.Random(n)
    values = []
    for bits in (SUMS_LEAF, LEAF):
        values += [(1 << bits) - 1, 1 << bits, (1 << bits) + rng.getrandbits(bits)]
    values += [rng.randrange(10 ** (digits - 1), 10 ** digits) for digits in (3000, 4500, 6000)]
    m = get_table(n).largest_index_at_most(10**5999)
    values += [term(n, m), term(n, m) - 1, term(n, m) + 1, 2 * term(n, m - 1),
               term(n, m) - term(n, m // 2), sum(map(term, [n] * m, range(n, m + 1, n))),
               _refused_first_split(n, m)]
    return values


@pytest.fixture
def fresh_table(monkeypatch):
    """A fresh table per test, dropped after it (at n = 8 a 6000-digit
    table holds about 80 MB)."""
    def use(n):
        monkeypatch.setitem(sequence._TABLES, n, SequenceTable(n))
    return use


@pytest.mark.parametrize("n", range(2, 9))
def test_split_decompose_and_counts_match_greedy_and_count_block(n, fresh_table, monkeypatch,
                                                                 default_digit_limit):
    fresh_table(n)
    splits = SplitDepth(monkeypatch, decomposition, "_split")
    for i, value in enumerate(_big_values(n)):
        indices = decompose(n, value)
        assert indices == _uncapped_greedy(n, value), i
        counts = count_prefix(n, value)
        blocks = [count_block(n, c) for c in indices]
        assert counts == [sum(column) for column in zip(*blocks)], i
        letter = char_at(n, value)
        step = [now - before for now, before in zip(counts, count_prefix(n, value - 1))]
        assert step == [int(a == letter) for a in range(1, n + 1)], i
    # the split runs, and is refused at least once, for n <= 5 only
    if n <= decomposition.SPLIT_MAX_ORDER:
        assert None in splits.results and len(splits.results) > splits.results.count(None)
    else:
        assert splits.results == []


@pytest.mark.parametrize("n", range(2, 6))
def test_refused_first_split_falls_back_to_greedy(n, fresh_table, monkeypatch):
    fresh_table(n)
    value = _refused_first_split(n, get_table(n).largest_index_at_most(1 << 14000))
    splits = SplitDepth(monkeypatch, decomposition, "_split")
    assert decompose(n, value) == _uncapped_greedy(n, value)
    assert splits.results[0] is None


# a corrupted term reaches every later one; each call must end quickly,
# with some answer or one of the package's errors
@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("n", range(2, 6))
def test_split_on_a_corrupted_table_never_hangs(n, delta):
    rng = random.Random(n * delta)
    values = [rng.randrange(10**2999, 10**3000), (1 << LEAF) + rng.getrandbits(LEAF)]
    with perturbed_table(n, 9, delta):
        for value in values:
            for call in (decompose, count_prefix):
                start = time.perf_counter()
                try:
                    call(n, value)
                except (IndexNotFound, NzeckError):
                    pass
                assert time.perf_counter() - start < 5, call.__name__


# a zero term above the leaf ends a step-down after eight picks; the split
# there is refused rather than divided by, and the greedy goes on
@pytest.mark.parametrize("n", [2, 5])
def test_split_refuses_a_corrupted_zero_term(n, monkeypatch):
    m = get_table(n).largest_index_at_most(1 << (LEAF + 500))
    with perturbed_table(n, m, -term(n, m)) as broken:
        value = sum(broken.term(m + 1000 - i * (n + 1)) for i in range(8)) + 5
        splits = SplitDepth(monkeypatch, decomposition, "_split")
        indices = decompose(n, value)
        assert splits.results[0] is None
        assert sum(map(broken.term, indices)) == value
        assert sum(count_prefix(n, value)) == value
