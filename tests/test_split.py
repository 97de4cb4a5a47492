"""The divide and conquer of decomposition.py: the certified split of
`decompose` and `count_prefix` (orders 2..5) and the split shifted sums,
against the plain greedy, `count_block` and one more letter, for n = 2..8."""

import random
import time
from itertools import chain

import pytest
from test_decomposition import _uncapped_greedy

from nzeck import (IndexNotFound, NzeckError, SequenceTable, char_at, count_block,
                   count_prefix, decompose, decomposition, get_table, perturbed_table,
                   sequence, term)

LEAF = decomposition.LEAF_BITS
SUMS_LEAF = decomposition.SUMS_LEAF_BITS


class SplitDepth:
    """Wraps a module's function (recursion calls go through the module
    name) and records how deep its calls nest: `deepest` is 0 for calls
    that never nest, and `results` keeps every return value."""

    def __init__(self, monkeypatch, module, name):
        self.inner = getattr(module, name)
        self.level = self.deepest = 0
        self.results = []
        monkeypatch.setattr(module, name, self)

    def __call__(self, *args):
        self.level += 1
        self.deepest = max(self.deepest, self.level - 1)
        try:
            result = self.inner(*args)
        finally:
            self.level -= 1
        self.results.append(result)
        return result


def _refused_first_split(n, top):
    """Eight greedy picks from F(top) down, then F(m) + 1 with F(m) far above
    both leaves: the estimate of F(m) + 1 moved down lands just below a
    term, so the kept summands leave L = F(lowest kept - n + 1) + 1, one
    past the certified bound, and the split is refused."""
    picks = [top - i * (n + 1) for i in range(8)]
    return sum(map(term, [n] * 8, picks)) + term(n, picks[-1] - 2 * n) + 1


def _big_values(n):
    """The dense staircase first: every gap exactly n, the most indices a
    6000-digit value can have. Then values around both leaf sizes, random
    values of 10 to 6000 digits, powers of ten at a few orders (10**5000 is
    past the 4300-digit int<->str limit; it is never printed), and
    structured 6000-digit values: F(m), F(m) - 1, F(m) + 1, 2 F(m - 1),
    F(m) - F(m/2) and one whose first split is refused."""
    rng = random.Random(n)
    m = get_table(n).largest_index_at_most(10**5999)
    values = [sum(map(term, [n] * m, range(n, m + 1, n)))]
    for bits in (SUMS_LEAF, LEAF):
        values += [(1 << bits) - 1, 1 << bits, (1 << bits) + rng.getrandbits(bits)]
    values += [rng.randrange(10 ** (digits - 1), 10 ** digits)
               for digits in (10, rng.randrange(11, 3000), 3000, 4000, 4400, 4500, 6000)]
    values += {2: [10**1000, 10**5000], 3: [10**1000], 6: [10**1000 - 1]}.get(n, [])
    values += [term(n, m), term(n, m) - 1, term(n, m) + 1, 2 * term(n, m - 1),
               term(n, m) - term(n, m // 2), _refused_first_split(n, m)]
    return values


@pytest.fixture
def fresh_table(monkeypatch):
    """A fresh table per test, dropped after it (at n = 8 a 6000-digit
    table holds about 80 MB)."""
    def use(n):
        table = SequenceTable(n)
        monkeypatch.setitem(sequence._TABLES, n, table)
        return table
    return use


# the scans stop at 10**4 letters; above that decompose is held to a greedy
# that never restricts the next index, and the letter counts to count_block
# summed over the decomposition, which reads each term directly, and to the
# letter that one more position adds
@pytest.mark.parametrize("n", range(2, 9))
def test_big_values_match_greedy_count_block_and_one_more_letter(n, fresh_table, monkeypatch,
                                                                default_digit_limit):
    table = fresh_table(n)
    values = _big_values(n)
    decompose(n, values[0])
    grown = table.hi
    splits = SplitDepth(monkeypatch, decomposition, "_split")
    sums = SplitDepth(monkeypatch, decomposition, "_shifted_sums")
    for i, value in enumerate(values):
        counts = count_prefix(n, value)
        if i == 0:
            # the dense staircase: n <= 5 takes the sums from decompose's
            # certified split, whose splits nest inside the upper parts they
            # decompose; n >= 6 splits the sums. Neither reads a term beyond
            # those decompose grows.
            assert table.hi == grown
            if n <= decomposition.SPLIT_MAX_ORDER:
                assert splits.deepest >= 2 and None not in splits.results
            else:
                assert sums.deepest >= 3
        indices = decompose(n, value)
        assert indices == _uncapped_greedy(n, value), i
        blocks = [count_block(n, c) for c in indices]
        assert counts == [sum(column) for column in zip(*blocks)], i
        assert sum(counts) == value, i
        letter = char_at(n, value)
        step = [now - before for now, before in zip(counts, count_prefix(n, value - 1))]
        assert step == [int(a == letter) for a in range(1, n + 1)], i
    # the split runs, and is refused at least once, for n <= 5 only
    if n <= decomposition.SPLIT_MAX_ORDER:
        assert None in splits.results and len(splits.results) > splits.results.count(None)
    else:
        assert splits.results == []


class Forward(list):
    """A copy of the forward list that refuses slot 0, negative indices
    (which would wrap round) and any index past its end."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            assert key.step is None and 1 <= key.start <= key.stop <= len(self), key
        else:
            assert 1 <= key < len(self), key
        return super().__getitem__(key)


@pytest.mark.parametrize("n", range(2, 9))
def test_shifted_sums_split_down_to_single_indices_match_the_plain_sums(n, monkeypatch):
    # SPLIT_WORK = 0 splits every run of two or more indices, so every
    # combine step runs, including those whose reads fall on the zero terms
    # 2 - n..0
    rng = random.Random(-n)
    big = [rng.randrange(10 ** (digits - 1), 10 ** digits) for digits in (30, 300, 1000)]
    for length in chain(range(3001), big):
        indices = decompose(n, length)
        fwd = get_table(n).forward_past(length)
        plain = [sum([fwd[c - s] for c in indices]) for s in range(1, n)]
        top = Forward(fwd[:indices[-1] + 1] if indices else fwd[:1])
        assert decomposition._shifted_sums(top, n, indices, 0, 1) == plain, length
        with monkeypatch.context() as patch:
            patch.setattr(decomposition, "SPLIT_WORK", 0)
            assert decomposition._shifted_sums(top, n, indices, 0, 1) == plain, length


# count_prefix's sums come from decompose's split for n <= 5 above the sums
# leaf and from the shifted sums over decompose's indices otherwise; either
# way they are T_0..T_(n-1), the sums of F(c - s) over the indices c
@pytest.mark.parametrize("n", range(2, 9))
def test_decomposition_sums_take_the_split_only_above_the_sums_leaf_at_low_orders(n, monkeypatch):
    rng = random.Random(n + 100)
    values = [0, 1, rng.randrange(2, 10**6), (1 << SUMS_LEAF) - 1, 1 << SUMS_LEAF,
              (1 << SUMS_LEAF) + rng.getrandbits(SUMS_LEAF)]
    walks = SplitDepth(monkeypatch, decomposition, "_walk")
    shifted = SplitDepth(monkeypatch, decomposition, "_shifted_sums")
    for value in values:
        fwd = get_table(n).forward_past(value)
        before = len(walks.results), len(shifted.results)
        sums = decomposition._decomposition_sums(fwd, n, value)
        split = n <= decomposition.SPLIT_MAX_ORDER and value >= 1 << SUMS_LEAF
        ran = len(walks.results) > before[0], len(shifted.results) > before[1]
        assert ran == (split, not split), value
        indices = decompose(n, value)
        assert sums == [sum(fwd[c - s] for c in indices) for s in range(n)], value


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
