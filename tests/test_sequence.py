"""Sequence table: seeds, recurrence, leftward extension, index search."""

import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from nzeck import (IndexNotFound, SequenceTable, char_at, count_prefix, decompose,
                   get_table, largest_index_at_most, perturbed_table, sequence, term)


@pytest.mark.parametrize("n,m,expected", [
    (3, 7, 6),
    (3, -2, 1),
    (3, 0, 0),
    (2, 10, 55),
    (3, 3, 1),
    (2, 1, 1),
])
def test_term_examples(n, m, expected):
    assert term(n, m) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_seeds_are_ones(n):
    assert [term(n, m) for m in range(1, n + 1)] == [1] * n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_recurrence(n):
    for m in range(n, 61):
        assert term(n, m + 1) == term(n, m) + term(n, m + 1 - n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_left_extension_window(n):
    # zeros down to 2-n, a lone 1 at 1-n, zeros again down to 3-2n
    for m in range(2 - n, 1):
        assert term(n, m) == 0, m
    assert term(n, 1 - n) == 1
    for m in range(3 - 2 * n, -n + 1):
        assert term(n, m) == 0, m


def test_left_extension_satisfies_recurrence_everywhere():
    for n in (2, 3, 4, 5):
        for m in range(3 - 3 * n, 2 * n):
            assert term(n, m + 1) == term(n, m) + term(n, m + 1 - n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_strictly_increasing_from_n(n):
    values = [term(n, m) for m in range(n, n + 50)]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_backward_then_forward_roundtrip(n):
    # rebuild the forward table from backward-extended values only
    rebuilt = {m: term(n, m) for m in range(3 - 2 * n, 1)}
    for m in range(0, 40):
        rebuilt[m + 1] = rebuilt[m] + rebuilt[m + 1 - n]
    for m in range(1, 41):
        assert rebuilt[m] == term(n, m)


def test_term_is_idempotent():
    fresh = SequenceTable(3)
    assert fresh.term(30) == fresh.term(30)
    assert fresh.term(-7) == fresh.term(-7)


@pytest.mark.parametrize("n,bound,expected", [
    (3, 10, 8),
    (3, 1, 3),
    (2, 100, 11),
])
def test_largest_index_at_most(n, bound, expected):
    assert largest_index_at_most(n, bound) == expected


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        get_table(1)
    with pytest.raises(ValueError):
        SequenceTable(0)


@pytest.mark.parametrize("order", [3.0, True, 2.5, "3"])
def test_get_table_hit_path_still_rejects_non_int_orders(order):
    # 3.0 == 3 would find the order-3 table in the registry
    get_table(3)
    with pytest.raises(ValueError, match="order n must be an integer"):
        get_table(order)


def test_concurrent_reads_agree():
    fresh = SequenceTable(4)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(fresh.term, range(1, 300)))
    assert results == [term(4, m) for m in range(1, 300)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_term_grows_exactly_to_the_index(n):
    fresh = SequenceTable(n)
    top = n
    for m in (n + 1, 2 * n + 3, 100, 101, 57, -9):
        fresh.term(m)
        top = max(top, m)
        assert fresh.hi == top


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("bound", [1, 2, 10, 10**6 + 7, 10**50, 10**300])
def test_searches_grow_to_the_first_term_past_the_bound(n, bound, monkeypatch):
    fresh = SequenceTable(n)
    c = fresh.largest_index_at_most(bound)
    assert fresh.hi == c + 1
    assert fresh.term(c) <= bound < fresh.term(c + 1)
    monkeypatch.setitem(sequence._TABLES, n, SequenceTable(n))
    assert decompose(n, bound)[-1] == c
    assert get_table(n).hi == c + 1


# F(n, 100) + delta turns every later term negative, or, where delta is
# None, makes F(n, 101) exactly 0, so a bound above the table would stay out
# of reach: growth refuses the first term that is not positive instead of
# growing until memory runs out
@pytest.mark.parametrize("n,delta", [(2, -10**30), (3, -10**20), (4, None), (5, -10**20),
                                     (6, None), (7, -10**20), (8, None)])
def test_growth_refuses_a_term_that_is_not_positive(n, delta):
    bad = "0" if delta is None else r"-\d+"
    if delta is None:
        delta = -term(n, 100) - term(n, 101 - n)
    with perturbed_table(n, 100, delta) as broken:
        for call in (decompose, count_prefix, char_at):
            start = time.perf_counter()
            message = rf"^term 101 of order {n} is {bad}, not positive$"
            with pytest.raises(IndexNotFound, match=message):
                call(n, 10**2999)
            assert time.perf_counter() - start < 1, call.__name__
        with pytest.raises(IndexNotFound, match="^term 101 "):
            broken.forward_through(10**6)
        assert broken.hi == 100


def test_concurrent_forward_past_matches_serial_growth():
    bounds = [10**d + d for d in (3, 250, 40, 1, 180, 300, 75, 120)] * 4
    reference = SequenceTable(3)
    for bound in bounds:
        reference.forward_past(bound)
    shared = SequenceTable(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            lists = list(pool.map(shared.forward_past, bounds, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(live is shared._fwd for live in lists)
    assert shared._fwd == reference._fwd
    assert shared.hi == reference.hi


def test_concurrent_backward_reads_match_serial_reads():
    indices = list(range(-400, 1))
    random.Random(10).shuffle(indices)
    serial = SequenceTable(3)
    expected = [serial.term(m) for m in indices]
    shared = SequenceTable(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(shared.term, indices, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    # indices <= 0 are computed, never stored
    assert shared.stats() == {"lo": 1, "hi": 3, "approx_bytes": 3}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_deep_backward_terms_match_a_plain_loop(n):
    # values[k] = F(n - k): the n seeds, then F(j) = F(j + n) - F(j + n - 1)
    values = [1] * n
    while len(values) <= n + 5000:
        values.append(values[-n] - values[1 - n])
    fresh = SequenceTable(n)
    assert fresh.term(-5000) == values[-1]
    # every index is a window call of its own, so sample the 5000 steps
    last = len(values) - 1
    sample = sorted({*range(0, last, 97), *range(2 * n), *range(last - n, last + 1)})
    assert [fresh.term(n - k) for k in sample] == [values[k] for k in sample]
    assert (fresh.lo, fresh.hi) == (1, n)


def test_fibonacci_at_negative_indices_is_the_signed_mirror():
    # F(-k) = (-1)^(k+1) F(k) for n = 2, against a forward table
    k = 20000
    assert SequenceTable(2).term(-k) == (-1) ** (k + 1) * SequenceTable(2).term(k)


def test_a_term_a_million_below_zero_keeps_the_recurrence_and_stores_nothing():
    n, m = 3, -10**6
    fresh = SequenceTable(n)
    before = fresh.stats()
    assert fresh.term(m) == fresh.term(m + n) - fresh.term(m + n - 1)
    assert fresh.stats() == before


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_perturbed_seed_reaches_indices_below_one(n, seed):
    clean = [term(n, m) for m in range(-3 * n, 1)]
    with sequence.perturbed_table(n, seed, 5):
        broken = [term(n, m) for m in range(-3 * n, 1)]
        # the corrupted table still satisfies the recurrence through index 1
        for m in range(-3 * n, 1):
            assert term(n, m + n) == term(n, m + n - 1) + term(n, m)
    assert broken != clean


def test_stats_report_the_window_and_term_bytes():
    fresh = SequenceTable(3)
    assert fresh.stats() == {"lo": 1, "hi": 3, "approx_bytes": 3}
    fresh.term(500)
    fresh.term(-5)
    expected = sum((abs(term(3, m)).bit_length() + 7) // 8 for m in range(1, 501))
    assert fresh.stats() == {"lo": 1, "hi": 500, "approx_bytes": expected}
    assert repr(fresh) == "SequenceTable(n=3, window=[1, 500])"
