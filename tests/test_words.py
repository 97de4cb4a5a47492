"""Blocks, the infinite word, random access, and letter counts."""

import random
from itertools import chain, count, islice

import pytest

from nzeck import (CHUNK_LETTERS, BlockTooLarge, ScanLimitExceeded,
                   SequenceTable, block, char_at, count_block, count_prefix,
                   count_prefix_scan, decompose, format_letters, get_table, prefix, sequence,
                   stream, stream_chunks, term, words)

WORD_3_PREFIX = [3, 1, 2, 3, 3, 1, 3, 1, 2, 3, 1, 2, 3, 3]
WORD_2_PREFIX = [2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 1]


def take(n, length):
    return list(islice(stream(n), length))


def per_letter_stream(n):
    """Reference: word = B(n) . B(1) . B(2) ... expanded one letter per step."""
    for idx in chain((n,), count(1)):
        stack = [idx]
        while stack:
            j = stack.pop()
            if j <= n:
                yield j
            else:
                stack.append(j - n)
                stack.append(j - 1)


@pytest.mark.parametrize("n,m,expected", [
    (3, 3, [3]),
    (3, 8, [3, 1, 2, 3, 3, 1, 3, 1, 2]),
    (2, 4, [2, 1, 2]),
    (3, 1, [1]),
])
def test_block_examples(n, m, expected):
    assert list(block(n, m)) == expected


def test_block_length_cap():
    with pytest.raises(BlockTooLarge):
        block(3, 60, length_cap=1000)


@pytest.mark.parametrize("m", [40000, 10**6])
def test_block_cap_refused_before_growth(m, monkeypatch):
    # both sizes are far above 4300 digits, and 10**6 terms would take ~39 GB
    monkeypatch.setitem(sequence._TABLES, 3, SequenceTable(3))
    with pytest.raises(BlockTooLarge):
        block(3, m, length_cap=10)
    assert get_table(3).hi == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_block_early_refusal_bound(n):
    # block() refuses m without growing the table once 2**((m - n) // n)
    # exceeds the cap; that is sound only if this lower bound holds
    for m in range(n, 400):
        assert term(n, m) >= 2 ** ((m - n) // n)


@pytest.mark.parametrize("make", [stream, stream_chunks])
def test_stream_checks_order_at_the_call(make):
    # no next(): the bad order must be refused before any letter is drawn
    with pytest.raises(ValueError, match="order n must be an integer"):
        make(1)


def test_stream_fixtures():
    assert take(3, 14) == WORD_3_PREFIX
    assert take(2, 13) == WORD_2_PREFIX
    assert take(3, 1) == [3]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stream_matches_per_letter_reference(n):
    # 3e5 letters cross dozens of chunk boundaries for every order
    length = 300_000
    assert take(n, length) == list(islice(per_letter_stream(n), length))
    seen = 0
    for chunk in stream_chunks(n):
        assert type(chunk) is bytes and 1 <= len(chunk) <= CHUNK_LETTERS
        seen += len(chunk)
        if seen >= length:
            break


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_recursion(n):
    cached = {m: block(n, m) for m in range(1, 26)}
    for m in range(n + 1, 26):
        assert cached[m] == cached[m - 1] + cached[m - n]


def test_block_recursion_for_orders_past_a_byte():
    # letters above 255 take the tuple path
    n = 300
    cached = {m: block(n, m) for m in range(1, 701)}
    assert max(cached[700]) == n
    for m in range(n + 1, 701):
        assert cached[m] == cached[m - 1] + cached[m - n], m
        assert len(cached[m]) == term(n, m), m


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_block_of_many_letters_is_a_stream_prefix(n):
    m = get_table(n).largest_index_at_most(10**5)
    assert list(block(n, m)) == take(n, term(n, m))


@pytest.mark.parametrize("n,kind", [(2, bytes), (3, bytes), (255, bytes),
                                    (256, tuple), (300, tuple)])
def test_block_holds_its_letters_in_bytes_below_order_256_else_a_tuple(n, kind):
    # immutable, so a caller cannot corrupt a block another caller holds
    for m in (1, n, n + 1, n + 12):
        letters = block(n, m)
        assert type(letters) is kind, m
        assert {type(letter) for letter in letters} == {int}, m
    assert max(block(n, 2 * n)) == n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_blocks_are_stream_prefixes_from_n(n):
    # seeds below index n are single letters a_1..a_{n-1}, not prefixes
    prefix = take(n, term(n, 15))
    for m in range(n, 16):
        assert list(block(n, m)) == prefix[:term(n, m)]
    if n > 2:
        assert list(block(n, 1)) != prefix[:1]


@pytest.mark.parametrize("n,length,expected", [
    (3, 10, [8, 3]),
    (3, 1, [3]),
    (3, 13, [9]),
])
def test_prefix_by_decomposition_examples(n, length, expected):
    assert decompose(n, length)[::-1] == expected
    concatenated = []
    for c in expected:
        concatenated += block(n, c)
    assert concatenated == take(n, length)


def test_char_at_examples():
    assert char_at(3, 5) == 3
    assert char_at(3, term(3, 9)) == 3  # position 13
    assert char_at(3, 1) == 3


def test_char_at_matches_stream_at_millionth():
    it = stream(3)
    for _ in range(10**6 - 1):
        next(it)
    assert char_at(3, 10**6) == next(it)


@pytest.mark.parametrize("n,m,expected", [
    (3, 8, [3, 2, 4]),
    (3, 1, [1, 0, 0]),
    (3, 3, [0, 0, 1]),
])
def test_count_block_examples(n, m, expected):
    assert count_block(n, m) == expected


@pytest.mark.parametrize("n", [*range(2, 9), 50])
def test_count_block_counts_the_letters_of_the_block(n):
    # m up to 2n - 2 reads terms below index 1, stepped down from the seeds
    for m in range(1, 3 * n + 1):
        letters = block(n, m)
        assert count_block(n, m) == [letters.count(i) for i in range(1, n + 1)], m


@pytest.mark.parametrize("n", range(2, 9))
def test_count_block_grows_only_to_its_largest_read(n, monkeypatch):
    reference = SequenceTable(n)
    for m in range(1, 201):
        fresh = SequenceTable(n)
        monkeypatch.setitem(sequence._TABLES, n, fresh)
        counts = count_block(n, m)
        assert fresh.hi == max(n, m - n + 1), m
        # entry i-1 is F(m-n-i+1) for i < n, the last entry F(m-n+1)
        expected = [reference.term(m - n - i + 1) for i in range(1, n)]
        assert counts == expected + [reference.term(m - n + 1)], m


@pytest.mark.parametrize("n,length,expected", [
    (3, 10, [3, 2, 5]),
    (3, 0, [0, 0, 0]),
    (2, 13, [5, 8]),
])
def test_count_prefix_examples(n, length, expected):
    assert count_prefix(n, length) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_count_prefix_matches_scan_at_small_indices(n, monkeypatch):
    # lengths to 300 reach indices below 2n - 1, where count_block reads
    # backward terms; count_prefix's shifted sums read no backward term and
    # no forward one beyond those decompose grows
    for length in range(301):
        alone = SequenceTable(n)
        monkeypatch.setitem(sequence._TABLES, n, alone)
        decompose(n, length)
        fresh = SequenceTable(n)
        monkeypatch.setitem(sequence._TABLES, n, fresh)
        assert count_prefix(n, length) == count_prefix_scan(n, length), length
        assert (fresh.lo, fresh.hi) == (1, alone.hi), length


@pytest.mark.parametrize("n,length,expected", [
    (3, 10, [3, 2, 5]),
    (3, 1, [0, 0, 1]),
    (2, 4, [1, 3]),
])
def test_count_prefix_scan_examples(n, length, expected):
    assert count_prefix_scan(n, length) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_count_prefix_scan_matches_closed_form(n):
    rng = random.Random(n)
    edges = [0, 1, CHUNK_LETTERS - 1, CHUNK_LETTERS, CHUNK_LETTERS + 1]
    for length in edges + [rng.randrange(200_001) for _ in range(20)]:
        assert count_prefix_scan(n, length) == count_prefix(n, length), length


@pytest.mark.parametrize("n", [256, 300])
def test_orders_past_a_byte_hold_letters_in_tuples(n):
    # tens of thousands of letters: the blocks cross many chunk boundaries
    m = get_table(n).largest_index_at_most(50_000)
    length = term(n, m)
    prefix = take(n, length)
    assert block(n, m) == tuple(prefix)
    assert type(block(n, n)) is tuple
    seen = 0
    for chunk in stream_chunks(n):
        assert type(chunk) is tuple and 1 <= len(chunk) <= CHUNK_LETTERS
        seen += len(chunk)
        if seen >= length:
            break
    for cut in (0, 1, n, n + 1, CHUNK_LETTERS, CHUNK_LETTERS + 1, length):
        assert count_prefix_scan(n, cut) == count_prefix(n, cut), cut


@pytest.mark.parametrize("n,kind", [(2, bytes), (3, bytes), (255, bytes),
                                    (256, tuple), (300, tuple)])
@pytest.mark.parametrize("length", [0, 1, CHUNK_LETTERS - 1, CHUNK_LETTERS + 1])
def test_prefix_is_the_stream_in_the_container_of_a_block(n, kind, length):
    letters = prefix(n, length)
    assert type(letters) is kind
    assert letters == kind(islice(stream(n), length))


def test_prefix_refuses_a_length_above_the_cap(monkeypatch):
    monkeypatch.setattr(words, "DEFAULT_LENGTH_CAP", 60)
    assert prefix(3, 60) == bytes(islice(stream(3), 60))
    monkeypatch.setattr(words, "DEFAULT_LENGTH_CAP", 59)
    with pytest.raises(BlockTooLarge, match="^prefix length 60 exceeds the limit 59$"):
        prefix(3, 60)


def test_count_prefix_scan_tallies_tuple_chunks_in_one_pass():
    # at this order n `count` calls per chunk, O(n) each, take about a second
    assert count_prefix_scan(10**4, 10**5) == count_prefix(10**4, 10**5)


def test_count_prefix_scan_limit():
    with pytest.raises(ScanLimitExceeded):
        count_prefix_scan(3, 100, scan_limit=10)


def test_format_letters():
    assert format_letters([3, 1, 2]) == "a3 a1 a2"
    assert format_letters([]) == ""
    # an iterator is read once, not used up by a first pass
    assert format_letters(iter([3, 1, 2])) == "a3 a1 a2"
    assert format_letters(islice(stream(3), 5)) == "a3 a1 a2 a3 a3"
    letters = take(6, 10_000)
    assert format_letters(letters) == " ".join(f"a{x}" for x in letters)
