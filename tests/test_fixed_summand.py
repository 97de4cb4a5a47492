"""Fixed-summand families: letter-driven generators vs scan oracles."""

import re
from itertools import compress, islice, takewhile

import pytest

from nzeck import (NzeckError, fixed_summand, ScanLimitExceeded, any_summand_members,
                   any_summand_scan, decompose, get_table,
                   largest_summand_rows, perturbed_table,
                   smallest_summand_members, smallest_summand_scan,
                   smallest_summand_stream, stream, telescoping_identity, term)
from nzeck.decomposition import successive_decompositions
from nzeck.fixed_summand import _any_summand_flags


@pytest.mark.parametrize("n,k,count,expected", [
    (3, 4, 4, [2, 8, 11, 15]),
    (3, 4, 1, [2]),
    # oracle-computed: members start 1, 4, 6 for the classical case n=2, k=2
    (2, 2, 3, [1, 4, 6]),
])
def test_smallest_summand_members_examples(n, k, count, expected):
    assert smallest_summand_members(n, k, count) == expected


def test_smallest_summand_first_is_the_term():
    for n, k in [(2, 5), (3, 3), (3, 9), (4, 6)]:
        assert next(smallest_summand_stream(n, k)) == term(n, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_smallest_summand_stream_matches_per_member_loop(n):
    count = 20_000
    letters = list(islice(stream(n), count - 1))
    for k in (n, n + 3, 200):
        current = term(n, k)
        expected = [current]
        for letter in letters:
            current += term(n, k + letter)
            expected.append(current)
        assert list(islice(smallest_summand_stream(n, k), count)) == expected, k


def test_smallest_summand_strictly_increasing():
    members = smallest_summand_members(3, 5, 50)
    assert all(a < b for a, b in zip(members, members[1:]))


@pytest.mark.parametrize("n,k,bound,expected", [
    (3, 4, 16, [2, 8, 11, 15]),
    (3, 3, 5, [1, 5]),
    (3, 9, 12, []),
])
def test_smallest_summand_scan_examples(n, k, bound, expected):
    assert smallest_summand_scan(n, k, bound) == expected


def test_smallest_summand_scan_limit():
    with pytest.raises(ScanLimitExceeded):
        smallest_summand_scan(3, 4, 100, scan_limit=10)


@pytest.mark.parametrize("n,j,expected", [
    (3, 3, (2, 2)),
    (3, 5, (4, 4)),
    (3, 6, (5, 6)),
])
def test_largest_summand_rows_examples(n, j, expected):
    assert largest_summand_rows(n, j) == expected


# (3, 4) is fixed-summand's `rows` cases in the default verify sweep
@pytest.mark.parametrize("n,k", [(3, 6), (4, 5)])
def test_row_ranges_classify_members(n, k):
    j_top = 2 * n + 2
    hi_row = term(n, j_top + 1)
    members = smallest_summand_members(n, k, hi_row)
    tops = [decompose(n, q)[-1] for q in members]
    for j in range(n, j_top + 1):
        lo, hi = largest_summand_rows(n, j)
        inside = {r for r in range(1, hi_row + 1) if lo <= r <= hi}
        classified = {r for r in range(1, hi_row + 1) if tops[r - 1] == k + j}
        assert inside == classified, j


@pytest.mark.parametrize("n,k,bound,expected", [
    (3, 4, 20, [2, 8, 11, 15]),
    (3, 6, 30, [4, 5, 17, 18, 23, 24]),
    (3, 9, 12, []),
])
def test_any_summand_members_examples(n, k, bound, expected):
    assert any_summand_members(n, k, bound) == expected


@pytest.mark.parametrize("n,k,bound,expected", [
    (3, 4, 20, [2, 8, 11, 15]),
    (3, 6, 30, [4, 5, 17, 18, 23, 24]),
    (2, 4, 11, [3, 4, 11]),
])
def test_any_summand_scan_examples(n, k, bound, expected):
    assert any_summand_scan(n, k, bound) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_any_summand_matches_scan(n):
    for k in range(n, n + 7):
        assert any_summand_members(n, k, 3000) == any_summand_scan(n, k, 3000), k


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_any_summand_members_match_scan_with_and_without_offsets(n):
    # k <= 2n - 1 gives single-member runs (j_max = 0); k = 2n + 1 gives
    # runs of F(n, n + 2) = 3 members
    for k in (n + 1, n + 3, 2 * n + 1):
        run_len = term(n, k - (n - 1))
        assert (run_len == 1) == (k <= 2 * n - 1), k
        assert any_summand_members(n, k, 20_000) == any_summand_scan(n, k, 20_000), k


def test_any_summand_members_clip_the_last_run_to_the_bound():
    # n = 3, k = 8: bases 9, 37, ..., each with a run of F(3, 6) = 4 members
    assert any_summand_members(3, 8, 12) == [9, 10, 11, 12]
    assert any_summand_members(3, 8, 10) == [9, 10]
    assert any_summand_members(3, 8, 38) == [9, 10, 11, 12, 37, 38]
    for bound in range(1, 300):
        assert any_summand_members(3, 8, bound) == any_summand_scan(3, 8, bound), bound


# runs are counted up from their base; a range over ints wider than a machine
# word is the reference. k = 20 gives 4 runs of F(3, 18) = 406 members, the
# last clipped; at k = 200 and 300 one run of members above 2^63 is clipped
@pytest.mark.parametrize("n,k,span", [(3, 20, 6000), (2, 200, 10**4), (6, 300, 10**5)])
def test_any_summand_runs_match_ranges(n, k, span):
    bound = term(n, k) + span
    run_len = term(n, k - (n - 1))
    bases = takewhile(bound.__ge__, smallest_summand_stream(n, k))
    expected = [z for q in bases for z in range(q, min(q + run_len, bound + 1))]
    assert any_summand_members(n, k, bound) == expected


def test_any_summand_members_below_the_first_base_are_empty():
    assert any_summand_members(3, 8, 8) == []
    assert any_summand_members(5, 40, 1) == []


def test_any_summand_members_sorted_distinct():
    members = any_summand_members(3, 8, 5000)
    assert members == sorted(set(members))


def test_any_summand_members_rejects_overlapping_runs(monkeypatch):
    # widen every run past the next base: j_max reads F(3, k - 2) = F(3, 2)
    table = get_table(3)
    real_term = table.term
    monkeypatch.setattr(table, "term", lambda m: 100 if m == 2 else real_term(m))
    # bases 2, 8, ...: the run 2..101 swallows base 8
    with pytest.raises(NzeckError, match="overlapping runs") as info:
        any_summand_members(3, 4, 50)
    assert "the step F(3, 5) is below the run length 100" in str(info.value)


def test_any_summand_members_refuses_overlapping_runs_before_drawing_a_base(monkeypatch):
    table = get_table(3)
    real_term = table.term
    monkeypatch.setattr(table, "term", lambda m: 100 if m == 2 else real_term(m))

    def no_bases(n, k):
        raise AssertionError("a base was drawn")

    monkeypatch.setattr(fixed_summand, "smallest_summand_stream", no_bases)
    with pytest.raises(NzeckError, match="overlapping runs"):
        any_summand_members(3, 4, 50)


def test_any_summand_members_refuses_a_bad_step_whose_letter_is_not_drawn(monkeypatch):
    # n = 3, k = 8: runs of F(3, 6) = 4 values, bases 9, 9 + F(11) = 37, then
    # 37 + F(9) = 50; up to 49 only letter a3's step is taken, so a corrupted
    # F(10) (letter a2) never separates two drawn bases
    table = get_table(3)
    real_term = table.term
    assert [real_term(m) for m in (6, 8, 9, 10, 11)] == [4, 9, 13, 19, 28]
    monkeypatch.setattr(table, "term", lambda m: 1 if m == 10 else real_term(m))
    with pytest.raises(NzeckError, match=re.escape(
            "overlapping runs for n=3, k=8: the step F(3, 10) is below the run length 4")):
        any_summand_members(3, 8, 49)


def test_any_summand_members_refuse_a_member_count_above_the_scan_limit():
    # n = 3, k = 8: runs of 4, so 9..12 and 37..38 are 6 members
    assert any_summand_members(3, 8, 38, scan_limit=6) == [9, 10, 11, 12, 37, 38]
    with pytest.raises(ScanLimitExceeded, match="^member count 6 exceeds the limit 5$"):
        any_summand_members(3, 8, 38, scan_limit=5)
    # single-member runs: 2, 8, 11, 15 up to 20; the bound itself is above the limit
    assert any_summand_members(3, 4, 20, scan_limit=4) == [2, 8, 11, 15]
    with pytest.raises(ScanLimitExceeded, match="^member count 4 exceeds the limit 3$"):
        any_summand_members(3, 4, 20, scan_limit=3)


def _count_draws(monkeypatch):
    """The bases `any_summand_members` draws, through a wrapped stream."""
    drawn = []

    def counted(n, k):
        for q in smallest_summand_stream(n, k):
            drawn.append(q)
            yield q

    monkeypatch.setattr(fixed_summand, "smallest_summand_stream", counted)
    return drawn


# runs of 1 (k = 4) and of 4 (k = 8) members: (10 - 1) // 1 + 2 = 11 and
# (10 - 1) // 4 + 2 = 4 bases, whose runs hold 11 and 16 members. Runs of 1
# are first counted from below, (bound - 2) // 6 + 1 bases (6 = F(3, 7), the
# largest step): over 10 for 10**5000, so none is drawn, but 10 for 61, which
# has 13 bases below it, so 11 are drawn
@pytest.mark.parametrize("k,bound,members,bases", [(4, 10**5000, 11, 0), (4, 61, 11, 11),
                                                   (8, 10**5000, 16, 4)],
                         ids=["4-huge-11-0", "4-61-11-11", "8-huge-16-4"])
def test_any_summand_members_draw_at_most_one_base_past_the_scan_limit(monkeypatch, k, bound,
                                                                       members, bases):
    drawn = _count_draws(monkeypatch)
    with pytest.raises(ScanLimitExceeded, match=f"^member count {members} exceeds the limit 10$"):
        any_summand_members(3, k, bound, scan_limit=10)
    assert len(drawn) == bases


def test_any_summand_members_draw_bases_by_the_run_length(monkeypatch):
    # runs of F(3, 7) = 6: 166668 bases already hold 1000008 members
    drawn = _count_draws(monkeypatch)
    with pytest.raises(ScanLimitExceeded, match="^member count 1000008 exceeds the limit 1000000$"):
        any_summand_members(3, 9, 10**30, scan_limit=10**6)
    assert len(drawn) == (10**6 - 1) // 6 + 2 == 166668


def test_any_summand_members_refuse_an_empty_run():
    # F(3, 1) stored as 0 makes every run of k = 3 empty; it is refused
    # before the run length divides anything
    with perturbed_table(3, 1, -1):
        with pytest.raises(NzeckError, match=re.escape(
                "empty runs for n=3, k=3: the run length F(3, 1) is 0")):
            any_summand_members(3, 3, 100)


def test_any_summand_scan_domain():
    # a bound below 1 scans nothing, including the bounds that a
    # bytearray(bound + 1) would refuse
    for bound in (0, -1, -2, -5):
        assert any_summand_scan(3, 3, bound) == [], bound
    assert any_summand_scan(3, 3, 10, 10) == [1, 5, 7, 10]
    with pytest.raises(ScanLimitExceeded, match="^flag count 10 exceeds the limit 5$"):
        any_summand_scan(3, 3, 10, 5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_one_walk_flags_every_k_as_the_per_k_scans_do(n):
    ks = range(n, n + 7)
    bound = 20_000
    flags = _any_summand_flags(n, ks, bound, len(ks) * bound)
    assert list(flags) == list(ks)
    # reference: a membership test per k on one walk
    expected = {k: [] for k in ks}
    for value, rep in zip(range(1, bound + 1), successive_decompositions(n)):
        for k in ks:
            if k in rep:
                expected[k].append(value)
    for k in ks:
        scanned = any_summand_scan(n, k, bound)
        assert scanned == expected[k] == list(compress(range(bound + 1), flags[k])), k


@pytest.mark.parametrize("n,m,v,u", [
    (3, 1, 1, 2),
    (3, 2, 2, 1),
    (2, 1, 1, 1),
])
def test_telescoping_examples(n, m, v, u):
    assert telescoping_identity(n, m, v, u)


def test_telescoping_rejects_bad_args():
    with pytest.raises(ValueError):
        telescoping_identity(3, 0, 1, 1)
    with pytest.raises(ValueError):
        telescoping_identity(3, 1, 1, 4)


def test_gap_rule_matches_letters():
    # consecutive members differ by F(k + letter) for the next word letter
    n, k = 3, 5
    members = smallest_summand_members(n, k, 40)
    letters = list(islice(stream(n), 39))
    for j, (a, b) in enumerate(zip(members, members[1:])):
        assert b - a == term(n, k + letters[j]), j
