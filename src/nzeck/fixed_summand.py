"""Integers whose decomposition pins a particular summand.

Two families for a fixed order n and index k >= n:

* smallest-summand members: integers whose decomposition has F(n, k) as its
  smallest summand, in ascending order. Consecutive members differ by
  F(n, k + i) where a_i is the next letter of the infinite word, so the
  whole sequence streams off one letter per member.
* any-summand members: integers whose decomposition contains F(n, k) at
  all. Every such integer is a smallest-summand member plus an offset
  j < F(n, k-(n-1)) coming from a decomposition appended below index k.

Each generator is paired with an exhaustive-scan oracle that walks the
decompositions of 1, 2, 3, ... by the add-one rule, which never reads the
infinite word the generators are driven by.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count, islice, repeat, takewhile
from typing import Iterator, Sequence

from .decomposition import successive_decompositions
from .errors import NzeckError, _brief
from .sequence import get_table, require_at_most, require_int, require_order
from .words import DEFAULT_SCAN_LIMIT, stream


def smallest_summand_stream(n: int, k: int) -> Iterator[int]:
    """Ascending integers whose smallest summand is F(n, k), generated by
    the letter-driven gap rule: one big-int addition per member, adding
    step[a] = F(n, k + a) for each letter a of the word."""
    require_order(n)
    require_int("fixed index k", k, n)
    table = get_table(n)
    step = tuple(table.term(k + i) for i in range(n + 1))
    return accumulate(map(step.__getitem__, stream(n)), initial=step[0])


def smallest_summand_members(n: int, k: int, count: int) -> list[int]:
    """First `count` members of the smallest-summand sequence."""
    require_int("count", count, 1)
    return list(islice(smallest_summand_stream(n, k), count))


def smallest_summand_scan(n: int, k: int, bound: int,
                          scan_limit: int = DEFAULT_SCAN_LIMIT) -> list[int]:
    """Oracle: scan 1..bound keeping integers whose decomposition has
    smallest index exactly k.

    The decompositions come from the add-one walk
    (`successive_decompositions`), not from the letters of the word."""
    require_order(n)
    require_int("fixed index k", k, n)
    require_int("bound", bound)
    require_int("scan_limit", scan_limit, 0)
    require_at_most("scan bound", bound, scan_limit)
    return [value for value, rep in zip(range(1, bound + 1), successive_decompositions(n))
            if rep[-1] == k]


def largest_summand_rows(n: int, j: int) -> tuple[int, int]:
    """Row range (lo, hi), 1-based inclusive, of the smallest-summand
    sequence whose members have largest summand F(n, k + j), for any fixed
    k >= n and j >= n: rows F(n, j)+1 through F(n, j+1)."""
    require_order(n)
    require_int("j", j, n)
    table = get_table(n)
    return table.term(j) + 1, table.term(j + 1)


def any_summand_members(n: int, k: int, bound: int,
                        scan_limit: int = DEFAULT_SCAN_LIMIT) -> list[int]:
    """Ascending integers <= bound whose decomposition contains F(n, k).

    Built from the smallest-summand stream: each member q spawns the run
    q, q+1, ..., q+j_max with j_max = F(n, k-(n-1)) - 1, the offsets being
    the values representable entirely below index k. The base q grows with
    every member (letter counts only grow and all terms are positive), so
    the bases are taken while q <= bound. Runs from distinct members never
    overlap: consecutive bases differ by one step F(n, k+a), 1 <= a <= n,
    so before any base is drawn each of the n steps is checked to be at
    least the run length, and NzeckError names the first that is not. On
    a correct table F(n, k+a) >= F(n, k-(n-1)) and the check passes. The
    last run is clipped to bound. Each run is `islice(count(q), length)`,
    one int addition per member: a `range` over ints wider than a machine
    word does a multiply and an add per member on CPython 3.11. When
    j_max = 0 (k <= 2n - 1) every run is its base alone, and the bases are
    the answer. A member count above `scan_limit` is refused before any
    run is built, after at most (scan_limit - 1) // run length + 2 bases
    are drawn: that many already make more than scan_limit members. With
    runs of 1 that is scan_limit + 1 bases, and none where a count of the
    bases <= bound from below decides the refusal. A run length below 1,
    which only a corrupted table gives, is refused first.
    """
    require_order(n)
    require_int("fixed index k", k, n)
    require_int("bound", bound, 1)
    require_int("scan_limit", scan_limit, 0)
    table = get_table(n)
    run_len = table.term(k - (n - 1))
    if run_len < 1:
        raise NzeckError(f"empty runs for n={n}, k={k}: the run length "
                         f"F({n}, {k - (n - 1)}) is {_brief(run_len)}")
    for a in range(1, n + 1):
        if table.term(k + a) < run_len:
            raise NzeckError(f"overlapping runs for n={n}, k={k}: the step F({n}, {k + a}) "
                             f"is below the run length {_brief(run_len)}")
    cap = (scan_limit - 1) // run_len + 2
    if run_len == 1:  # bases from F(n, k) on, at most the largest step F(n, k + a) apart
        least = (bound - table.term(k)) // max(map(table.term, range(k + 1, k + n + 1))) + 1
        require_at_most("member count", min(least, cap), scan_limit)
    bases = list(islice(takewhile(bound.__ge__, smallest_summand_stream(n, k)), cap))
    if not bases:
        return bases
    last = bases[-1]
    require_at_most("member count", (len(bases) - 1) * run_len + min(run_len, bound + 1 - last),
                    scan_limit)
    if run_len == 1:
        return bases
    out = list(chain.from_iterable(map(islice, map(count, bases[:-1]), repeat(run_len))))
    out.extend(islice(count(last), min(run_len, bound + 1 - last)))
    return out


def _any_summand_flags(n: int, ks: Sequence[int], bound: int,
                       scan_limit: int = DEFAULT_SCAN_LIMIT) -> dict[int, bytearray]:
    """The any-summand scan for every k in `ks` from one add-one walk over
    1..bound: flags[k][value] is 1 iff the decomposition of value contains
    index k. A bound below 1 or an empty `ks` is an empty scan. The whole
    flag count, len(ks) * bound, is refused above `scan_limit` before any
    flag row is allocated; for one k that is a bound above it."""
    require_order(n)
    for k in ks:
        require_int("fixed index k", k, n)
    require_int("bound", bound)
    require_int("scan_limit", scan_limit, 0)
    require_at_most("flag count", len(ks) * bound, scan_limit)
    flags = {k: bytearray(max(bound, 0) + 1) for k in ks}
    get = flags.get
    for value, rep in zip(range(1, bound + 1) if ks else (), successive_decompositions(n)):
        for c in rep:
            row = get(c)
            if row is not None:
                row[value] = 1
    return flags


def any_summand_scan(n: int, k: int, bound: int,
                     scan_limit: int = DEFAULT_SCAN_LIMIT) -> list[int]:
    """Oracle: scan 1..bound keeping integers whose decomposition contains
    index k.

    The decompositions come from the add-one walk
    (`successive_decompositions`), not from the letters of the word."""
    flags = _any_summand_flags(n, (k,), bound, scan_limit)
    return list(compress(range(bound + 1), flags[k]))


def telescoping_identity(n: int, m: int, v: int, u: int) -> bool:
    """Exact check of F(m+vn+u) - sum_t F(m+tn+u-1) = F(m+u) for t = 1..v."""
    require_order(n)
    for name, value in (("m", m), ("v", v), ("u", u)):
        require_int(name, value)
    if m < 1 or v < 1 or not 1 <= u <= n:
        raise ValueError(f"need m >= 1, v >= 1, 1 <= u <= n; "
                         f"got m={_brief(m)}, v={_brief(v)}, u={_brief(u)}")
    table = get_table(n)
    lhs = table.term(m + v * n + u) - sum(table.term(m + t * n + u - 1) for t in range(1, v + 1))
    return lhs == table.term(m + u)
