"""Gap-n decompositions of nonnegative integers.

Every positive integer is a sum of order-n sequence terms F(n, c_1) + ... +
F(n, c_k) with c_1 >= n and consecutive indices at least n apart, and that
representation is unique. Three algorithms compute it, each checked against
the others by the harness:

* `decompose`, the greedy rule: take the largest term not exceeding the
  remainder, bisecting the sequence table once for the largest summand and
  stepping down from there for the rest. For orders n <= 5 a big remainder
  is split instead (`_walk`): the upper part of its decomposition, moved
  down, is estimated from a ratio of terms and decomposed on its own, then
  moved back up through the companion-matrix identity, and the split is
  kept only when what is left certifies it. Every answer is the greedy's.
* `successive_decompositions`, the add-one rule: walk 1, 2, 3, ... applying
  F(n, c) + 1 = F(n, c + 1) at the smallest index and carrying
  F(n, a) + F(n, a + n - 1) = F(n, a + n) upward. It touches no table, so it
  stays independent of the greedy table search and of the letter-driven
  generators that the scans built on it check.
* `brute_force_decompositions`, exhaustive search over every gap-n index
  subset: the uniqueness oracle.

Decompositions are plain ascending lists of indices, so the largest
summand's index is `indices[-1]`; the empty list represents 0.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import mul
from typing import Iterator

from .errors import IndexNotFound, InvalidDecomposition, _brief
from .sequence import get_table, require_int, require_order

# For orders n <= SPLIT_MAX_ORDER every root of x^n - x^(n-1) - 1 but the
# largest has modulus <= 1, so R F(C - s) / F(C) lands within a few units of
# the upper part of R's decomposition moved down by s, and `_walk` splits a
# remainder whose top term has more than LEAF_BITS bits, or SUMS_LEAF_BITS
# when its shifted sums are wanted too. A split follows GREEDY_PICKS greedy
# picks, under-estimates by UNDERSHOOT and keeps the summands whose terms
# have more than TRUST_BITS bits.
SPLIT_MAX_ORDER = 5
LEAF_BITS = 10_000
SUMS_LEAF_BITS = 4000
GREEDY_PICKS = 8
UNDERSHOOT = 64
TRUST_BITS = 32
SPLIT_WORK = 15_000_000


def decompose(n: int, value: int) -> list[int]:
    """Ascending index list of the unique gap-n decomposition of value >= 0.

    Greedy: grow the table once until its last term exceeds value and
    bisect it once for the largest term <= value. Each later summand is
    found by stepping down from n below the previous pick to the first term
    <= the remainder; the greedy bound remainder < F(c - n + 1) puts it a
    few indices down on typical values. One comparison per index between
    the largest and smallest summands bounds the step-downs, and each pick
    subtracts one term, so the greedy cost grows with the square of value's
    bit length. The index only falls, and slot 0 of the table holds 0, which
    stops every step-down, so a corrupted table yields a wrong answer or
    IndexNotFound, never a hang.

    For orders n <= SPLIT_MAX_ORDER and values of more than LEAF_BITS bits,
    `_walk` replaces most of the greedy picks by a certified divide and
    conquer with the same answer, whose cost grows with the product of two
    halves' sizes times the depth instead: at 6000 digits it takes 0.5-0.7
    of the greedy's time for n = 2..5. It cannot hang either (see `_walk`).
    Below LEAF_BITS the greedy step pays nothing for it: one shift stands
    for the sign test.
    """
    table = get_table(n)
    # value >> LEAF_BITS is nonzero for a negative value and for a big one
    if type(value) is not int or value >> LEAF_BITS:
        require_int("value", value, 0)
        if n <= SPLIT_MAX_ORDER:
            indices = []
            _walk(table.forward_past(value), n, value, 0, indices, False)
            indices.reverse()
            return indices
    fwd = table.forward_past(value)
    indices: list[int] = []
    remainder = value
    c = bisect_right(fwd, remainder, n, len(fwd)) - 1
    while remainder > 0:
        while fwd[c] > remainder:
            c -= 1
        if c < n:
            hi = indices[-1] - n + 1 if indices else len(fwd)
            raise IndexNotFound(f"no index >= {n} below {hi} fits the remainder "
                                f"{_brief(remainder)}")
        indices.append(c)
        remainder -= fwd[c]
        c -= n
    indices.reverse()
    return indices


def _lift(fwd: list[int], n: int, e: int, g: list[int]) -> int:
    """The sum of F(a + e) over a set of indices a, from its sums
    g[j] = the sum of F(a - j), j = 0..n-1, by the companion-matrix identity
    F(a + e) = F(e + 1) F(a) + sum_(j=1..n-1) F(e - n + 1 + j) F(a - j)
    (C. M. Fiduccia, SIAM J. Comput. 14, 1985): n products of table terms.
    Needs e >= 0; F is zero at the indices 2 - n..0, which are skipped, so
    the reads are F(max(e - n + 2, 1)) to F(e + 1).
    """
    lo = max(e - n + 2, 1)
    return fwd[e + 1] * g[0] + sum(map(mul, fwd[lo:e + 1], g[lo - e + n - 1:]))


def _walk(fwd: list[int], n: int, value: int, offset: int, out: list[int],
          sums: bool) -> list[int] | None:
    """Append the indices of value's decomposition, each plus offset, to
    out in descending order; return its sums T_0..T_(n-1) when sums is
    true.

    The greedy step of `decompose`, with a split. After GREEDY_PICKS picks,
    while the remainder R's top index C is above the leaf (the last index
    whose term has at most LEAF_BITS bits, or SUMS_LEAF_BITS when sums is
    true), take a shift s (7/8 of C - n, or half of it when sums is true)
    and estimate the upper part of R's decomposition moved down by s,
    W0 ~ R F(C - s) / F(C), from operands truncated to 32 bits more than
    the quotient needs, minus UNDERSHOOT. W0 is decomposed by this walk,
    with its sums, and its summands whose terms have at most TRUST_BITS
    bits, where the estimate's error lives, are dropped. The kept ones,
    lifted by s through `_lift`, leave L = R - their sum, and the split is
    accepted only when 0 <= L < F(lowest kept index + s - n + 1): then L's
    decomposition ends at least n below the kept summands, the union is a
    gap-n decomposition of R and, by uniqueness, the one. The walk goes on
    with L. A refused split costs its work; the greedy goes on and tries
    again only once the top index has halved. Without sums, W0 is small,
    so little of the work needs the n - 1 sums that lifting takes.

    No hang, whatever the table holds: a split recurses only on a W0 of at
    most 3/4 of R's bits, so the depth is logarithmic, and it is accepted
    only when the next top index is below C, so the index falls at every
    pick and every split, as in the greedy. No term is read beyond the
    table grown past value.
    """
    leaf = bisect_right(fwd, 1 << (SUMS_LEAF_BITS if sums else LEAF_BITS), n) - 1
    picks: list[int] = []
    lifted = [0] * n
    remainder = value
    c = bisect_right(fwd, remainder, n, len(fwd)) - 1
    hi = len(fwd)  # the search bound after the last split
    marked = flushed = 0  # picks made before the last split; picks in out
    retry = c
    while remainder > 0:
        while fwd[c] > remainder:
            c -= 1
        if c < n:
            if len(picks) > marked:
                hi = picks[-1] - n + 1
            raise IndexNotFound(f"no index >= {n} below {hi} fits the remainder "
                                f"{_brief(remainder)}")
        if leaf < c <= retry and len(picks) >= marked + GREEDY_PICKS:
            out += map(offset.__add__, picks[flushed:])
            flushed = len(picks)
            split = _split(fwd, n, remainder, c, offset, out, sums)
            if split is not None:
                remainder, c, g, s = split
                if sums:
                    for j in range(1, n):
                        lifted[j] += _lift(fwd, n, s - j, g)
                hi = c + 1
                marked = len(picks)
                continue
            retry = c // 2
        picks.append(c)
        remainder -= fwd[c]
        c -= n
    out += map(offset.__add__, picks[flushed:])
    if not sums:
        return None
    picks.reverse()
    return [value] + [sum([fwd[c - j] for c in picks]) + lifted[j] for j in range(1, n)]


def _split(fwd: list[int], n: int, remainder: int, c: int, offset: int, out: list[int],
           sums: bool) -> tuple[int, int, list[int], int] | None:
    """One split of `_walk` at the remainder R whose top index is c: append
    the kept summands, lifted, to out and return (L, the index below the
    lowest of them by n, their sums, s), or restore out and return None."""
    s = (c - n) // 2 if sums else (c - n) * 7 // 8
    top, low = fwd[c], fwd[c - s]
    bits = remainder.bit_length()
    t = max(top.bit_length() - low.bit_length() - 32, 0)
    if top >> t <= 0:  # a corrupted table's term of 0 or below
        return None
    w0 = (remainder >> t) * low // (top >> t) - UNDERSHOOT
    if w0 <= 0 or 4 * w0.bit_length() > 3 * bits:
        return None
    mark = len(out)
    base = offset + s
    g = _walk(fwd, n, w0, base, out, True)
    trust = bisect_right(fwd, 1 << TRUST_BITS, n)
    while len(out) > mark and out[-1] < base + trust:
        a = out.pop() - base
        for j in range(n):
            g[j] -= fwd[a - j]
    if len(out) > mark:
        lowest = out[-1] - base + s
        rest = remainder - _lift(fwd, n, s, g)
        if lowest <= c and 0 <= rest < fwd[lowest - n + 1]:
            return rest, lowest - n, g, s
    del out[mark:]
    return None


def _decomposition_sums(fwd: list[int], n: int, value: int) -> list[int]:
    """T_0..T_(n-1) of value's decomposition, T_s being the sum of F(c - s)
    over its indices c (so T_0 = value), from `fwd`, the table grown past
    value. For n <= SPLIT_MAX_ORDER and values of more than SUMS_LEAF_BITS
    bits `_walk` returns them with the decomposition, adding each split's
    upper sums lifted by s - j to T_j: at 6000 digits 0.4-0.66 of the time
    of the other path, `_shifted_sums` over `decompose`'s indices."""
    if n <= SPLIT_MAX_ORDER and value >> SUMS_LEAF_BITS:
        return _walk(fwd, n, value, 0, [], True)
    return [value, *_shifted_sums(fwd, n, decompose(n, value), 0, 1)]


def _shifted_sums(fwd: list[int], n: int, indices: list[int], shift: int,
                  first: int) -> list[int]:
    """H_s = the sum of F(c - shift - s) over the ascending `indices`, for
    s = first..n-1, where every c - shift >= n.

    While (n - 1) * len(indices) * (bit length of the top term), the bits
    the plain sums add, is at most SPLIT_WORK, these are n - first plain
    sums in ascending order, so each big-int addition costs about the size
    of the term it adds. Above it, the low half of the indices keeps the
    shift and the high half is summed at t = (its smallest index) - n, as
    G_j = the sum of F(c - t - j) for j = 0..n-1, small terms that `_lift`
    moves up by t - shift - s >= 0 into H_s: n products per sum, which read
    no index below 1 and none above the top index's term.
    """
    k = len(indices)
    if k < 2 or (n - 1) * k * fwd[indices[-1] - shift].bit_length() <= SPLIT_WORK:
        return [sum([fwd[c - s] for c in indices]) for s in range(shift + first, shift + n)]
    sums = _shifted_sums(fwd, n, indices[:k // 2], shift, first)
    high = indices[k // 2:]
    t = high[0] - n
    g = _shifted_sums(fwd, n, high, t, 0)
    for s in range(first, n):
        sums[s - first] += _lift(fwd, n, t - shift - s, g)
    return sums


def successive_decompositions(n: int) -> Iterator[list[int]]:
    """Decompositions of 1, 2, 3, ... in turn, as one descending index list
    mutated in place (copy it to keep it).

    Add-one rule, amortized O(1) per value: if the smallest index is at
    least 2n (or there is none), append F(n, n) = 1. Otherwise bump the
    smallest index c < 2n to c + 1, since F(n, c) + 1 = F(n, c + 1) there,
    and while the next index sits exactly n - 1 above, merge the two by
    F(n, a) + F(n, a + n - 1) = F(n, a + n). Uses index arithmetic only.
    """
    require_order(n)
    rep: list[int] = []
    floor = 2 * n
    step = n - 1
    while True:
        if not rep or rep[-1] >= floor:
            rep.append(n)
        else:
            c = rep.pop() + 1
            while rep and rep[-1] == c + step:
                rep.pop()
                c += n
            rep.append(c)
        yield rep


def recompose(n: int, indices: list[int]) -> int:
    """Sum of the terms at `indices`, after `validate` has checked them.

    Valid indices are ints ascending from n up, so one growth through the
    last index makes every term a plain read of the forward list, and a
    float such as 1e9 never drives that growth.
    """
    table = get_table(n)
    validate(n, indices)
    if not indices:
        return 0
    return sum(map(table.forward_through(indices[-1]).__getitem__, indices))


def validate(n: int, indices: list[int]) -> None:
    """Raise InvalidDecomposition unless c_1 >= n and gaps are >= n, and
    ValueError for an order that is not an int >= 2 or at the first index
    that is not an int (bool included).

    One pass, one comparison per index: each index must reach lo, which is
    n for the first and the previous index plus n after it.
    """
    if type(n) is not int or n < 2:
        require_order(n)
    lo = n
    for cur in indices:
        if type(cur) is not int:
            require_int("index", cur)
        if cur < lo:
            # lo == n alone marks the first index for any order n >= 1
            if lo == n and cur == indices[0]:
                raise InvalidDecomposition(f"first index {_brief(cur)} is below the order {n}")
            prev = lo - n
            raise InvalidDecomposition(f"gap {_brief(cur - prev)} between indices {_brief(prev)} "
                                       f"and {_brief(cur)} is below {n}")
        lo = cur + n


def brute_force_decompositions(n: int, value: int, max_index: int) -> list[list[int]]:
    """All gap-n index subsets of [n, max_index] summing to value, in
    ascending order.

    The uniqueness oracle: an exhaustive search from the largest index
    down, independent of the greedy rule. It prunes only with sound bounds
    on the (positive) table terms: a term above the remainder is skipped,
    and the search below c stops once the remainder exceeds max_head[c],
    the largest sum of any gap-n subset of [n, c], computed by dynamic
    programming over the table.
    """
    require_order(n)
    require_int("value", value, 1)
    require_int("max_index", max_index)
    table = get_table(n)
    terms = [0] * n + [table.term(c) for c in range(n, max_index + 1)]
    # max_head[c]: either skip c or take it and continue at c - n
    max_head = [0] * len(terms)
    for c in range(n, len(terms)):
        max_head[c] = max(max_head[c - 1], terms[c] + max_head[c - n])

    found: list[list[int]] = []
    acc: list[int] = []

    def search(top: int, remaining: int) -> None:
        if remaining == 0:
            found.append(acc[::-1])
            return
        for c in range(top, n - 1, -1):
            if remaining > max_head[c]:
                return
            t = terms[c]
            if t > remaining:
                continue
            acc.append(c)
            search(c - n, remaining - t)
            acc.pop()

    search(max_index, value)
    found.sort()
    return found
