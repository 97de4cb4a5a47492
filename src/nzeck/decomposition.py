"""Gap-n decompositions of nonnegative integers.

Every positive integer is a sum of order-n sequence terms F(n, c_1) + ... +
F(n, c_k) with c_1 >= n and consecutive indices at least n apart, and that
representation is unique. Three algorithms compute it, each checked against
the others by the harness:

* `decompose`, the greedy rule: take the largest term not exceeding the
  remainder, bisecting the sequence table once for the largest summand and
  stepping down from there for the rest.
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
from typing import Iterator

from .errors import IndexNotFound, InvalidDecomposition, _brief
from .sequence import get_table, require_int, require_order


def decompose(n: int, value: int) -> list[int]:
    """Ascending index list of the unique gap-n decomposition of value >= 0.

    Greedy: grow the table once until its last term exceeds value and
    bisect it once for the largest term <= value. Each later summand is
    found by stepping down from n below the previous pick to the first term
    <= the remainder; the greedy bound remainder < F(c - n + 1) puts it a
    few indices down on typical values. One comparison per index between
    the largest and smallest summands bounds the cost, which is linear in
    the bit length of value and never in the table's length. The index
    only falls, whatever the table holds, so a corrupted table yields a
    wrong answer or IndexNotFound, never a hang.
    """
    table = get_table(n)
    if type(value) is not int or value < 0:
        require_int("value", value, 0)
    fwd = table.forward_past(value)
    indices: list[int] = []
    remainder = value
    hi = len(fwd)
    c = bisect_right(fwd, remainder, n, hi) - 1
    while remainder > 0:
        while c >= n and fwd[c] > remainder:
            c -= 1
        if c < n:
            raise IndexNotFound(f"no index >= {n} below {hi} fits the remainder "
                                f"{_brief(remainder)}")
        indices.append(c)
        remainder -= fwd[c]
        hi = c - n + 1
        c -= n
    indices.reverse()
    return indices


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
