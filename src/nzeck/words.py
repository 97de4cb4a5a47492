"""Finite blocks and the infinite word attached to the order-n sequence.

Blocks are built by the rewriting B(m) = B(m-1) + B(m-n) from the seeds
B(1) = a_1, ..., B(n) = a_n; the block at index m has exactly F(n, m)
letters. Since B(m) is a prefix of B(m+1) for m >= n, the blocks converge
to an infinite word (the golden string when n = 2). The prefix of length L
is the concatenation of the blocks at the decomposition indices of L,
largest first: `decompose(n, L)[::-1]`. Letters are ints in 1..n standing
for a_1..a_n. A block or chunk holds them in `bytes`, one byte per letter,
for orders n < 256, and in a tuple for n >= 256, whose letters do not fit a
byte; either way, iterating over it yields ints.

The word streams in chunks: every block of at most CHUNK_LETTERS letters is
built once per stream in that container (`_leaves`), and larger blocks are
expanded on a stack down to those leaves (`_leaf_indices`, one walk that
yields leaf indices). Memory is the O(depth) stack plus that one leaf
table, which holds about 6.8k letters in all for n = 2 and 17.9k for n = 6.
The leaves come from the rewriting alone, not from `block` or the sequence
table, so the stream stays an independent oracle for both. The text form of
a prefix (`_prefix_text`, behind `nzeck string`) walks the same leaf
indices and joins a text leaf per whole leaf, built by the same rewriting.

Letter counts of a prefix (`count_prefix`) are differences of the shifted
sums T_s of F(c - s) over the decomposition indices c of its length;
`decomposition._decomposition_sums` computes them.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, count
from operator import sub
from typing import Iterator, Sequence

from .decomposition import _decomposition_sums, decompose
from .errors import BlockTooLarge, _brief
from .sequence import get_table, require_at_most, require_int, require_order

DEFAULT_LENGTH_CAP = 10**7
DEFAULT_SCAN_LIMIT = 10**7
CHUNK_LETTERS = 4096


def _letters(n: int) -> type:
    """The container of order n's letters: `bytes` (one byte per letter, so
    each concatenation is a C-level copy) below 256, else tuple."""
    return bytes if n < 256 else tuple


def block(n: int, m: int, length_cap: int = DEFAULT_LENGTH_CAP) -> bytes | tuple[int, ...]:
    """Letters of the block at index m >= 1, via the defining rewriting.

    A window of the last n blocks is rewritten by B(j) = B(j-1) + B(j-n)
    from the seeds a_1, ..., a_n. The result is immutable: `bytes` for
    orders n < 256, a tuple of ints for n >= 256.
    """
    require_order(n)
    require_int("block index", m, 1)
    require_int("length_cap", length_cap, 0)
    # F(n, m) >= 2 F(n, m - n) gives F(n, m) >= 2**((m - n) // n) for m >= n,
    # which refuses most oversized blocks before growing a table whose memory
    # grows with the square of m. It is the one size refusal that does not go
    # through `require_at_most`: it has a floor in bits, not the size itself.
    cap_bits = length_cap.bit_length()
    floor_bits = (m - n) // n
    if floor_bits >= cap_bits:
        raise BlockTooLarge(f"block {_brief(m)} has at least 2**{_brief(floor_bits)} letters, "
                            f"above the {cap_bits}-bit length cap")
    require_at_most(f"block {_brief(m)} length", get_table(n).term(m), length_cap,
                    BlockTooLarge)
    letters = _letters(n)
    if m <= n:
        return letters((m,))
    window = deque((letters((i,)) for i in range(1, n + 1)), maxlen=n)
    for _ in range(n + 1, m + 1):
        window.append(window[-1] + window[0])
    return window[-1]


def stream_chunks(n: int) -> Iterator[bytes | tuple[int, ...]]:
    """The infinite word as consecutive chunks of 1..CHUNK_LETTERS letters,
    each in the container `block` returns: `bytes` for n < 256, else tuple.

    The chunks are the leaves of `_leaves`, in the order `_leaf_indices`
    walks them; the same leaf is yielded every time its block recurs. The
    order is checked here, at the call, not at the first chunk.
    """
    require_order(n)
    leaves = _leaves(n)
    return map(leaves.__getitem__, _leaf_indices(n, len(leaves) - 1))


def _leaves(n: int) -> list:
    """The leaf table: entry j is B(j) for every block of at most
    CHUNK_LETTERS letters, by B(j) = B(j-1) + B(j-n) from the seeds, built
    from the rewriting alone; entry 0 is empty."""
    letters = _letters(n)
    leaves = [letters()] + [letters((i,)) for i in range(1, n + 1)]
    while len(leaves[-1]) + len(leaves[-n]) <= CHUNK_LETTERS:
        leaves.append(leaves[-1] + leaves[-n])
    return leaves


def _leaf_indices(n: int, top: int) -> Iterator[int]:
    """Indices of the leaves that spell the word, in order, where `top` is
    the largest index of a leaf.

    Uses the identity word = B(n) . B(1) . B(2) . B(3) ...: appending B(m+1-n)
    to B(n) . B(1) ... B(m-n) turns it into B(m+1), so the partial
    concatenation always stays a block, and the blocks converge to the word.
    Each block above `top` is expanded by B(j) = B(j-1) . B(j-n) on an
    explicit stack down to leaves.
    """
    for idx in chain((n,), count(1)):
        stack = [idx]
        while stack:
            j = stack.pop()
            if j <= top:
                yield j
            else:
                stack.append(j - n)
                stack.append(j - 1)


def _prefix_text(n: int, length: int) -> str:
    """`format_letters` of the first `length` letters of the word, joined
    from text leaves.

    Beside the leaf table, the same rewriting builds each leaf's text:
    T(j) = T(j-1) + " " + T(j-n) from the seeds "a1" .. "an". Every whole
    leaf then costs one reference to its text, and only the last, partial
    leaf is formatted letter by letter. Both tables live for this call.
    """
    require_order(n)
    leaves = _leaves(n)
    texts = [""] + [f"a{i}" for i in range(1, n + 1)]
    for j in range(n + 1, len(leaves)):
        texts.append(texts[j - 1] + " " + texts[j - n])
    parts = []
    left = length
    indices = _leaf_indices(n, len(leaves) - 1)
    while left > 0:
        j = next(indices)
        if len(leaves[j]) > left:
            parts.append(format_letters(leaves[j][:left]))
            break
        parts.append(texts[j])
        left -= len(leaves[j])
    return " ".join(parts)


def stream(n: int) -> Iterator[int]:
    """Letters of the infinite word, in order: `stream_chunks` flattened.

    Memory is the O(depth) expansion stack plus the one leaf table of
    `stream_chunks`, which holds every block of at most CHUNK_LETTERS
    letters (about 6.8k letters in all for n = 2, 17.9k for n = 6).
    """
    return chain.from_iterable(stream_chunks(n))


def char_at(n: int, pos: int) -> int:
    """The pos-th letter (1-based) of the infinite word, without streaming.

    The prefix of length pos is the concatenation of blocks at the
    decomposition indices of pos, so its last letter is the last letter of
    the block at the smallest index c. The rewriting makes last letters
    periodic in c with period n (last of B(c) = last of B(c-n)), giving
    last(B(c)) = ((c - 1) mod n) + 1. Cost is one `decompose`.
    """
    require_int("position", pos, 1)
    smallest = decompose(n, pos)[0]
    return (smallest - 1) % n + 1


def count_block(n: int, m: int) -> list[int]:
    """Per-letter counts of the block at index m, by the closed form.

    Entry i-1 counts letter a_i: F(n, m-(n+i-1)) for i < n and
    F(n, m-(n-1)) for i = n. Needs the backward extension of the sequence
    when m is small; terms at indices <= 0 come from the sequence's window
    over the seeds and are never stored. Reads just those n terms, so the
    table grows only through F(m-n+1). Does not build the block.
    """
    require_order(n)
    require_int("block index", m, 1)
    table = get_table(n)
    return [table.term(m - n - i) for i in range(n - 1)] + [table.term(m - n + 1)]


def count_prefix(n: int, length: int) -> list[int]:
    """Per-letter counts of the prefix of the given length: the closed form
    of `count_block` summed over the decomposition indices of `length`.

    Let T_s be the sum of F(c - s) over those indices c, so T_0 = length.
    F(m) = F(m-1) + F(m-n) at every integer m gives T_(s+n) = T_s - T_(s+1),
    so letter a_i counts T_(i-1) - T_i for i < n and a_n counts T_(n-1).
    `decomposition._decomposition_sums` computes T_0..T_(n-1).
    """
    table = get_table(n)
    require_int("prefix length", length, 0)
    sums = _decomposition_sums(table.forward_past(length), n, length)
    sums.append(0)
    return list(map(sub, sums, sums[1:]))


def count_prefix_scan(n: int, length: int, scan_limit: int = DEFAULT_SCAN_LIMIT) -> list[int]:
    """Per-letter counts of the prefix by tallying the stream (the oracle
    for count_prefix), one chunk at a time."""
    require_order(n)
    require_int("prefix length", length, 0)
    require_int("scan_limit", scan_limit, 0)
    require_at_most("prefix length", length, scan_limit)
    counts = [0] * n
    remaining = length
    chunks = stream_chunks(n)
    while remaining > 0:
        chunk = next(chunks)
        if len(chunk) > remaining:
            chunk = chunk[:remaining]
        for i in range(n):
            counts[i] += chunk.count(i + 1)
        remaining -= len(chunk)
    return counts


def format_letters(letters: Sequence[int]) -> str:
    """Pretty text form: 3, 1, 2 -> "a3 a1 a2"."""
    names = tuple(f"a{i}" for i in range(max(letters, default=0) + 1))
    return " ".join(map(names.__getitem__, letters))
