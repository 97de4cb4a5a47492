"""Order-n generalized Fibonacci numbers with exact integer arithmetic.

For a fixed order n >= 2 the sequence starts with n ones,
F(1) = ... = F(n) = 1, and continues with F(m+1) = F(m) + F(m+1-n).
Running the same recurrence backward, F(m) = F(m+n) - F(m+n-1), extends
it to every integer index; the extension is what makes the letter-count
formulas work at small indices. Indices >= 1 are memoized in a table;
indices <= 0 come from a companion-polynomial window over the seeds and
are never stored. n = 2 gives the classical Fibonacci numbers.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import contextmanager
from operator import mul

from .errors import IndexNotFound, ScanLimitExceeded, _brief


def require_order(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"order n must be an integer >= 2, got {_brief(n)}")


def require_int(name: str, value: int, low: int | None = None) -> None:
    """Raise ValueError unless value is an int (bool does not count) and,
    when low is given, value >= low. The message names the argument."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {_brief(value)}")


def require_at_most(what: str, value: int, limit: int,
                    error: type[Exception] = ScanLimitExceeded) -> None:
    """Raise `error` when value > limit: the one size refusal, made before
    the caller allocates anything sized by value. The message is
    "<what> <value> exceeds the limit <limit>", both numbers by `_brief`;
    the class tells the limit apart: ScanLimitExceeded for a scan limit,
    BlockTooLarge for a length cap. Both numbers must already be ints."""
    if value > limit:
        raise error(f"{what} {_brief(value)} exceeds the limit {_brief(limit)}")


def _term_at_or_below_zero(seeds: list[int], m: int) -> int:
    """F(m) for m <= 0 from the seeds F(1..n), storing nothing.

    The shift F(j) -> F(j + 1) satisfies P = x^n - x^(n-1) - 1 at every
    integer index, so F(m) = sum c_i F(i + 1) where sum c_i x^i is
    x^(m-1) mod P (C. M. Fiduccia, SIAM J. Comput. 14, 1985). Since
    x^(n-1) (x - 1) = P + 1, x^-1 = x^(n-1) - x^(n-2) mod P; its power
    1 - m is taken by squaring, bit by bit from the top, and a set bit
    multiplies by x^-1, which is a shift: at most n^2 products per bit of
    1 - m, since a square skips the zero coefficients.
    """
    n = len(seeds)
    c = [1] + [0] * (n - 1)
    for bit in bin(1 - m)[2:]:
        square = [0] * (2 * n - 1)
        terms = [(i, a) for i, a in enumerate(c) if a]
        for i, a in terms:
            for j, b in terms:
                square[i + j] += a * b
        # x^d = x^(d-1) + x^(d-n) mod P, from the top degree down to n
        for d in range(2 * n - 2, n - 1, -1):
            square[d - 1] += square[d]
            square[d - n] += square[d]
        c = square[:n]
        if bit == "1":
            low = c[0]
            c = c[1:] + [low]
            c[n - 2] -= low
    return sum(map(mul, c, seeds))


class SequenceTable:
    """Memoized table of F(n, m) for m >= 1, over a growable window [1, hi].

    The window ends at the largest index requested or at the first term
    above the largest bound searched, and never further: F(n, m) has
    Theta(m) bits, so memory grows with the square of the window. Growth is
    the only mutation, only appends, and is guarded by a lock; once an index
    is materialized, reads are pure, so a table may be shared read-only
    across threads. Terms at indices <= 0 come from the window over the
    seeds on each call and are never stored, so `lo` is always 1. Values
    are Python ints (arbitrary precision).
    """

    def __init__(self, n: int):
        require_order(n)
        self.n = n
        # _fwd[m] = F(m) for 1 <= m <= hi; slot 0 unused
        self._fwd: list[int] = [0] + [1] * n
        self._lock = threading.Lock()

    lo = 1

    @property
    def hi(self) -> int:
        return len(self._fwd) - 1

    def term(self, m: int) -> int:
        """F(n, m) for any integer m: m >= 1 from the table, extending the
        window on demand; m <= 0 from the seeds, with no lock and nothing
        stored."""
        fwd = self._fwd
        if m >= 1:
            if m >= len(fwd):
                self.forward_through(m)
            return fwd[m]
        return _term_at_or_below_zero(fwd[1:self.n + 1], m)

    def forward_through(self, m: int) -> list[int]:
        """The forward list (entry m is F(m), slot 0 unused), grown just
        until index m exists. The list is live: growth only appends to it.
        Callers must not mutate it."""
        fwd = self._fwd
        if m >= len(fwd):
            self._grow(m, 0)
        return fwd

    def forward_past(self, bound: int) -> list[int]:
        """The forward list, grown term by term just until its last term
        exceeds bound. Live and read-only, like `forward_through`."""
        fwd = self._fwd
        if fwd[-1] <= bound:
            self._grow(0, bound)
        return fwd

    def _grow(self, m: int, bound: int) -> None:
        """Append terms under the lock until index m exists and the last term
        exceeds bound (0 stops on m alone). A term that is not positive, which
        only a corrupted table makes, is refused unstored with IndexNotFound,
        so growth ends: n appends on, every addend is a positive appended term."""
        with self._lock:
            fwd, n = self._fwd, self.n
            hi, last = len(fwd) - 1, fwd[-1]
            while hi < m or last <= bound:
                hi += 1
                last += fwd[hi - n]
                if last <= 0:
                    raise IndexNotFound(f"term {hi} of order {n} is {_brief(last)}, not positive")
                fwd.append(last)

    def largest_index_at_most(self, bound: int) -> int:
        """Largest index c >= n with F(c) <= bound.

        Well-defined for bound >= 1 because F(n) = 1 and F is strictly
        increasing from index n on.
        """
        require_int("bound", bound, 1)
        return bisect_right(self.forward_past(bound), bound, self.n) - 1

    def stats(self) -> dict[str, int]:
        """The window {"lo", "hi"} and "approx_bytes": the magnitudes of the
        stored terms, each rounded up to whole bytes, summed; object headers
        are not counted. "lo" is always 1: terms at indices <= 0 are never
        stored. Computed on each call, in one pass over the table.
        """
        with self._lock:
            terms = self._fwd[1:]
        return {"lo": self.lo, "hi": len(terms),
                "approx_bytes": sum((abs(t).bit_length() + 7) // 8 for t in terms)}

    def __repr__(self) -> str:
        return f"SequenceTable(n={self.n}, window=[{self.lo}, {self.hi}])"


_TABLES: dict[int, SequenceTable] = {}
_REGISTRY_LOCK = threading.Lock()


def get_table(n: int) -> SequenceTable:
    """Shared per-order table; all modules route through this registry.

    The hit path reads the registry without the lock: a dict read is atomic
    and entries are only ever added, replaced or removed whole. It skips
    `require_order` only for a plain int: an equal key such as 3.0 would
    find the order-3 table, and every registered order passed
    `require_order` when its table was built.
    """
    if type(n) is int:
        table = _TABLES.get(n)
        if table is not None:
            return table
    require_order(n)
    with _REGISTRY_LOCK:
        table = _TABLES.get(n)
        if table is None:
            table = _TABLES[n] = SequenceTable(n)
    return table


def term(n: int, m: int) -> int:
    """F(n, m) from the shared table."""
    require_int("index", m)
    return get_table(n).term(m)


def largest_index_at_most(n: int, bound: int) -> int:
    return get_table(n).largest_index_at_most(bound)


@contextmanager
def perturbed_table(n: int, m: int, delta: int = 1):
    """Temporarily serve a table whose stored F(n, m) is off by delta.

    Used by the harness self-checks: a single corrupted value must be caught
    by at least one consistency check. The corruption propagates into values
    grown after the swap, which is intended; a corrupted seed (m <= n) also
    reaches every index <= 0, since the window reads the table's seeds.
    Only forward indices (m >= 1) can be perturbed.
    """
    require_order(n)
    require_int("index m", m, 1)
    require_int("delta", delta)
    broken = SequenceTable(n)
    broken.term(m)
    broken._fwd[m] += delta
    with _REGISTRY_LOCK:
        previous = _TABLES.get(n)
        _TABLES[n] = broken
    try:
        yield broken
    finally:
        with _REGISTRY_LOCK:
            if previous is None:
                del _TABLES[n]
            else:
                _TABLES[n] = previous
