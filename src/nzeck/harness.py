"""Verification suites: every structural claim re-checked over parameter sweeps.

Each check runs a deterministic sweep, comparing a closed form or generator
against an independent oracle (exhaustive enumeration, streaming scan, or
direct string comparison), and returns a CheckReport with pass/fail and the
first few counterexamples. An exception inside a case, or inside the set-up
that some cases share, is one failed case, not an aborted sweep, so a
corrupted table shows up as a red report instead of a crash.

Checks accept n = 2 (classical Fibonacci / golden string); those results are
flagged as empirical in the report parameters since the closed forms are
only guaranteed for n >= 3.
"""

from __future__ import annotations

import inspect
import os
import threading
from decimal import Decimal
from itertools import compress, islice
from time import perf_counter
from typing import Callable, Iterable, Sequence, TypeVar

from .decomposition import (brute_force_decompositions, decompose, recompose,
                            successive_decompositions)
from .errors import BlockTooLarge
from .fixed_summand import (_any_summand_flags, any_summand_members, largest_summand_rows,
                            smallest_summand_members, smallest_summand_scan,
                            telescoping_identity)
from .sequence import get_table, perturbed_table, require_at_most
from .words import (DEFAULT_LENGTH_CAP, DEFAULT_SCAN_LIMIT, block, char_at, count_block,
                    count_prefix, stream)

MAX_RECORDED_FAILURES = 5
T = TypeVar("T")


class CheckReport:
    """Outcome of one check: pass iff it ran at least one case and observed
    no failure, so an empty sweep is never green.

    `elapsed_s` is the check's wall time: a check returns `report.done()`,
    which sets it to the time since the report was made (`run_checks` sums
    it over the orders it runs apart). It is left out of equality so reruns
    of a check compare equal. A plain class, not a dataclass: building the
    dataclass at import made about 60 GC-tracked objects and took about
    0.9 ms.
    """

    def __init__(self, check_id: str, parameters: dict) -> None:
        self.check_id = check_id
        self.parameters = parameters
        self.cases_run = 0
        self.failures: list = []
        self.failures_total = 0
        self.elapsed_s = 0.0
        self._started = perf_counter()

    def _compared(self) -> tuple:
        return (self.check_id, self.parameters, self.cases_run, self.failures,
                self.failures_total)

    def __eq__(self, other) -> bool:
        if type(other) is not CheckReport:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        return (f"CheckReport(check_id={self.check_id!r}, parameters={self.parameters!r}, "
                f"cases_run={self.cases_run!r}, failures={self.failures!r}, "
                f"failures_total={self.failures_total!r}, elapsed_s={self.elapsed_s!r})")

    def done(self) -> CheckReport:
        """Set `elapsed_s` to the time since this report was made; return
        the report."""
        self.elapsed_s = perf_counter() - self._started
        return self

    @property
    def passed(self) -> bool:
        return self.failures_total == 0 and self.cases_run > 0

    def case(self, inputs: dict, expected, actual) -> None:
        self.cases_run += 1
        if expected != actual:
            self.fail(inputs, expected, actual)

    def fail(self, inputs: dict, expected, actual) -> None:
        self.failures_total += 1
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append((inputs, expected, actual))

    def guarded(self, inputs: dict, body: Callable[[], tuple]) -> None:
        """Run body() -> (expected, actual); an exception is a failure."""
        self.cases_run += 1
        try:
            expected, actual = body()
        except Exception as exc:
            self.fail(inputs, "no exception", f"{type(exc).__name__}: {exc}")
            return
        if expected != actual:
            self.fail(inputs, expected, actual)

    def set_up(self, inputs: dict, body: Callable[[], T]) -> T | None:
        """Return body(), the value some cases need; if it raises, record
        one failed case, as `guarded` does, and return None, so the caller
        skips the cases that needed the value."""
        try:
            return body()
        except Exception as exc:
            self.cases_run += 1
            self.fail(inputs, "no exception", f"{type(exc).__name__}: {exc}")
            return None

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.check_id}: {self.cases_run} cases in {self.elapsed_s:.2f} s"
        if self.failures_total:
            line += f", {self.failures_total} failures"
        return line

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "parameters": _jsonable(self.parameters),
            "pass": self.passed,
            "cases_run": self.cases_run,
            "failures": [
                {"inputs": _jsonable(i), "expected": _jsonable(e), "actual": _jsonable(a)}
                for i, e, a in self.failures
            ],
            "failures_total": self.failures_total,
            "elapsed_s": self.elapsed_s,
        }


def _jsonable(value):
    """JSON-safe copy; integers beyond exact float range become strings."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        # Decimal's str() is exact and, unlike int's, has no digit limit
        return value if abs(value) < 2**53 else str(Decimal(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, range, set)):
        return [_jsonable(v) for v in value]
    return str(value)


def _base_params(n_range: Iterable[int], **rest) -> dict:
    n_range = list(n_range)
    params = {"n_range": n_range, **rest}
    empirical = [n for n in n_range if n < 3]
    if empirical:
        params["empirical_orders"] = empirical
    return params


def check_unique_decomposition(n_range: Iterable[int] = (2, 3, 4, 5, 6),
                               value_max: int = 100_000) -> CheckReport:
    """Round trip for every value <= value_max and exhaustive uniqueness for
    values <= min(value_max, 2000).

    Each round-trip case also compares the greedy `decompose` with the
    add-one walk that the fixed-summand scans are built on, so that walk is
    cross-checked over the whole range the scans use."""
    n_range = list(n_range)
    unique_cap = min(value_max, 2000)
    report = CheckReport("unique-decomposition",
                         _base_params(n_range, value_max=value_max, unique_cap=unique_cap))
    for n in n_range:
        table = get_table(n)
        for value, rep in zip(range(1, value_max + 1), successive_decompositions(n)):
            report.cases_run += 1
            try:
                indices = decompose(n, value)
                back = recompose(n, indices)
                if back != value:
                    report.fail({"n": n, "value": value}, value, back)
                    continue
                if indices != rep[::-1]:
                    report.fail({"n": n, "value": value, "sub": "add-one"}, rep[::-1], indices)
                    continue
            except Exception as exc:
                report.fail({"n": n, "value": value}, "round trip",
                            f"{type(exc).__name__}: {exc}")
                continue
            if value <= unique_cap:
                report.guarded(
                    {"n": n, "value": value, "sub": "uniqueness"},
                    lambda v=value, idx=indices: (
                        [idx],
                        brute_force_decompositions(n, v, table.largest_index_at_most(v)),
                    ),
                )
    return report.done()


def check_concat_prefixes(n_range: Iterable[int] = (3, 4), depth: int = 12) -> CheckReport:
    """Two-block and staircase concatenations are prefixes of the word."""
    n_range = list(n_range)
    report = CheckReport("concat-prefixes", _base_params(n_range, depth=depth))
    for n in n_range:
        table = get_table(n)
        made = report.set_up({"n": n, "sub": "set-up"},
                             lambda: _prefix_set_up(n, (depth, depth - n + 1)))
        if made is None:
            continue
        word, texts = made
        # pair concatenation: B(j) . B(i) starts the word, n <= i <= j-(n-1)
        for j in range(2 * n - 1, depth + 1):
            for i in range(n, j - (n - 1) + 1):
                report.guarded({"n": n, "item": 1, "i": i, "j": j},
                               lambda: (table.term(j) + table.term(i),
                                        _matched_prefix(n, word, texts, (j, i))))
        # block containment: B(i) is a prefix of B(j)
        for j in range(n, depth + 1):
            for i in range(n, j + 1):
                report.guarded({"n": n, "item": 2, "i": i, "j": j},
                               lambda: (table.term(i),
                                        _matched_prefix(n, _block_text(n, texts, j), texts, (i,))))
        # the staircase concatenation is a prefix of a single block
        m = 2
        while n + (n - 1) * m + 2 <= depth:
            stair = range(n + (n - 1) * m, n - 1, 1 - n)
            report.guarded({"n": n, "item": 4, "m": m},
                           lambda: (sum(map(table.term, stair)), _matched_prefix(
                               n, _block_text(n, texts, stair[0] + 2), texts, stair)))
            m += 1
    return report.done()


def check_block_counts(n_range: Iterable[int] = (2, 3, 4, 5), depth: int = 25,
                       staircase_max: int = 5) -> CheckReport:
    """Closed-form block letter counts and lengths vs direct scans, plus the
    staircase prefix identity."""
    n_range = list(n_range)
    report = CheckReport("block-counts",
                         _base_params(n_range, depth=depth, staircase_max=staircase_max))
    for n in n_range:
        table = get_table(n)
        for m in range(1, depth + 1):
            # the block before F(m), so a huge m is refused before the table
            # grows to it; the first refused block ends the sweep
            letters = report.set_up({"n": n, "m": m, "sub": "set-up"}, lambda: block(n, m))
            if letters is None:
                break
            report.guarded({"n": n, "m": m, "sub": "length"},
                           lambda: (table.term(m), len(letters)))
            report.guarded({"n": n, "m": m, "sub": "counts"},
                           lambda: (list(map(letters.count, range(1, n + 1))),
                                    count_block(n, m)))
        for m in range(1, staircase_max + 1):
            indices = range(n + (n - 1) * m, n - 1, 1 - n)
            report.guarded({"n": n, "staircase_m": m},
                           lambda: _staircase_pair(n, indices))
    return report.done()


def _staircase_pair(n: int, indices: range) -> tuple[int, int | str]:
    """Sum F(c) over `indices` by the table, and the length `_matched_prefix` matches."""
    word, texts = _prefix_set_up(n, indices)
    return len(word), _matched_prefix(n, word, texts, indices)


def _prefix_set_up(n: int, indices: Sequence[int]) -> tuple[str, dict[int, str]]:
    """The word's first sum F(c) over `indices` letters, by the table, and a
    cache of block texts holding block `indices[0]`. That block is built
    first, so an oversized one is refused before the table grows past it,
    and a prefix above the length cap before any letter is drawn."""
    texts: dict[int, str] = {}
    _block_text(n, texts, indices[0])
    return _word_text(n, sum(map(get_table(n).term, indices))), texts


def _word_text(n: int, length: int) -> str:
    """The word's first `length` letters as chr(1)..chr(n); a length above
    DEFAULT_LENGTH_CAP is refused before any letter is drawn."""
    require_at_most("prefix length", length, DEFAULT_LENGTH_CAP, BlockTooLarge)
    return "".join(map(chr, islice(stream(n), length)))


def _block_text(n: int, texts: dict[int, str], c: int) -> str:
    """Block c's letters as chr(1)..chr(n), cached in `texts`."""
    if c not in texts:
        texts[c] = "".join(map(chr, block(n, c)))
    return texts[c]


def check_decomposition_prefix(n_range: Iterable[int] = (2, 3, 4, 5),
                               length_max: int = 10_000) -> CheckReport:
    """The prefix law, at every length L up to `length_max`: the blocks at
    L's decomposition indices, largest first, concatenate to the word's
    first L letters, whose letter counts are `count_prefix(n, L)` and whose
    last letter is `char_at(n, L)`; the word is the stream.

    The indices come from the add-one walk, which unique-decomposition
    checks against greedy `decompose`, so the concatenation does not rest
    on the `decompose` that `count_prefix` and `char_at` call. Letters are
    held as chr(1)..chr(n), so each prefix comparison is one memory compare
    of L letters. Each case catches its own exceptions; a `length_max`
    above the length cap is one failed set-up case per order.
    """
    n_range = list(n_range)
    report = CheckReport("decomposition-prefix",
                         _base_params(n_range, length_max=length_max))
    for n in n_range:
        prefix = report.set_up({"n": n, "sub": "set-up"}, lambda: _word_text(n, length_max))
        if prefix is None:
            continue
        texts: dict[int, str] = {}
        tally = [0] * n
        for length, rep in zip(range(1, length_max + 1), successive_decompositions(n)):
            letter = ord(prefix[length - 1])
            tally[letter - 1] += 1
            report.guarded({"n": n, "length": length, "sub": "counts"},
                           lambda: (tally[:], count_prefix(n, length)))
            report.guarded({"n": n, "length": length, "sub": "prefix"},
                           lambda: ((length, letter),
                                    (_matched_prefix(n, prefix, texts, rep), char_at(n, length))))
    return report.done()


def _matched_prefix(n: int, prefix: str, texts: dict[int, str],
                    indices: Sequence[int]) -> int | str:
    """Length of the concatenation of the blocks at `indices` if it is a
    prefix of `prefix` (the word's, or a block); otherwise a message naming
    the first block whose letters differ. `prefix` and the blocks, cached
    in `texts`, hold letters as chr(1)..chr(n)."""
    offset = 0
    for c in indices:
        piece = _block_text(n, texts, c)
        if not prefix.startswith(piece, offset):
            return f"block {c} differs at letters {offset + 1}..{offset + len(piece)}"
        offset += len(piece)
    return offset


def check_fixed_summand(n_range: Iterable[int] = (3, 4), max_k_offset: int = 6,
                        bound: int = 100_000) -> CheckReport:
    """Fixed-summand machinery: telescoping identity, largest-summand
    monotonicity, landmark letters, row ranges, and generator-vs-oracle
    agreement for both summand families."""
    n_range = list(n_range)
    q_bound = min(bound, 10_000)
    sweep_max = min(bound, 10_000)
    report = CheckReport("fixed-summand",
                         _base_params(n_range, max_k_offset=max_k_offset, bound=bound,
                                      q_bound=q_bound, telescoping={"m": 10, "v": 4},
                                      landmark_j_max=6, monotonic_max=sweep_max))
    for n in n_range:
        table = get_table(n)
        for m in range(1, 11):
            for v in range(1, 5):
                for u in range(1, n + 1):
                    report.case({"n": n, "m": m, "v": v, "u": u, "sub": "telescoping"},
                                True, telescoping_identity(n, m, v, u))
        # largest summand index never decreases as the integer grows
        report.cases_run += 1
        last = 0
        bad = None
        for value, rep in zip(range(1, sweep_max + 1), successive_decompositions(n)):
            top = rep[0]
            if top < last:
                bad = value
                break
            last = top
        if bad is not None:
            report.fail({"n": n, "sub": "monotonic"}, "nondecreasing", f"drop at {bad}")
        # landmark letters at positions F(nj+u)
        for j in range(1, 7):
            for u in range(n):
                pos = table.term(n * j + u)
                expected = n if u == 0 else u
                report.guarded({"n": n, "j": j, "u": u, "sub": "landmark"},
                               lambda n=n, p=pos, e=expected: (e, char_at(n, p)))
        # generator vs oracle, smallest-summand family
        for k in range(n, n + min(max_k_offset, 4) + 1):
            report.guarded({"n": n, "k": k, "bound": q_bound, "sub": "smallest-summand"},
                           lambda n=n, k=k: _q_pair(n, k, q_bound))
        # generator vs oracle, any-summand family: one add-one walk for every k
        ks = range(n, n + max_k_offset + 1)
        flags = report.set_up({"n": n, "bound": bound, "sub": "any-summand set-up"},
                              lambda: _any_summand_flags(n, ks, bound))
        if flags is not None:
            for k in ks:
                report.guarded({"n": n, "k": k, "bound": bound, "sub": "any-summand"},
                               lambda k=k: (list(compress(range(bound + 1), flags[k])),
                                            any_summand_members(n, k, bound)))
        del flags  # hold one order's flags at a time
        # row-range classification against per-element largest summands, in
        # order 3's own cases, so a sweep's report is its orders' in turn
        if n == 3:
            k = 4
            tops = report.set_up({"n": n, "k": k, "sub": "rows set-up"},
                                 lambda: _row_tops(n, k, table.term(9)))
            if tops is not None:
                for j in range(3, 9):
                    report.guarded({"n": n, "k": k, "j": j, "sub": "rows"},
                                   lambda j=j: _rows_pair(n, k, j, tops))
    return report.done()


def _row_tops(n: int, k: int, rows: int) -> list[int]:
    """The largest index of each of the first `rows` smallest-summand
    members for k; more than DEFAULT_SCAN_LIMIT rows are refused."""
    require_at_most("row count", rows, DEFAULT_SCAN_LIMIT)
    return [decompose(n, q)[-1] for q in smallest_summand_members(n, k, rows)]


def _rows_pair(n: int, k: int, j: int, tops: list[int]) -> tuple[list, list]:
    """Row range j, and the rows whose member's largest index is k + j, by
    `tops`, each member's largest index."""
    lo, hi = largest_summand_rows(n, j)
    return list(range(lo, hi + 1)), [r for r, top in enumerate(tops, 1) if top == k + j]


def _q_pair(n: int, k: int, bound: int) -> tuple[list[int], list[int]]:
    scanned = smallest_summand_scan(n, k, bound)
    generated = smallest_summand_members(n, k, len(scanned)) if scanned else []
    return scanned, generated


def check_mutation_sanity(n: int = 3, m: int = 9, delta: int = 1) -> CheckReport:
    """Corrupt one table value and confirm the battery notices.

    Passes iff at least one sub-check fails while the corrupted table is
    installed. Guards the harness against vacuous green runs.
    """
    report = CheckReport("mutation-sanity", {"n": n, "m": m, "delta": delta})
    with perturbed_table(n, m, delta):
        battery = [
            check_block_counts(n_range=(n,), depth=max(m + 2, 12), staircase_max=3),
            check_unique_decomposition(n_range=(n,), value_max=200),
            check_decomposition_prefix(n_range=(n,), length_max=200),
        ]
    report.cases_run = len(battery)
    if all(sub.passed for sub in battery):
        report.fail({"n": n, "m": m, "delta": delta},
                    "at least one check fails under corruption",
                    "all checks passed")
    return report.done()


ALL_CHECKS: dict[str, Callable[..., CheckReport]] = {
    "unique-decomposition": check_unique_decomposition,
    "concat-prefixes": check_concat_prefixes,
    "block-counts": check_block_counts,
    "decomposition-prefix": check_decomposition_prefix,
    "fixed-summand": check_fixed_summand,
    "mutation-sanity": check_mutation_sanity,
}


def run_checks(check_ids: Iterable[str], options: dict) -> list[CheckReport]:
    """Run the checks named by `check_ids`, in order, each given the
    `options` its signature accepts (None values are left out), and return
    their reports.

    A check that sweeps `n_range` runs as one task per order, and each
    check's per-order reports are merged into the report one call over the
    whole range gives, except that `elapsed_s` is the sum of the orders'
    times. The tasks run across forked worker processes, one per usable
    CPU, scoped to this call: no worker outlives it. They run in this
    process instead when there is one CPU or task, when the platform has
    no `fork`, or when another thread is alive, since a fork while that
    thread holds a table lock could hang a worker.
    """
    plan: list[tuple[list[int] | None, int]] = []  # per check: n_range, task count
    tasks: list[tuple[str, dict]] = []
    for check_id in check_ids:
        accepted = inspect.signature(ALL_CHECKS[check_id]).parameters
        kwargs = {key: val for key, val in options.items()
                  if val is not None and key in accepted}
        n_range = None
        if "n_range" in accepted:
            n_range = list(kwargs.get("n_range", accepted["n_range"].default))
        parts = [(check_id, {**kwargs, "n_range": (n,)}) for n in n_range or ()]
        parts = parts or [(check_id, kwargs)]
        plan.append((n_range, len(parts)))
        tasks += parts
    reports = iter(_run_tasks(tasks))
    return [_merged(list(islice(reports, count)), n_range) for n_range, count in plan]


def _run_task(task: tuple[str, dict]) -> CheckReport:
    check_id, kwargs = task
    return ALL_CHECKS[check_id](**kwargs)


def _run_tasks(tasks: list[tuple[str, dict]]) -> list[CheckReport]:
    """The reports of `tasks`, in order, from a `fork` pool that is shut
    down, its workers joined, before this returns; or, where `run_checks`
    says, from this process. The pool's modules are imported here only, so
    importing nzeck never loads them."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(tasks), cpus or 1)
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(_run_task, tasks))
    return list(map(_run_task, tasks))


def _merged(parts: list[CheckReport], n_range: list[int] | None) -> CheckReport:
    """One check's report from its per-order `parts`, in order: counts and
    times summed, failures concatenated up to MAX_RECORDED_FAILURES, and
    the parameters of one call over `n_range` (None: the one part's own)."""
    first = parts[0]
    params = first.parameters
    if n_range is not None:
        rest = {key: val for key, val in params.items()
                if key not in ("n_range", "empirical_orders")}
        params = _base_params(n_range, **rest)
    report = CheckReport(first.check_id, params)
    for part in parts:
        report.cases_run += part.cases_run
        report.failures_total += part.failures_total
        report.failures += part.failures
        report.elapsed_s += part.elapsed_s
    del report.failures[MAX_RECORDED_FAILURES:]
    return report
