"""Acceptance suite: every criterion at its stated sweep size and tolerance.

All comparisons are exact (integer equality); the only tolerances are the
two runtime targets. Criteria 1, 3-6 and 8-11 read one `run_checks` pass of
the default `nzeck verify` sweep, made once per session, plus one run of
fixed-summand at orders 2 and 5, and add their spot values. Run with
`pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import time
from functools import cache
from itertools import islice

from nzeck import (any_summand_members, char_at, count_prefix, get_table,
                   smallest_summand_members, stream, term)
from nzeck.harness import ALL_CHECKS, check_mutation_sanity, run_checks


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num:2d}: {description}{suffix}", flush=True)
    assert ok, f"criterion {num}: {description}{suffix}"


def outcome(result):
    return f"{result.check_id}: {result.cases_run} cases, failures={result.failures_total}"


def take(n, count):
    return list(islice(stream(n), count))


@cache
def default_sweep():
    """The reports of the default `nzeck verify` sweep, by check id, and the
    sweep's wall time: the `run_checks` call that `nzeck verify` makes."""
    started = time.perf_counter()
    reports = run_checks(ALL_CHECKS, {})
    return {r.check_id: r for r in reports}, time.perf_counter() - started


@cache
def fixed_summand():
    """fixed-summand at orders 2..5, as (passed, outcome): the default
    sweep's report at orders 3 and 4, and one more run at orders 2 and 5."""
    inner = default_sweep()[0]["fixed-summand"]
    (outer,) = run_checks(["fixed-summand"], {"n_range": [2, 5]})
    return inner.passed and outer.passed, f"{outcome(inner)}; orders 2 and 5: {outcome(outer)}"


def test_criterion_01_unique_decomposition_and_round_trip():
    reports, elapsed = default_sweep()
    result = reports["unique-decomposition"]
    ok = result.passed and elapsed < 60.0
    report(1, "uniqueness (exhaustive, N<=2000) and round trip (N<=1e5, n=2..6)",
           ok, f"{outcome(result)}; default sweep in {elapsed:.1f}s")


def test_default_sweep_case_counts():
    expected = {"unique-decomposition": 510_000, "concat-prefixes": 160, "block-counts": 220,
                "decomposition-prefix": 80_000, "fixed-summand": 354, "mutation-sanity": 3}
    reports, _ = default_sweep()
    assert {check_id: r.cases_run for check_id, r in reports.items()} == expected
    assert all(r.passed for r in reports.values())


def test_criterion_02_word_fixtures():
    ok = (take(3, 14) == [3, 1, 2, 3, 3, 1, 3, 1, 2, 3, 1, 2, 3, 3]
          and take(2, 13) == [2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 1])
    report(2, "displayed 3-string and golden-string prefixes match exactly", ok)


def test_criterion_03_block_counts_closed_form():
    result = default_sweep()[0]["block-counts"]
    report(3, "closed-form block counts equal scans, totals equal the terms (n=2..5, m<=25)",
           result.passed, outcome(result))


def test_criterion_04_staircase_prefixes():
    result = default_sweep()[0]["block-counts"]
    report(4, "staircase concatenations match streamed prefixes (n=2..5; m=1..5)",
           result.passed, outcome(result))


def test_criterion_05_decomposition_prefix_law():
    result = default_sweep()[0]["decomposition-prefix"]
    report(5, "decomposition-ordered block concatenation equals each prefix (N<=1e4, n=2..5)",
           result.passed, outcome(result))


def test_criterion_06_prefix_counts_closed_form():
    result = default_sweep()[0]["decomposition-prefix"]
    spot = count_prefix(3, 10) == [3, 2, 5]
    report(6, "closed-form prefix counts equal scans (N<=1e4, n=2..5); spot (3,10)->(3,2,5)",
           result.passed and spot, f"{outcome(result)}, spot={spot}")


def test_criterion_07_random_access():
    failures = 0
    for n in (2, 3, 4, 5):
        for pos, letter in enumerate(take(n, 100_000), start=1):
            if char_at(n, pos) != letter:
                failures += 1
                break
    # timing: warm the table, then random access at position 1e18
    char_at(3, 10**18)
    best = min(_timed(lambda: char_at(3, 10**18)) for _ in range(5))
    ok = failures == 0 and best < 0.010
    report(7, "random access equals the stream (pos<=1e5, n=2..5); 1e18 lookup under 10 ms",
           ok, f"failures={failures}, best={best * 1000:.3f} ms")


def _timed(thunk):
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


def test_criterion_08_smallest_summand_sequence():
    ok, detail = fixed_summand()
    spot = smallest_summand_members(3, 4, 4) == [2, 8, 11, 15]
    report(8, "gap-rule generator equals the scan oracle (n=2..5; k=n..n+4; <=1e4)",
           ok and spot, f"{detail}, spot={spot}")


def test_criterion_09_row_ranges():
    report(9, "row ranges classify largest summands (n=3, k=4, j=3..8)", *fixed_summand())


def test_criterion_10_any_summand_sets():
    ok, detail = fixed_summand()
    spots = (any_summand_members(3, 4, 20) == [2, 8, 11, 15]
             and any_summand_members(3, 6, 30) == [4, 5, 17, 18, 23, 24])
    report(10, "fixed-summand sets equal the scan oracle (n=2..5; k=n..n+6; bound 1e5)",
           ok and spots, f"{detail}, spots={spots}")


def test_criterion_11_telescoping_identity():
    report(11, "telescoping identity exact (n=2..5, m<=10, v<=4, u<=n)", *fixed_summand())


def test_criterion_12_mutation_sanity():
    result = check_mutation_sanity(n=3, m=9, delta=1)
    report(12, "a corrupted table value is caught by at least one check",
           result.passed)
    # and the corruption did not leak out of the check
    assert term(3, 9) == 13
    assert get_table(3).term(9) == 13
