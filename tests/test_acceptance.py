"""Acceptance suite: every criterion at its stated sweep size and tolerance.

All comparisons are exact (integer equality); the only tolerances are the
two runtime targets. Criteria 3-6 and 8-11 run the harness checks that
`nzeck verify` runs, each once per session at the union of the criterion's
sweep and the check's default sweep, plus the criterion's spot values. Run
with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import time
from functools import cache
from itertools import islice

from nzeck import (any_summand_members, char_at, count_prefix, get_table,
                   smallest_summand_members, stream, term)
from nzeck.harness import (ALL_CHECKS, check_block_counts,
                           check_decomposition_prefix, check_fixed_summand,
                           check_mutation_sanity, check_unique_decomposition)


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
def block_counts():
    return check_block_counts(n_range=(2, 3, 4, 5), depth=25, staircase_max=5)


@cache
def decomposition_prefix():
    return check_decomposition_prefix(n_range=(2, 3, 4, 5), length_max=10_000)


@cache
def fixed_summand():
    return check_fixed_summand(n_range=(2, 3, 4, 5), max_k_offset=6, bound=100_000)


def test_criterion_01_unique_decomposition_and_round_trip():
    started = time.perf_counter()
    result = check_unique_decomposition(n_range=(2, 3, 4, 5, 6), value_max=100_000)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 60.0
    report(1, "uniqueness (exhaustive, N<=2000) and round trip (N<=1e5, n=2..6)",
           ok, f"{result.cases_run} cases in {elapsed:.1f}s; failures={result.failures_total}")
    assert result.cases_run == 510_000
    assert 0.0 < result.elapsed_s <= elapsed


def test_default_sweep_case_counts():
    # the sweep `nzeck verify` runs by default, one check at a time
    expected = {"concat-prefixes": 160, "block-counts": 220, "decomposition-prefix": 80_000,
                "fixed-summand": 354, "mutation-sanity": 3}
    reports = [ALL_CHECKS[check_id]() for check_id in expected]
    assert {r.check_id: r.cases_run for r in reports} == expected
    assert all(r.passed for r in reports)


def test_criterion_02_word_fixtures():
    ok = (take(3, 14) == [3, 1, 2, 3, 3, 1, 3, 1, 2, 3, 1, 2, 3, 3]
          and take(2, 13) == [2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 1])
    report(2, "displayed 3-string and golden-string prefixes match exactly", ok)


def test_criterion_03_block_counts_closed_form():
    result = block_counts()
    report(3, "closed-form block counts equal scans, totals equal the terms (n=2..5, m<=25)",
           result.passed, outcome(result))


def test_criterion_04_staircase_prefixes():
    result = block_counts()
    report(4, "staircase concatenations match streamed prefixes (n=2..5; m=1..5)",
           result.passed, outcome(result))


def test_criterion_05_decomposition_prefix_law():
    result = decomposition_prefix()
    report(5, "decomposition-ordered block concatenation equals each prefix (N<=1e4, n=2..5)",
           result.passed, outcome(result))


def test_criterion_06_prefix_counts_closed_form():
    result = decomposition_prefix()
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
    result = fixed_summand()
    spot = smallest_summand_members(3, 4, 4) == [2, 8, 11, 15]
    report(8, "gap-rule generator equals the scan oracle (n=2..5; k=n..n+4; <=1e4)",
           result.passed and spot, f"{outcome(result)}, spot={spot}")


def test_criterion_09_row_ranges():
    result = fixed_summand()
    report(9, "row ranges classify largest summands (n=3, k=4, j=3..8)",
           result.passed, outcome(result))


def test_criterion_10_any_summand_sets():
    result = fixed_summand()
    spots = (any_summand_members(3, 4, 20) == [2, 8, 11, 15]
             and any_summand_members(3, 6, 30) == [4, 5, 17, 18, 23, 24])
    report(10, "fixed-summand sets equal the scan oracle (n=2..5; k=n..n+6; bound 1e5)",
           result.passed and spots, f"{outcome(result)}, spots={spots}")


def test_criterion_11_telescoping_identity():
    result = fixed_summand()
    report(11, "telescoping identity exact (n=2..5, m<=10, v<=4, u<=n)",
           result.passed, outcome(result))


def test_criterion_12_mutation_sanity():
    result = check_mutation_sanity(n=3, m=9, delta=1)
    report(12, "a corrupted table value is caught by at least one check",
           result.passed)
    # and the corruption did not leak out of the check
    assert term(3, 9) == 13
    assert get_table(3).term(9) == 13
