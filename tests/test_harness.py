"""Harness checks: pass on healthy tables, fail on corrupted ones."""

import ast
import inspect
import json
import os
import threading
import time
from collections import Counter
from contextlib import nullcontext
from itertools import islice

import pytest

from nzeck import (DEFAULT_LENGTH_CAP, DEFAULT_SCAN_LIMIT, BlockTooLarge, IndexNotFound,
                   ScanLimitExceeded, SequenceTable, block, decompose, decomposition,
                   fixed_summand, harness, perturbed_table, sequence, stream, term, words)
from nzeck.harness import (ALL_CHECKS, MAX_RECORDED_FAILURES, CheckReport, check_block_counts,
                           check_concat_prefixes, check_decomposition_prefix,
                           check_fixed_summand, check_mutation_sanity,
                           check_unique_decomposition)

SMALL = dict(
    unique=dict(n_range=(2, 3), value_max=300),
    concat=dict(n_range=(3, 4), depth=11),
    blocks=dict(n_range=(2, 3, 4), depth=14, staircase_max=3),
    prefix=dict(n_range=(2, 3), length_max=400),
    fixed=dict(n_range=(3,), max_k_offset=3, bound=1500),
)


def test_all_checks_pass_small():
    reports = [
        check_unique_decomposition(**SMALL["unique"]),
        check_concat_prefixes(**SMALL["concat"]),
        check_block_counts(**SMALL["blocks"]),
        check_decomposition_prefix(**SMALL["prefix"]),
        check_fixed_summand(**SMALL["fixed"]),
    ]
    for report in reports:
        assert report.passed, report.summary()
        assert report.cases_run >= 1


def test_set_up_returns_falsy_values_unchanged_and_records_no_case():
    report = CheckReport("demo", {})
    for value in ([], "", 0, {}):
        assert report.set_up({"sub": "set-up"}, lambda: value) is value
    assert (report.cases_run, report.failures_total) == (0, 0)


def test_set_up_records_an_exception_as_one_failed_case():
    def refused():
        raise ScanLimitExceeded("too big")
    report = CheckReport("demo", {})
    assert report.set_up({"sub": "set-up"}, refused) is None
    assert (report.cases_run, report.failures_total) == (1, 1)
    assert report.failures == [({"sub": "set-up"}, "no exception", "ScanLimitExceeded: too big")]


def test_empty_sweep_is_not_green():
    report = CheckReport("empty", {})
    assert not report.passed
    assert report.summary().startswith("[FAIL] empty: 0 cases")


def test_checks_are_deterministic():
    first = check_fixed_summand(**SMALL["fixed"])
    second = check_fixed_summand(**SMALL["fixed"])
    assert first == second


def test_order_two_flagged_empirical():
    report = check_unique_decomposition(n_range=(2, 3), value_max=50)
    assert report.parameters["empirical_orders"] == [2]
    report = check_unique_decomposition(n_range=(3,), value_max=50)
    assert "empirical_orders" not in report.parameters


def test_perturbation_breaks_block_counts():
    healthy = check_block_counts(n_range=(3,), depth=12, staircase_max=3)
    assert healthy.passed
    with perturbed_table(3, 9):
        assert term(3, 9) == 14  # one more than the true value 13
        broken = check_block_counts(n_range=(3,), depth=12, staircase_max=3)
    assert not broken.passed
    assert broken.failures
    # registry restored: the same check is green again
    assert term(3, 9) == 13
    assert check_block_counts(n_range=(3,), depth=12, staircase_max=3).passed


def test_block_counts_ends_its_block_sweep_at_an_oversized_block():
    # F(3, 9) + 10**8 is above the length cap: block 9 is one failed set-up,
    # its two cases and every later block are skipped, and the staircase
    # cases still run
    with perturbed_table(3, 9, 10**8):
        broken = check_block_counts(n_range=(3,), depth=12, staircase_max=3)
    assert (broken.cases_run, broken.failures_total) == (2 * 8 + 1 + 3, 2)
    assert [inputs for inputs, _, _ in broken.failures] == [
        {"n": 3, "m": 9, "sub": "set-up"}, {"n": 3, "staircase_m": 3}]
    _, expected, actual = broken.failures[0]
    assert expected == "no exception"
    assert actual == "BlockTooLarge: block 9 length 100000013 exceeds the limit " \
        f"{DEFAULT_LENGTH_CAP}"
    assert check_mutation_sanity(n=3, m=9, delta=10**8).passed


def test_block_counts_grows_the_table_only_to_the_blocks_it_builds(monkeypatch):
    # the sweep ends at the first block refused by its size, so the table
    # grows only to that block's index, however deep the sweep asks to go
    fresh = SequenceTable(3)
    monkeypatch.setitem(sequence._TABLES, 3, fresh)
    monkeypatch.setattr(harness, "block",
                        lambda n, m, length_cap=10**4: block(n, m, min(length_cap, 10**4)))
    report = check_block_counts(n_range=(3,), depth=3000, staircase_max=1)
    assert term(3, 26) <= 10**4 < term(3, 27)
    assert (report.cases_run, report.failures_total) == (2 * 26 + 1 + 1, 1)
    assert report.failures[0][0] == {"n": 3, "m": 27, "sub": "set-up"}
    assert fresh.hi == 27


def test_block_counts_at_depth_a_million_runs_the_cases_of_depth_45():
    # block 45 is the first above the length cap; the sweep ends there
    report = check_block_counts(n_range=(3,), depth=10**6)
    assert term(3, 44) <= DEFAULT_LENGTH_CAP < term(3, 45)
    assert (report.cases_run, report.failures_total) == (2 * 44 + 1 + 5, 1)
    assert report.failures[0][0] == {"n": 3, "m": 45, "sub": "set-up"}
    assert report.elapsed_s < 10.0


def test_prefix_set_up_refuses_a_staircase_above_the_length_cap(monkeypatch):
    indices = range(9, 2, -2)  # staircase m = 3 at n = 3: 13 + 6 + 3 + 1 letters
    monkeypatch.setattr(harness, "DEFAULT_LENGTH_CAP", 23)
    word, texts = harness._prefix_set_up(3, indices)
    assert harness._matched_prefix(3, word, texts, indices) == len(word) == 23
    monkeypatch.setattr(harness, "DEFAULT_LENGTH_CAP", 22)
    with pytest.raises(BlockTooLarge, match="^prefix length 23 exceeds the limit 22$"):
        harness._prefix_set_up(3, indices)
    monkeypatch.setattr(harness, "DEFAULT_LENGTH_CAP", DEFAULT_LENGTH_CAP)
    # the 33-step staircase at n = 2 has 24157815 letters: its top block is
    # built, and the staircase is refused before any other block or letter
    built = []
    monkeypatch.setattr(harness, "block", lambda n, m: built.append(m) or block(n, m))
    with pytest.raises(BlockTooLarge, match="^prefix length 24157815 exceeds the limit "
                                            f"{DEFAULT_LENGTH_CAP}$"):
        harness._prefix_set_up(2, range(2 + 33, 1, -1))
    assert built == [35]


def test_block_counts_staircase_costs_no_index_list_per_refused_block():
    report = check_block_counts(n_range=(4,), depth=1, staircase_max=20_000)
    assert report.cases_run == 20_002
    assert report.elapsed_s < 5.0


def test_failures_capped_but_counted():
    with perturbed_table(3, 5):
        broken = check_decomposition_prefix(n_range=(3,), length_max=300)
    assert not broken.passed
    assert len(broken.failures) <= 5
    assert broken.failures_total >= len(broken.failures)


def test_report_json_shape():
    report = check_concat_prefixes(n_range=(3,), depth=10)
    payload = report.to_json_dict()
    assert payload["check_id"] == "concat-prefixes"
    assert payload["pass"] is True
    assert payload["cases_run"] == report.cases_run
    assert payload["failures"] == []
    json.dumps(payload)  # must be serializable


def test_report_json_stringifies_big_ints():
    report = CheckReport("demo", {"bound": 10**30})
    report.fail({"value": 10**25}, 10**25, 10**25 + 1)
    payload = report.to_json_dict()
    assert payload["parameters"]["bound"] == str(10**30)
    assert payload["failures"][0]["expected"] == str(10**25)
    json.dumps(payload)


def test_report_json_big_int_above_digit_limit():
    payload = CheckReport("x", {"b": 10**5000}).to_json_dict()
    assert payload["parameters"]["b"] == "1" + "0" * 5000


def test_prefix_check_names_the_block_that_differs(monkeypatch):
    # flip the last letter of B(7) (n = 3): the counts still agree, but every
    # length whose decomposition uses index 7 must fail its prefix case
    def flipped(n, m):
        letters = block(n, m)
        if m == 7:
            return letters[:-1] + bytes((letters[-1] % n + 1,))
        return letters
    monkeypatch.setattr(harness, "block", flipped)
    report = check_decomposition_prefix(n_range=(3,), length_max=60)
    assert not report.passed
    uses_7 = [length for length in range(1, 61) if 7 in decompose(3, length)]
    assert report.failures_total == len(uses_7)
    inputs, expected, actual = report.failures[0]
    assert inputs == {"n": 3, "length": uses_7[0], "sub": "prefix"}
    # (length, its letter in the word) against (matched length, char_at)
    letter = list(islice(stream(3), uses_7[0]))[-1]
    assert expected == (uses_7[0], letter)
    assert actual[0].startswith("block 7 differs at letters ")
    assert actual[1] == letter


def test_prefix_check_counts_both_cases_when_decompose_fails(monkeypatch):
    def failing(n, value):
        if value == 5:
            raise IndexNotFound("injected")
        return decompose(n, value)
    # count_prefix (through decomposition's sums) and char_at both
    # decompose the length
    monkeypatch.setattr(decomposition, "decompose", failing)
    monkeypatch.setattr(words, "decompose", failing)
    report = check_decomposition_prefix(n_range=(3,), length_max=10)
    assert report.cases_run == 20
    assert report.failures_total == 2
    assert [f[0]["sub"] for f in report.failures] == ["counts", "prefix"]
    assert all(f[2] == "IndexNotFound: injected" for f in report.failures)


def test_prefix_check_catches_a_count_prefix_wrong_at_some_lengths(monkeypatch):
    def wrong(n, length):
        counts = words.count_prefix(n, length)
        if length % 11 == 5:
            counts[0] += 1
        return counts
    monkeypatch.setattr(harness, "count_prefix", wrong)
    report = check_decomposition_prefix(n_range=(3,), length_max=300)
    assert report.failures_total == len(range(5, 301, 11)) == 27
    assert {inputs["sub"] for inputs, _, _ in report.failures} == {"counts"}


def test_prefix_check_catches_a_char_at_wrong_at_some_positions(monkeypatch):
    def wrong(n, pos):
        letter = words.char_at(n, pos)
        return letter % n + 1 if pos % 7 == 3 else letter
    monkeypatch.setattr(harness, "char_at", wrong)
    report = check_decomposition_prefix(n_range=(3,), length_max=300)
    assert report.failures_total == len(range(3, 301, 7)) == 43
    assert {inputs["sub"] for inputs, _, _ in report.failures} == {"prefix"}


def test_harness_reaches_words_and_decomposition_by_public_names():
    # closed forms are checked through the functions users call; the
    # harness's own oracles, and private ones such as fixed_summand's
    # any-summand walk, are allowed
    private = [name for name, obj in vars(harness).items() if name.startswith("_")
               and getattr(obj, "__module__", None) in ("nzeck.words", "nzeck.decomposition")]
    assert private == []


def test_harness_catches_exceptions_only_in_its_set_up_paths():
    # every set-up goes through CheckReport.set_up; only guarded cases and
    # unique-decomposition's inline round trip catch for themselves, and no
    # exception is kept as a value to be raised again
    tree = ast.parse(inspect.getsource(harness))
    catching = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)}
    assert catching <= {"guarded", "set_up", "check_unique_decomposition"}
    assert "set_up" in catching
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert "with_traceback" not in names
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and "Exception" in ast.unparse(node.args[1])]


def test_prefix_check_handles_orders_above_one_byte():
    assert check_decomposition_prefix(n_range=(300,), length_max=400).passed


def test_reports_carry_elapsed_time():
    started = time.perf_counter()
    report = check_concat_prefixes(n_range=(3,), depth=10)
    wall = time.perf_counter() - started
    assert 0.0 < report.elapsed_s <= wall
    assert report.to_json_dict()["elapsed_s"] == report.elapsed_s
    assert f"in {report.elapsed_s:.2f} s" in report.summary()
    # timing is not part of a report's identity
    assert report == check_concat_prefixes(n_range=(3,), depth=10)


# Each sweeping check, at a small sweep, under a corruption inside that sweep:
# the check returns a failing report instead of raising.
CORRUPTIONS = [
    (check_unique_decomposition, dict(n_range=(3,), value_max=200), (3, 9)),
    (check_concat_prefixes, dict(n_range=(3,), depth=12), (3, 9)),
    (check_concat_prefixes, dict(n_range=(3,), depth=12), (3, 9, 10**8)),
    (check_block_counts, dict(n_range=(3,), depth=12, staircase_max=3), (3, 9)),
    (check_block_counts, dict(n_range=(3,), depth=12, staircase_max=3), (3, 9, 10**8)),
    (check_decomposition_prefix, dict(n_range=(3,), length_max=200), (3, 9)),
    (check_fixed_summand, dict(n_range=(3,), max_k_offset=1, bound=2000), (3, 9)),
    (check_fixed_summand, dict(n_range=(3,), max_k_offset=1, bound=2000), (3, 9, -1)),
    (check_fixed_summand, dict(n_range=(3,), max_k_offset=1, bound=2000), (3, 9, 10**8)),
]


@pytest.mark.parametrize("check,sweep,corruption", CORRUPTIONS,
                         ids=[f"{c.__name__}-{p}" for c, _, p in CORRUPTIONS])
def test_check_fails_under_corruption_without_raising(check, sweep, corruption):
    assert check(**sweep).passed
    with perturbed_table(*corruption):
        report = check(**sweep)
    assert report.cases_run > 0
    assert not report.passed
    assert check(**sweep).passed


def test_concat_prefixes_records_a_failed_set_up_as_one_case():
    # F(3, 9) + 10**8 reaches every later term: the top block, built first,
    # is the one refused
    with perturbed_table(3, 9, 10**8):
        report = check_concat_prefixes(n_range=(3, 4), depth=12)
    healthy = check_concat_prefixes(n_range=(4,), depth=12)
    assert (report.cases_run, report.failures_total) == (1 + healthy.cases_run, 1)
    inputs, expected, actual = report.failures[0]
    assert (inputs, expected) == ({"n": 3, "sub": "set-up"}, "no exception")
    # F(12) = F(11) + F(9) = (F(10) + F(8)) + F(9), two terms off by 10**8
    assert actual == "BlockTooLarge: block 12 length 200000041 exceeds the limit " \
        f"{DEFAULT_LENGTH_CAP}"


def test_concat_prefixes_refuses_a_prefix_above_the_cap_after_its_top_block(monkeypatch):
    # block 44 (n = 3) is under the length cap, the prefix F(44) + F(42) is
    # above it: one failed set-up case, after building block 44 alone
    built = []
    monkeypatch.setattr(harness, "block", lambda n, m: built.append(m) or block(n, m))
    report = check_concat_prefixes(n_range=(3,), depth=44)
    assert term(3, 44) <= DEFAULT_LENGTH_CAP < term(3, 44) + term(3, 42)
    assert (report.cases_run, report.failures_total) == (1, 1)
    assert report.failures[0] == (
        {"n": 3, "sub": "set-up"}, "no exception",
        f"BlockTooLarge: prefix length {term(3, 44) + term(3, 42)} exceeds the limit "
        f"{DEFAULT_LENGTH_CAP}")
    assert built == [44]


def test_word_text_refuses_a_length_above_the_cap(monkeypatch):
    monkeypatch.setattr(harness, "DEFAULT_LENGTH_CAP", 60)
    assert harness._word_text(3, 60) == "".join(map(chr, islice(stream(3), 60)))
    monkeypatch.setattr(harness, "DEFAULT_LENGTH_CAP", 59)
    with pytest.raises(BlockTooLarge, match="^prefix length 60 exceeds the limit 59$"):
        harness._word_text(3, 60)


def test_decomposition_prefix_refuses_a_prefix_above_the_length_cap_as_one_case():
    report = check_decomposition_prefix(n_range=(3,), length_max=DEFAULT_LENGTH_CAP + 1)
    assert (report.cases_run, report.failures_total) == (1, 1)
    assert report.failures[0] == (
        {"n": 3, "sub": "set-up"}, "no exception",
        f"BlockTooLarge: prefix length {DEFAULT_LENGTH_CAP + 1} exceeds the limit "
        f"{DEFAULT_LENGTH_CAP}")


def test_fixed_summand_records_a_failed_rows_set_up_as_one_case(monkeypatch):
    monkeypatch.setattr(harness, "MAX_RECORDED_FAILURES", 1000)
    sweep = dict(n_range=(3,), max_k_offset=1, bound=2000)
    with perturbed_table(3, 9):
        report = check_fixed_summand(**sweep)
    # the six rows cases are skipped
    assert report.cases_run == check_fixed_summand(**sweep).cases_run - 6 + 1
    rows = [(inputs, actual) for inputs, _, actual in report.failures
            if inputs["sub"].startswith("rows")]
    assert rows == [({"n": 3, "k": 4, "sub": "rows set-up"},
                     "IndexNotFound: no index >= 3 below 3 fits the remainder 1")]


def test_row_tops_refuse_rows_above_the_scan_limit(monkeypatch):
    # the rows check reads F(3, 9) = 13 rows, one streamed letter per member
    monkeypatch.setattr(harness, "DEFAULT_SCAN_LIMIT", 13)
    assert len(harness._row_tops(3, 4, 13)) == 13
    monkeypatch.setattr(harness, "DEFAULT_SCAN_LIMIT", 12)
    with pytest.raises(ScanLimitExceeded, match="^row count 13 exceeds the limit 12$"):
        harness._row_tops(3, 4, 13)


def test_fixed_summand_records_an_any_summand_walk_over_the_limit_as_one_case(monkeypatch):
    sweep = dict(n_range=(3,), max_k_offset=1)
    healthy = check_fixed_summand(**sweep, bound=2000)
    members_calls = []
    monkeypatch.setattr(harness, "any_summand_members",
                        lambda *args: members_calls.append(args))
    report = check_fixed_summand(**sweep, bound=DEFAULT_SCAN_LIMIT + 1)
    # the two any-summand cases are skipped
    assert report.cases_run == healthy.cases_run - 2 + 1
    assert report.failures == [
        ({"n": 3, "bound": DEFAULT_SCAN_LIMIT + 1, "sub": "any-summand set-up"}, "no exception",
         f"ScanLimitExceeded: flag count {2 * (DEFAULT_SCAN_LIMIT + 1)} exceeds the limit "
         f"{DEFAULT_SCAN_LIMIT}")]
    assert members_calls == []


def test_fixed_summand_refuses_a_huge_max_k_offset_as_one_case():
    # 10**6 + 1 flag rows of 10**5 values would take about 100 GB
    started = time.perf_counter()
    report = check_fixed_summand(n_range=(3,), max_k_offset=10**6)
    assert time.perf_counter() - started < 1.0
    assert report.failures_total == 1
    assert report.failures[0][0]["sub"] == "any-summand set-up"
    assert report.cases_run == check_fixed_summand(n_range=(3,)).cases_run - 7 + 1


def test_any_summand_walk_refuses_flags_above_the_scan_limit():
    # the walk refuses its whole flag count, one flag per value for each k
    ks = range(3, 5)
    assert fixed_summand._any_summand_flags(3, ks, 10, scan_limit=20) == \
        fixed_summand._any_summand_flags(3, ks, 10)
    with pytest.raises(ScanLimitExceeded, match="^flag count 20 exceeds the limit 19$"):
        fixed_summand._any_summand_flags(3, ks, 10, scan_limit=19)
    # no k has no flag, so any bound is an empty walk
    assert fixed_summand._any_summand_flags(3, (), 10**100, scan_limit=0) == {}


# a set-up's exception is caught once, kept only as its text, and the
# cases that needed the set-up's value are skipped
@pytest.mark.parametrize("name,sub,skipped", [("_any_summand_flags", "any-summand", 2),
                                              ("_row_tops", "rows", 6)],
                         ids=["any", "rows"])
def test_failed_set_up_is_one_case_and_keeps_no_exception(monkeypatch, name, sub, skipped):
    sweep = dict(n_range=(3,), max_k_offset=1, bound=2000)
    healthy = check_fixed_summand(**sweep)

    def refused(*args):
        raise ScanLimitExceeded("set-up refused")
    monkeypatch.setattr(harness, name, refused)
    report = check_fixed_summand(**sweep)
    assert report.cases_run == healthy.cases_run - skipped + 1
    assert [(inputs["sub"], expected, actual) for inputs, expected, actual in report.failures] \
        == [(f"{sub} set-up", "no exception", "ScanLimitExceeded: set-up refused")]


def test_any_summand_scan_reads_no_table():
    healthy = [fixed_summand.any_summand_scan(3, k, 2000) for k in range(3, 10)]
    with perturbed_table(3, 9, 10**8):
        assert [fixed_summand.any_summand_scan(3, k, 2000) for k in range(3, 10)] == healthy


def test_fixed_summand_walks_once_per_order_for_every_any_summand_case(monkeypatch):
    walks = []
    real_walk = fixed_summand.successive_decompositions

    def counted_walk(n):
        walks.append(n)
        return real_walk(n)

    monkeypatch.setattr(fixed_summand, "successive_decompositions", counted_walk)
    report = check_fixed_summand(n_range=(3, 4), max_k_offset=6, bound=3000)
    assert report.passed
    # per order: five smallest-summand scans (k = n..n+4) and one
    # any-summand walk shared by its seven cases
    assert Counter(walks) == {3: 5 + 1, 4: 5 + 1}


# run_checks against direct calls: every check, small sweeps over each
# check's default orders, forked and in-process
SWEEP = {"value_max": 300, "length_max": 300, "bound": 3000}
DIRECT = {"unique-decomposition": {"value_max": 300}, "decomposition-prefix": {"length_max": 300},
          "fixed-summand": {"bound": 3000}}


@pytest.mark.parametrize("corruption", [None, (3, 9), (3, 9, 10**8)])
def test_run_checks_equals_direct_calls(cpus, corruption):
    with perturbed_table(*corruption) if corruption else nullcontext():
        merged = harness.run_checks(ALL_CHECKS, SWEEP)
        direct = [check(**DIRECT.get(check_id, {})) for check_id, check in ALL_CHECKS.items()]
    assert merged == direct
    # parameter order too, since it fixes verify's JSON bytes
    assert [list(r.parameters) for r in merged] == [list(r.parameters) for r in direct]
    assert all(r.passed for r in direct) == (corruption is None)


def test_run_checks_keeps_the_first_failures_across_orders(cpus):
    options = {"n_range": [3, 4], "depth": 11, "staircase_max": 1}
    with perturbed_table(3, 9), perturbed_table(4, 10):
        (merged,) = harness.run_checks(["block-counts"], options)
        direct = check_block_counts(**options)
    assert merged == direct
    assert merged.failures_total == 6 > MAX_RECORDED_FAILURES
    assert [inputs["n"] for inputs, _, _ in merged.failures] == [3, 3, 3, 3, 4]


def test_fixed_summand_runs_its_rows_cases_with_order_three(cpus, monkeypatch):
    def broken_rows(n, k, j, tops):
        raise IndexNotFound(f"row {j}")
    monkeypatch.setattr(harness, "_rows_pair", broken_rows)
    options = {"max_k_offset": 1, "bound": 2000}
    with perturbed_table(4, 10):
        (merged,) = harness.run_checks(["fixed-summand"], options)
        direct = check_fixed_summand(**options)
    assert merged == direct
    # the six rows cases fail before any of order 4's failures is reached
    assert merged.failures_total > 6
    assert [inputs["sub"] for inputs, _, _ in merged.failures] == ["rows"] * MAX_RECORDED_FAILURES


def test_run_checks_sums_cases_and_times_over_orders(cpus, monkeypatch):
    def timed(n_range=(3, 4)):
        report = CheckReport("timed", {"n_range": list(n_range)})
        report.cases_run, report.elapsed_s = 10 * n_range[0], float(n_range[0])
        return report
    monkeypatch.setitem(ALL_CHECKS, "timed", timed)
    (report,) = harness.run_checks(["timed"], {"n_range": [2, 3, 5], "depth": 8})
    assert (report.cases_run, report.elapsed_s) == (100, 10.0)
    assert report.parameters == {"n_range": [2, 3, 5], "empirical_orders": [2]}


def _where(n_range=(3, 4)):
    """A check that reports the process it ran in."""
    report = CheckReport("where", {"n_range": list(n_range), "pid": os.getpid()})
    report.cases_run = 1
    return report


def test_run_checks_forks_only_with_more_than_one_cpu(cpus, monkeypatch):
    monkeypatch.setitem(ALL_CHECKS, "where", _where)
    (report,) = harness.run_checks(["where"], {})
    assert (report.parameters["pid"] == os.getpid()) == (cpus == 1)
    # one task needs no worker
    (report,) = harness.run_checks(["where"], {"n_range": [3]})
    assert report.parameters["pid"] == os.getpid()


def test_run_checks_stays_in_process_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setitem(ALL_CHECKS, "where", _where)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        (report,) = harness.run_checks(["where"], {})
    finally:
        release.set()
        other.join()
    assert report.parameters["pid"] == os.getpid()
