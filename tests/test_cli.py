"""CLI surface: output formats, exit codes, environment overrides."""

import argparse
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from nzeck import (DEFAULT_SCAN_LIMIT, InvalidDecomposition, block, decompose, fixed_summand,
                   format_letters, harness, largest_summand_rows, perturbed_table, recompose,
                   smallest_summand_members, stream, term, words)
from nzeck.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_term_text(capsys):
    code, out, _ = run(capsys, "term", "-n", "3", "-m", "7")
    assert code == 0
    assert out.strip() == "6"


def test_term_json_negative_index(capsys):
    code, out, _ = run(capsys, "term", "-n", "3", "-m", "-2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "m": -2, "value": "1"}


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "-n", "3", "10")
    assert code == 0
    assert out.strip() == "10 = F(3,3) + F(3,8)"


def test_decompose_json_round_trips(capsys):
    code, out, _ = run(capsys, "decompose", "-n", "3", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "N": "10", "indices": [3, 8]}
    assert recompose(payload["n"], payload["indices"]) == int(payload["N"])


def test_decompose_zero(capsys):
    code, out, _ = run(capsys, "decompose", "-n", "3", "0")
    assert code == 0
    assert "empty" in out


def test_recompose(capsys):
    code, out, _ = run(capsys, "recompose", "-n", "3", "3", "8")
    assert code == 0
    assert out.strip() == "10"


def test_string_text(capsys):
    code, out, _ = run(capsys, "string", "-n", "3", "--prefix", "14")
    assert code == 0
    assert out.strip() == "a3 a1 a2 a3 a3 a1 a3 a1 a2 a3 a1 a2 a3 a3"


def test_string_json(capsys):
    code, out, _ = run(capsys, "string", "-n", "2", "--prefix", "13", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "prefix": [2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 1]}


def test_block(capsys):
    code, out, _ = run(capsys, "block", "-n", "3", "-m", "8")
    assert code == 0
    assert out.strip() == "a3 a1 a2 a3 a3 a1 a3 a1 a2"


def test_block_cap_exit_code(capsys):
    code, _, err = run(capsys, "block", "-n", "3", "-m", "60", "--length-cap", "100")
    assert code == 1
    assert "BlockTooLarge" in err


def test_block_cap_refused_before_growth(capsys):
    code, _, err = run(capsys, "block", "-n", "3", "-m", "1000000")
    assert code == 1
    assert "BlockTooLarge" in err


def test_char_at(capsys):
    code, out, _ = run(capsys, "char-at", "-n", "3", "5")
    assert code == 0
    assert out.strip() == "a3"


def test_counts_prefix_json(capsys):
    code, out, _ = run(capsys, "counts", "-n", "3", "--prefix", "10", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"a1": "3", "a2": "2", "a3": "5"}


def test_counts_scan_matches_closed_form(capsys):
    code, closed, _ = run(capsys, "counts", "-n", "4", "--prefix", "500")
    code2, scanned, _ = run(capsys, "counts", "-n", "4", "--prefix", "500", "--scan")
    assert code == code2 == 0
    assert closed == scanned


def test_counts_block(capsys):
    code, out, _ = run(capsys, "counts", "-n", "3", "--block", "8")
    assert code == 0
    assert out.strip() == "a1=3 a2=2 a3=4"


def test_counts_scan_with_block_is_usage_error(capsys):
    code, _, err = run(capsys, "counts", "-n", "3", "--block", "8", "--scan")
    assert code == 2
    assert "scan" in err


def test_qseq_formats(capsys):
    code, out, _ = run(capsys, "qseq", "-n", "3", "-k", "4", "--count", "4")
    assert code == 0
    assert out.strip() == "2 8 11 15"
    code, out, _ = run(capsys, "qseq", "-n", "3", "-k", "4", "--count", "4", "--format", "json")
    assert json.loads(out) == {"n": 3, "k": 4, "q": ["2", "8", "11", "15"]}
    code, out, _ = run(capsys, "qseq", "-n", "3", "-k", "4", "--count", "4", "--format", "bfile")
    assert out == "1 2\n2 8\n3 11\n4 15\n"


def test_bulk_text_matches_per_item_formatting(capsys):
    letters = list(islice(stream(3), 10_000))
    code, out, _ = run(capsys, "string", "-n", "3", "--prefix", "10000")
    assert code == 0
    assert out == " ".join(f"a{x}" for x in letters) + "\n"
    members = smallest_summand_members(3, 4, 10_000)
    code, out, _ = run(capsys, "qseq", "-n", "3", "-k", "4", "--count", "10000",
                       "--format", "bfile")
    assert code == 0
    assert out == "".join(f"{j} {q}\n" for j, q in enumerate(members, start=1))


@pytest.mark.parametrize("n", [2, 3, 6, 10, 12, 256, 300])
def test_string_text_matches_the_stream_across_leaf_edges(capsys, n):
    # two-digit letters from n = 10, tuple leaves from n = 256
    for length in (0, 1, 4095, 4096, 4097, 8191, 12289, 50000):
        letters = list(islice(stream(n), length))
        code, out, _ = run(capsys, "string", "-n", str(n), "--prefix", str(length))
        assert (code, out) == (0, format_letters(letters) + "\n"), length
        code, out, _ = run(capsys, "string", "-n", str(n), "--prefix", str(length),
                           "--format", "json")
        assert (code, out) == (0, json.dumps({"n": n, "prefix": letters}) + "\n"), length
    # blocks at, just below and just above the largest leaf, and at the seeds
    top = len(words._leaves(n)) - 1
    for m in (1, n - 1, n, n + 1, top, top + 1, top + n):
        letters = list(block(n, m))
        code, out, _ = run(capsys, "block", "-n", str(n), "-m", str(m))
        assert (code, out) == (0, format_letters(letters) + "\n"), m
        code, out, _ = run(capsys, "block", "-n", str(n), "-m", str(m), "--format", "json")
        assert (code, out) == (0, json.dumps({"n": n, "m": m, "letters": letters}) + "\n"), m


# F(3, 39) = 1243524 letters; a JSON letter of order 3 is one digit and ", "
@pytest.mark.parametrize("argv,length", [
    (["string", "-n", "3", "--prefix", "1000000"], 3 * 10**6 - 1),
    (["string", "-n", "3", "--prefix", "1000000", "--format", "json"],
     3 * 10**6 - 2 + len('{"n": 3, "prefix": []}')),
    (["block", "-n", "3", "-m", "39"], 3 * 1243524 - 1),
    (["block", "-n", "3", "-m", "39", "--format", "json"],
     3 * 1243524 - 2 + len('{"n": 3, "m": 39, "letters": []}')),
], ids=["string", "string-json", "block", "block-json"])
def test_string_text_peaks_under_twice_its_length(argv, length):
    args = build_parser().parse_args(argv)
    tracemalloc.start()
    try:
        text = args.handler(args)[args.format]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == length
    assert peak < 2 * len(text), peak


def test_table1(capsys):
    code, out, _ = run(capsys, "table1", "-n", "3", "-j", "6")
    assert code == 0
    assert out.strip() == "5 6"


@pytest.mark.parametrize("j", [6, 300])
def test_table1_json_rows_are_decimal_strings(capsys, j):
    code, out, _ = run(capsys, "table1", "-n", "3", "-j", str(j), "--format", "json")
    assert code == 0
    lo, hi = largest_summand_rows(3, j)
    assert json.loads(out) == {"n": 3, "j": j, "row_lo": str(lo), "row_hi": str(hi)}


def test_zset_json(capsys):
    code, out, _ = run(capsys, "zset", "-n", "3", "-k", "6", "--bound", "30", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "k": 6, "bound": "30",
                               "z": ["4", "5", "17", "18", "23", "24"]}


def test_verify_small_pass(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "concat-prefixes,block-counts",
                       "--orders", "3", "--depth", "10", "--staircase-max", "2")
    assert code == 0
    assert out.count("[PASS]") == 2
    assert re.search(r"^\[PASS\] concat-prefixes: \d+ cases in \d+\.\d\d s$", out, re.M)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "block-counts",
                       "--orders", "3", "--depth", "8", "--staircase-max", "2",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["check_id"] == "block-counts"
    assert reports[0]["pass"] is True
    assert reports[0]["elapsed_s"] >= 0


def test_verify_n_max_reaches_both_sweeps(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "unique-decomposition,decomposition-prefix",
                       "--n-max", "50", "--format", "json")
    assert code == 0
    reports = {r["check_id"]: r for r in json.loads(out)}
    # 5 orders x 50 values, each a round trip and a uniqueness case
    assert reports["unique-decomposition"]["cases_run"] == 500
    assert reports["unique-decomposition"]["parameters"]["value_max"] == 50
    # 4 orders x 50 lengths, each a counts and a prefix case
    assert reports["decomposition-prefix"]["cases_run"] == 400
    assert reports["decomposition-prefix"]["parameters"]["length_max"] == 50


def test_verify_fixed_summand_flags(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "fixed-summand", "--orders", "3",
                       "--bound", "500", "--max-k-offset", "2", "--format", "json")
    assert code == 0
    params = json.loads(out)[0]["parameters"]
    assert (params["n_range"], params["bound"], params["max_k_offset"]) == ([3], 500, 2)


def test_verify_refuses_a_max_k_offset_above_the_scan_limit(capsys):
    # 1001 flag rows of 10**5 values are above the 10**7 scan limit
    code, out, _ = run(capsys, "verify", "--checks", "fixed-summand", "--orders", "3",
                       "--max-k-offset", "1000", "--format", "json")
    assert code == 1
    (report,) = json.loads(out)
    assert report["failures_total"] == 1
    assert report["failures"][0]["actual"] == (
        "ScanLimitExceeded: flag count 100100000 exceeds the limit 10000000")


def test_verify_mutation_sanity_ignores_sweep_flags(capsys):
    code, out, _ = run(capsys, "verify", "--orders", "3", "--checks", "mutation-sanity",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)[0]
    assert report["pass"] is True
    assert report["cases_run"] == 3


def test_verify_fails_under_corruption(capsys):
    with perturbed_table(3, 9):
        code, out, _ = run(capsys, "verify", "--checks", "block-counts",
                           "--orders", "3", "--depth", "12", "--staircase-max", "2")
    assert code == 1
    assert "[FAIL]" in out


def test_verify_leaves_no_process_or_thread_behind(capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["verify", "--n-max", "300", "--bound", "3000"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 6
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []
    assert threading.enumerate() == [threading.current_thread()]


# an exception a check does not guard ends verify as it does in a serial run
def test_verify_bad_order_is_a_usage_error(capsys, cpus):
    assert run(capsys, "verify", "--orders", "1,3") == (
        2, "", "error: order n must be an integer >= 2, got 1\n")


def test_verify_domain_error_from_a_check_exits_1(capsys, cpus, monkeypatch):
    def broken(n_range=(3, 4), depth=25, staircase_max=5):
        for n in n_range:
            if n > 3:  # the first order that raises is the one reported
                raise InvalidDecomposition(f"order {n}")
        return harness.check_block_counts(n_range, depth, staircase_max)
    monkeypatch.setitem(harness.ALL_CHECKS, "block-counts", broken)
    assert run(capsys, "verify", "--checks", "concat-prefixes,block-counts", "--orders", "3,4,5",
               "--depth", "8") == (1, "", "error: InvalidDecomposition: order 4\n")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "nope")
    assert code == 2
    assert "unknown checks" in err


@pytest.mark.parametrize("checks", [",", " , ", ""])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_checks_naming_no_check_is_usage_error(capsys, checks, fmt):
    code, out, err = run(capsys, "verify", "--checks", checks, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == ("error: --checks names no check (known: unique-decomposition, "
                   "concat-prefixes, block-counts, decomposition-prefix, fixed-summand, "
                   "mutation-sanity)\n")


@pytest.mark.parametrize("orders", [",", " , ", ""])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_orders_naming_no_order_is_usage_error(capsys, orders, fmt):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--orders", orders, "--format", fmt])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        f"error: argument --orders: must name at least one order, got {orders!r}\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2


def test_scan_limit_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NZECK_SCAN_LIMIT", "5")
    code, _, err = run(capsys, "string", "-n", "3", "--prefix", "10")
    assert code == 1
    assert "ScanLimitExceeded" in err
    # explicit flag beats the environment
    code, out, _ = run(capsys, "string", "-n", "3", "--prefix", "10", "--scan-limit", "20")
    assert code == 0


def test_qseq_count_is_held_to_the_scan_limit(capsys, monkeypatch):
    monkeypatch.setenv("NZECK_SCAN_LIMIT", "5")
    code, _, err = run(capsys, "qseq", "-n", "3", "-k", "4", "--count", "6")
    assert (code, err) == (1, "error: ScanLimitExceeded: member count 6 exceeds the limit 5\n")
    code, out, _ = run(capsys, "qseq", "-n", "3", "-k", "4", "--count", "5")
    assert (code, out) == (0, " ".join(map(str, smallest_summand_members(3, 4, 5))) + "\n")


def test_qseq_refuses_a_count_above_the_default_scan_limit_before_drawing(capsys, monkeypatch):
    monkeypatch.delenv("NZECK_SCAN_LIMIT", raising=False)
    drawn = []
    monkeypatch.setattr(fixed_summand, "smallest_summand_members",
                        lambda *args: drawn.append(args) or [])
    code, _, err = run(capsys, "qseq", "-n", "3", "-k", "4",
                       "--count", str(DEFAULT_SCAN_LIMIT + 1))
    assert (code, err) == (1, f"error: ScanLimitExceeded: member count {DEFAULT_SCAN_LIMIT + 1} "
                              f"exceeds the limit {DEFAULT_SCAN_LIMIT}\n")
    assert drawn == []
    # the limit itself is drawn
    code, _, _ = run(capsys, "qseq", "-n", "3", "-k", "4", "--count", str(DEFAULT_SCAN_LIMIT))
    assert (code, drawn) == (0, [(3, 4, DEFAULT_SCAN_LIMIT)])


def test_zset_member_count_is_held_to_the_scan_limit(capsys, monkeypatch):
    monkeypatch.setenv("NZECK_SCAN_LIMIT", "1000")
    code, _, err = run(capsys, "zset", "-n", "3", "-k", "4", "--bound", "100000")
    assert (code, err) == (1, "error: ScanLimitExceeded: member count 1001 "
                              "exceeds the limit 1000\n")
    # a big k is sparse: F(3, 30) = 39865 starts one run of 136 members up to the bound
    code, out, _ = run(capsys, "zset", "-n", "3", "-k", "30", "--bound", "40000")
    assert (code, out) == (0, " ".join(map(str, range(39865, 40001))) + "\n")


def test_term_a_million_below_zero_prints_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "term", "-n", "3", "-m", "-1000000", "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["m"]) == (3, -1000000)
    value = term(3, -1000000)
    assert payload["value"].startswith("-") == (value < 0)
    assert from_digits(payload["value"].lstrip("-")) == abs(value)


def test_length_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NZECK_LENGTH_CAP", "3")
    code, _, err = run(capsys, "block", "-n", "3", "-m", "8")
    assert code == 1
    assert "BlockTooLarge" in err


@pytest.mark.parametrize("name,argv", [
    ("NZECK_SCAN_LIMIT", ["string", "-n", "3", "--prefix", "10"]),
    ("NZECK_SCAN_LIMIT", ["counts", "-n", "3", "--prefix", "10", "--scan"]),
    ("NZECK_SCAN_LIMIT", ["qseq", "-n", "3", "-k", "4", "--count", "3"]),
    ("NZECK_LENGTH_CAP", ["block", "-n", "3", "-m", "8"]),
])
def test_non_integer_env_override_names_the_variable(capsys, monkeypatch, name, argv):
    monkeypatch.setenv(name, "abc")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{name} must be an integer, got 'abc'" in err


@pytest.mark.parametrize("name,argv", [
    ("NZECK_SCAN_LIMIT", ["string", "-n", "3", "--prefix", "3"]),
    ("NZECK_SCAN_LIMIT", ["counts", "-n", "3", "--prefix", "3", "--scan"]),
    ("NZECK_SCAN_LIMIT", ["qseq", "-n", "3", "-k", "4", "--count", "3"]),
    ("NZECK_LENGTH_CAP", ["block", "-n", "3", "-m", "2"]),
])
def test_negative_env_override_is_usage_error_naming_the_variable(capsys, monkeypatch,
                                                                  name, argv):
    monkeypatch.setenv(name, "-1")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{name} must be >= 0, got -1" in err


def test_zero_caps_are_accepted(capsys, monkeypatch):
    code, out, _ = run(capsys, "string", "--prefix", "0", "--scan-limit", "0")
    assert (code, out) == (0, "\n")
    code, _, err = run(capsys, "block", "-n", "3", "-m", "2", "--length-cap", "0")
    assert code == 1
    assert "BlockTooLarge" in err
    monkeypatch.setenv("NZECK_SCAN_LIMIT", "0")
    code, out, _ = run(capsys, "counts", "--prefix", "0", "--scan")
    assert (code, out) == (0, "a1=0 a2=0 a3=0\n")


@pytest.mark.parametrize("flag,argv", [
    ("--prefix", ["string", "-n", "3", "--prefix", "-3"]),
    ("--n-max", ["verify", "--n-max", "-5", "--checks", "decomposition-prefix"]),
    ("--n-max", ["verify", "--n-max", "-5", "--checks", "unique-decomposition"]),
    ("--depth", ["verify", "--depth", "-5", "--checks", "concat-prefixes"]),
    ("--max-k-offset", ["verify", "--max-k-offset", "-5", "--checks", "fixed-summand"]),
    ("--staircase-max", ["verify", "--staircase-max", "-5", "--checks", "block-counts"]),
    ("--length-cap", ["block", "-n", "3", "-m", "2", "--length-cap", "-1"]),
    ("--scan-limit", ["string", "--prefix", "0", "--scan-limit", "-1"]),
    ("--scan-limit", ["counts", "--prefix", "5", "--scan", "--scan-limit", "-3"]),
])
def test_negative_count_flag_is_usage_error_naming_the_flag(capsys, flag, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= 0, got -" in err
    assert "islice" not in err


def test_huge_negative_count_flag_is_refused_with_its_digit_count(capsys):
    # main lifts the digit limit, so the flag parses; its message must not
    # print the 5000 digits back
    with pytest.raises(SystemExit) as info:
        main(["string", "-n", "3", "--prefix", "-" + "7" * 5000])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("argument --prefix: must be >= 0, got a negative 5000-digit integer\n")


@pytest.mark.parametrize("value", ["-5", "0"])
def test_non_positive_verify_bound_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--bound", value, "--checks", "fixed-summand"])
    assert info.value.code == 2
    assert f"argument --bound: must be >= 1, got {value}" in capsys.readouterr().err


def test_non_integer_count_flag_keeps_argparse_message(capsys):
    with pytest.raises(SystemExit) as info:
        main(["string", "--prefix", "abc"])
    assert info.value.code == 2
    assert "argument --prefix: invalid int value: 'abc'" in capsys.readouterr().err


def test_verify_that_runs_no_case_fails(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "0",
                       "--checks", "unique-decomposition,decomposition-prefix")
    assert code == 1
    assert re.search(r"^\[FAIL\] unique-decomposition: 0 cases", out, re.M)
    assert re.search(r"^\[FAIL\] decomposition-prefix: 0 cases", out, re.M)


def test_bad_order_is_usage_error(capsys):
    code, _, err = run(capsys, "decompose", "-n", "1", "5")
    assert code == 2
    assert "order" in err


def test_cli_decompose_agrees_with_library(capsys):
    for value in (0, 1, 97, 12345):
        code, out, _ = run(capsys, "decompose", "-n", "4", str(value), "--format", "json")
        assert code == 0
        assert json.loads(out)["indices"] == decompose(4, value)


def from_digits(text):
    """int(text) in chunks, so the test itself stays under CPython's
    default 4300-digit int<->str limit."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_term_above_digit_limit(capsys):
    # F(3, 30000) has about 5000 digits
    code, out, _ = run(capsys, "term", "-n", "3", "-m", "30000")
    assert code == 0
    assert from_digits(out.strip()) == term(3, 30000)
    code, out, _ = run(capsys, "term", "-n", "3", "-m", "30000", "--format", "json")
    assert code == 0
    assert from_digits(json.loads(out)["value"]) == term(3, 30000)


def test_decompose_argument_above_digit_limit(capsys):
    rng = random.Random(4401)
    digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(4400))
    code, out, _ = run(capsys, "decompose", "-n", "3", digits, "--format", "json")
    assert code == 0
    assert recompose(3, json.loads(out)["indices"]) == from_digits(digits)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int<->str digit limit")
def test_digit_limit_restored_after_main(capsys):
    before = sys.get_int_max_str_digits()
    assert run(capsys, "term", "-n", "3", "-m", "7")[0] == 0
    assert sys.get_int_max_str_digits() == before
    assert run(capsys, "decompose", "-n", "1", "5")[0] == 2
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(SystemExit):
        main(["term", "-n", "3"])
    assert sys.get_int_max_str_digits() == before


def test_shared_parser_keeps_no_state_between_calls(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "block-counts", "--orders", "3",
                       "--depth", "8")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--checks", "block-counts", "--format", "json")
    assert code == 0
    report = json.loads(out)[0]
    assert report["parameters"]["n_range"] == [2, 3, 4, 5]
    assert report["parameters"]["depth"] == 25


def test_shared_parser_after_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["decompose", "-n", "3", "--format", "xml", "10"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "decompose", "10")
    assert code == 0
    assert out == "10 = F(3,3) + F(3,8)\n"


def test_shared_parser_json_then_text(capsys):
    code, out, _ = run(capsys, "char-at", "-n", "4", "--format", "json", "5")
    assert code == 0
    assert json.loads(out) == {"n": 4, "pos": "5", "letter": 4}
    code, out, _ = run(capsys, "char-at", "5")
    assert code == 0
    assert out == "a3\n"


def test_parser_is_built_on_the_first_call_not_at_import():
    # every benchmark set-up times this import, so the parser must stay lazy
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    script = ("import sys\n"
              "import nzeck.cli as cli\n"
              "print(cli.build_parser.cache_info().currsize)\n"
              "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
              "cli.main(['term', '-m', '7'])\n"
              "cli.main(['decompose', '10'])\n"
              "info = cli.build_parser.cache_info()\n"
              "print(info.misses, info.hits)\n")
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.splitlines() == ["0", "[]", "6", "10 = F(3,3) + F(3,8)", "1 1"]


def test_help_matches_a_freshly_built_parser(capsys):
    fresh = build_parser.__wrapped__().format_help()
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == fresh
    for command in ("term", "decompose", "recompose", "string", "block", "char-at",
                    "counts", "qseq", "table1", "zset", "verify"):
        assert command in fresh


# Exact stdout, stderr and exit code of every subcommand in every --format
# it accepts. Check wall times are pinned to 0.00 s so verify's bytes are fixed.
EXACT = [
    (["term", "-n", "3", "-m", "7"], 0, "6\n", ""),
    (["term", "-n", "3", "-m", "-2", "--format", "json"], 0,
     '{"n": 3, "m": -2, "value": "1"}\n', ""),
    (["decompose", "-n", "3", "10"], 0, "10 = F(3,3) + F(3,8)\n", ""),
    (["decompose", "-n", "3", "0"], 0, "0 = (empty sum)\n", ""),
    (["decompose", "-n", "3", "10", "--format", "json"], 0,
     '{"n": 3, "N": "10", "indices": [3, 8]}\n', ""),
    (["recompose", "-n", "3", "3", "8"], 0, "10\n", ""),
    (["recompose", "-n", "3", "3", "8", "--format", "json"], 0,
     '{"n": 3, "indices": [3, 8], "N": "10"}\n', ""),
    (["string", "-n", "3", "--prefix", "14"], 0,
     "a3 a1 a2 a3 a3 a1 a3 a1 a2 a3 a1 a2 a3 a3\n", ""),
    (["string", "-n", "2", "--prefix", "13", "--format", "json"], 0,
     '{"n": 2, "prefix": [2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 1]}\n', ""),
    (["block", "-n", "3", "-m", "8"], 0, "a3 a1 a2 a3 a3 a1 a3 a1 a2\n", ""),
    (["block", "-n", "3", "-m", "8", "--format", "json"], 0,
     '{"n": 3, "m": 8, "letters": [3, 1, 2, 3, 3, 1, 3, 1, 2]}\n', ""),
    (["block", "-n", "3", "-m", "2", "--format", "json"], 0,
     '{"n": 3, "m": 2, "letters": [2]}\n', ""),
    (["block", "-n", "300", "-m", "302"], 0, "a300 a1 a2\n", ""),
    (["block", "-n", "300", "-m", "302", "--format", "json"], 0,
     '{"n": 300, "m": 302, "letters": [300, 1, 2]}\n', ""),
    (["char-at", "-n", "3", "5"], 0, "a3\n", ""),
    (["char-at", "-n", "4", "5", "--format", "json"], 0,
     '{"n": 4, "pos": "5", "letter": 4}\n', ""),
    (["counts", "-n", "3", "--prefix", "10"], 0, "a1=3 a2=2 a3=5\n", ""),
    (["counts", "-n", "3", "--prefix", "10", "--format", "json"], 0,
     '{"a1": "3", "a2": "2", "a3": "5"}\n', ""),
    (["counts", "-n", "3", "--block", "8"], 0, "a1=3 a2=2 a3=4\n", ""),
    (["qseq", "-n", "3", "-k", "4", "--count", "4"], 0, "2 8 11 15\n", ""),
    (["qseq", "-n", "3", "-k", "4", "--count", "4", "--format", "json"], 0,
     '{"n": 3, "k": 4, "q": ["2", "8", "11", "15"]}\n', ""),
    (["qseq", "-n", "3", "-k", "4", "--count", "4", "--format", "bfile"], 0,
     "1 2\n2 8\n3 11\n4 15\n", ""),
    (["table1", "-n", "3", "-j", "6"], 0, "5 6\n", ""),
    (["table1", "-n", "3", "-j", "6", "--format", "json"], 0,
     '{"n": 3, "j": 6, "row_lo": "5", "row_hi": "6"}\n', ""),
    (["zset", "-n", "3", "-k", "6", "--bound", "30"], 0, "4 5 17 18 23 24\n", ""),
    (["zset", "-n", "3", "-k", "6", "--bound", "30", "--format", "json"], 0,
     '{"n": 3, "k": 6, "bound": "30", "z": ["4", "5", "17", "18", "23", "24"]}\n', ""),
    (["verify", "--checks", "concat-prefixes,block-counts", "--orders", "3",
      "--depth", "8", "--staircase-max", "2"], 0,
     "[PASS] concat-prefixes: 31 cases in 0.00 s\n[PASS] block-counts: 18 cases in 0.00 s\n",
     ""),
    (["verify", "--checks", "block-counts", "--orders", "3", "--depth", "8",
      "--staircase-max", "2", "--format", "json"], 0,
     '[{"check_id": "block-counts", "parameters": {"n_range": [3], "depth": 8, '
     '"staircase_max": 2}, "pass": true, "cases_run": 18, "failures": [], '
     '"failures_total": 0, "elapsed_s": 0.0}]\n', ""),
    (["decompose", "-n", "1", "5"], 2, "", "error: order n must be an integer >= 2, got 1\n"),
    (["block", "-n", "3", "-m", "60", "--length-cap", "100", "--format", "json"], 1, "",
     "error: BlockTooLarge: block 60 has at least 2**19 letters, above the 7-bit length cap\n"),
]


@pytest.fixture
def zero_check_times(monkeypatch):
    monkeypatch.setattr(harness, "perf_counter", lambda: 0.0)


@pytest.mark.parametrize("argv,code,out,err", EXACT, ids=[" ".join(c[0]) for c in EXACT])
def test_exact_output(capsys, zero_check_times, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("fmt,out", [
    ("text", "[FAIL] block-counts: 21 cases in 0.00 s, 2 failures\n"
             "    inputs={'n': 3, 'm': 9, 'sub': 'length'} expected=14 actual=13\n"
             "    inputs={'n': 3, 'm': 10, 'sub': 'length'} expected=20 actual=19\n"),
    ("json", '[{"check_id": "block-counts", "parameters": {"n_range": [3], "depth": 10, '
             '"staircase_max": 1}, "pass": false, "cases_run": 21, "failures": '
             '[{"inputs": {"n": 3, "m": 9, "sub": "length"}, "expected": 14, "actual": 13}, '
             '{"inputs": {"n": 3, "m": 10, "sub": "length"}, "expected": 20, "actual": 19}], '
             '"failures_total": 2, "elapsed_s": 0.0}]\n'),
])
def test_exact_output_of_a_failing_verify(capsys, zero_check_times, fmt, out):
    with perturbed_table(3, 9):
        got = run(capsys, "verify", "--checks", "block-counts", "--orders", "3",
                  "--depth", "10", "--staircase-max", "1", "--format", fmt)
    assert got == (1, out, "")


def test_exact_output_covers_every_subcommand_and_format():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    pairs = {(name, fmt) for name, p in sub.choices.items()
             for a in p._actions if a.dest == "format" for fmt in a.choices}
    covered = {(argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "text")
               for argv, code, _, _ in EXACT if code == 0}
    assert len(pairs) == 23
    assert pairs <= covered
