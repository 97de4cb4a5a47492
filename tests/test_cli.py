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

from nzeck import (CHUNK_LETTERS, DEFAULT_SCAN_LIMIT, InvalidDecomposition, any_summand_members,
                   block, count_block, decompose, fixed_summand, format_letters, harness,
                   largest_index_at_most, perturbed_table, recompose, smallest_summand_members,
                   stream, stream_chunks, term)
from nzeck.cli import ENV_LENGTH_CAP, ENV_SCAN_LIMIT, _members_text, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def no_cap_variables(monkeypatch):
    """Every test starts with no NZECK_* variable, whatever the shell exports."""
    for name in [name for name in os.environ if name.startswith("NZECK_")]:
        monkeypatch.delenv(name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """This process's environment with src/ first on PYTHONPATH."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def test_bulk_text_matches_per_item_formatting(capsys):
    letters = list(islice(stream(3), 10_000))
    code, out, _ = run(capsys, "string", "-n", "3", "--prefix", "10000")
    assert code == 0
    assert out == " ".join(f"a{x}" for x in letters) + "\n"


# qseq and zset print their members through one %-format; every format
# against its per-item reference, at one member, 10^4 members and members
# above 2^63 (k = 200 and 300)
@pytest.mark.parametrize("n,k,count", [(3, 4, 1), (3, 4, 10**4), (2, 200, 1000), (6, 300, 1000)])
def test_qseq_output_matches_per_item_formatting(capsys, n, k, count):
    members = smallest_summand_members(n, k, count)
    expected = {"text": " ".join(map(str, members)),
                "bfile": "\n".join(f"{j} {q}" for j, q in enumerate(members, start=1)),
                "json": json.dumps({"n": n, "k": k, "q": [str(q) for q in members]})}
    for fmt, out in expected.items():
        got = run(capsys, "qseq", "-n", str(n), "-k", str(k), "--count", str(count),
                  "--format", fmt)
        assert got == (0, out + "\n", ""), fmt


# the bound is F(n, k) + span: a span of -1 is below the first base and 0 is
# that base alone; n = 3, k = 20 makes 4 runs of up to F(3, 18) = 406 members
@pytest.mark.parametrize("n,k,span,size", [
    (3, 8, -1, 0), (3, 8, 0, 1), (3, 8, 53500, 10056), (3, 20, 6000, 1323),
    (2, 200, 10**4, 10001), (6, 300, 10**4, 10001),
], ids=["empty", "one", "10^4", "runs", "k200", "k300"])
def test_zset_output_matches_per_item_formatting(capsys, n, k, span, size):
    bound = term(n, k) + span
    members = any_summand_members(n, k, bound)
    assert len(members) == size
    expected = {"text": " ".join(map(str, members)),
                "json": json.dumps({"n": n, "k": k, "bound": str(bound),
                                    "z": [str(z) for z in members]})}
    for fmt, out in expected.items():
        got = run(capsys, "zset", "-n", str(n), "-k", str(k), "--bound", str(bound),
                  "--format", fmt)
        assert got == (0, out + "\n", ""), fmt


def test_member_text_of_several_runs_above_two_to_the_63():
    # a zset cannot print these: a second run needs F(n, k - n + 1) members
    # before it, and F(n, k), the first base, is a small multiple of that
    members = [*range(2**64 - 2, 2**64 + 2), *range(3**50, 3**50 + 3)]
    assert _members_text(members) == " ".join(map(str, members))
    assert (_members_text(members, '"%d"', ", ", "[", "]")
            == json.dumps([str(z) for z in members]))
    assert (_members_text(members, "%d %d", "\n", numbered=True)
            == "\n".join(f"{j} {q}" for j, q in enumerate(members, start=1)))


# 10^6 members each (the zset bound gives 1014844); rendered per item (a str
# per member, then a join or json.dumps) they peaked at 5.85 to 9.4 times their text
@pytest.mark.parametrize("argv,factor", [
    (["qseq", "-n", "3", "-k", "4", "--count", "1000000"], 3),
    (["qseq", "-n", "3", "-k", "4", "--count", "1000000", "--format", "json"], 3),
    (["qseq", "-n", "3", "-k", "4", "--count", "1000000", "--format", "bfile"], 5),
    (["zset", "-n", "3", "-k", "8", "--bound", "5400000"], 3),
    (["zset", "-n", "3", "-k", "8", "--bound", "5400000", "--format", "json"], 3),
], ids=["qseq", "qseq-json", "qseq-bfile", "zset", "zset-json"])
def test_member_output_peaks_under_a_few_times_its_length(argv, factor):
    args = build_parser().parse_args(argv)
    render = args.handler(args)[args.format]  # members drawn outside the trace
    text, peak = traced_peak(render)
    assert peak < factor * len(text), peak / len(text)


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
    top = largest_index_at_most(n, CHUNK_LETTERS)
    for m in (1, n - 1, n, n + 1, top, top + 1, top + n):
        letters = list(block(n, m))
        code, out, _ = run(capsys, "block", "-n", str(n), "-m", str(m))
        assert (code, out) == (0, format_letters(letters) + "\n"), m
        code, out, _ = run(capsys, "block", "-n", str(n), "-m", str(m), "--format", "json")
        assert (code, out) == (0, json.dumps({"n": n, "m": m, "letters": letters}) + "\n"), m


def rendering(argv):
    """A call that runs argv's handler and renders what `main` would print,
    with argv parsed now, outside the call."""
    args = build_parser().parse_args(argv)
    return lambda: args.handler(args)[args.format]()


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
    text, peak = traced_peak(rendering(argv))
    assert len(text) == length
    assert peak < 2 * len(text), peak


# a short prefix of a high order builds the leaves it spells, not the whole
# leaf table: each peaked at 16.8 MB or more when the table was built up front,
# and block's peak here is mostly the sequence table, grown to F(100005)
@pytest.mark.parametrize("spell", [
    rendering(["string", "-n", "1000000", "--prefix", "1"]),
    rendering(["string", "-n", "10000", "--prefix", "100"]),
    rendering(["block", "-n", "100000", "-m", "100005"]),
    lambda: next(stream_chunks(10**6)),
], ids=["string-1", "string-100", "block", "stream-chunk"])
def test_a_short_prefix_of_a_high_order_peaks_under_four_megabytes(spell):
    _, peak = traced_peak(spell)
    assert peak < 4 * 10**6, peak


def traced_peak(thunk):
    """thunk()'s value and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return thunk(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


@pytest.mark.parametrize("checks,what", [
    (",", "names no check"), (" , ", "names no check"), ("", "names no check"),
    ("block-counts,block-counts", "names a check twice"),
    ("concat-prefixes, block-counts ,concat-prefixes", "names a check twice"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_checks_naming_no_check_is_usage_error(capsys, checks, what, fmt):
    code, out, err = run(capsys, "verify", "--checks", checks, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (f"error: --checks {what} (known: unique-decomposition, "
                   "concat-prefixes, block-counts, decomposition-prefix, fixed-summand, "
                   "mutation-sanity)\n")


@pytest.mark.parametrize("orders", [",", " , ", "", "3,3", "3,4, 3"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_orders_naming_no_order_is_usage_error(capsys, orders, fmt):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--orders", orders, "--format", fmt])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        f"error: argument --orders: must name at least one order, each once, got {orders!r}\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2


def test_qseq_refuses_a_count_above_the_default_scan_limit_before_drawing(capsys, monkeypatch):
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


def test_count_block_at_a_high_order_is_quick():
    # the closed form reads terms at indices -593..-294: 13 s when each was a
    # window power whose squarings multiplied all n^2 coefficient pairs
    start = time.perf_counter()
    counts = count_block(300, 5)
    assert time.perf_counter() - start < 2
    assert counts == [int(i == 5) for i in range(1, 301)]


def test_counts_block_at_order_1000_is_quick(capsys):
    # its 1000 terms are consecutive, down to index -994, and step down from
    # the seeds: 2 s when each was its own window power
    start = time.perf_counter()
    code, out, _ = run(capsys, "counts", "-n", "1000", "--block", "5")
    assert time.perf_counter() - start < 2
    assert (code, out) == (0, " ".join(f"a{i}={int(i == 5)}" for i in range(1, 1001)) + "\n")


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
    script = ("import sys\n"
              "import nzeck.cli as cli\n"
              "print(cli.build_parser.cache_info().currsize)\n"
              "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
              "cli.main(['term', '-m', '7'])\n"
              "cli.main(['decompose', '10'])\n"
              "info = cli.build_parser.cache_info()\n"
              "print(info.misses, info.hits)\n")
    result = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.splitlines() == ["0", "[]", "6", "10 = F(3,3) + F(3,8)", "1 1"]


# each prints megabytes, more than a pipe holds, so a write fails once the
# reader has gone
@pytest.mark.parametrize("argv", [
    ["string", "-n", "3", "--prefix", "1000000"],
    ["qseq", "-n", "3", "-k", "4", "--count", "200000", "--format", "bfile"],
    ["zset", "-n", "3", "-k", "8", "--bound", "1000000", "--format", "json"],
], ids=["string", "qseq-bfile", "zset-json"])
def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback(argv):
    with subprocess.Popen([sys.executable, "-m", "nzeck.cli", *argv], env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        assert (child.wait(timeout=60), child.stderr.read()) == (1, b"")


# A child whose stderr is closed (Python starts with sys.stderr None) or open
# read-only (every write fails) cannot print its error: it exits with the
# code the error has, a usage error 2 and a domain error 1, and stdout stays
# empty.
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv,code", [
    (["decompose", "-n", "1", "5"], 2),
    (["verify", "--checks", "nope"], 2),
    (["block", "-n", "3", "-m", "1000000"], 1),
], ids=["decompose-order", "verify-checks", "block-cap"])
def test_an_unwritable_stderr_keeps_the_exit_code(argv, code, redirect):
    result = subprocess.run(["sh", "-c", f'exec "$0" -m nzeck.cli "$@" {redirect}',
                             sys.executable, *argv], env=child_env(), capture_output=True,
                            timeout=60)
    assert (result.returncode, result.stdout) == (code, b"")


# order 3 * 10**9 asks for about 24 GB of table seeds at once; under a
# 1.5 GiB address-space limit, set in the child only, that is a MemoryError
@pytest.mark.parametrize("argv", [
    ["term", "-n", "3000000000", "-m", "5"],
    ["decompose", "-n", "3000000000", "7"],
], ids=["term", "decompose"])
def test_running_out_of_memory_exits_1_with_one_error_line(argv):
    resource = pytest.importorskip("resource")

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
    result = subprocess.run([sys.executable, "-m", "nzeck.cli", *argv], env=child_env(),
                            capture_output=True, text=True, timeout=60, preexec_fn=limited)
    assert (result.returncode, result.stdout) == (1, "")
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: MemoryError")
    assert "Traceback" not in result.stderr


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


# The CLI's contract: argv, the NZECK_* variables set (all others are
# cleared), exit code, exact stdout and exact stderr. It covers every
# subcommand in every --format it accepts, and each cap by flag and by
# variable. Check wall times are pinned to 0.00 s so verify's bytes are fixed.
EXACT = [
    (["term", "-n", "3", "-m", "7"], {}, 0, "6\n", ""),
    (["term", "-n", "3", "-m", "-2", "--format", "json"], {}, 0,
     '{"n": 3, "m": -2, "value": "1"}\n', ""),
    (["decompose", "-n", "3", "10"], {}, 0, "10 = F(3,3) + F(3,8)\n", ""),
    (["decompose", "-n", "3", "0"], {}, 0, "0 = (empty sum)\n", ""),
    (["decompose", "-n", "3", "10", "--format", "json"], {}, 0,
     '{"n": 3, "N": "10", "indices": [3, 8]}\n', ""),
    (["recompose", "-n", "3", "3", "8"], {}, 0, "10\n", ""),
    (["recompose", "-n", "3", "3", "8", "--format", "json"], {}, 0,
     '{"n": 3, "indices": [3, 8], "N": "10"}\n', ""),
    (["string", "-n", "3", "--prefix", "14"], {}, 0,
     "a3 a1 a2 a3 a3 a1 a3 a1 a2 a3 a1 a2 a3 a3\n", ""),
    (["string", "-n", "2", "--prefix", "13", "--format", "json"], {}, 0,
     '{"n": 2, "prefix": [2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 1]}\n', ""),
    (["block", "-n", "3", "-m", "8"], {}, 0, "a3 a1 a2 a3 a3 a1 a3 a1 a2\n", ""),
    (["block", "-n", "3", "-m", "8", "--format", "json"], {}, 0,
     '{"n": 3, "m": 8, "letters": [3, 1, 2, 3, 3, 1, 3, 1, 2]}\n', ""),
    (["block", "-n", "3", "-m", "2", "--format", "json"], {}, 0,
     '{"n": 3, "m": 2, "letters": [2]}\n', ""),
    (["block", "-n", "300", "-m", "302"], {}, 0, "a300 a1 a2\n", ""),
    (["block", "-n", "300", "-m", "302", "--format", "json"], {}, 0,
     '{"n": 300, "m": 302, "letters": [300, 1, 2]}\n', ""),
    (["char-at", "-n", "3", "5"], {}, 0, "a3\n", ""),
    (["char-at", "-n", "4", "5", "--format", "json"], {}, 0,
     '{"n": 4, "pos": "5", "letter": 4}\n', ""),
    (["counts", "-n", "3", "--prefix", "10"], {}, 0, "a1=3 a2=2 a3=5\n", ""),
    (["counts", "-n", "3", "--prefix", "10", "--format", "json"], {}, 0,
     '{"a1": "3", "a2": "2", "a3": "5"}\n', ""),
    (["counts", "-n", "3", "--block", "8"], {}, 0, "a1=3 a2=2 a3=4\n", ""),
    (["qseq", "-n", "3", "-k", "4", "--count", "4"], {}, 0, "2 8 11 15\n", ""),
    (["qseq", "-n", "3", "-k", "4", "--count", "4", "--format", "json"], {}, 0,
     '{"n": 3, "k": 4, "q": ["2", "8", "11", "15"]}\n', ""),
    (["qseq", "-n", "3", "-k", "4", "--count", "4", "--format", "bfile"], {}, 0,
     "1 2\n2 8\n3 11\n4 15\n", ""),
    (["table1", "-n", "3", "-j", "6"], {}, 0, "5 6\n", ""),
    (["table1", "-n", "3", "-j", "6", "--format", "json"], {}, 0,
     '{"n": 3, "j": 6, "row_lo": "5", "row_hi": "6"}\n', ""),
    (["zset", "-n", "3", "-k", "6", "--bound", "30"], {}, 0, "4 5 17 18 23 24\n", ""),
    (["zset", "-n", "3", "-k", "6", "--bound", "30", "--format", "json"], {}, 0,
     '{"n": 3, "k": 6, "bound": "30", "z": ["4", "5", "17", "18", "23", "24"]}\n', ""),
    (["verify", "--checks", "concat-prefixes,block-counts", "--orders", "3",
      "--depth", "8", "--staircase-max", "2"], {}, 0,
     "[PASS] concat-prefixes: 31 cases in 0.00 s\n[PASS] block-counts: 18 cases in 0.00 s\n",
     ""),
    (["verify", "--checks", "block-counts", "--orders", "3", "--depth", "8",
      "--staircase-max", "2", "--format", "json"], {}, 0,
     '[{"check_id": "block-counts", "parameters": {"n_range": [3], "depth": 8, '
     '"staircase_max": 2}, "pass": true, "cases_run": 18, "failures": [], '
     '"failures_total": 0, "elapsed_s": 0.0}]\n', ""),
    (["decompose", "-n", "1", "5"], {}, 2, "", "error: order n must be an integer >= 2, got 1\n"),
    (["block", "-n", "3", "-m", "60", "--length-cap", "100"], {}, 1, "",
     "error: BlockTooLarge: block 60 has at least 2**19 letters, above the 7-bit length cap\n"),
    (["block", "-n", "3", "-m", "60", "--length-cap", "100", "--format", "json"], {}, 1, "",
     "error: BlockTooLarge: block 60 has at least 2**19 letters, above the 7-bit length cap\n"),
    # refused by its floor before the sequence table grows to index 10^6
    (["block", "-n", "3", "-m", "1000000"], {}, 1, "",
     "error: BlockTooLarge: block 1000000 has at least 2**333332 letters, "
     "above the 24-bit length cap\n"),
    (["counts", "-n", "3", "--block", "8", "--scan"], {}, 2, "",
     "error: --scan applies to --prefix counts only\n"),
    (["verify", "--checks", "nope"], {}, 2, "",
     "error: unknown checks: nope (known: unique-decomposition, concat-prefixes, block-counts, "
     "decomposition-prefix, fixed-summand, mutation-sanity)\n"),
    # the closed form and the scan agree
    (["counts", "-n", "4", "--prefix", "500"], {}, 0, "a1=137 a2=100 a3=73 a4=190\n", ""),
    (["counts", "-n", "4", "--prefix", "500", "--scan"], {}, 0,
     "a1=137 a2=100 a3=73 a4=190\n", ""),
    # JSON rows are decimal strings, also above 2^53
    (["table1", "-n", "3", "-j", "300", "--format", "json"], {}, 0,
     '{"n": 3, "j": 300, "row_lo": "26452291316330954148412880999307787053620956589049", '
     '"row_hi": "38767717170438290132662500619861279707449708502078"}\n', ""),
    # caps: a flag beats its variable, a cap is inclusive and may be 0, and a
    # variable that is not an integer >= 0 is a usage error naming it
    (["string", "-n", "3", "--prefix", "10"], {"NZECK_SCAN_LIMIT": "5"}, 1, "",
     "error: ScanLimitExceeded: prefix length 10 exceeds the limit 5\n"),
    (["string", "-n", "3", "--prefix", "10", "--scan-limit", "20"], {"NZECK_SCAN_LIMIT": "5"}, 0,
     "a3 a1 a2 a3 a3 a1 a3 a1 a2 a3\n", ""),
    (["string", "--prefix", "0", "--scan-limit", "0"], {}, 0, "\n", ""),
    (["counts", "--prefix", "0", "--scan"], {"NZECK_SCAN_LIMIT": "0"}, 0, "a1=0 a2=0 a3=0\n", ""),
    (["qseq", "-n", "3", "-k", "4", "--count", "6"], {"NZECK_SCAN_LIMIT": "5"}, 1, "",
     "error: ScanLimitExceeded: member count 6 exceeds the limit 5\n"),
    (["qseq", "-n", "3", "-k", "4", "--count", "5"], {"NZECK_SCAN_LIMIT": "5"}, 0,
     "2 8 11 15 21\n", ""),
    (["zset", "-n", "3", "-k", "4", "--bound", "100000"], {"NZECK_SCAN_LIMIT": "1000"}, 1, "",
     "error: ScanLimitExceeded: member count 1001 exceeds the limit 1000\n"),
    # a big k is sparse: F(3, 30) = 39865 starts one run of 136 members up to the bound
    (["zset", "-n", "3", "-k", "30", "--bound", "40000"], {"NZECK_SCAN_LIMIT": "1000"}, 0,
     " ".join(map(str, range(39865, 40001))) + "\n", ""),
    (["block", "-n", "3", "-m", "8"], {"NZECK_LENGTH_CAP": "3"}, 1, "",
     "error: BlockTooLarge: block 8 length 9 exceeds the limit 3\n"),
    (["block", "-n", "3", "-m", "8"], {"NZECK_LENGTH_CAP": "9"}, 0,
     "a3 a1 a2 a3 a3 a1 a3 a1 a2\n", ""),
    (["block", "-n", "3", "-m", "2", "--length-cap", "0"], {}, 1, "",
     "error: BlockTooLarge: block 2 length 1 exceeds the limit 0\n"),
    (["string", "-n", "3", "--prefix", "10"], {"NZECK_SCAN_LIMIT": "abc"}, 2, "",
     "error: NZECK_SCAN_LIMIT must be an integer, got 'abc'\n"),
    (["counts", "-n", "3", "--prefix", "10", "--scan"], {"NZECK_SCAN_LIMIT": "abc"}, 2, "",
     "error: NZECK_SCAN_LIMIT must be an integer, got 'abc'\n"),
    (["qseq", "-n", "3", "-k", "4", "--count", "3"], {"NZECK_SCAN_LIMIT": "abc"}, 2, "",
     "error: NZECK_SCAN_LIMIT must be an integer, got 'abc'\n"),
    (["block", "-n", "3", "-m", "8"], {"NZECK_LENGTH_CAP": "abc"}, 2, "",
     "error: NZECK_LENGTH_CAP must be an integer, got 'abc'\n"),
    (["string", "-n", "3", "--prefix", "3"], {"NZECK_SCAN_LIMIT": "-1"}, 2, "",
     "error: NZECK_SCAN_LIMIT must be >= 0, got -1\n"),
    (["counts", "-n", "3", "--prefix", "3", "--scan"], {"NZECK_SCAN_LIMIT": "-1"}, 2, "",
     "error: NZECK_SCAN_LIMIT must be >= 0, got -1\n"),
    (["qseq", "-n", "3", "-k", "4", "--count", "3"], {"NZECK_SCAN_LIMIT": "-1"}, 2, "",
     "error: NZECK_SCAN_LIMIT must be >= 0, got -1\n"),
    (["block", "-n", "3", "-m", "2"], {"NZECK_LENGTH_CAP": "-1"}, 2, "",
     "error: NZECK_LENGTH_CAP must be >= 0, got -1\n"),
    (["counts", "-n", "3", "--prefix", "3", "--scan", "--scan-limit", "2"], {}, 1, "",
     "error: ScanLimitExceeded: prefix length 3 exceeds the limit 2\n"),
    (["counts", "-n", "3", "--prefix", "3", "--scan", "--scan-limit", "3"], {}, 0,
     "a1=1 a2=1 a3=1\n", ""),
    # every subcommand refuses a bad argument: a domain error exits 1 and a
    # library guard's ValueError is a usage error, exit 2
    (["term", "-n", "1", "-m", "3"], {}, 2, "", "error: order n must be an integer >= 2, got 1\n"),
    (["decompose", "-n", "3", "--", "-5"], {}, 2, "", "error: value must be >= 0, got -5\n"),
    (["recompose", "-n", "3", "3", "4"], {}, 1, "",
     "error: InvalidDecomposition: gap 1 between indices 3 and 4 is below 3\n"),
    (["recompose", "-n", "3", "0"], {}, 1, "",
     "error: InvalidDecomposition: first index 0 is below the order 3\n"),
    (["string", "-n", "1", "--prefix", "3"], {}, 2, "",
     "error: order n must be an integer >= 2, got 1\n"),
    (["block", "-n", "3", "-m", "0"], {}, 2, "", "error: block index must be >= 1, got 0\n"),
    (["char-at", "-n", "3", "0"], {}, 2, "", "error: position must be >= 1, got 0\n"),
    (["counts", "-n", "3", "--prefix", "-1"], {}, 2, "",
     "error: prefix length must be >= 0, got -1\n"),
    (["counts", "-n", "3", "--block", "0"], {}, 2, "", "error: block index must be >= 1, got 0\n"),
    (["qseq", "-n", "3", "-k", "2", "--count", "3"], {}, 2, "",
     "error: fixed index k must be >= 3, got 2\n"),
    (["qseq", "-n", "3", "-k", "4", "--count", "0"], {}, 2, "",
     "error: count must be >= 1, got 0\n"),
    (["table1", "-n", "3", "-j", "2"], {}, 2, "", "error: j must be >= 3, got 2\n"),
    (["zset", "-n", "3", "-k", "2", "--bound", "30"], {}, 2, "",
     "error: fixed index k must be >= 3, got 2\n"),
    (["zset", "-n", "3", "-k", "6", "--bound", "0"], {}, 2, "",
     "error: bound must be >= 1, got 0\n"),
    # accepted at the edge: index 0 is a term like any other, an empty index
    # list sums to 0 (the inverse of decomposing 0), and k = n and j = n are
    # the least the fixed-summand guards let through
    (["term", "-n", "3", "-m", "0"], {}, 0, "0\n", ""),
    (["recompose", "-n", "3"], {}, 0, "0\n", ""),
    (["recompose", "-n", "3", "--format", "json"], {}, 0,
     '{"n": 3, "indices": [], "N": "0"}\n', ""),
    (["decompose", "-n", "3", "0", "--format", "json"], {}, 0,
     '{"n": 3, "N": "0", "indices": []}\n', ""),
    (["qseq", "-n", "3", "-k", "3", "--count", "3"], {}, 0, "1 5 7\n", ""),
    (["table1", "-n", "3", "-j", "3"], {}, 0, "2 2\n", ""),
    (["zset", "-n", "3", "-k", "3", "--bound", "10"], {}, 0, "1 5 7 10\n", ""),
    # random access far past any stream: count_prefix(3, p) - count_prefix(3, p - 1) agrees
    (["char-at", "-n", "3", "1000000000000000000"], {}, 0, "a1\n", ""),
]


@pytest.fixture
def zero_check_times(monkeypatch):
    monkeypatch.setattr(harness, "perf_counter", lambda: 0.0)


@pytest.mark.parametrize("argv,env,code,out,err", EXACT, ids=[
    " ".join([*(f"{name}={value}" for name, value in env.items()), *argv])
    for argv, env, *_ in EXACT])
def test_exact_output(capsys, monkeypatch, zero_check_times, argv, env, code, out, err):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
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
               for argv, _, code, _, _ in EXACT if code == 0}
    assert len(pairs) == 23
    assert pairs <= covered
    refused = {(argv[0], code) for argv, _, code, _, _ in EXACT if code}
    assert {name for name, _ in refused} == set(sub.choices)
    assert {code for _, code in refused} == {1, 2}
    assert {"--scan-limit", "--length-cap"} <= {arg for argv, *_ in EXACT for arg in argv}
    cases = {(name, cap_case(value, code))
             for _, env, code, _, _ in EXACT for name, value in env.items()}
    assert {(name, case) for name in (ENV_SCAN_LIMIT, ENV_LENGTH_CAP)
            for case in ("accepted", "refused", "non-integer", "negative")} <= cases


def cap_case(value, code):
    """What a row with a cap variable set to `value` and exit `code` tests."""
    if not value.lstrip("-").isdigit():
        return "non-integer"
    return "negative" if int(value) < 0 else "accepted" if code == 0 else "refused"
