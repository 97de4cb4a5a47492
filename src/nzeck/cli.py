"""Command-line front end: every library operation behind a subcommand."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain, count

from . import decomposition, fixed_summand, harness, sequence, words
from .errors import NzeckError, _brief

ENV_LENGTH_CAP = "NZECK_LENGTH_CAP"
ENV_SCAN_LIMIT = "NZECK_SCAN_LIMIT"


def _cap(flag: int | None, name: str, default: int) -> int:
    """A cap: the flag's value if given, else the environment variable
    `name`, else `default`. The variable must be an integer >= 0."""
    if flag is not None:
        return flag
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    sequence.require_int(name, value, 0)
    return value


def _orders(text: str) -> list[int]:
    orders = [int(part) for part in text.split(",") if part.strip()]
    if orders and len(set(orders)) == len(orders):
        return orders
    raise argparse.ArgumentTypeError(f"must name at least one order, each once, got {text!r}")


def _count(text: str, low: int = 0) -> int:
    """argparse type of a count flag: an integer >= low (default 0)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {_brief(value)}")
    return value


def _positive(text: str) -> int:
    """argparse type of a flag that must be an integer >= 1."""
    return _count(text, 1)


# A handler returns one zero-argument rendering per --format value it accepts,
# so only the chosen one is built; `main` prints it, a str as it is and any
# other value through json.dumps, and is the only code that writes stdout.

def cmd_term(args) -> dict:
    value = sequence.term(args.order, args.index)
    return {"json": lambda: {"n": args.order, "m": args.index, "value": str(value)},
            "text": lambda: value}


def cmd_decompose(args) -> dict:
    n, value = args.order, args.value
    indices = decomposition.decompose(n, value)
    return {"json": lambda: {"n": n, "N": str(value), "indices": indices},
            "text": lambda: f"{value} = " + (
                " + ".join(f"F({n},{c})" for c in indices) or "(empty sum)")}


def cmd_recompose(args) -> dict:
    value = decomposition.recompose(args.order, args.indices)
    return {"json": lambda: {"n": args.order, "indices": args.indices, "N": str(value)},
            "text": lambda: value}


def cmd_string(args) -> dict:
    limit = _cap(args.scan_limit, ENV_SCAN_LIMIT, words.DEFAULT_SCAN_LIMIT)
    sequence.require_at_most("prefix length", args.prefix, limit)
    n, length = args.order, args.prefix
    return {"json": lambda: words._letters_text(n, length, json_head=f'{{"n": {n}, "prefix": ['),
            "text": lambda: words._letters_text(n, length)}


def cmd_block(args) -> dict:
    n, m = args.order, args.index
    cap = _cap(args.length_cap, ENV_LENGTH_CAP, words.DEFAULT_LENGTH_CAP)
    length = words._block_length(n, m, cap)
    if m < n:  # a seed; from m = n on, B(m) is the word's prefix of its length
        return {"json": lambda: {"n": n, "m": m, "letters": [m]}, "text": lambda: f"a{m}"}
    return {"json": lambda: words._letters_text(n, length,
                                                json_head=f'{{"n": {n}, "m": {m}, "letters": ['),
            "text": lambda: words._letters_text(n, length)}


def cmd_char_at(args) -> dict:
    letter = words.char_at(args.order, args.pos)
    return {"json": lambda: {"n": args.order, "pos": str(args.pos), "letter": letter},
            "text": lambda: f"a{letter}"}


def cmd_counts(args) -> dict:
    if args.block is not None:
        if args.scan:
            raise ValueError("--scan applies to --prefix counts only")
        counts = words.count_block(args.order, args.block)
    elif args.scan:
        limit = _cap(args.scan_limit, ENV_SCAN_LIMIT, words.DEFAULT_SCAN_LIMIT)
        counts = words.count_prefix_scan(args.order, args.prefix, scan_limit=limit)
    else:
        counts = words.count_prefix(args.order, args.prefix)
    return {"json": lambda: {f"a{i + 1}": str(c) for i, c in enumerate(counts)},
            "text": lambda: " ".join(f"a{i + 1}={c}" for i, c in enumerate(counts))}


def cmd_qseq(args) -> dict:
    sequence.require_at_most("member count", args.count,
                             _cap(None, ENV_SCAN_LIMIT, words.DEFAULT_SCAN_LIMIT))
    n, k = args.order, args.fixed_index
    members = fixed_summand.smallest_summand_members(n, k, args.count)
    return {"json": lambda: _members_text(members, '"%d"', ", ",
                                          f'{{"n": {n}, "k": {k}, "q": [', "]}"),
            "bfile": lambda: _members_text(members, "%d %d", "\n", numbered=True),
            "text": lambda: _members_text(members)}


def cmd_table1(args) -> dict:
    lo, hi = fixed_summand.largest_summand_rows(args.order, args.j)
    return {"json": lambda: {"n": args.order, "j": args.j, "row_lo": str(lo), "row_hi": str(hi)},
            "text": lambda: f"{lo} {hi}"}


def cmd_zset(args) -> dict:
    n, k, bound = args.order, args.fixed_index, args.bound
    members = fixed_summand.any_summand_members(
        n, k, bound, _cap(None, ENV_SCAN_LIMIT, words.DEFAULT_SCAN_LIMIT))
    return {"json": lambda: _members_text(members, '"%d"', ", ", f'{{"n": {n}, "k": {k}, '
                                          f'"bound": "{bound}", "z": [', "]}"),
            "text": lambda: _members_text(members)}


def _members_text(members: list[int], item: str = "%d", sep: str = " ", head: str = "",
                  tail: str = "", numbered: bool = False) -> str:
    """The members as one %-format: head, one `item` per member joined by
    `sep`, tail. A numbered item formats the pair (j, member), j from 1.
    The format and a tuple of its values are the only copies besides the
    text, so it peaks at about 2.5 times the text (4.4 numbered, whose j
    are ints too). Head and tail hold no "%"."""
    values = tuple(chain.from_iterable(zip(count(1), members))) if numbered else tuple(members)
    return (head + (item + sep) * (len(members) - 1) + item * bool(members) + tail) % values


def cmd_verify(args) -> dict:
    """Run the selected checks; "code" is the exit code, 0 iff all passed."""
    given = {"n_range": args.orders, "value_max": args.n_max, "length_max": args.n_max,
             "depth": args.depth, "staircase_max": args.staircase_max,
             "bound": args.bound, "max_k_offset": args.max_k_offset}
    reports = harness.run_checks(_selected_checks(args.checks), given)
    return {"json": lambda: [r.to_json_dict() for r in reports],
            "text": lambda: "\n".join(r.summary() + "".join(
                f"\n    inputs={inputs} expected={expected} actual={actual}"
                for inputs, expected, actual in r.failures) for r in reports),
            "code": 0 if all(r.passed for r in reports) else 1}


def _selected_checks(text: str | None) -> list[str]:
    """The ids named in --checks, or all if absent; naming none or one twice is a usage error."""
    if text is None:
        return list(harness.ALL_CHECKS)
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [name for name in names if name not in harness.ALL_CHECKS]
    if unknown or not names or len(set(names)) < len(names):
        what = (f"unknown checks: {', '.join(unknown)}" if unknown else
                "--checks names a check twice" if names else "--checks names no check")
        raise ValueError(f"{what} (known: {', '.join(harness.ALL_CHECKS)})")
    return names


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built on the first call and
    shared by every later one in the process.

    Building it costs over ten times as much as parsing a command line with
    it, so `main` reuses it. Parsing does not change it: each parse
    makes a fresh Namespace, and handlers are bound here. Callers must not
    mutate the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="nzeck",
        description="Gap-n decompositions, the attached infinite words, and "
                    "their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("text", "json")):
        p.add_argument("-n", "--order", type=int, default=3,
                       help="recurrence order n >= 2 (default 3)")
        p.add_argument("--format", choices=fmt, default="text")

    p = sub.add_parser("term", help="sequence value at an index (any integer)")
    common(p)
    p.add_argument("-m", "--index", type=int, required=True)
    p.set_defaults(handler=cmd_term)

    p = sub.add_parser("decompose", help="greedy gap-n decomposition of an integer")
    common(p)
    p.add_argument("value", type=int)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("recompose", help="sum the terms at the given indices")
    common(p)
    p.add_argument("indices", type=int, nargs="*")
    p.set_defaults(handler=cmd_recompose)

    p = sub.add_parser("string", help="prefix of the infinite word")
    common(p)
    p.add_argument("--prefix", type=_count, required=True, help="number of letters")
    p.add_argument("--scan-limit", type=_count, default=None)
    p.set_defaults(handler=cmd_string)

    p = sub.add_parser("block", help="letters of one block")
    common(p)
    p.add_argument("-m", "--index", type=int, required=True)
    p.add_argument("--length-cap", type=_count, default=None)
    p.set_defaults(handler=cmd_block)

    p = sub.add_parser("char-at", help="letter at a 1-based position, without streaming")
    common(p)
    p.add_argument("pos", type=int)
    p.set_defaults(handler=cmd_char_at)

    p = sub.add_parser("counts", help="per-letter counts of a prefix or block")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prefix", type=int, help="count the first N letters (closed form)")
    group.add_argument("--block", type=int, help="count one block (closed form)")
    p.add_argument("--scan", action="store_true",
                   help="tally the stream instead of using the closed form")
    p.add_argument("--scan-limit", type=_count, default=None)
    p.set_defaults(handler=cmd_counts)

    p = sub.add_parser("qseq", help="integers whose smallest summand is fixed")
    common(p, fmt=("text", "json", "bfile"))
    p.add_argument("-k", "--fixed-index", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(handler=cmd_qseq)

    p = sub.add_parser("table1", help="row range with a given largest-summand offset")
    common(p)
    p.add_argument("-j", type=int, required=True)
    p.set_defaults(handler=cmd_table1)

    p = sub.add_parser("zset", help="integers up to a bound containing a fixed summand")
    common(p)
    p.add_argument("-k", "--fixed-index", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=cmd_zset)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--checks", type=str, default=None,
                   help="comma-separated check ids (default: all)")
    p.add_argument("--orders", type=_orders, default=None,
                   help="comma-separated orders to sweep, e.g. 3,4")
    p.add_argument("--n-max", type=_count, default=None)
    p.add_argument("--depth", type=_count, default=None)
    p.add_argument("--staircase-max", type=_count, default=None)
    p.add_argument("--bound", type=_positive, default=None)
    p.add_argument("--max-k-offset", type=_count, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command line (default: sys.argv[1:]) and return its exit code:
    0 on success, 1 for a domain error or a closed stdout, 2 for a usage
    error. argparse's own usage errors and --help raise SystemExit instead.

    Every call in a process parses with the one shared `build_parser()`,
    built on the first call, not at import; it must not be mutated.
    """
    # Integers are exact at any size, so lift CPython's int<->str digit limit
    # (3.10.7 on) while parsing and printing them, and restore it on return.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        out = args.handler(args)
        answer = out[args.format]()
        try:
            print(answer if isinstance(answer, str) else json.dumps(answer))
            sys.stdout.flush()
        except BrokenPipeError:  # the reader closed stdout: Python's "Note on SIGPIPE"
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit cannot raise again
            os.close(devnull)
            return 1
        return out.get("code", 0)
    except NzeckError as exc:
        code, message = 1, f"error: {type(exc).__name__}: {exc}"
    except ValueError as exc:
        code, message = 2, f"error: {exc}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    # a stderr that cannot take the message keeps the exit code: one that
    # refuses writes, or None (fd 2 closed at start-up; print would use stdout)
    try:
        if sys.stderr is not None:
            print(message, file=sys.stderr)
    except OSError:
        pass
    return code


if __name__ == "__main__":
    raise SystemExit(main())
