"""The three benchmark workloads: `verify`, `queries` and `stream`.

Each workload is a list of passes and each pass a list of operations. An
operation is one call the benchmark makes into one nzeck layer (a module's
public function, or `cli.main` with stdout captured), plus a check of its
answer that runs outside the timed region. Inputs come only from the seed;
pass `i` of a seed is the same on every run.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import nzeck
from nzeck import cli, harness

ORDERS = range(2, 7)

# CPython refuses int<->str conversion above this many digits by default; the
# CLI parses and prints decimals, so CLI arguments and answers stay below it.
# Above it, `nzeck decompose` and `nzeck term -m 30000` exit 2 (ROADMAP item 3).
CLI_MAX_DIGITS = 4300
DIGITS = "0123456789"


@dataclass
class Op:
    """One call into a layer. `layer` names the span: module.function, or
    cli.main. `check(answer)` returns True iff the answer is right, and
    `size(answer)` counts the units of work in it (summands, letters,
    members or harness cases)."""

    layer: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    attrs: dict = field(default_factory=dict)
    size: Callable[[object], int] | None = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`nzeck <argv>` in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def cli_op(argv: list[str], check_json: Callable[[dict], bool],
           size: Callable[[dict], int] | None = None, **attrs) -> Op:
    """A JSON-format CLI call whose parsed output `check_json` verifies."""
    def check(answer) -> bool:
        code, out = answer
        return code == 0 and check_json(json.loads(out))
    return Op("cli.main", lambda: run_cli(argv), check, {"sub": argv[0], **attrs},
              size and (lambda answer: size(json.loads(answer[1]))))


def tally(n: int, letters) -> list[int]:
    return [letters.count(i) for i in range(1, n + 1)]


def exact_digits(rng: random.Random, digits: int) -> str:
    """A random decimal string with exactly `digits` digits, built as text so
    no big int is ever converted with str()."""
    return rng.choice(DIGITS[1:]) + "".join(rng.choices(DIGITS, k=digits - 1))


def log_uniform_digits(rng: random.Random, stratum: int, strata: int, max_digits: int) -> int:
    """Digit count log-uniform on 1..max_digits, drawn inside one of `strata`
    equal slices so every pass covers the whole range evenly."""
    u = (stratum + rng.random()) / strata
    return min(max_digits, max(1, round(max_digits ** u)))


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def grow_tables(self, tracer) -> None:
        """The table growth set-up does after importing nzeck."""

    def needed_index(self, n: int) -> int:
        """Largest table index the workload's calls need (0: unknown)."""
        return 0

    def prepare(self) -> None:
        """Input ranges and check oracles; runs after set-up, outside timing."""

    def make_pass(self, i: int) -> list[Op]:
        raise NotImplementedError

    def traced_pass(self, i: int, ops: list[Op]) -> list[Op]:
        """The operations the traced replay of pass `i` runs."""
        return ops

    def over_limit_probe(self) -> list[int]:
        """Exit codes of known-failing CLI calls run outside the workload."""
        return []

    def rng(self, key) -> random.Random:
        """A generator that depends only on the workload, the seed and `key`."""
        return random.Random(f"{self.name}:{self.seed}:{key}")


class Verify(Workload):
    """The default `nzeck verify` sweep through the CLI. Deterministic: the
    seed changes nothing."""

    name = "verify"
    FULL_CASES = {"unique-decomposition": 510_000, "concat-prefixes": 160,
                  "block-counts": 220, "decomposition-prefix": 80_000,
                  "fixed-summand": 354, "mutation-sanity": 3}
    # smoke mode shrinks the three long sweeps through the CLI's own flags
    SMOKE_ARGS = ["--n-max", "300", "--bound", "3000"]
    SMOKE_KWARGS = {"unique-decomposition": {"value_max": 300},
                    "decomposition-prefix": {"length_max": 300},
                    "fixed-summand": {"bound": 3000}}
    SMOKE_CASES = {**FULL_CASES, "unique-decomposition": 3000, "decomposition-prefix": 2400}

    @property
    def expected_cases(self) -> dict:
        return self.SMOKE_CASES if self.smoke else self.FULL_CASES

    def report_ok(self, report: dict) -> bool:
        return (report["pass"] and report["failures_total"] == 0
                and report["cases_run"] == self.expected_cases[report["check_id"]])

    def make_pass(self, i):
        argv = ["verify", "--format", "json"] + (self.SMOKE_ARGS if self.smoke else [])

        def check(reports) -> bool:
            return ([r["check_id"] for r in reports] == list(self.expected_cases)
                    and all(self.report_ok(r) for r in reports))
        return [cli_op(argv, check, lambda reports: sum(r["cases_run"] for r in reports))]

    def traced_pass(self, i, ops):
        kwargs = self.SMOKE_KWARGS if self.smoke else {}
        return [Op(f"harness.{fn.__name__}",
                   lambda fn=fn, kw=kwargs.get(check_id, {}): fn(**kw),
                   lambda report: self.report_ok(report.to_json_dict()),
                   {"check": check_id}, lambda report: report.cases_run)
                for check_id, fn in harness.ALL_CHECKS.items()]


class Queries(Workload):
    """Closed-loop point queries, one client: decompose, recompose, char_at,
    count_prefix and term over orders 2..6, with argument digit counts
    log-uniform in 1..max_digits and about a tenth sent through the CLI."""

    name = "queries"
    KINDS = ("decompose", "recompose", "char_at", "count_prefix", "term")
    BACKWARD = -5000
    CHECK_PREFIX = 100_000  # letters streamed per order to check small positions
    DEEP_EVERY = 8  # large char_at answers in every 8th stratum are re-derived from count_prefix

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.max_digits = 600 if smoke else 6000
        self.cli_max_digits = min(CLI_MAX_DIGITS, self.max_digits)
        self.strata = 4 if smoke else 20  # per (kind, order) in a pass
        self.cli_per_cell = 1 if smoke else 2
        self.prefix: dict[int, list[int]] = {}

    def grow_tables(self, tracer):
        bound = 10 ** self.max_digits
        for n in ORDERS:
            with tracer.span("sequence.grow", n=n):
                nzeck.largest_index_at_most(n, bound)
                nzeck.term(n, self.BACKWARD)

    def needed_index(self, n):
        return nzeck.largest_index_at_most(n, 10 ** self.max_digits)

    def prepare(self):
        self.prefix = {n: list(islice(nzeck.stream(n), self.CHECK_PREFIX)) for n in ORDERS}
        self.term_top = {n: self.needed_index(n) - n for n in ORDERS}
        self.cli_term_top = {n: nzeck.largest_index_at_most(n, 10 ** self.cli_max_digits - 1) - n
                             for n in ORDERS}

    # answer checks ---------------------------------------------------------

    def decomposes_to(self, n, indices, value) -> bool:
        nzeck.validate(n, indices)
        return nzeck.recompose(n, indices) == value

    def letter_ok(self, n, pos, letter, deep) -> bool:
        if pos <= self.CHECK_PREFIX:
            return self.prefix[n][pos - 1] == letter
        if deep:
            before, upto = nzeck.count_prefix(n, pos - 1), nzeck.count_prefix(n, pos)
            unit = [int(i == letter) for i in range(1, n + 1)]
            return [b - a for a, b in zip(before, upto)] == unit
        return 1 <= letter <= n

    def counts_ok(self, n, pos, counts) -> bool:
        if len(counts) != n or sum(counts) != pos:
            return False
        return pos > self.CHECK_PREFIX or counts == tally(n, self.prefix[n][:pos])

    def term_ok(self, n, m, value) -> bool:
        return value == nzeck.term(n, m + n) - nzeck.term(n, m + n - 1)

    # operations -------------------------------------------------------------

    def random_decomposition(self, rng, n, digits) -> list[int]:
        c = nzeck.largest_index_at_most(n, 10 ** (digits - 1))
        out = []
        while c >= n:
            out.append(c)
            c -= n + rng.randrange(2 * n)
        return out[::-1]

    def term_index(self, rng, stratum, top) -> int:
        # 3 in 10 backward, the rest forward up to the set-up index
        if stratum % 10 < 3:
            return rng.randint(self.BACKWARD, 0)
        return rng.randint(1, top)

    def library_call(self, rng, kind, n, stratum, deep) -> Op:
        if kind == "term":
            m = self.term_index(rng, stratum, self.term_top[n])
            return Op("sequence.term", lambda: nzeck.term(n, m),
                      lambda v: self.term_ok(n, m, v), {"n": n, "m": m})
        digits = log_uniform_digits(rng, stratum, self.strata, self.max_digits)
        attrs = {"n": n, "digits": digits}
        if kind == "recompose":
            idx = self.random_decomposition(rng, n, digits)
            return Op("decomposition.recompose", lambda: nzeck.recompose(n, idx),
                      lambda v: nzeck.decompose(n, v) == idx, attrs)
        value = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if kind == "decompose":
            return Op("decomposition.decompose", lambda: nzeck.decompose(n, value),
                      lambda idx: self.decomposes_to(n, idx, value), attrs, len)
        if kind == "char_at":
            return Op("words.char_at", lambda: nzeck.char_at(n, value),
                      lambda c: self.letter_ok(n, value, c, deep), attrs)
        return Op("words.count_prefix", lambda: nzeck.count_prefix(n, value),
                  lambda counts: self.counts_ok(n, value, counts), attrs)

    def cli_call(self, rng, kind, n, stratum, deep) -> Op:
        common = ["-n", str(n), "--format", "json"]
        if kind == "term":
            m = self.term_index(rng, stratum, self.cli_term_top[n])
            return cli_op(["term", *common, "-m", str(m)],
                          lambda j: self.term_ok(n, m, int(j["value"])), n=n, m=m)
        digits = log_uniform_digits(rng, stratum, self.strata, self.cli_max_digits)
        if kind == "recompose":
            idx = self.random_decomposition(rng, n, digits)
            return cli_op(["recompose", *common, *map(str, idx)],
                          lambda j: nzeck.decompose(n, int(j["N"])) == idx, n=n, digits=digits)
        text = exact_digits(rng, digits)
        value = int(text)
        if kind == "decompose":
            return cli_op(["decompose", *common, text],
                          lambda j: j["N"] == text and self.decomposes_to(n, j["indices"], value),
                          lambda j: len(j["indices"]), n=n, digits=digits)
        if kind == "char_at":
            return cli_op(["char-at", *common, text],
                          lambda j: self.letter_ok(n, value, j["letter"], deep), n=n, digits=digits)
        return cli_op(["counts", *common, "--prefix", text],
                      lambda j: self.counts_ok(n, value, [int(c) for c in j.values()]),
                      n=n, digits=digits)

    def make_pass(self, i):
        rng = self.rng(i)
        ops = []
        for kind in self.KINDS:
            for n in ORDERS:
                via_cli = set(rng.sample(range(self.strata), self.cli_per_cell))
                for stratum in range(self.strata):
                    deep = stratum % self.DEEP_EVERY == 0
                    make = self.cli_call if stratum in via_cli else self.library_call
                    ops.append(make(rng, kind, n, stratum, deep))
        rng.shuffle(ops)
        return ops

    def over_limit_probe(self):
        """The two documented CLI calls above the 4300-digit limit, run once
        outside the workload and its failure count."""
        rng = self.rng("probe")
        return [run_cli(["decompose", "-n", "3", exact_digits(rng, CLI_MAX_DIGITS + 101)])[0],
                run_cli(["term", "-n", "3", "-m", "30000"])[0]]


class Stream(Workload):
    """Sequential bulk generation: word prefixes, blocks, stream tallies and
    both fixed-summand families, plus bulk CLI output."""

    name = "stream"
    BIG_K = (190, 211)
    SAMPLE = 50  # members per answer re-derived with decompose

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        scale = 20 if smoke else 1
        self.letters = 100_000 // scale
        self.block_letters = 1_000_000 // scale
        self.small_count = 50_000 // scale
        self.big_count = 20_000 // scale
        self.any_bound = 100_000 // scale
        self.any_big_span = 50_000 // scale
        # the CLI calls run at a fifth of these sizes, for every order
        self.cli_letters = self.letters // 5
        self.block_index = {}

    def grow_tables(self, tracer):
        for n in ORDERS:
            with tracer.span("sequence.grow", n=n):
                self.block_index[n] = nzeck.largest_index_at_most(n, self.block_letters)
                nzeck.term(n, self.BIG_K[1] + n)

    def needed_index(self, n):
        return max(self.block_index[n], self.BIG_K[1] + n)

    # answer checks ---------------------------------------------------------

    def prefix_tally_ok(self, n, letters) -> bool:
        return tally(n, letters) == nzeck.count_prefix(n, len(letters))

    def members_ok(self, n, k, members, rng, smallest: bool) -> bool:
        if any(a >= b for a, b in zip(members, members[1:])):
            return False
        for q in rng.sample(members, min(self.SAMPLE, len(members))):
            idx = nzeck.decompose(n, q)
            if (idx[0] != k) if smallest else (k not in idx):
                return False
        return True

    # operations -------------------------------------------------------------

    def make_pass(self, i):
        rng = self.rng(i)
        check_rng = self.rng(f"check:{i}")
        ops = []
        for n in ORDERS:
            k_small = n + rng.randrange(4)
            k_big = rng.randrange(*self.BIG_K)
            k_any_big = rng.randrange(*self.BIG_K)
            any_big_bound = nzeck.term(n, k_any_big) + self.any_big_span
            m = self.block_index[n]
            ops += [
                Op("words.stream", lambda n=n: list(islice(nzeck.stream(n), self.letters)),
                   lambda ls, n=n: len(ls) == self.letters and self.prefix_tally_ok(n, ls),
                   {"n": n}, len),
                Op("words.block", lambda n=n, m=m: nzeck.block(n, m),
                   lambda ls, n=n, m=m: len(ls) == nzeck.term(n, m) and self.prefix_tally_ok(n, ls),
                   {"n": n, "m": m}, len),
                Op("words.count_prefix_scan", lambda n=n: nzeck.count_prefix_scan(n, self.letters),
                   lambda c, n=n: c == nzeck.count_prefix(n, self.letters),
                   {"n": n}, sum),
            ]
            for k, count in ((k_small, self.small_count), (k_big, self.big_count)):
                ops.append(Op(
                    "fixed_summand.smallest_summand_members",
                    lambda n=n, k=k, c=count: nzeck.smallest_summand_members(n, k, c),
                    lambda qs, n=n, k=k, c=count: (len(qs) == c and
                                                   self.members_ok(n, k, qs, check_rng, True)),
                    {"n": n, "k": k}, len))
            # the small-k family is fixed at k = n + 1: its density, and so its
            # cost per bound, depends strongly on k
            for k, bound in ((n + 1, self.any_bound), (k_any_big, any_big_bound)):
                ops.append(Op(
                    "fixed_summand.any_summand_members",
                    lambda n=n, k=k, b=bound: nzeck.any_summand_members(n, k, b),
                    lambda zs, n=n, k=k, b=bound: (zs[-1] <= b and
                                                   self.members_ok(n, k, zs, check_rng, False)),
                    {"n": n, "k": k}, len))
            ops += self.cli_ops(n, k_small, check_rng)
        rng.shuffle(ops)
        return ops

    def cli_ops(self, n, k, check_rng) -> list[Op]:
        """Bulk text output through the CLI."""
        letters, count, bound = self.cli_letters, self.small_count // 5, self.any_bound // 5

        def string_ok(out) -> bool:
            got = [int(word[1:]) for word in out.split()]
            return len(got) == letters and self.prefix_tally_ok(n, got)

        def bfile_ok(out) -> bool:
            rows = [line.split() for line in out.splitlines()]
            return ([int(j) for j, _ in rows] == list(range(1, count + 1))
                    and self.members_ok(n, k, [int(q) for _, q in rows], check_rng, True))

        def zset_ok(out) -> bool:
            members = [int(z) for z in out.split()]
            return members[-1] <= bound and self.members_ok(n, n + 1, members, check_rng, False)

        calls = [
            (["string", "-n", str(n), "--prefix", str(letters)],
             string_ok, lambda out: out.count("a")),
            (["qseq", "-n", str(n), "-k", str(k), "--count", str(count), "--format", "bfile"],
             bfile_ok, lambda out: out.count("\n")),
            (["zset", "-n", str(n), "-k", str(n + 1), "--bound", str(bound)],
             zset_ok, lambda out: len(out.split())),
        ]
        return [Op("cli.main", lambda argv=argv: run_cli(argv),
                   lambda a, ok=ok: a[0] == 0 and ok(a[1]), {"sub": argv[0], "n": n},
                   lambda a, size=size: size(a[1]))
                for argv, ok, size in calls]


WORKLOADS = {w.name: w for w in (Verify, Queries, Stream)}
