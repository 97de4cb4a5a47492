#!/usr/bin/env python3
"""Benchmark of the nzeck library and CLI, stdlib only.

    python3 perfbench/run.py --workload {verify,queries,stream} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout: the program is imported from `src/`, after
byte-compiling it. Each run is one fresh interpreter, because nzeck's
sequence tables are global to the process.

With `--trace 0` the run times the workload untraced and prints the
end-to-end metrics named in BENCHMARK.json. With `--trace 1` it runs the
same untraced passes, then replays them with a span around every call into
a layer, prints the per-layer metrics, and writes the spans to
`perfbench/out/`. Every answer is checked outside the timed region. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
`--smoke` shrinks every size for a quick end-to-end check of the script.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
# setup_s is the median set-up time over fresh interpreters: a cheap set-up
# gets more samples, since its few milliseconds are mostly noise
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 41, 2.0

sys.path.insert(0, str(HERE))
from spans import NullTracer, Tracer, duration, median, percentile  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Record:
    """One untraced call: its layer, inputs, seconds and units of work."""

    layer: str
    attrs: dict
    seconds: float
    size: int | None


@dataclass
class Outcome:
    records: list
    pass_s: list
    traced_s: float = 0.0  # the traced replay's timed seconds
    attempted: int = 0
    failed: int = 0

    def count(self, ok: bool, op, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"wrong answer: {op.layer} {op.attrs}: {why}", file=sys.stderr)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("verify", "queries", "stream"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and a single fresh set-up, to check the script")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# set-up ---------------------------------------------------------------------

def setup(args, tracer):
    """Import nzeck and grow the workload's tables; returns (seconds, workload)."""
    start = perf_counter()
    nzeck = importlib.import_module("nzeck")
    importlib.import_module("nzeck.cli")
    imported = perf_counter() - start
    if Path(nzeck.__file__).resolve().parent != SRC / "nzeck":
        raise BenchError(f"imported nzeck from {nzeck.__file__}, not from {SRC}")
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    start = perf_counter()
    workload.grow_tables(tracer)
    return imported + perf_counter() - start, workload


def fresh_setups(args) -> list[float]:
    """Set-up seconds measured in fresh interpreters, one at a time: at least
    MIN_SETUPS of them, more while they take under SETUP_BUDGET_S in all."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + ["--smoke"] * args.smoke
    samples = []
    started = perf_counter()
    while len(samples) < MIN_SETUPS or (perf_counter() - started < SETUP_BUDGET_S
                                        and len(samples) < MAX_SETUPS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up in a fresh interpreter failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        if args.smoke:
            break
    return samples


# running --------------------------------------------------------------------

def call(op):
    try:
        return op.call()
    except Exception as exc:  # a failing call is a failed operation
        return exc


def settle(op, answer, outcome: Outcome) -> int | None:
    """Checks and counts one answer; returns its size when it is right."""
    if isinstance(answer, Exception):
        ok, why = False, repr(answer)
    else:
        try:
            ok, why = bool(op.check(answer)), "check failed"
        except Exception as exc:  # a malformed answer is a wrong answer
            ok, why = False, f"check raised {exc!r}"
    outcome.count(ok, op, why)
    return op.size(answer) if ok and op.size else None


def run_passes(workload, seconds: float, tracer: Tracer | None) -> Outcome:
    """Closed loop, one client: passes run until `seconds` of untraced calls.

    With a tracer, each pass is replayed with a span per call right after
    its untraced run, so both see the process in the same state. An answer
    is dropped before the next call, so no two answers are alive at once.
    """
    outcome = Outcome([], [])
    while not outcome.pass_s or sum(outcome.pass_s) < seconds:
        i = len(outcome.pass_s)
        ops = workload.make_pass(i)
        timed = 0.0
        for op in ops:
            start = perf_counter()
            answer = call(op)
            elapsed = perf_counter() - start
            timed += elapsed
            size = settle(op, answer, outcome)
            del answer
            outcome.records.append(Record(op.layer, op.attrs, elapsed, size))
        outcome.pass_s.append(timed)
        if tracer is not None:
            with tracer.span("pass", index=i):
                outcome.traced_s += replay(workload.traced_pass(i, ops), tracer, outcome)
    return outcome


def replay(ops, tracer: Tracer, outcome: Outcome) -> float:
    """Runs `ops` with a span around each call; returns the seconds spent in
    calls and span bookkeeping, leaving out the checks."""
    timed = 0.0
    for op in ops:
        start = perf_counter()
        with tracer.span(op.layer, len(tracer.spans), **op.attrs) as record:
            answer = call(op)
        timed += perf_counter() - start
        record["size"] = settle(op, answer, outcome)
        if op.layer == "cli.main" and isinstance(answer, tuple):
            record["exit"] = answer[0]
        del answer
    return timed


# metrics --------------------------------------------------------------------

def rate(items) -> float:
    """Units of work per second over (size, seconds) pairs."""
    items = [(size, sec) for size, sec in items if size is not None]
    seconds = sum(sec for _, sec in items)
    return sum(size for size, _ in items) / seconds if seconds else 0.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(outcome: Outcome, setup_samples: list[float]) -> dict:
    latency = [r.seconds for r in outcome.records]
    cli = [r.seconds for r in outcome.records if r.layer == "cli.main"]
    return {
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mib(),
        # a mean, not a median: a shared host can switch between a fast and a
        # slow speed for seconds at a time; a median over passes flips
        # between the two, where a mean moves with the share of each
        "pass_s": sum(outcome.pass_s) / len(outcome.pass_s),
        "op_p99_us": percentile(latency, 99) * 1e6,
        "cli_p50_us": percentile(cli, 50) * 1e6,
    }


def headline(workload, outcome: Outcome, e2e: dict, setups: int) -> list[tuple[str, float, str]]:
    """The end-to-end numbers under the names the design uses: (name, value,
    unit with sample count)."""
    latency = [r.seconds for r in outcome.records]
    ops = len(latency)
    lines = [("setup_s", e2e["setup_s"], f"s (median of {setups})")]
    if workload.name == "verify":
        lines.append(("verify_s", e2e["pass_s"], "s"))
    elif workload.name == "queries":
        cli = sum(r.layer == "cli.main" for r in outcome.records)
        lines += [("query_ops_per_s", ops / sum(outcome.pass_s), "1/s"),
                  ("query_p50_us", percentile(latency, 50) * 1e6, f"us (n={ops})"),
                  ("query_p99_us", e2e["op_p99_us"], f"us (n={ops})"),
                  ("cli_p50_us", e2e["cli_p50_us"], f"us (n={cli})")]
    else:
        letters = [(r.size, r.seconds) for r in outcome.records
                   if r.layer.startswith("words.") or r.attrs.get("sub") == "string"]
        members = [(r.size, r.seconds) for r in outcome.records
                   if r.layer.startswith("fixed_summand.")
                   or r.attrs.get("sub") in ("qseq", "zset")]
        lines += [("letters_per_s", rate(letters), "1/s"), ("members_per_s", rate(members), "1/s")]
    return lines + [("peak_rss_mb", e2e["peak_rss_mb"], "MiB"),
                    ("failed_ops_share", outcome.failed / outcome.attempted,
                     f"({outcome.failed} of {outcome.attempted})")]


def table_metrics(workload) -> dict:
    import nzeck
    from workloads import ORDERS
    tables = [nzeck.get_table(n) for n in ORDERS]
    terms = sum(t.hi for t in tables)
    return {
        "sequence.table_terms": terms,
        "sequence.fill_ratio": sum(workload.needed_index(n) for n in ORDERS) / terms,
        "sequence.table_bytes": sum((abs(t.term(m)).bit_length() + 7) // 8
                                    for t in tables for m in range(t.lo, t.hi + 1)),
    }


def per_layer(workload, tracer: Tracer, outcome: Outcome, probe_exits: list[int]) -> dict:
    from nzeck import harness
    from workloads import CLI_MAX_DIGITS

    def p50(name, scale, keep=lambda s: True):
        return percentile([duration(s) * scale for s in tracer.named(name) if keep(s)], 50)

    def span_rate(name):
        return rate((s["size"], duration(s)) for s in tracer.named(name))

    metrics = {
        "sequence.grow_s": sum(duration(s) for s in tracer.named("sequence.grow")),
        **table_metrics(workload),
        "sequence.term_us": p50("sequence.term", 1e6),
        "decomposition.decompose_small_us": p50("decomposition.decompose", 1e6,
                                                lambda s: s["digits"] <= 20),
        "decomposition.decompose_big_ms": p50("decomposition.decompose", 1e3,
                                              lambda s: s["digits"] >= 1000),
        "decomposition.recompose_us": p50("decomposition.recompose", 1e6),
        "decomposition.summands": sum(s["size"] or 0
                                      for s in tracer.named("decomposition.decompose")),
        "words.char_at_us": p50("words.char_at", 1e6),
        "words.count_prefix_us": p50("words.count_prefix", 1e6),
        "words.stream_letters_per_s": span_rate("words.stream"),
        "words.block_letters_per_s": span_rate("words.block"),
        "words.count_prefix_scan_letters_per_s": span_rate("words.count_prefix_scan"),
        "fixed_summand.smallest_members_per_s": span_rate("fixed_summand.smallest_summand_members"),
        "fixed_summand.any_members_per_s": span_rate("fixed_summand.any_summand_members"),
    }
    check_sums = {}
    for check_id, fn in harness.ALL_CHECKS.items():
        spans = tracer.named(f"harness.{fn.__name__}")
        metrics[f"harness.{check_id}_s"] = median(duration(s) for s in spans)
        metrics[f"harness.{check_id}.cases"] = (spans[-1]["size"] or 0) if spans else 0
        for s in spans:
            check_sums[s["parent"]] = check_sums.get(s["parent"], 0.0) + duration(s)

    # CLI calls by subcommand; verify's traced replay calls the checks
    # directly, so its one CLI call is timed in the untraced passes
    cli = {}
    for s in tracer.named("cli.main"):
        cli.setdefault(s["sub"], []).append(duration(s) * 1e6)
    if not cli:
        for r in outcome.records:
            if r.layer == "cli.main":
                cli.setdefault(r.attrs["sub"], []).append(r.seconds * 1e6)
    for sub in ("decompose", "recompose", "char-at", "counts", "term",
                "string", "qseq", "zset", "verify"):
        metrics[f"cli.{sub}_us"] = percentile(cli.get(sub, []), 50)
    # CLI p50 minus the library's time for the same operation at the same sizes
    if workload.name == "queries":
        library = p50("words.char_at", 1e6, lambda s: s["digits"] <= CLI_MAX_DIGITS)
        metrics["cli.overhead_us"] = metrics["cli.char-at_us"] - library
    elif workload.name == "stream":
        library = workload.cli_letters / metrics["words.stream_letters_per_s"] * 1e6
        metrics["cli.overhead_us"] = metrics["cli.string_us"] - library
    else:
        metrics["cli.overhead_us"] = metrics["cli.verify_us"] - median(check_sums.values()) * 1e6
    exits = [s["exit"] for s in tracer.named("cli.main") if "exit" in s] + probe_exits
    metrics["cli.exit1"] = exits.count(1)
    metrics["cli.exit2"] = exits.count(2)
    metrics["trace.overhead_s"] = outcome.traced_s - sum(outcome.pass_s)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


# output ---------------------------------------------------------------------

def git_rev() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def result(spec_metrics: list[dict], values: dict, outcome: Outcome) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }


def bench(args) -> dict:
    if not (SRC / "nzeck" / "__init__.py").is_file():
        raise BenchError(f"no nzeck sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return {"setup_s": setup(args, NullTracer())[0]}
    spec = json.loads(SPEC.read_text())
    if not compileall.compile_dir(str(SRC / "nzeck"), quiet=1):
        raise BenchError("nzeck sources do not compile")

    tracer = Tracer() if args.trace else NullTracer()
    setup_samples = [] if args.trace else fresh_setups(args)
    with tracer.span("setup"):
        seconds, workload = setup(args, tracer)
    setup_samples.append(seconds)
    workload.prepare()

    with tracer.span("run"):
        outcome = run_passes(workload, args.seconds, tracer if args.trace else None)
    probe_exits = workload.over_limit_probe()
    e2e = end_to_end(outcome, setup_samples)

    print(f"# nzeck benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"smoke={int(args.smoke)} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} git_rev={git_rev()}")
    lines = headline(workload, outcome, e2e, len(setup_samples))
    if probe_exits:
        lines.append(("over_limit_cli_exit2", probe_exits.count(2),
                      f"of {len(probe_exits)} CLI calls above 4300 digits, outside the workload"))
    if args.trace:
        untraced_s = sum(outcome.pass_s)
        lines.append(("tracing_overhead_s", outcome.traced_s - untraced_s,
                      f"s (traced {outcome.traced_s:.6g} s, untraced {untraced_s:.6g} s)"))
    for name, value, unit in lines:
        print(f"# {name} = {value:.6g} {unit}")

    if not args.trace:
        return result(spec["end_to_end"], e2e, outcome)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return result(spec["per_layer"], per_layer(workload, tracer, outcome, probe_exits), outcome)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        print(json.dumps(bench(args)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
