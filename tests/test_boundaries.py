"""Every integer argument of every public function is checked at the call:
a float, a bool, a str, None or a value below its bound is a ValueError
naming it."""

import ast
import inspect
import sys
import re
from pathlib import Path

import pytest

import nzeck
from nzeck.sequence import require_at_most

ORDER_MESSAGE = "order n must be an integer >= 2, got {!r}"
TELESCOPING_BELOW = "need m >= 1, v >= 1, 1 <= u <= n; got m={m}, v={v}, u={u}"

# function: valid keyword arguments
VALID = {
    nzeck.any_summand_members: dict(n=3, k=4, bound=30, scan_limit=100),
    nzeck.any_summand_scan: dict(n=3, k=4, bound=30, scan_limit=100),
    nzeck.block: dict(n=3, m=9, length_cap=100),
    nzeck.brute_force_decompositions: dict(n=3, value=5, max_index=8),
    nzeck.char_at: dict(n=3, pos=10),
    nzeck.count_block: dict(n=3, m=9),
    nzeck.count_prefix: dict(n=3, length=10),
    nzeck.count_prefix_scan: dict(n=3, length=10, scan_limit=100),
    nzeck.decompose: dict(n=3, value=10),
    nzeck.get_table: dict(n=3),
    nzeck.largest_index_at_most: dict(n=3, bound=9),
    nzeck.largest_summand_rows: dict(n=3, j=4),
    nzeck.perturbed_table: dict(n=3, m=9, delta=1),
    nzeck.recompose: dict(n=3, indices=[3, 7]),
    nzeck.smallest_summand_members: dict(n=3, k=4, count=3),
    nzeck.smallest_summand_scan: dict(n=3, k=4, bound=30, scan_limit=100),
    nzeck.smallest_summand_stream: dict(n=3, k=4),
    nzeck.stream: dict(n=3),
    nzeck.stream_chunks: dict(n=3),
    nzeck.telescoping_identity: dict(n=3, m=2, v=1, u=1),
    nzeck.term: dict(n=3, m=5),
    nzeck.validate: dict(n=3, indices=[3, 7]),
}
NO_INTEGER_ARGUMENT = {"format_letters"}

# (function, argument, its name in messages, its lower bound or None);
# every order n is refused with ORDER_MESSAGE and has its own rows below
ARGUMENTS = [
    (nzeck.any_summand_members, "k", "fixed index k", 3),
    (nzeck.any_summand_members, "bound", "bound", 1),
    (nzeck.any_summand_members, "scan_limit", "scan_limit", 0),
    (nzeck.any_summand_scan, "k", "fixed index k", 3),
    (nzeck.any_summand_scan, "bound", "bound", None),
    (nzeck.any_summand_scan, "scan_limit", "scan_limit", 0),
    (nzeck.block, "m", "block index", 1),
    (nzeck.block, "length_cap", "length_cap", 0),
    (nzeck.brute_force_decompositions, "value", "value", 1),
    (nzeck.brute_force_decompositions, "max_index", "max_index", None),
    (nzeck.char_at, "pos", "position", 1),
    (nzeck.count_block, "m", "block index", 1),
    (nzeck.count_prefix, "length", "prefix length", 0),
    (nzeck.count_prefix_scan, "length", "prefix length", 0),
    (nzeck.count_prefix_scan, "scan_limit", "scan_limit", 0),
    (nzeck.decompose, "value", "value", 0),
    (nzeck.largest_index_at_most, "bound", "bound", 1),
    (nzeck.largest_summand_rows, "j", "j", 3),
    (nzeck.perturbed_table, "m", "index m", 1),
    (nzeck.perturbed_table, "delta", "delta", None),
    (nzeck.smallest_summand_members, "k", "fixed index k", 3),
    (nzeck.smallest_summand_members, "count", "count", 1),
    (nzeck.smallest_summand_scan, "k", "fixed index k", 3),
    (nzeck.smallest_summand_scan, "bound", "bound", None),
    (nzeck.smallest_summand_scan, "scan_limit", "scan_limit", 0),
    (nzeck.smallest_summand_stream, "k", "fixed index k", 3),
    (nzeck.telescoping_identity, "m", "m", 1),
    (nzeck.telescoping_identity, "v", "v", 1),
    (nzeck.telescoping_identity, "u", "u", 1),
    (nzeck.term, "m", "index", None),
] + [(func, "n", "order n", 2) for func in VALID]


def _cases():
    for func, arg, name, low in ARGUMENTS:
        good = VALID[func][arg]
        bad = [("integral-float", float(good)), ("float", good + 0.5), ("bool", True),
               ("false", False), ("str", str(good)), ("none", None)]
        if low is not None:
            bad.append(("below", low - 1))
        for kind, value in bad:
            if name == "order n":
                message = ORDER_MESSAGE.format(value)
            elif kind != "below":
                message = f"{name} must be an integer, got {value!r}"
            elif func is nzeck.telescoping_identity:
                message = TELESCOPING_BELOW.format(**{**VALID[func], arg: value})
            else:
                message = f"{name} must be >= {low}, got {value!r}"
            yield pytest.param(func, {**VALID[func], arg: value}, message,
                               id=f"{func.__name__}-{arg}-{kind}")


@pytest.mark.parametrize("func,kwargs,message", _cases())
def test_a_bad_integer_argument_is_a_value_error_naming_it(func, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        result = func(**kwargs)
        if hasattr(result, "__enter__"):  # perturbed_table checks on entry
            with result:
                pass


def test_the_table_lists_every_integer_argument_of_every_public_function():
    public = {name: getattr(nzeck, name) for name in nzeck.__all__
              if inspect.isfunction(getattr(nzeck, name)) and not name.startswith("check_")}
    integer_args = {name: {p.name for p in inspect.signature(func).parameters.values()
                           if p.annotation in ("int", int)}
                    for name, func in public.items()}
    listed = {name: set() for name in NO_INTEGER_ARGUMENT}
    for func, arg, _, _ in ARGUMENTS:
        listed.setdefault(func.__name__, set()).add(arg)
    assert listed == integer_args


HUGE = 10**5000  # 5001 digits, past CPython's default 4300-digit int<->str limit

# (id, call, error class, exact message): a caller-sized int of more than 100
# digits reads "a D-digit integer", so no message calls str() on it
HUGE_ARGUMENTS = [
    ("count_prefix_scan-length", lambda: nzeck.count_prefix_scan(3, HUGE),
     nzeck.ScanLimitExceeded, "prefix length a 5001-digit integer exceeds the limit 10000000"),
    ("count_prefix_scan-scan_limit",
     lambda: nzeck.count_prefix_scan(3, HUGE, scan_limit=HUGE - 1), nzeck.ScanLimitExceeded,
     "prefix length a 5001-digit integer exceeds the limit a 5000-digit integer"),
    ("count_prefix_scan-100-digits", lambda: nzeck.count_prefix_scan(3, 10**100 - 1),
     nzeck.ScanLimitExceeded, f"prefix length {'9' * 100} exceeds the limit 10000000"),
    ("count_prefix_scan-101-digits", lambda: nzeck.count_prefix_scan(3, 10**100),
     nzeck.ScanLimitExceeded, "prefix length a 101-digit integer exceeds the limit 10000000"),
    ("smallest_summand_scan-bound", lambda: nzeck.smallest_summand_scan(3, 3, HUGE),
     nzeck.ScanLimitExceeded, "scan bound a 5001-digit integer exceeds the limit 10000000"),
    ("any_summand_members-bound", lambda: nzeck.any_summand_members(3, 4, HUGE, scan_limit=100),
     nzeck.ScanLimitExceeded, "member count 101 exceeds the limit 100"),
    ("any_summand_scan-bound", lambda: nzeck.any_summand_scan(3, 3, HUGE),
     nzeck.ScanLimitExceeded, "flag count a 5001-digit integer exceeds the limit 10000000"),
    ("block-m", lambda: nzeck.block(3, HUGE), nzeck.BlockTooLarge,
     "block a 5001-digit integer has at least 2**a 5000-digit integer letters, "
     "above the 24-bit length cap"),
    ("char_at-pos", lambda: nzeck.char_at(3, -HUGE), ValueError,
     "position must be >= 1, got a negative 5001-digit integer"),
    ("validate-gap", lambda: nzeck.validate(3, [HUGE, HUGE + 1]), nzeck.InvalidDecomposition,
     "gap 1 between indices a 5001-digit integer and a 5001-digit integer is below 3"),
    ("validate-first", lambda: nzeck.validate(3, [-HUGE]), nzeck.InvalidDecomposition,
     "first index a negative 5001-digit integer is below the order 3"),
    ("get_table-n", lambda: nzeck.get_table(-HUGE), ValueError,
     "order n must be an integer >= 2, got a negative 5001-digit integer"),
    ("telescoping_identity-m", lambda: nzeck.telescoping_identity(3, -HUGE, 1, 1), ValueError,
     "need m >= 1, v >= 1, 1 <= u <= n; got m=a negative 5001-digit integer, v=1, u=1"),
]


@pytest.mark.parametrize("call,error,message", [row[1:] for row in HUGE_ARGUMENTS],
                         ids=[row[0] for row in HUGE_ARGUMENTS])
def test_a_huge_argument_is_refused_with_its_digit_count(default_digit_limit, call, error,
                                                         message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_require_at_most_passes_the_limit_and_refuses_one_above():
    require_at_most("row count", 12, 12)
    with pytest.raises(nzeck.ScanLimitExceeded) as info:
        require_at_most("row count", 13, 12)
    assert type(info.value) is nzeck.ScanLimitExceeded
    assert str(info.value) == "row count 13 exceeds the limit 12"


def test_require_at_most_raises_the_error_class_it_is_given():
    with pytest.raises(nzeck.BlockTooLarge) as info:
        require_at_most("prefix length", 60, 59, nzeck.BlockTooLarge)
    assert type(info.value) is nzeck.BlockTooLarge
    assert str(info.value) == "prefix length 60 exceeds the limit 59"


def test_require_at_most_gives_the_digit_count_of_a_huge_value(default_digit_limit):
    with pytest.raises(nzeck.ScanLimitExceeded) as info:
        require_at_most("scan bound", 10**100, 10**100 - 1)
    assert str(info.value) == f"scan bound a 101-digit integer exceeds the limit {'9' * 100}"


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "nzeck").glob("*.py"))

# Names a raise may format as they are: orders, table indices and step
# offsets, bounds the library passes itself, bit lengths and text
PLAIN_NAMES = {"n", "k", "a", "hi", "low", "cap_bits", "name", "what"}
# Names a raise may format with !r: text, or a value just found not to be
# an int (a bool at most)
REPR_NAMES = {"text", "value"}


def _may_format(node: ast.expr, conversion: int) -> bool:
    """Whether a raise's f-string may format `node` without `_brief`."""
    if conversion == ord("r"):
        return isinstance(node, ast.Name) and node.id in REPR_NAMES
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return node.id in PLAIN_NAMES
    if isinstance(node, ast.BinOp):
        return _may_format(node.left, -1) and _may_format(node.right, -1)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("_brief", "len")
        return isinstance(func, ast.Attribute) and (
            func.attr == "bit_length"
            or func.attr == "join" and isinstance(func.value, ast.Constant))
    return False


def _unbriefed(source: str) -> list[str]:
    """Each expression formatted in a raise's f-string that `_may_format`
    refuses, as "line: expression"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for part in ast.walk(node.exc):
                if (isinstance(part, ast.FormattedValue)
                        and not _may_format(part.value, part.conversion)):
                    found.append(f"{part.lineno}: {ast.get_source_segment(source, part.value)}")
    return found


def test_raise_messages_format_caller_sized_ints_with_brief():
    # str() of an int above 4300 digits raises, and below it a message
    # would print every digit; `_brief` gives the digit count instead
    assert _unbriefed('raise ValueError(f"must be >= {low}, got {value}")') == ["1: value"]
    assert _unbriefed('raise ValueError(f"got {size!r} and {m + 1}")') == ["1: size", "1: m + 1"]
    found = {path.name: _unbriefed(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert "cli.py" in found and "words.py" in found


SIZE_ERRORS = {"ScanLimitExceeded", "BlockTooLarge"}


def _size_raises(source: str) -> list[str]:
    """The name of the innermost function around each `raise` of a size
    error class, "<module>" outside any, leaving out `require_at_most`."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name in SIZE_ERRORS and where != "require_at_most":
                    found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_size_refusals_go_through_require_at_most():
    # one message shape for every scan-limit and length-cap refusal; the
    # one raise of its own is block's floor-bits refusal (in `_block_length`,
    # which `block` and `nzeck block` share), made before the size exists, so
    # it has no value to pass to the guard
    assert _size_raises("def f():\n    raise errors.BlockTooLarge('x')\n"
                        "raise ScanLimitExceeded\n") == ["f", "<module>"]
    assert _size_raises("def require_at_most():\n    raise ScanLimitExceeded('x')\n") == []
    found = {path.name: _size_raises(path.read_text()) for path in SOURCES}
    assert {name: where for name, where in found.items() if where} == {
        "words.py": ["_block_length"]}
    assert "sequence.py" in found and "harness.py" in found
