"""Every error that the parsers, the CLI and the checking core raise is run
by a test.

The literal text of each ``raise ParseError(...)`` in ``formats.py``, and
of every raise but an ``AssertionError`` in ``cli.py`` (its ``UsageError``
and its options' ``argparse.ArgumentTypeError``), ``core.py``,
``proofgraph.py``, ``flowcheck.py``, ``lp.py``, ``search.py`` and
``generators.py`` appears in some test file; an f-string stands for its
longest constant part.
A message that no test names is an error path that no test runs.
"""

import ast
from pathlib import Path

import pytest

import circres
from circres.formats import ParseError, parse_cres, parse_dimacs, parse_sap

PACKAGE = Path(circres.__file__).parent
TESTS = Path(__file__).resolve().parent

# The raised exception of each module, ``None`` for any but ``AssertionError``,
# and the position of its message argument.
RAISES = {"formats.py": ("ParseError", 1), "cli.py": (None, 0),
          "core.py": (None, 0), "proofgraph.py": (None, 0), "flowcheck.py": (None, 0),
          "lp.py": (None, 0), "search.py": (None, 0), "generators.py": (None, 0)}


def _text(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = [v.value for v in node.values if isinstance(v, ast.Constant)]
        return max(parts, key=len, default=None)
    return None


def raised_messages(tree: ast.AST, exception: str | None, position: int) -> list[str]:
    """The literal text of each ``raise exception(...)`` message argument;
    with ``exception=None``, of each raise but an ``AssertionError``."""
    found = []
    for node in ast.walk(tree):
        call = node.exc if isinstance(node, ast.Raise) else None
        func = call.func if isinstance(call, ast.Call) else None
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if (name and (name == exception if exception else name != "AssertionError")
                and len(call.args) > position):
            text = _text(call.args[position])
            if text:
                found.append(text)
    return found


def test_every_input_error_message_appears_in_a_test():
    tests = "".join(p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))
                    if p.name != Path(__file__).name)
    messages = [m for name, (exception, position) in RAISES.items()
                for m in raised_messages(ast.parse((PACKAGE / name).read_text(encoding="utf-8")),
                                         exception, position)]
    assert len(messages) > 20
    assert [m for m in messages if m not in tests] == []


def test_the_walk_reads_literals_and_f_strings():
    tree = ast.parse(
        "raise E(1, 'plain text')\n"
        "raise E(no, f'{a} longest part {b} short')\n"
        "raise E(no, str(exc)) from None\n"
        "raise F(1, 'another exception')\n"
        "raise E('too few arguments')\n"
        "raise argparse.G('qualified name')\n"
    )
    assert raised_messages(tree, "E", 1) == ["plain text", " longest part "]
    assert raised_messages(tree, None, 0) == ["too few arguments", "qualified name"]
    assert raised_messages(ast.parse("raise AssertionError('unreachable')\n"), None, 0) == []


# int() also reads '_' digit groups and non-ASCII digits; the formats do not.
@pytest.mark.parametrize("parse, text, line, number", [
    (parse_dimacs, "p cnf 1_0 1\n1 0\n", 1, "1_0"),
    (parse_dimacs, "p cnf 10 1\n1_0 0\n", 2, "1_0"),
    (parse_cres, "c php_4_3.cnf\np cres 1 0\nf 0 \u0661 0\ng 0\n", 3, "\u0661"),
    (parse_cres, "p cres 1 1\nf 0 1 -1 0\ni 0 ax 1 0\ng 0\nw 0 1/2_0\n", 5, "2_0"),
    (parse_sap, "p sap 10 0\ng 0\nt 1 1_0 ; B one\n", 3, "1_0"),
    (parse_sap, "p sap 10 0\ng 0\nt 1 -1_0^2 ; B one\n", 3, "-1_0"),
    (parse_sap, "p sap 10 0\ng 0\nt 1 1^\uff12 ; B one\n", 3, "\uff12"),
    (parse_sap, "p sap 10 0\ng 0\nt 1 ; B xxsq 1_0\n", 3, "1_0"),
], ids=["cnf-header", "cnf-literal", "cres-arabic-indic-digit", "cres-flow", "sap-monomial",
        "sap-base", "sap-fullwidth-exponent", "sap-index"])
def test_numbers_are_ascii_digits(parse, text, line, number):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {line}: number {number!r} is not ASCII digits"


def test_comments_may_hold_underscores_and_non_ascii():
    assert parse_dimacs("c php_4_3 \u00e9\np cnf 1 1\n1 0\n").num_variables == 1
    # A word with '_' is no number: the reader names what is wrong with it.
    with pytest.raises(ParseError, match="unknown basic reference"):
        parse_sap("p sap 1 0\ng 0\nt 1 ; B minus_x_xbar 1\n")
