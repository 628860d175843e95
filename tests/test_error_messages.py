"""Every error that the parsers, the CLI and the checking core raise is run
by a test.

The literal text of each ``raise ParseError(...)`` in ``formats.py``, of
each ``raise UsageError(...)`` in ``cli.py``, and of every raise but an
``AssertionError`` in ``core.py``, ``proofgraph.py`` and ``flowcheck.py``
appears in some test file; an f-string stands for its longest constant part.
A message that no test names is an error path that no test runs.
"""

import ast
from pathlib import Path

import circres

PACKAGE = Path(circres.__file__).parent
TESTS = Path(__file__).resolve().parent

# The raised exception of each module, ``None`` for any but ``AssertionError``,
# and the position of its message argument.
RAISES = {"formats.py": ("ParseError", 1), "cli.py": ("UsageError", 0),
          "core.py": (None, 0), "proofgraph.py": (None, 0), "flowcheck.py": (None, 0)}


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
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and (call.func.id == exception if exception
                     else call.func.id != "AssertionError")
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
    )
    assert raised_messages(tree, "E", 1) == ["plain text", " longest part "]
    assert raised_messages(tree, None, 0) == ["too few arguments"]
    assert raised_messages(ast.parse("raise AssertionError('unreachable')\n"), None, 0) == []
