"""A clause is decoded to literals only where it is printed or written.

A clause is its mask (``core.Clause``).  Outside ``core``, which defines the
codec, and ``formats``, which reads and writes clause lines, no module reads
``.literals`` (``Clause.from_signed(c.literals)`` included) or calls
``mask_literals`` or ``clause_mask``: each converts between a clause's mask
and its literals, on a path that could compute with the mask instead.  The
twin-variable tokens of a monomial share the codec; the functions in
``ALLOWED`` decode monomials, never clauses, each for its reason.
"""

import ast
from pathlib import Path

import pytest

import circres

PACKAGE = Path(circres.__file__).parent
CODEC_MODULES = ("core", "formats")
DECODERS = ("mask_literals", "clause_mask")
ALLOWED = {
    ("sheraliadams", "factors"): "a monomial's (token, exponent) pairs, for printing",
}


def _conversions(tree: ast.AST) -> list[tuple[str, str]]:
    """``(enclosing function, offence)`` for each ``.literals`` read and each
    call of a decoder, by name or as an attribute."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            if isinstance(child, ast.Attribute) and child.attr == "literals":
                found.append((function, f"line {child.lineno}: read of .literals"))
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in DECODERS:
                    found.append((function, f"line {child.lineno}: call of {name}"))
            visit(child, inner)

    visit(tree, "")
    return found


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                 if p.stem not in CODEC_MODULES and p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_no_module_outside_the_codec_converts_clauses(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert [offence for function, offence in _conversions(tree)
            if (module, function) not in ALLOWED] == []


def test_each_allowed_decoder_still_decodes():
    for module, function in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert function in {f for f, _ in _conversions(tree)}


def test_the_check_sees_each_kind_of_offence():
    source = ("def f(c, g):\n"
              "    a = c.literals\n"
              "    b = Clause.from_signed(-l for l in g.literals)\n"
              "    return mask_literals(c.mask), core.clause_mask(a)\n"
              "m = c.mask\n")
    assert _conversions(ast.parse(source)) == [
        ("f", "line 2: read of .literals"),
        ("f", "line 3: read of .literals"),
        ("f", "line 4: call of mask_literals"),
        ("f", "line 4: call of clause_mask"),
    ]
