"""The exact modules use no floating point, and every module imports only
the standard library.

Proofs, flows, LP certificates and polynomial values are integers or
``Fraction``; a float literal, a use of ``float`` or a third-party import in
these modules would break that claim without any answer changing on the
instances the other tests run.  The CLI (``time.monotonic``) and the random
generators (``rng.random()``) use floats that no answer is computed from,
but they too import nothing beyond the standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

import circres

EXACT_MODULES = ("core", "proofgraph", "lp", "flowcheck", "sheraliadams", "search", "formats")
MODULES = sorted(p.stem for p in Path(circres.__file__).parent.glob("*.py"))


def _inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: use of float")
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
            names = [node.module]
        for name in names:
            top = name.split(".")[0]
            if top != "circres" and top not in sys.stdlib_module_names:
                found.append(f"line {node.lineno}: import of {name}")
    return sorted(found)


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_module_has_no_float_and_stdlib_imports_only(module):
    path = Path(circres.__file__).parent / f"{module}.py"
    assert _inexact_nodes(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_the_stdlib_only(module):
    path = Path(circres.__file__).parent / f"{module}.py"
    found = _inexact_nodes(ast.parse(path.read_text(encoding="utf-8")))
    assert [f for f in found if "import of" in f] == []


def test_the_check_sees_each_kind_of_offence():
    source = "import numpy\nfrom scipy.optimize import linprog\nx = 0.5\ny = float(1)\n"
    assert _inexact_nodes(ast.parse(source)) == [
        "line 1: import of numpy",
        "line 2: import of scipy.optimize",
        "line 3: float literal 0.5",
        "line 4: use of float",
    ]
