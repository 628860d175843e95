"""Every public function and method has a caller outside the tests.

A public module function, or a public method of a public class, in
``circres`` is referenced by name somewhere in the package (``__init__.py``
aside, since an export is not a use), the demos or ``perfbench``.  A name
that only its own tests call is surface with no answer depending on it; the
allowlist holds the few kept on purpose, each with its reason.
"""

import ast
from pathlib import Path

import circres

PACKAGE = Path(circres.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "integralize": "soundness artifact: integral flows for a checked proof",
    "trace_falsified_source": "soundness artifact: the falsified-source tracer",
    "dual_certificate": "soundness artifact: the dual certificate of a witness",
    "verify_dual_certificate": "soundness artifact: checks a dual certificate",
    "farkas_certificate": "the negative answer's certificate, which the search will carry",
    "gadget_target": "reference code: the target each gadget family expands to",
    "evaluate": "reference code: Polynomial.evaluate at a point",
    "implies_oracle": "reference code: exhaustive implication oracle",
    "sources_and_sinks": "test helper on flows; deleting it moves code into tests",
    "total": "test helper on flows: FlowAssignment.total",
    "uniform": "test helper on flows: FlowAssignment.uniform",
}


def _sources() -> list[Path]:
    return [
        *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "demos").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
    ]


def _public_definitions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The public module functions and the public methods of public classes."""
    functions = {n.name for n in tree.body
                 if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    methods = {n.name for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for n in cls.body
               if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    return functions, methods


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Bare and imported names, and attribute names: a method is reached
    only through an attribute, so a local variable named like it is none."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def unreferenced_public_names() -> list[str]:
    functions, methods, names, attributes = set(), set(), set(), set()
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used_names, used_attributes = _references(tree)
        names |= used_names
        attributes |= used_attributes
        if path.parent == PACKAGE:
            defined_functions, defined_methods = _public_definitions(tree)
            functions |= defined_functions
            methods |= defined_methods
    return sorted((functions - names - attributes) | (methods - attributes))


def test_every_public_name_has_a_caller_outside_the_tests():
    assert [name for name in unreferenced_public_names() if name not in ALLOWED] == []


def test_every_allowlisted_name_is_still_defined_and_unreferenced():
    assert sorted(ALLOWED) == unreferenced_public_names()


def test_the_walk_sees_functions_and_methods():
    tree = ast.parse(
        "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
        "class C:\n    def method(self): pass\n    def called(self): pass\n"
        "    def __eq__(self, o): pass\n"
        "class _Hidden:\n    def hidden(self): pass\n"
        "used()\nmethod = C().called()\n"
    )
    assert _public_definitions(tree) == ({"used", "unused"}, {"method", "called"})
    names, attributes = _references(tree)
    assert {"used", "method"} <= names and "called" in attributes
    assert "method" not in attributes
