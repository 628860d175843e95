"""Every public function and method has a caller outside the tests.

A public module function, or a public method of a public class, in
``circres`` is referenced by name somewhere in the package (``__init__.py``
aside, since an export is not a use), the demos or ``perfbench``.  A public
static or class method counts as used only through its own class, as
``Class.name`` or ``x.Class.name``, since several classes share names such
as ``of``.  A name that only its own tests call is surface with no answer
depending on it; the allowlist holds the few kept on purpose, each with its
reason.

Every option of every CLI subcommand is passed by a test, a demo or
``perfbench``: some list literal holds the subcommand's name and one of the
option's strings, or a ``parametrize`` decorator names the option on a test
whose body has a list literal holding the subcommand's name.  An option that
nothing passes is surface with no answer depending on it.
"""

import argparse
import ast
from pathlib import Path

import circres
from circres import cli

PACKAGE = Path(circres.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "integralize": "soundness artifact: integral flows for a checked proof",
    "trace_falsified_source": "soundness artifact: the falsified-source tracer",
    "dual_certificate": "soundness artifact: the dual certificate of a witness",
    "verify_dual_certificate": "soundness artifact: checks a dual certificate",
    "gadget_target": "reference code: the target each gadget family expands to",
    "implies_oracle": "reference code: exhaustive implication oracle",
    "sources_and_sinks": "test helper on flows; deleting it moves code into tests",
}


def _sources() -> list[Path]:
    return [
        *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "demos").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
    ]


def _public_definitions(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """The public module functions, the public methods of public classes,
    and their public static and class methods as ``Class.name``."""
    functions = {n.name for n in tree.body
                 if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    methods, qualified = set(), set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for n in cls.body:
            if not isinstance(n, ast.FunctionDef) or n.name.startswith("_"):
                continue
            if any(isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                   for d in n.decorator_list):
                qualified.add(f"{cls.name}.{n.name}")
            else:
                methods.add(n.name)
    return functions, methods, qualified


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Bare and imported names, and attribute names: a method is reached
    only through an attribute, so a local variable named like it is none.
    An attribute read off a name or an attribute is also recorded with its
    owner, as ``owner.name``.  An attribute of ``args``, the CLI's argparse
    namespace, reads an option and calls no method."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "args"):
            attributes.add(node.attr)
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner:
                attributes.add(f"{owner}.{node.attr}")
    return names, attributes


def unreferenced_public_names() -> list[str]:
    functions, methods, qualified, names, attributes = set(), set(), set(), set(), set()
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used_names, used_attributes = _references(tree)
        names |= used_names
        attributes |= used_attributes
        if path.parent == PACKAGE:
            defined_functions, defined_methods, defined_qualified = _public_definitions(tree)
            functions |= defined_functions
            methods |= defined_methods
            qualified |= defined_qualified
    return sorted((functions - names - attributes) | (methods - attributes)
                  | (qualified - attributes))


def test_every_public_name_has_a_caller_outside_the_tests():
    assert [name for name in unreferenced_public_names() if name not in ALLOWED] == []


def test_every_allowlisted_name_is_still_defined_and_unreferenced():
    assert sorted(ALLOWED) == unreferenced_public_names()


def test_the_walk_sees_functions_and_methods():
    tree = ast.parse(
        "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
        "class C:\n    def method(self): pass\n    def called(self): pass\n"
        "    def __eq__(self, o): pass\n"
        "    @staticmethod\n    def of(): pass\n"
        "    @classmethod\n    def make(cls): pass\n"
        "class _Hidden:\n    def hidden(self): pass\n"
        "used()\nmethod = C().called()\nif args.method: pass\n"
        "D.of()\nm.C.make()\n"
    )
    assert _public_definitions(tree) == (
        {"used", "unused"}, {"method", "called"}, {"C.of", "C.make"})
    names, attributes = _references(tree)
    assert {"used", "method"} <= names and {"called", "C.make"} <= attributes
    assert "method" not in attributes  # neither the variable nor the option reaches it
    assert "of" in attributes and "C.of" not in attributes  # D.of is another class's


def _cli_options() -> dict[str, list[tuple[str, ...]]]:
    """The option strings of each option of each subcommand, ``--help`` aside."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [tuple(a.option_strings) for a in sub._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, sub in commands.choices.items()}


def _strings(nodes) -> set[str]:
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _passings(tree: ast.AST) -> list[tuple[set[str], set[str]]]:
    """``(commands, options)`` string sets that pass an option to a command:
    each list literal with itself, and each list literal in the body of a
    ``parametrize``-decorated test with the strings of its decorators."""
    found = [(_strings(n.elts),) * 2 for n in ast.walk(tree) if isinstance(n, ast.List)]
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        named = set().union(*(_strings(ast.walk(d)) for d in fn.decorator_list
                              if isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                              and d.func.attr == "parametrize"))
        if named:
            found += [(_strings(n.elts), named) for stmt in fn.body for n in ast.walk(stmt)
                      if isinstance(n, ast.List)]
    return found


def unpassed_options(options: dict[str, list[tuple[str, ...]]],
                     passings: list[tuple[set[str], set[str]]]) -> list[str]:
    return [f"{command} {'/'.join(strings)}"
            for command, each in options.items() for strings in each
            if not any(command in commands and named.intersection(strings)
                       for commands, named in passings)]


def test_every_cli_option_is_passed_somewhere():
    passings = [p for top in ("tests", "demos", "perfbench")
                for path in sorted((ROOT / top).rglob("*.py"))
                for p in _passings(ast.parse(path.read_text(encoding="utf-8")))]
    assert unpassed_options(_cli_options(), passings) == []


def test_the_option_walk_sees_lists_and_parametrized_tests():
    tree = ast.parse(
        "run(['search', '--dot', d])\n"
        "run(['check', x])\nrun(['--goal', '1 0'])\n"
        "@pytest.mark.parametrize('flags', [['--max-width', '0']])\n"
        "def test_width(flags):\n    run(['gen-random', *flags])\n"
        "@pytest.mark.parametrize('command', ['translate'])\n"
        "def test_out(command):\n    run([command, '-o', o])\n"
    )
    options = {"search": [("--dot",), ("-o", "--out")], "check": [("--goal",)],
               "gen-random": [("--max-width",)], "translate": [("-o", "--out")]}
    assert unpassed_options(options, _passings(tree)) == [
        "search -o/--out", "check --goal", "translate -o/--out"]
