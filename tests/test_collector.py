"""The CLI's collector policy: :func:`circres.cli.main` runs a command with
the cyclic garbage collector off and restores the caller's setting.

That is safe because a command makes no reference cycle, so a collector
pass over its objects frees nothing.  The tests below check both halves,
and that no library module can change the collector under an in-process
caller: only ``cli.py`` imports ``gc``.  Likewise only ``cli.py`` writes to
the standard streams: a library function returns what it did as a value,
and the command line words it.
"""

import ast
import gc
from pathlib import Path

import pytest

import circres
from circres import cli

MODULES = sorted(p.stem for p in Path(circres.__file__).parent.glob("*.py"))
UNIT_CNF = "p cnf 1 2\n1 0\n-1 0\n"
SAT_CNF = "p cnf 1 1\n1 0\n"


def _gc_imports(tree: ast.AST) -> list[int]:
    """The lines that import ``gc`` or a name from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "gc" for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_only_the_cli_imports_gc(module):
    path = Path(circres.__file__).parent / f"{module}.py"
    found = _gc_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert bool(found) == (module == "cli"), found


def test_the_gc_check_sees_each_form_of_import():
    source = "import gc\nimport os, gc as g\nfrom gc import disable\nfrom . import gc\nimport gcx\n"
    assert _gc_imports(ast.parse(source)) == [1, 2, 3]


def _stream_uses(tree: ast.AST) -> list[int]:
    """The lines that name ``print``, ``sys.stdout`` or ``sys.stderr``, or
    import either stream from ``sys``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            hit = node.id == "print"
        elif isinstance(node, ast.Attribute):
            hit = (node.attr in ("stdout", "stderr") and isinstance(node.value, ast.Name)
                   and node.value.id == "sys")
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "sys" and any(
                alias.name in ("stdout", "stderr") for alias in node.names)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES)
def test_only_the_cli_writes_to_the_standard_streams(module):
    path = Path(circres.__file__).parent / f"{module}.py"
    found = _stream_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert bool(found) == (module == "cli"), found


def test_the_stream_check_sees_each_form_of_use():
    source = ("print('x')\nf(report=print)\nsys.stdout.write('x')\n"
              "sys.stderr.flush()\nfrom sys import stderr\nprinted = out.stdout\n")
    assert _stream_uses(ast.parse(source)) == [1, 2, 3, 4, 5]


@pytest.fixture()
def collector():
    """Restore the collector's setting after the test, whatever it did."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _exit_internal(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("broken on purpose")

    monkeypatch.setattr(cli.search_mod, "circular_search", broken)
    return ["search", "unit.cnf", "--width", "1"]


EXITS = {
    0: lambda mp: ["gen-php", "--complete", "2"],
    1: lambda mp: ["search", "sat.cnf", "--width", "1"],
    2: lambda mp: ["gen-random", "--budget", "0"],
    3: lambda mp: ["search", "unit.cnf", "--width", "1", "--guard-rows", "1"],
    4: _exit_internal,
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("code", sorted(EXITS))
def test_main_restores_the_collector(tmp_path, monkeypatch, capsys, collector, code, enabled):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "unit.cnf").write_text(UNIT_CNF)
    (tmp_path / "sat.cnf").write_text(SAT_CNF)
    argv = EXITS[code](monkeypatch)
    (gc.enable if enabled else gc.disable)()
    assert cli.main(argv) == code
    assert gc.isenabled() == enabled


def _drop_first_clause(cnf: str, out: str) -> None:
    """Write ``cnf`` less its first clause, a pigeon clause: satisfiable."""
    lines = Path(cnf).read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("p cnf"))
    _, _, num_vars, num_clauses = lines[header].split()
    lines[header] = f"p cnf {num_vars} {int(num_clauses) - 1}"
    del lines[header + 1]
    Path(out).write_text("\n".join(lines) + "\n")


def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch, capsys, collector):
    monkeypatch.chdir(tmp_path)
    cli.main(["gen-php", "--complete", "2"])  # warm-up: builds the shared parser once
    _drop_first_clause("php_3_2.cnf", "drop3.cnf")
    commands = [
        (["gen-php", "--complete", "4"], 0),
        (["check", "php_5_4.cres", "php_5_4.cnf"], 0),
        (["translate", "c2s", "php_5_4.cres"], 0),
        (["translate", "s2c", "php_5_4.sap", "-o", "back.cres"], 0),
        (["search", "php_3_2.cnf", "--width", "3"], 0),
        (["check", "php_3_2.cres", "drop3.cnf"], 1),
        (["search", "drop3.cnf", "--width", "3"], 1),
        (["gen-random", "--seed", "3", "--budget", "30"], 0),
    ]
    gc.disable()
    gc.collect()
    for argv, code in commands:
        assert cli.main(argv) == code, argv
        assert gc.collect() == 0, argv
