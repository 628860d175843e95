import random
from fractions import Fraction

import pytest

from circres import cli, search as search_mod, sheraliadams as sa
from circres.cli import main
from circres.core import MAX_VARIABLE, Clause, CnfFormula
from circres.flowcheck import find_witness
from circres.formats import parse_cres, parse_dimacs, parse_sap, serialize_cres, serialize_dimacs
from circres.generators import (complete_bipartite, gen_php, near_cubic_bipartite,
                                php_refutation, random_circular_proof,
                                unsound_cycle_example)
from circres.proofgraph import ProofGraph, balance_numerators


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def php_files(tmp_path):
    cnf = tmp_path / "php.cnf"
    proof = tmp_path / "php.cres"
    code = run(["gen-php", "--complete", 2, "--cnf-out", cnf, "--proof-out", proof])
    assert code == 0
    return cnf, proof


def test_gen_php_and_check(php_files, capsys):
    cnf, proof = php_files
    assert run(["check", proof, cnf]) == 0
    out = capsys.readouterr().out
    assert "WITNESSED" in out
    assert "goal balance 1" in out


def test_check_unsound_cycle(tmp_path, capsys):
    graph = unsound_cycle_example()
    proof = tmp_path / "cycle.cres"
    proof.write_text(serialize_cres(graph))
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("p cnf 1 0\n")
    assert run(["check", proof, cnf]) == 1
    out = capsys.readouterr().out
    assert "NOT-WITNESSED" in out
    assert "derived by no inference" not in out  # every vertex of the cycle is derived


def test_check_names_a_starved_vertex(tmp_path, php_files, capsys):
    cnf, proof = php_files
    formula = parse_dimacs(cnf.read_text())
    pigeon = formula.clauses[0]
    dropped = tmp_path / "dropped.cnf"
    dropped.write_text(serialize_dimacs(CnfFormula.of(formula.num_variables, formula.clauses[1:])))
    graph, _ = parse_cres(proof.read_text())
    fid = next(f for f, c in graph.formula_vertices.items() if c == pigeon)
    assert run(["check", proof, dropped]) == 1
    assert capsys.readouterr().out == (
        "supplied flows rejected: they do not witness the proof; "
        "looking for a witness instead\n"
        "NOT-WITNESSED\n"
        "  no flow assignment witnesses goal clause _|_\n"
        f"  vertex {fid} (x1 | x2) is used as a premise, derived by no inference, "
        "and not a hypothesis\n"
    )

    lone = tmp_path / "lone.cres"
    lone.write_text("p cres 1 0\nf 0 0\ng 0\n")
    assert run(["check", lone, cnf]) == 1
    assert capsys.readouterr().out == (
        "NOT-WITNESSED\n"
        "  no flow assignment witnesses goal clause _|_\n"
        "  goal vertex 0 is derived by no inference\n"
    )


def test_check_recomputes_missing_flows(tmp_path, php_files):
    cnf, proof = php_files
    graph, _ = parse_cres(proof.read_text())
    stripped = tmp_path / "noflows.cres"
    stripped.write_text(serialize_cres(graph, None))
    assert run(["check", stripped, cnf]) == 0


def test_check_reports_rejected_flows(tmp_path, php_files, capsys):
    cnf, proof = php_files
    lines = proof.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("w "))
    lines[k] = " ".join(lines[k].split()[:2] + ["1000"])
    tampered = tmp_path / "tampered.cres"
    tampered.write_text("\n".join(lines) + "\n")
    assert run(["check", tampered, cnf]) == 0
    out = capsys.readouterr().out
    assert "supplied flows rejected" in out
    assert "WITNESSED" in out and "supplied flows verified" not in out


# A cut whose antecedents do not match its consequent, and an axiom whose
# consequent is not x | ~x.
TWO_VIOLATIONS = "p cres 3 2\nf 0 1 0\nf 1 -1 0\nf 2 0\ni 0 cut 2 0 1 2\ni 1 ax 1 0\ng 2\n"
TWO_VIOLATION_LINES = (
    "error: inference 0: cut antecedents must be {x2} and {~x2} sharing side "
    "clause _|_, got x1 and ~x1\n"
    "error: inference 1: axiom consequent must be x1 | ~x1, got x1\n"
)


@pytest.mark.parametrize("command", [
    ["check", "two.cres", "empty.cnf"],
    ["translate", "c2s", "two.cres"],
], ids=["check", "c2s"])
def test_rule_violations_print_one_line_each(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.cres").write_text(TWO_VIOLATIONS)
    (tmp_path / "empty.cnf").write_text("p cnf 1 0\n")
    assert run(command) == 2
    captured = capsys.readouterr()
    assert captured.err == TWO_VIOLATION_LINES
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cnf", "two.cres"]


@pytest.mark.parametrize("flows", ["supplied", "absent"])
@pytest.mark.parametrize("command", ["check", "c2s"])
def test_proof_rules_are_validated_once(tmp_path, php_files, monkeypatch, command, flows):
    import sys

    from circres import proofgraph

    original = proofgraph.validate_rules
    calls = []

    def counting(graph):
        calls.append(graph)
        return original(graph)

    # Every module binding of the name, so that a second caller is counted too.
    for name, module in list(sys.modules.items()):
        if name.startswith("circres") and getattr(module, "validate_rules", None) is original:
            monkeypatch.setattr(module, "validate_rules", counting)
    cnf, proof = php_files
    if flows == "absent":
        proof = tmp_path / "noflows.cres"
        proof.write_text(serialize_cres(parse_cres(php_files[1].read_text())[0], None))
    argv = ["check", proof, cnf] if command == "check" else ["translate", "c2s", proof]
    assert run(argv) == 0
    assert len(calls) == 1


def test_gen_php_builds_the_formula_once(tmp_path, monkeypatch):
    from circres import generators

    original = generators.gen_php
    calls = []

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(generators, "gen_php", counting)
    monkeypatch.chdir(tmp_path)
    assert run(["gen-php", "--complete", 3]) == 0
    assert len(calls) == 1


def test_check_parse_error(tmp_path):
    bad = tmp_path / "bad.cres"
    bad.write_text("p cres 1 1\nf 0 1 0\ni 0 zap 1 0\ng 0\n")
    cnf = tmp_path / "h.cnf"
    cnf.write_text("p cnf 1 0\n")
    assert run(["check", bad, cnf]) == 2


@pytest.mark.parametrize("text, line", [
    ("p cres 1 0\nf\nh 0\ng 0\n", 2),
    ("p cres 1 0\nf 0 1 0\nh\ng 0\n", 3),
    ("p cres 1 0\nf 0 1 0\nh 0\ng\n", 4),
], ids=["f", "h", "g"])
def test_check_truncated_line(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.cres"
    bad.write_text(text)
    cnf = tmp_path / "h.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    assert run(["check", bad, cnf]) == 2
    assert f"error: line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "c2s"])
def test_goal_mark_naming_no_vertex(tmp_path, capsys, command):
    bad = tmp_path / "e.cres"
    bad.write_text("p cres 0 0\ng 0\n")
    cnf = tmp_path / "e.cnf"
    cnf.write_text("p cnf 0 0\n")
    argv = ["check", bad, cnf] if command == "check" else ["translate", "c2s", bad]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_gen_php_usage_errors(tmp_path, capsys):
    assert run(["gen-php", "--complete", 0]) == 2
    assert capsys.readouterr().err == "error: --complete needs a positive hole count\n"
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("2 2\n1 1\n1 2\n2 1\n2 2\n")
    assert run(["gen-php", "--graph", graph_file]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pigeonhole refutations need more pigeons than holes\n"
    assert captured.out == ""
    graph_file.write_text("3 2\n1 1\n1 5\n2 1\n3 2\n")
    assert run(["gen-php", "--graph", graph_file]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: edge (1,5) out of range\n"
    assert captured.out == ""


UNIT_CNF = "p cnf 1 1\n1 0\n"
HUGE = 10 ** 12


def _cres(line):
    return f"p cres 2 1\nf 0 0\nf 1 1 -1 0\n{line}\ng 0\n"


def _sap(line):
    return f"p sap 1 1\nh 1 0\ng 1 0\n{line}\n"


# (argv, input file name and text, the whole error message).
INPUT_ERRORS = {
    "search-tautological-goal": (["search", "u.cnf", "--width", "2", "--goal", "1 -1 0"], None,
                                 "goal clause must not be tautological"),
    "search-goal-without-0": (["search", "u.cnf", "--width", "2", "--goal", "1"], None,
                              "goal spec must end with 0 or be 'empty'"),
    "search-goal-not-integer": (["search", "u.cnf", "--width", "2", "--goal", "x 0"], None,
                                "bad goal spec: invalid literal for int() with base 10: 'x'"),
    # int() reads '_' digit groups and non-ASCII digits; the CLI, like the
    # formats, does not.
    "search-goal-underscore": (["search", "u.cnf", "--width", "2", "--goal", "1_0 0"], None,
                               "bad goal spec: number '1_0' is not ASCII digits"),
    "search-width-arabic-indic-digit": (["search", "u.cnf", "--width", "\u0662"], None,
                                        "argument --width: number '\u0662' is not ASCII digits"),
    "php-complete-underscore": (["gen-php", "--complete", "1_2"], None,
                                "argument --complete: number '1_2' is not ASCII digits"),
    "search-width-not-integer": (["search", "u.cnf", "--width", "two"], None,
                                 "argument --width: invalid integer 'two'"),
    # ASCII digits past int's conversion limit: the error names the limit
    # and the digit count, not the whole number.
    "search-width-past-limit": (["search", "u.cnf", "--width", "9" * 5000], None,
                                "argument --width: number of 5000 digits exceeds the int "
                                "conversion limit sys.get_int_max_str_digits() = "),
    "cnf-literal-past-limit": (["search", "n.cnf", "--width", "2"],
                               ("n.cnf", f"p cnf 1 1\n{'9' * 5000} 0\n"),
                               "line 2: number of 5000 digits exceeds the int conversion limit "
                               "sys.get_int_max_str_digits() = "),
    "search-goal-past-limit": (["search", "u.cnf", "--width", "1", "--goal", f"{'9' * 5000} 0"],
                               None, "bad goal spec: number of 5000 digits exceeds the int "
                               "conversion limit sys.get_int_max_str_digits() = "),
    "graph-past-limit": (["gen-php", "--graph", "g.txt"], ("g.txt", f"3 2\n1 -{'9' * 5000}\n"),
                         "g.txt:2: number of 5000 digits exceeds the int conversion limit "
                         "sys.get_int_max_str_digits() = "),
    "php-no-instance": (["gen-php"], None, "one of the arguments --complete --graph is required"),
    "check-unreadable": (["check", "absent.cres", "u.cnf"], None, "cannot read absent.cres: "),
    "check-goal-on-no-vertex": (["check", "p.cres", "u.cnf", "--goal", "1 2 0"],
                                ("p.cres", "p cres 1 0\nf 0 0\ng 0\n"),
                                "no formula vertex carries the goal clause x1 | x2"),
    "cres-ax-arity": (["check", "p.cres", "u.cnf"], ("p.cres", _cres("i 0 ax 1")),
                      "line 4: ax takes one consequent id"),
    "cres-cut-arity": (["check", "p.cres", "u.cnf"], ("p.cres", _cres("i 0 cut 1 0 0")),
                       "line 4: cut takes two antecedent ids and one consequent id"),
    "cres-zero-flow": (["check", "p.cres", "u.cnf"],
                       ("p.cres", _cres("i 0 ax 1 1") + "w 0 0\n"),
                       "line 6: flow must be positive, got 0"),
    "cnf-underscore": (["search", "n.cnf", "--width", "2"],
                       ("n.cnf", "p cnf 1 1\n1_0 0\n"), "line 2: number '1_0' is not ASCII digits"),
    "cres-underscore": (["check", "p.cres", "u.cnf"], ("p.cres", _cres("i 0 ax 1_0 1")),
                        "line 4: number '1_0' is not ASCII digits"),
    "sap-underscore": (["translate", "s2c", "p.sap"], ("p.sap", _sap("t 1 1_0 ; B one")),
                       "line 4: number '1_0' is not ASCII digits"),
    "sap-zero-exponent": (["translate", "s2c", "p.sap"], ("p.sap", _sap("t 1 1^0 ; B one")),
                          "line 4: bad monomial token '1^0'"),
    "sap-empty-exponent": (["translate", "s2c", "p.sap"], ("p.sap", _sap("t 1 1^ ; B one")),
                           "line 4: bad monomial token '1^'"),
    "sap-no-coefficient": (["translate", "s2c", "p.sap"], ("p.sap", _sap("t ; B one")),
                           "line 4: term line must be 't <coef> <mono> ; <ref>'"),
    "sap-H-without-index": (["translate", "s2c", "p.sap"], ("p.sap", _sap("t 1 ; H")),
                            "line 4: hypothesis reference is 'H <index>'"),
    "sap-one-with-index": (["translate", "s2c", "p.sap"], ("p.sap", _sap("t 1 ; B one 1")),
                           "line 4: 'B one' takes no index"),
    # A clause mask holds two bits per variable up to its largest: an index
    # beyond core.MAX_VARIABLE is refused before its bit (250 GB here) exists.
    "search-huge-goal": (["search", "u.cnf", "--width", "3", "--goal", f"{HUGE} 0"], None,
                         f"bad goal spec: variable x{HUGE} exceeds the largest variable "
                         f"index {MAX_VARIABLE}"),
    "check-huge-goal": (["check", "p.cres", "u.cnf", "--goal", f"-{HUGE} 0"],
                        ("p.cres", _cres("i 0 ax 1 1")),
                        f"bad goal spec: variable x{HUGE} exceeds the largest variable index"),
    "cres-huge-literal": (["check", "p.cres", "u.cnf"],
                          ("p.cres", f"p cres 1 0\nf 0 1 {HUGE} 0\ng 0\n"),
                          f"line 2: variable x{HUGE} exceeds the largest variable index "
                          f"{MAX_VARIABLE}"),
    "cres-huge-principal": (["check", "p.cres", "u.cnf"], ("p.cres", _cres(f"i 0 ax {HUGE} 1")),
                            f"line 4: principal variable must be <= {MAX_VARIABLE}, got {HUGE}"),
    "cnf-huge-count": (["search", "n.cnf", "--width", "2"], ("n.cnf", f"p cnf {HUGE} 1\n1 0\n"),
                       f"line 1: variable count {HUGE} exceeds the largest variable index "
                       f"{MAX_VARIABLE}"),
    "sap-huge-count": (["translate", "s2c", "p.sap"],
                       ("p.sap", f"c wide\np sap {HUGE} 0\ng 0\nt 1 ; B xxsq {HUGE}\n"),
                       f"line 2: variable count {HUGE} exceeds the largest variable index"),
    "graph-three-numbers": (["gen-php", "--graph", "g.txt"], ("g.txt", "3 2\n1 2 3\n"),
                            "g.txt:2: expected two integers per line"),
    "graph-not-integer": (["gen-php", "--graph", "g.txt"], ("g.txt", "3 x\n"),
                          "g.txt:1: expected two integers per line"),
    "graph-arabic-indic-digit": (["gen-php", "--graph", "g.txt"], ("g.txt", "3 2\n2 \u0661\n"),
                                 "g.txt:2: number '\u0661' is not ASCII digits"),
    "graph-isolated-pigeon": (["gen-php", "--graph", "g.txt"],
                              ("g.txt", "3 2\n1 1\n1 2\n3 1\n3 2\n"),
                              "pigeon 2 has no incident edge"),
    "graph-empty": (["gen-php", "--graph", "g.txt"], ("g.txt", "# nothing\n"),
                    "g.txt: empty graph file"),
    "graph-negative-sizes": (["gen-php", "--graph", "g.txt"], ("g.txt", "-1 -2\n"),
                             "bipartite graph sizes must be nonnegative, got -1 and -2"),
    "graph-negative-holes": (["gen-php", "--graph", "g.txt"], ("g.txt", "0 -1\n"),
                             "bipartite graph sizes must be nonnegative, got 0 and -1"),
    "random-budget-0": (["gen-random", "--budget", "0"], None, "--budget must be at least 1"),
    "random-vars-0": (["gen-random", "--vars", "0"], None, "need at least one variable"),
    "random-vars-huge": (["gen-random", "--vars", str(HUGE)], None,
                         f"{HUGE} variables exceed the largest variable index {MAX_VARIABLE}"),
    "random-axiom-above-width-0": (["gen-random", "--budget", "1", "--max-width", "0"], None,
                                   "size budget 1 is one axiom, of width 2 > max width 0"),
    "random-axiom-above-width-1": (["gen-random", "--budget", "1", "--max-width", "1"], None,
                                   "size budget 1 is one axiom, of width 2 > max width 1"),
    "random-width-0": (["gen-random", "--max-width", "0"], None,
                       "max width 0 is below 1, the width of a unit hypothesis"),
}


@pytest.mark.parametrize("argv, infile, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS)
def test_input_error_exits_2_with_one_line_and_no_file(tmp_path, monkeypatch, capsys,
                                                       argv, infile, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.cnf").write_text(UNIT_CNF)
    if infile is not None:
        (tmp_path / infile[0]).write_text(infile[1], encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # A read error's message ends with the system's text, after the prefix given.
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_gen_php_graph_file(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("# tiny\n3 2\n1 1\n1 2\n2 1\n2 2\n3 1\n3 2\n")
    cnf = tmp_path / "g.cnf"
    proof = tmp_path / "g.cres"
    assert run(["gen-php", "--graph", graph_file, "--cnf-out", cnf, "--proof-out", proof]) == 0
    assert run(["check", proof, cnf]) == 0


def test_translate_round_trip(tmp_path, php_files, capsys):
    cnf, proof = php_files
    sap = tmp_path / "php.sap"
    assert run(["translate", "c2s", proof, "-o", sap]) == 0
    out = capsys.readouterr().out
    assert "degree 3 == width 3: True" in out
    parsed = parse_sap(sap.read_text())
    assert parsed.goal == Clause()

    back = tmp_path / "back.cres"
    assert run(["translate", "s2c", sap, "-o", back]) == 0
    out = capsys.readouterr().out
    assert "width 3 <= degree 3: True" in out
    assert run(["check", back, cnf]) == 0


def test_translate_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.sap"
    bad.write_text("p sap 1 1\nh 1 0\ng -1 0\nt 1 ; H 1\n")
    assert run(["translate", "s2c", bad]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: polynomial proof does not check\n"
    assert captured.out == ""
    assert not bad.with_suffix(".cres").exists()
    # The identity enc(x2) == enc(x2) checks, but hypothesis 1 is tautological.
    taut = tmp_path / "taut.sap"
    taut.write_text("p sap 2 2\nh 1 -1 0\nh 2 0\ng 2 0\nt 1 ; H 2\n")
    assert run(["translate", "s2c", taut]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tautological hypothesis x1 | ~x1\n"
    assert captured.out == ""


def test_translate_rejects_variable_beyond_header(tmp_path, capsys):
    # The huge index is rejected before any monomial mask (250 GB) is built.
    for text, line, var in [("p sap 1 1\nh 5 0\ng 5 0\nt 1 ; H 1\n", 2, 5),
                            (f"p sap 1 0\ng 0\nt 1 {10 ** 12} ; B one\n", 3, 10 ** 12)]:
        sap = tmp_path / "wide.sap"
        sap.write_text(text)
        assert run(["translate", "s2c", sap]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: line {line}: variable x{var} exceeds declared variable count 1\n")
        assert captured.out == ""
        assert not sap.with_suffix(".cres").exists()


def test_translate_empty_goal_that_is_a_hypothesis(tmp_path, capsys):
    sap = tmp_path / "empty.sap"
    sap.write_text("p sap 0 1\nh 0\ng 0\nt 1 ; H 1\n")
    assert run(["translate", "s2c", sap]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (f"wrote {sap.with_suffix('.cres')}: width 1 <= degree 0 + 1 "
                   "(padding split): True; length 6, monomial size 1\n")
    graph, flow = parse_cres(sap.with_suffix(".cres").read_text())
    assert graph.goal_clause() == Clause()
    assert flow is not None


@pytest.mark.parametrize("flows", [True, False], ids=["flows", "no-flows"])
def test_check_and_c2s_certify_the_witnessed_goal_copy(tmp_path, php_files, capsys, flows):
    # The goal mark points at a second, isolated empty-clause vertex; both
    # commands certify the first one, and check marks it in its DOT output.
    cnf, proof = php_files
    graph, flow = parse_cres(proof.read_text())
    spare = len(graph.formula_vertices)
    dup = tmp_path / "dup.cres"
    dup.write_text(serialize_cres(
        ProofGraph({**graph.formula_vertices, spare: Clause()},
                   graph.inference_vertices, graph.hypotheses, spare),
        flow if flows else None,
    ))
    dot = tmp_path / "dup.dot"
    assert run(["check", dup, cnf, "--dot", dot]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        "WITNESSED (supplied flows verified)" if flows else "WITNESSED", "goal balance 1",
    ]
    text = dot.read_text()
    assert f'f{graph.goal_id} [shape=box, label="_|_  [goal]"];' in text
    assert f'f{spare} [shape=box, label="_|_"];' in text
    assert run(["translate", "c2s", dup, "-o", tmp_path / "dup.sap"]) == 0


def test_check_goal_option_certifies_the_padded_goal(tmp_path, capsys):
    # s2c pads this identity proof with a fresh goal vertex, after the
    # hypothesis vertex that carries the same clause.
    sap, cres, cnf = tmp_path / "id.sap", tmp_path / "id.cres", tmp_path / "id.cnf"
    sap.write_text("p sap 1 1\nh 1 0\ng 1 0\nt 1 ; H 1\n")
    cnf.write_text("p cnf 1 1\n1 0\n")
    assert run(["translate", "s2c", sap, "-o", cres]) == 0
    capsys.readouterr()
    dot = tmp_path / "id.dot"
    assert run(["check", cres, cnf, "--goal", "1 0", "--dot", dot]) == 0
    assert capsys.readouterr().out == (
        "WITNESSED (supplied flows verified)\ngoal balance 1\nw 0 1\n"
    )
    text = dot.read_text()
    assert 'f0 [shape=box, label="x1  [hyp]"];' in text
    assert 'f1 [shape=box, label="x1  [hyp,goal]"];' in text


@pytest.mark.parametrize("direction", ["c2s", "s2c"])
def test_reference_polynomials_built_once(tmp_path, monkeypatch, direction):
    # check_sa, sa_degree and sa_monomial_size all read one table per proof.
    cnf, proof, sap = tmp_path / "php.cnf", tmp_path / "php.cres", tmp_path / "php.sap"
    assert run(["gen-php", "--complete", 4, "--cnf-out", cnf, "--proof-out", proof]) == 0
    if direction == "s2c":
        assert run(["translate", "c2s", proof, "-o", sap]) == 0
    calls = []
    build = sa.ref_polynomial

    def counting(ref, hypotheses):
        calls.append(ref)
        return build(ref, hypotheses)

    monkeypatch.setattr(sa, "ref_polynomial", counting)
    if direction == "c2s":
        assert run(["translate", "c2s", proof, "-o", sap]) == 0
    else:
        assert run(["translate", "s2c", sap, "-o", tmp_path / "back.cres"]) == 0
    refs = {t.ref for t in parse_sap(sap.read_text()).terms}
    assert len(calls) == len(refs)
    assert set(calls) == refs


@pytest.mark.parametrize("direction", ["c2s", "s2c"])
def test_translation_work_is_fixed_per_proof(tmp_path, monkeypatch, direction):
    # The variables' positive mask is computed once per proof, not once per
    # term: past the proof's own, only each hypothesis' encoding computes
    # one, so the surplus is the same at n=4 and n=6 while the terms grow.
    # c2s makes at most one RefPoly per distinct reference.
    from circres import core

    surplus = {}
    for n in (4, 6):
        cnf, proof, sap = (tmp_path / f"php{n}{ext}" for ext in (".cnf", ".cres", ".sap"))
        assert run(["gen-php", "--complete", n, "--cnf-out", cnf, "--proof-out", proof]) == 0
        if direction == "s2c":
            assert run(["translate", "c2s", proof, "-o", sap]) == 0
        masks, refs = [], []
        positive_mask, new_ref = core.positive_mask, sa.RefPoly.__new__

        def counting_mask(num_vars):
            masks.append(num_vars)
            return positive_mask(num_vars)

        def counting_ref(cls, *args):
            refs.append(args)
            return new_ref(cls, *args)

        with monkeypatch.context() as m:
            m.setattr(core, "positive_mask", counting_mask)
            m.setattr(sa, "positive_mask", counting_mask)
            m.setattr(sa.RefPoly, "__new__", counting_ref)
            if direction == "c2s":
                assert run(["translate", "c2s", proof, "-o", sap]) == 0
            else:
                assert run(["translate", "s2c", sap, "-o", tmp_path / f"back{n}.cres"]) == 0
        written = parse_sap(sap.read_text())
        surplus[n] = len(masks) - len(written.hypotheses)
        assert 0 < surplus[n] <= 2 and len(masks) < len(written.terms)
        if direction == "c2s":
            assert len(refs) <= len({t.ref for t in written.terms})
    assert surplus[4] == surplus[6]


def test_translate_rejects_unwitnessed(tmp_path):
    proof = tmp_path / "cycle.cres"
    proof.write_text(serialize_cres(unsound_cycle_example()))
    assert run(["translate", "c2s", proof]) == 2


def test_search_finds_unit_contradiction(tmp_path, capsys):
    cnf = tmp_path / "unit.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    out_path = tmp_path / "unit.cres"
    assert run(["search", cnf, "--width", 1, "-o", out_path]) == 0
    text = capsys.readouterr().out
    assert "search LP: 1 rows, 1 clause-balance variables" in text and "wrote" in text
    assert run(["check", out_path, cnf]) == 0


@pytest.mark.parametrize("text, goal, code, line", [
    ("p cnf 1 2\n1 0\n-1 0\n", "0", 0, "proof found from 3 kept clauses, no LP solved"),
    ("p cnf 2 2\n1 2 0\n-1 2 0\n", "-2 0", 1, "no proof (3 kept clauses; presolved LP: 6 rows, 5 clause-balance variables)"),
    ("p cnf 2 1\n1 0\n", "1 2 0", 0, "skipped, a hypothesis lies inside the goal; no LP solved"),
    ("p cnf 1 1\n1 0\n", "1 0", 0, "skipped, a hypothesis lies inside the goal; no LP solved"),
], ids=["found", "none", "skipped", "identity"])
def test_search_says_what_the_acyclic_closure_did(tmp_path, capsys, text, goal, code, line):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    assert run(["search", cnf, "--width", 2, "--goal", goal]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("search LP: ") and lines[1] == f"acyclic closure: {line}"


def test_search_negative_result(tmp_path):
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    assert run(["search", cnf, "--width", 2]) == 1


def test_search_width_zero(tmp_path, capsys):
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("p cnf 1 1\n0\n")
    assert run(["search", cnf, "--width", 0]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "search LP: 1 rows, 0 clause-balance variables"
    assert lines[1] == "acyclic closure: skipped, a hypothesis lies inside the goal; no LP solved"
    assert lines[2].startswith("solve time ") and lines[2].endswith("s")
    assert lines[3:] == ["no width-0 circular proof exists"]


def test_search_width_usage_error(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    assert run(["search", cnf, "--width", 2]) == 2
    assert capsys.readouterr().err == "error: width 2 below input width 3\n"


def test_search_guard(tmp_path, capsys):
    cnf = tmp_path / "unit.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run(["search", cnf, "--width", 1, "--guard-rows", 1]) == 3
    captured = capsys.readouterr()
    assert captured.out == "search LP: 1 rows, 1 clause-balance variables\n"
    assert captured.err.startswith("guard: ") and captured.err.count("\n") == 1


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    # main reuses one parser per process; each call must read only its own
    # arguments, whatever the call before it set, failed or tripped.
    monkeypatch.chdir(tmp_path)
    assert cli._build_parser() is cli._build_parser()
    (tmp_path / "chain.cnf").write_text("p cnf 4 5\n1 2 0\n-2 3 0\n-3 4 0\n-1 4 0\n-4 0\n")
    assert run(["search", "x.cnf", "--width", "\u0662"]) == 2
    assert capsys.readouterr().err == (
        "error: argument --width: number '\u0662' is not ASCII digits\n")

    assert run(["search", "chain.cnf", "--width", 3, "--goal", "1 0", "-o", "goal.cres"]) == 0
    assert parse_cres((tmp_path / "goal.cres").read_text())[0].goal_clause() == Clause.from_signed([1])
    assert run(["search", "chain.cnf", "--width", 3, "-o", "empty.cres"]) == 0
    assert parse_cres((tmp_path / "empty.cres").read_text())[0].goal_clause() == Clause()
    assert capsys.readouterr().out.count("wrote ") == 2

    assert run(["gen-php", "--complete", 2, "--no-emit-flows"]) == 0
    assert "\nw " not in (tmp_path / "php_3_2.cres").read_text()
    assert run(["gen-php", "--complete", 2]) == 0
    assert "\nw " in (tmp_path / "php_3_2.cres").read_text()

    assert run(["search", "chain.cnf", "--width", 3, "--guard-rows", 1]) == 3
    assert capsys.readouterr().err.startswith("guard: ")
    assert run(["search", "chain.cnf", "--width", 3]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "wrote chain.cres" in captured.out


def test_search_width_below_input_prints_nothing(tmp_path, capsys):
    cnf = tmp_path / "php.cnf"
    assert run(["gen-php", "--complete", 3, "--cnf-out", cnf,
                "--proof-out", tmp_path / "php.cres"]) == 0
    capsys.readouterr()
    assert run(["search", cnf, "--width", 0]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: width 0 below input width 3\n"


def test_search_negative_guard_is_a_usage_error(tmp_path, capsys):
    cnf = tmp_path / "unit.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run(["search", cnf, "--width", 1, "--guard-rows", -1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --guard-rows must be nonnegative, got -1\n"


def test_search_prints_the_size_the_guard_bounds(tmp_path, capsys):
    cnf = tmp_path / "php.cnf"
    cnf.write_text(serialize_dimacs(gen_php(complete_bipartite(3, 2))))
    assert run(["search", cnf, "--width", 2]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    rows, cols = (int(t) for t in first.split() if t.isdigit())
    assert first == f"search LP: {rows} rows, {cols} clause-balance variables"
    assert run(["search", cnf, "--width", 2, "--guard-rows", rows + cols]) == 1
    assert run(["search", cnf, "--width", 2, "--guard-rows", rows + cols - 1]) == 3


@pytest.mark.parametrize("dropped", [False, True], ids=["refutable", "pigeon-clause-dropped"])
def test_search_drops_declared_but_unused_variables(tmp_path, capsys, dropped):
    # near_cubic_bipartite(3, 1) as a 9-variable file and declared over 1,000
    # variables: the full program over 1,000 would exceed the default guard,
    # but the search restricts the instance first, so both files get the
    # same LP, the same answer and the same proof.
    cnf = gen_php(near_cubic_bipartite(3, 1))
    assert cnf.num_variables == 9
    if dropped:
        cnf = CnfFormula.of(9, cnf.clauses[1:])
    answers = []
    for declared in (9, 1000):
        folder = tmp_path / str(declared)
        folder.mkdir()
        path = folder / "nc3.cnf"
        path.write_text(serialize_dimacs(CnfFormula.of(declared, cnf.clauses)))
        code = run(["search", path, "--width", 3])
        first = capsys.readouterr().out.splitlines()[0]
        proof = folder / "nc3.cres"
        answers.append((code, first, proof.read_text() if proof.exists() else None))
    assert answers[0] == answers[1]
    assert answers[0][0] in (0, 1) and (answers[0][2] is None) == bool(answers[0][0])


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("search solution fails its own flow check")

    monkeypatch.setattr(cli.search_mod, "circular_search", broken)
    cnf = tmp_path / "unit.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run(["search", cnf, "--width", 1]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: AssertionError: search solution fails its own flow check\n"


@pytest.mark.parametrize("module, check, argv, message", [
    (sa, "check_sa", ["translate", "c2s", "php.cres"],
     "translated polynomial proof fails its checker"),
    (search_mod, "verify_flow", ["search", "php.cnf", "--width", 3],
     "search solution fails its own flow check"),
], ids=["translate", "search"])
def test_a_failed_self_check_exits_4_with_one_line(php_files, monkeypatch, capsys,
                                                    module, check, argv, message):
    monkeypatch.chdir(php_files[0].parent)
    monkeypatch.setattr(module, check, lambda *args: False)
    capsys.readouterr()
    assert run(argv) == 4
    assert capsys.readouterr().err == f"internal error: AssertionError: {message}\n"


def test_closed_stdout_exits_quietly(tmp_path, php_files, monkeypatch, capsys):
    import io
    import os
    import sys

    cnf, proof = php_files
    read_end, write_end = os.pipe()
    os.close(read_end)
    closed = io.open(write_end, "w", buffering=1)  # every line hits the pipe
    monkeypatch.setattr(sys, "stdout", closed)
    try:
        assert run(["check", proof, cnf]) == cli.EXIT_BROKEN_PIPE == 141
        print("after the reader left", file=closed)
        closed.flush()  # stdout now discards instead of raising
    finally:
        closed.close()
    assert capsys.readouterr().err == ""


def test_search_goal_clause(tmp_path):
    cnf = tmp_path / "w.cnf"
    cnf.write_text("p cnf 2 2\n2 1 0\n2 -1 0\n")
    out_path = tmp_path / "w.cres"
    assert run(["search", cnf, "--width", 2, "--goal", "2 0", "-o", out_path]) == 0
    graph, flow = parse_cres(out_path.read_text())
    assert graph.goal_clause() == Clause.from_ints(2)


@pytest.mark.parametrize("text, goal, length", [
    ("p cnf 2 1\n1 0\n", "1 0", 3),
    ("p cnf 1 1\n0\n", "0", 6),
], ids=["unit", "empty"])
def test_search_proves_a_goal_that_is_a_hypothesis(tmp_path, capsys, text, goal, length):
    cnf = tmp_path / "h.cnf"
    cnf.write_text(text)
    out_path = tmp_path / "h.cres"
    assert run(["search", cnf, "--width", 1, "--goal", goal, "-o", out_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"wrote {out_path}: width 1, length {length}"
    assert run(["check", out_path, cnf, "--goal", goal]) == 0
    assert capsys.readouterr().out.startswith("WITNESSED (supplied flows verified)\n")
    # The same construction as translate s2c of the one-term identity proof.
    sap = tmp_path / "h.sap"
    sap.write_text(f"p sap {text.split()[2]} 1\nh {goal}\ng {goal}\nt 1 ; H 1\n")
    assert run(["translate", "s2c", sap]) == 0
    body = out_path.read_text().split("\n", 1)[1]
    assert sap.with_suffix(".cres").read_text().split("\n", 1)[1] == body


def test_gen_random_emits_checkable_proof(tmp_path):
    out_path = tmp_path / "r.cres"
    assert run(["gen-random", "--seed", 5, "--vars", 4, "--budget", 9, "-o", out_path]) == 0
    graph, flow = parse_cres(out_path.read_text())
    assert flow is not None
    # hypotheses live in the file marks; check against them via a CNF
    hyps = sorted(graph.hypotheses, key=lambda c: tuple(sorted(c.signed())))
    lines = [f"p cnf 4 {len(hyps)}"] + [
        " ".join([*map(str, h.literals), "0"]) for h in hyps
    ]
    cnf = tmp_path / "r.cnf"
    cnf.write_text("\n".join(lines) + "\n")
    assert run(["check", out_path, cnf]) == 0


@pytest.mark.parametrize("flags", [
    ["--seed", "31", "--vars", "3", "--budget", "8"],
    ["--vars", "1", "--max-width", "2", "--budget", "30"],
], ids=["seed31", "one-var"])
def test_gen_random_unreachable_budget_exits(tmp_path, flags):
    # In a subprocess with a timeout, so that a generator loop that never ends
    # fails this test instead of hanging the suite.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "circres.cli", "gen-random", *flags],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: budget ")
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_dot_output(tmp_path, php_files):
    cnf, proof = php_files
    dot = tmp_path / "php.dot"
    assert run(["check", proof, cnf, "--dot", dot]) == 0
    text = dot.read_text()
    assert text.startswith("digraph proof {") and text.rstrip().endswith("}")


@pytest.mark.parametrize("flows", ["--emit-flows", "--no-emit-flows"])
def test_gen_php_dot_output(tmp_path, flows):
    # The DOT file shows the generator's flows whether or not the proof file
    # carries them.
    cnf, proof, dot = tmp_path / "php.cnf", tmp_path / "php.cres", tmp_path / "php.dot"
    assert run(["gen-php", "--complete", 2, "--cnf-out", cnf, "--proof-out", proof,
                flows, "--dot", dot]) == 0
    graph, flow = parse_cres(proof.read_text())
    assert (flow is not None) == (flows == "--emit-flows")
    text = dot.read_text()
    assert f'f{graph.goal_id} [shape=box, label="_|_  [goal]"];' in text
    assert text.count("\\nflow=") == len(graph.inference_vertices)


def test_search_dot_output(tmp_path):
    cnf, proof, dot = tmp_path / "unit.cnf", tmp_path / "unit.cres", tmp_path / "unit.dot"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run(["search", cnf, "--width", 1, "-o", proof, "--dot", dot]) == 0
    graph, _ = parse_cres(proof.read_text())
    text = dot.read_text()
    assert text.startswith("digraph proof {")
    assert f'f{graph.goal_id} [shape=box, label="_|_  [goal]"];' in text


@pytest.mark.parametrize("argv, target", [
    (["gen-php", "--complete", 2, "--cnf-out", "missing/x.cnf"], "missing/x.cnf"),
    (["translate", "c2s", "php.cres", "-o", "missing/o.sap"], "missing/o.sap"),
    (["check", "php.cres", "php.cnf", "--dot", "missing/d.dot"], "missing/d.dot"),
    (["gen-php", "--complete", 2, "--proof-out", "."], "."),
], ids=["gen-php-cnf-out", "translate-out", "check-dot", "gen-php-proof-out-directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, target):
    monkeypatch.chdir(tmp_path)
    assert run(["gen-php", "--complete", 2, "--cnf-out", "php.cnf", "--proof-out", "php.cres"]) == 0
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen-php", "--complete", 2, "--proof-out", "."],
    ["gen-php", "--complete", 2, "--cnf-out", "."],
    ["gen-php", "--complete", 2, "--proof-out", "missing/p.cres"],
], ids=["proof-out-directory", "cnf-out-directory", "proof-out-missing-directory"])
def test_gen_php_leaves_no_file_when_a_write_fails(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert list(tmp_path.iterdir()) == []


# Digests of the files the CLI emits for fixed inputs, recorded before clauses
# became signed-int tuples; a representation change must not move one byte.
EMITTED_SHA256 = {
    "php_4_3.cnf":
        "1b16e884e0d5ff61c5042f76027ea92391efc1ba6493adfa9db6a46532d75cd7",
    "php_4_3.cres":
        "8757aa3c2dfdb53028dfe00d5abdc3e09b92bea4c569dec9f40e98d0cee9acf4",
    "php_4_3.sap":
        "ba9dfb89c1bfdf98a0cebafe0d9efab654a869ab3b40195927ebbda74455391b",
    "php_4_3_back.cres":
        "619e180483c4fc36edf1f59ea6d0a4b9b455ee3cfc75db2ddcc7c0ef676aea22",
    "nc3.cnf":
        "89223e81b0d4060b1fd6b530d5f8af91aa818dd7925aa89d36dae36b69727d54",
    # gen-php --graph on near_cubic_bipartite(5, 1), which has three
    # degree-2 pigeons; recorded before the refutation pieces were rewritten.
    "nc5.cnf":
        "8b71ca9131b19b466e7aa9fb52e95afe48f88e383b7e27ef28afba15b05ee13d",
    "nc5.cres":
        "d4c48d0613d7f9b611fedd4b9b1c927409d41a091b4b0a799c94bcd27b90140c",
    # search --width 3 on near_cubic_bipartite(3, 0), (3, 1) and (3, 2), and a
    # search for a nonempty goal; recorded when the search began answering
    # from the acyclic closure, whose derivations these are.
    "nc3.cres":
        "cabd83b46d08c5e61a699e9e6d4432d359963d9ed33b94f2e4070ff969537e63",
    "nc3_1.cres":
        "5c952eb09ae1255e26e4521d64c336e0ea4cfad8c14ca69f75185f15d678d40d",
    "nc3_2.cres":
        "6154cc575aa14a24677627bd91438439c0174ca8c733714b2bb519459eda8e71",
    "chain.cres":
        "08c27d21c37ab960cbac5cb7c970857a1686805e6c898f7288ae1505cdb3e479",
    # search --width 3 on near_cubic_bipartite(4, 0), (4, 1), (4, 2) and (5, 0),
    # which the acyclic closure leaves to the LP: the derivations realize an
    # LP point.  Recorded before the realization settled its residuals as
    # fractions in place of numerators over a common denominator.
    "nc4_0.cres":
        "3a781749b7bda0478c1947d4d78781c2bed0197858cc5d3e865270e9c7d2043c",
    "nc4_1.cres":
        "35ec3da9034fed12fda479afc0e622e7ec475b4912ead5b590a4e5f76b9a0f5f",
    "nc4_2.cres":
        "4995361647575ee8199502e7288030f81c6d4358d56bb65b60a40a5c85302faa",
    "nc5_0.cres":
        "9ae2463d31df11c49f1097c5124bb9749e56d413be8fa9a5d0f6c9e7b90275e1",
    # translate s2c on SHAPES_SAP; recorded before sa_to_circular read each
    # term's rule from its original kind.
    "shapes.cres":
        "72c4e5abd58faf32efd6b3061265ab884adeff6e66174b4393e1bbd4ed1ba529",
    # gen-random --seed 2 (axioms, splits, cuts found by lookup and a pump
    # cycle) and --seed 0 --vars 2 --budget 2 (the identity-proof fallback);
    # recorded before the proof builder was keyed by clause mask.
    "random_2.cres":
        "d0b74798c42ed5d4f94c2f893d258ab1ac4591881f062440b227f0634e2db14a",
    "random_0.cres":
        "0aa2967578812174e863bacca840eb240bc8d07e6e6ab739f7b3aaa08ab29b54",
    # translate c2s on random_2.cres, read with its w lines, and on a flowless
    # random_circular_proof(4, 5, 7), whose unit flow is no witness, so its
    # flow program is solved; recorded before circular_to_sa read its weights
    # from the dual certificate.  Both carry a coefficient other than 1.
    "random_2.sap":
        "dcf5e0a8d1e1a1515703f42547601a2460a04ecd3162c673ff19c8f0f4c5b4f3",
    "witness_4.sap":
        "56812e9fb7b85848a83971cd1fee2dbda335e7ef74dfd796b7281c7cafa6bdb4",
    # translate c2s on witness_4's witness with every flow times 3/2, so the
    # flows are fractional and the goal balance is 3/2: every multiplier is
    # divided by a goal balance other than 1.  Recorded before the LP made a
    # Fraction only for a nonzero entry.
    "witness_4_scaled.sap":
        "dd87c9eb58ce24e5e8a72dc10f8c0191add1e58bad0ef92134bb2687727e1f9b",
}

# One term of each shape translate s2c reads: hypotheses weakened or not,
# ``1mxx`` and ``xxm1`` with and without their twin in the monomial, ``B
# one``, and the dropped ``xxsq`` and ``xsqx``, some under exponents.  The
# proof has degree 4 and comes back at width 3.
SHAPES_SAP = """p sap 2 2
h 1 0
h -1 0
g 0
t 1 ; H 1
t 1 ; H 2
t 1 ; B xxm1 1
t 1 2 ; H 1
t 1 2 -1 ; B one
t 1/2 1 2 ; B xxm1 1
t 1/2 2 ; B xxsq 1
t 1/2 1 2 ; B 1mxx 1
t 1/2 2 ; B xsqx 1
t 1 -2 ; B 1mxx 1
t 1 -2 ; B xxm1 1
t 3 -2^2 ; B xxsq 2
t 3 -2^2 ; B xsqx 2
"""


def test_s2c_states_the_width_bound_it_meets(tmp_path, capsys):
    sap = tmp_path / "shapes.sap"
    sap.write_text(SHAPES_SAP)
    assert run(["translate", "s2c", sap]) == 0
    assert "width 3 <= degree 4: True" in capsys.readouterr().out


def test_emitted_files_are_byte_stable(tmp_path, monkeypatch, capsys):
    import hashlib

    from circres.generators import near_cubic_bipartite

    monkeypatch.chdir(tmp_path)
    assert run(["gen-php", "--complete", 3]) == 0
    assert run(["translate", "c2s", "php_4_3.cres"]) == 0
    assert run(["translate", "s2c", "php_4_3.sap", "-o", "php_4_3_back.cres"]) == 0
    (tmp_path / "nc3.cnf").write_text(serialize_dimacs(gen_php(near_cubic_bipartite(3, 0))))
    assert run(["search", "nc3.cnf", "--width", 3]) == 0
    for seed in (1, 2):
        cnf = tmp_path / f"nc3_{seed}.cnf"
        cnf.write_text(serialize_dimacs(gen_php(near_cubic_bipartite(3, seed))))
        assert run(["search", cnf.name, "--width", 3]) == 0
    (tmp_path / "chain.cnf").write_text("p cnf 4 4\n1 2 0\n-2 3 0\n-3 4 0\n-1 4 0\n")
    assert run(["search", "chain.cnf", "--width", 3, "--goal", "4 0"]) == 0
    capsys.readouterr()
    for n, seed in ((4, 0), (4, 1), (4, 2), (5, 0)):
        cnf = tmp_path / f"nc{n}_{seed}.cnf"
        cnf.write_text(serialize_dimacs(gen_php(near_cubic_bipartite(n, seed))))
        assert run(["search", cnf.name, "--width", 3]) == 0
        assert "acyclic closure: no proof" in capsys.readouterr().out
    for name in ("nc3", "nc3_1", "nc3_2", "chain", "nc4_0", "nc4_1", "nc4_2", "nc5_0"):
        assert run(["check", f"{name}.cres", f"{name}.cnf"]) == 0
    g = near_cubic_bipartite(5, 1)
    (tmp_path / "nc5.txt").write_text(
        f"{g.left_size} {g.right_size}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    assert run(["gen-php", "--graph", "nc5.txt"]) == 0
    (tmp_path / "shapes.sap").write_text(SHAPES_SAP)
    assert run(["translate", "s2c", "shapes.sap"]) == 0
    assert run(["gen-random", "--seed", 2]) == 0
    assert run(["gen-random", "--seed", 0, "--vars", 2, "--budget", 2]) == 0
    assert run(["translate", "c2s", "random_2.cres"]) == 0
    (tmp_path / "witness_4.cres").write_text(serialize_cres(random_circular_proof(4, 5, 7)[0]))
    assert run(["translate", "c2s", "witness_4.cres"]) == 0
    graph, flow = find_witness(random_circular_proof(4, 5, 7)[0])
    scaled = {iid: w * Fraction(3, 2) for iid, w in flow.items()}
    bal, den = balance_numerators(graph, scaled)
    assert Fraction(bal[graph.goal_id], den) == Fraction(3, 2)
    assert any(w.denominator > 1 for w in scaled.values())
    (tmp_path / "witness_4_scaled.cres").write_text(serialize_cres(graph, scaled))
    assert run(["translate", "c2s", "witness_4_scaled.cres"]) == 0
    # The same polynomial proof as the unscaled witness's, under its own comment.
    assert ((tmp_path / "witness_4_scaled.sap").read_text().split("\n", 1)[1]
            == (tmp_path / "witness_4.sap").read_text().split("\n", 1)[1])
    for name in ("random_2.sap", "witness_4.sap"):
        proof = parse_sap((tmp_path / name).read_text())
        assert any(term.coefficient != 1 for term in proof.terms)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in EMITTED_SHA256}
    assert digests == EMITTED_SHA256


# A monomial mask holds two bits per variable up to its largest index, so
# translating proofs over one variable of index 10^6 handles 2,000,000-bit
# masks.  The expected files were written before monomials became masks.
BIG = 10 ** 6
BIG_FILES = {
    "big.sap": f"""c translated from big.cres
p sap {BIG} 2
h -{BIG} 0
h {BIG} 0
g 0
t 1 ; B xxm1 {BIG}
t 1 ; H 2
t 1 ; H 1
""",
    "big_back.cres": f"""c translated from big.sap
p cres 3 1
f 0 0
f 1 {BIG} 0
f 2 -{BIG} 0
i 0 cut {BIG} 1 2 0
h 1
h 2
g 0
w 0 1
""",
    "weak.cres": f"""c translated from weak.sap
p cres 2 1
f 0 1 -{BIG} 0
f 1 1 0
i 0 split {BIG} 1 0
h 1
g 0
w 0 1
""",
}


def test_translate_at_a_large_variable_index(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.cres").write_text(
        f"p cres 3 1\nf 0 {BIG} 0\nf 1 -{BIG} 0\nf 2 0\ni 0 cut {BIG} 0 1 2\n"
        "h 0\nh 1\ng 2\nw 0 1\n")
    # (x1 | ~x_BIG) as the weakening X_BIG * enc(x1).
    (tmp_path / "weak.sap").write_text(f"p sap {BIG} 1\nh 1 0\ng 1 -{BIG} 0\nt 1 {BIG} ; H 1\n")
    assert run(["translate", "c2s", "big.cres"]) == 0
    assert run(["translate", "s2c", "big.sap", "-o", "big_back.cres"]) == 0
    assert run(["translate", "s2c", "weak.sap"]) == 0
    assert {name: (tmp_path / name).read_text() for name in BIG_FILES} == BIG_FILES


def test_emitted_files_do_not_depend_on_their_directory(tmp_path):
    emitted = []
    for where in (tmp_path / "a", tmp_path / "deeper" / "b"):
        where.mkdir(parents=True)
        cnf, proof = where / "php.cnf", where / "php.cres"
        assert run(["gen-php", "--complete", 2, "--cnf-out", cnf, "--proof-out", proof]) == 0
        assert run(["translate", "c2s", proof]) == 0
        assert run(["translate", "s2c", where / "php.sap", "-o", where / "back.cres"]) == 0
        assert run(["search", cnf, "--width", 3, "-o", where / "found.cres"]) == 0
        emitted.append({p.name: p.read_bytes() for p in where.iterdir()})
    assert sorted(emitted[0]) == ["back.cres", "found.cres", "php.cnf", "php.cres", "php.sap"]
    assert emitted[0] == emitted[1]


def _relabelled(text, fmap, imap):
    """``text``, a ``.cres`` with no comment, with its formula ids renamed by
    ``fmap`` and its inference ids by ``imap``."""
    out = []
    for line in text.splitlines():
        t = line.split()
        if t[0] in ("f", "h", "g"):
            t[1] = str(fmap[int(t[1])])
        elif t[0] in ("i", "w"):
            t[1] = str(imap[int(t[1])])
            if t[0] == "i":
                t[4:] = [str(fmap[int(u)]) for u in t[4:]]
        out.append(" ".join(t))
    return "\n".join(out) + "\n"


def _sparse(ids, rng):
    """An order-preserving map of ``ids`` onto sparse ids."""
    return dict(zip(sorted(ids), sorted(rng.sample(range(10**6), len(ids)))))


@pytest.mark.parametrize("seed", [None, 0, 5, 6], ids=["php", "random0", "random5", "random6"])
def test_sparse_shuffled_ids_read_check_and_translate(tmp_path, capsys, seed):
    # Ids need not be 0..n-1 nor in file order: the reader keeps file order,
    # the writer sorts by id, and check and c2s certify the same proof.
    if seed is None:
        g = complete_bipartite(4, 3)
        (graph, flow), cnf = php_refutation(g), gen_php(g)
    else:
        graph, flow = random_circular_proof(seed, 5, 12)
        cnf = CnfFormula.of(5, sorted(graph.hypotheses))
    rng = random.Random(1)
    fmap = _sparse(graph.formula_vertices, rng)
    imap = _sparse(graph.inference_vertices, rng)
    canonical = _relabelled(serialize_cres(graph, flow), fmap, imap)
    header, *body = canonical.splitlines()
    vertex_lines = [line for line in body if line[0] in "fi"]
    rng.shuffle(vertex_lines)
    marks = [line for line in body if line[0] in "hg"]
    flows = [line for line in body if line[0] == "w"]
    shuffled = "\n".join([header, *vertex_lines, *marks, *flows]) + "\n"
    assert shuffled != canonical

    read, read_flow = parse_cres(shuffled)
    assert serialize_cres(read, read_flow) == canonical
    ids = [int(line.split()[1]) for line in vertex_lines]
    assert list(read.formula_vertices) == [u for u, line in zip(ids, vertex_lines)
                                           if line[0] == "f"]
    assert list(read.inference_vertices) == [u for u, line in zip(ids, vertex_lines)
                                             if line[0] == "i"]

    proof, cnf_path, sap = tmp_path / "shuffled.cres", tmp_path / "h.cnf", tmp_path / "s.sap"
    proof.write_text("\n".join([header, *vertex_lines, *marks]) + "\n")
    cnf_path.write_text(serialize_dimacs(cnf))
    assert run(["check", proof, cnf_path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "WITNESSED"
    assert run(["translate", "c2s", proof, "-o", sap]) == 0
    assert sa.check_sa(parse_sap(sap.read_text()))
