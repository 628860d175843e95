import pytest

from circres import cli
from circres.cli import main
from circres.core import Clause
from circres.formats import parse_cres, parse_dimacs, parse_sap, serialize_cres, serialize_dimacs
from circres.generators import complete_bipartite, gen_php, unsound_cycle_example


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
    assert "NOT-WITNESSED" in capsys.readouterr().out


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


def test_gen_php_usage_errors(tmp_path):
    assert run(["gen-php", "--complete", 0]) == 2
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("2 2\n1 1\n1 2\n2 1\n2 2\n")
    assert run(["gen-php", "--graph", graph_file]) == 2  # needs more pigeons


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
    assert parsed.goal == Clause(())

    back = tmp_path / "back.cres"
    assert run(["translate", "s2c", sap, "-o", back]) == 0
    out = capsys.readouterr().out
    assert "width 3 == degree 3: True" in out
    assert run(["check", back, cnf]) == 0


def test_translate_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.sap"
    bad.write_text("p sap 1 1\nh 1 0\ng -1 0\nt 1 ; H 1\n")
    assert run(["translate", "s2c", bad]) == 2


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
    assert "lattice" in text and "wrote" in text
    assert run(["check", out_path, cnf]) == 0


def test_search_negative_result(tmp_path):
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    assert run(["search", cnf, "--width", 2]) == 1


def test_search_width_zero(tmp_path, capsys):
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("p cnf 1 1\n0\n")
    assert run(["search", cnf, "--width", 0]) == 1
    assert "no width-0 circular proof exists" in capsys.readouterr().out


def test_search_width_usage_error(tmp_path):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    assert run(["search", cnf, "--width", 2]) == 2


def test_search_guard(tmp_path):
    cnf = tmp_path / "unit.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run(["search", cnf, "--width", 1, "--guard-rows", 1]) == 3


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("search solution fails its own flow check")

    monkeypatch.setattr(cli.search_mod, "circular_search", broken)
    cnf = tmp_path / "unit.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run(["search", cnf, "--width", 1]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: AssertionError: search solution fails its own flow check\n"


def test_search_goal_clause(tmp_path):
    cnf = tmp_path / "w.cnf"
    cnf.write_text("p cnf 2 2\n2 1 0\n2 -1 0\n")
    out_path = tmp_path / "w.cres"
    assert run(["search", cnf, "--width", 2, "--goal", "2 0", "-o", out_path]) == 0
    graph, flow = parse_cres(out_path.read_text())
    assert graph.goal_clause() == Clause.from_ints(2)


def test_gen_random_emits_checkable_proof(tmp_path):
    out_path = tmp_path / "r.cres"
    assert run(["gen-random", "--seed", 5, "--vars", 4, "--budget", 9, "-o", out_path]) == 0
    graph, flow = parse_cres(out_path.read_text())
    assert flow is not None
    # hypotheses live in the file marks; check against them via a CNF
    hyps = sorted(graph.hypothesis_clauses(), key=lambda c: tuple(sorted(c.signed())))
    lines = [f"p cnf 4 {len(hyps)}"] + [
        " ".join([*(str(l.to_int()) for l in h.literals), "0"]) for h in hyps
    ]
    cnf = tmp_path / "r.cnf"
    cnf.write_text("\n".join(lines) + "\n")
    assert run(["check", out_path, cnf]) == 0


def test_dot_output(tmp_path, php_files):
    cnf, proof = php_files
    dot = tmp_path / "php.dot"
    assert run(["check", proof, cnf, "--dot", dot]) == 0
    text = dot.read_text()
    assert text.startswith("digraph proof {") and text.rstrip().endswith("}")
