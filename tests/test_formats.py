from fractions import Fraction

import pytest

from circres.core import Clause, CnfFormula
from circres.flowcheck import FlowAssignment
from circres.formats import (
    ParseError,
    parse_cres,
    parse_dimacs,
    parse_sap,
    serialize_cres,
    serialize_dimacs,
    serialize_sap,
)
from circres.generators import (
    complete_bipartite,
    gen_php,
    php_refutation,
    random_circular_proof,
    unsound_cycle_example,
)
from circres.sheraliadams import circular_to_sa


def clause(*ints):
    return Clause.from_ints(*ints)


def test_dimacs_round_trip():
    cnf = gen_php(complete_bipartite(3, 2))
    text = serialize_dimacs(cnf, comments=["generated"])
    assert parse_dimacs(text) == cnf


def test_dimacs_header_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p cnf 2 3\n1 0\n")
    assert "line 1" in str(err.value)


def test_dimacs_missing_header():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")


def test_dimacs_empty_clause_round_trip():
    cnf = CnfFormula.of(2, [Clause(()), clause(1, -2)])
    assert parse_dimacs(serialize_dimacs(cnf)) == cnf


def test_cres_round_trip_with_flows():
    for seed in range(10):
        graph, flow = random_circular_proof(seed, 5, 8)
        text = serialize_cres(graph, flow, comments=[f"seed {seed}"])
        graph2, flow2 = parse_cres(text)
        assert graph2 == graph
        assert flow2 == flow
        assert serialize_cres(graph2, flow2, comments=[f"seed {seed}"]) == text


def test_cres_round_trip_without_flows():
    graph = unsound_cycle_example()
    text = serialize_cres(graph)
    graph2, flow2 = parse_cres(text)
    assert graph2 == graph and flow2 is None


def test_cres_fraction_flows():
    graph, flow = random_circular_proof(3, 4, 6)
    doubled = FlowAssignment({k: v / 3 for k, v in flow.flows.items()})
    text = serialize_cres(graph, doubled)
    _, flow2 = parse_cres(text)
    assert flow2 == doubled


def test_cres_zero_denominator_flow():
    graph, flow = random_circular_proof(1, 3, 3)
    text = serialize_cres(graph, flow)
    bad = text.replace(f"w 0 {flow[0]}", "w 0 3/0")
    with pytest.raises(ParseError) as err:
        parse_cres(bad)
    assert "denominator" in str(err.value)


def test_cres_header_mismatch():
    graph, _ = random_circular_proof(1, 3, 3)
    text = serialize_cres(graph)
    lines = text.splitlines()
    lines[0] = "p cres 99 1"
    with pytest.raises(ParseError):
        parse_cres("\n".join(lines))


def test_cres_malformed_rule_line():
    with pytest.raises(ParseError):
        parse_cres("p cres 1 1\nf 0 1 0\ni 0 frobnicate 1 0\ng 0\n")


def test_cres_missing_goal():
    with pytest.raises(ParseError):
        parse_cres("p cres 1 0\nf 0 1 0\n")


def test_sap_round_trip():
    graph, flow = php_refutation(complete_bipartite(3, 2))
    proof = circular_to_sa(graph, flow)
    text = serialize_sap(proof, comments=["translated"])
    proof2 = parse_sap(text)
    assert proof2 == proof
    assert serialize_sap(proof2, comments=["translated"]) == text


def test_sap_header_and_term_errors():
    with pytest.raises(ParseError):
        parse_sap("p sap 1 0\ng 0\nt 1 ; Q 1\n")
    with pytest.raises(ParseError):
        parse_sap("p sap 1 0\ng 0\nt 0 ; B one\n")  # nonpositive coefficient
    with pytest.raises(ParseError):
        parse_sap("p sap 1 1\ng 0\n")  # hypothesis count mismatch
    with pytest.raises(ParseError):
        parse_sap("p sap 1 0\nt 1 ; B one\n")  # no goal


def test_sap_monomial_exponents():
    text = "p sap 2 1\nh 1 0\ng 1 0\nt 1/2 1^2 -2 ; H 1\n"
    proof = parse_sap(text)
    term = proof.terms[0]
    assert term.coefficient == Fraction(1, 2)
    assert dict(term.monomial.factors) == {1: 2, -2: 1}
    assert parse_sap(serialize_sap(proof)) == proof


@pytest.mark.parametrize("parse, text, line", [
    (parse_dimacs, "c header below\np cnf x 1\n1 0\n", 2),
    (parse_sap, "p sap x 0\ng 0\n", 1),
    (parse_sap, "p sap 1 0\ng 0\nt 1 ; B 1mxx 0\n", 3),
    (parse_dimacs, "p cnf -1 0\n", 1),
    (parse_sap, "p sap -2 0\ng 0\n", 1),
], ids=["dimacs-header", "sap-header", "sap-basic-index", "dimacs-negative", "sap-negative"])
def test_bad_number_names_its_line(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == line
    assert str(err.value).startswith(f"line {line}: ")
