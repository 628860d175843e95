from fractions import Fraction

import pytest

from circres.core import Clause, CnfFormula
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
from circres.sheraliadams import (
    ONE,
    ONE_MINUS_X_XBAR,
    X_MINUS_XSQ,
    X_XBAR_MINUS_ONE,
    XSQ_MINUS_X,
    RefPoly,
    circular_to_sa,
)


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
    cnf = CnfFormula.of(2, [Clause(), clause(1, -2)])
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
    doubled = {k: v / 3 for k, v in flow.items()}
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


@pytest.mark.parametrize("extra, message", [
    ("w 99 1", "flow line names no inference vertex 99"),
    ("w 0 5", "duplicate flow line for inference vertex 0"),
])
def test_cres_bad_flow_line_names_its_line(extra, message):
    graph, flow = random_circular_proof(1, 3, 3)
    text = serialize_cres(graph, flow) + extra + "\n"
    with pytest.raises(ParseError) as err:
        parse_cres(text)
    assert err.value.line_no == len(text.splitlines())
    assert message in str(err.value)


@pytest.mark.parametrize("text, line_no, message", [
    ("p cres 1 1\nf 0 0\ni 0 ax 1 7\nh 9\ng 0\n", 3,
     "inference 0 references unknown formula id 7"),
    ("p cres 1 0\nf 0 0\nh 9\ng 0\n", 3,
     "hypothesis mark references unknown formula id 9"),
    ("p cres 1 0\nf 0 0\nc two marks\nh 0\nh 9\nh 9\ng 0\n", 5,
     "hypothesis mark references unknown formula id 9"),
    ("p cres 2 0\nf 0 0\nf 0 1 0\ng 0\n", 3, "duplicate formula-vertex id"),
    ("p cres 2 2\nf 0 0\nf 1 1 -1 0\ni 0 ax 1 1\ni 0 ax 1 1\ng 0\n", 5,
     "duplicate inference-vertex id"),
    # The repeated line is reported before the header's count of the file.
    ("p cres 1 0\nf 0 0\nf 0 0\ng 0\n", 3, "duplicate formula-vertex id"),
], ids=["inference-ref", "hypothesis-mark", "repeated-hypothesis-mark", "formula-id",
        "inference-id", "formula-id-before-header-count"])
def test_cres_structure_error_names_its_line(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_cres(text)
    assert str(err.value) == f"line {line_no}: {message}"


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
    with pytest.raises(ParseError, match=r"^line 1: missing goal mark$"):
        parse_cres("p cres 1 0\nf 0 1 0\n")


@pytest.mark.parametrize("parse, text", [
    (parse_cres, "p cres 1 0\nf 0 0\np cres 1 0\ng 0\n"),
    (parse_sap, "p sap 1 0\ng 0\np sap 1 0\n"),
    (parse_dimacs, "p cnf 1 1\n1 0\np cnf 1 1\n"),
], ids=["cres", "sap", "dimacs"])
def test_repeated_header_names_its_line(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == 3
    assert "duplicate header" in str(err.value)


@pytest.mark.parametrize("parse, text, message", [
    (parse_cres, "c proof\nf 0 0\np cres 1 0\ng 0\n", "line 2: missing 'p cres' header"),
    (parse_sap, "g 0\np sap 0 0\n", "line 1: missing 'p sap' header"),
    (parse_dimacs, "c x\n\n1 0\np cnf 1 1\n", "line 3: missing 'p cnf' header"),
], ids=["cres", "sap", "dimacs"])
def test_body_line_before_header_names_its_line(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("parse, kind", [
    (parse_dimacs, "cnf"), (parse_cres, "cres"), (parse_sap, "sap"),
])
def test_negative_header_count_reads_alike(parse, kind):
    with pytest.raises(ParseError, match=r"^line 2: header counts must be nonnegative$"):
        parse(f"c note\np {kind} 0 -1\n")


def test_sap_hypothesis_reference_names_its_line():
    text = "p sap 1 1\nh 1 0\ng 1 0\nt 1 ; H 7\n"
    with pytest.raises(ParseError) as err:
        parse_sap(text)
    assert err.value.line_no == 4
    assert "hypothesis index 7 out of range" in str(err.value)
    # An 'h' line may follow the term that references it.
    assert parse_sap("p sap 1 1\ng 1 0\nt 1 ; H 1\nh 1 0\n").hypotheses == (clause(1),)


@pytest.mark.parametrize("text, line_no, var", [
    ("p sap 1 1\nh 5 0\ng 5 0\nt 1 ; H 1\n", 2, 5),
    ("p sap 1 1\nh 1 0\ng -3 0\nt 1 ; H 1\n", 3, 3),
    ("p sap 1 1\nh 1 0\ng 1 0\nt 1 ; H 1\nt 1 -2 ; B one\n", 5, 2),
    ("p sap 1 1\nh 1 0\ng 1 0\nt 1 ; H 1\nt 1 1 ; B xxsq 4\n", 5, 4),
    # A monomial's mask holds two bits per variable up to the largest, so
    # the range check must come before any mask is built.
    (f"p sap 1 0\ng 0\nt 1 {10 ** 12} ; B one\n", 3, 10 ** 12),
    (f"p sap 1 0\ng 0\nt 1 -{10 ** 12}^2 ; B 1mxx 1\n", 3, 10 ** 12),
    # The header comes first, so a line's variables are checked on that line.
    ("p sap 1 1\nh 5 0\n", 2, 5),
], ids=["hypothesis", "goal", "monomial", "basic-reference", "huge-monomial", "huge-power",
        "no-goal-line"])
def test_sap_variable_beyond_header_names_its_line(text, line_no, var):
    with pytest.raises(ParseError) as err:
        parse_sap(text)
    assert err.value.line_no == line_no
    assert f"variable x{var} exceeds declared variable count 1" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("p cnf 1 3\n1 0\n-6 5 0\n7 0\n", "line 3: literal x5 exceeds declared variable count 1"),
    ("c x\np cnf 1 2\n-1 0\n1 -4 0\n", "line 4: literal ~x4 exceeds declared variable count 1"),
], ids=["first-of-two", "negative"])
def test_dimacs_literal_beyond_header_names_its_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert str(err.value) == message


def test_sap_round_trip():
    graph, flow = php_refutation(complete_bipartite(3, 2))
    proof = circular_to_sa(graph, flow)
    text = serialize_sap(proof, comments=["translated"])
    proof2 = parse_sap(text)
    assert proof2 == proof
    assert serialize_sap(proof2, comments=["translated"]) == text


@pytest.mark.parametrize("ref, expected", [
    ("B xxsq 2", RefPoly(X_MINUS_XSQ, 2)),
    ("B xsqx 2", RefPoly(XSQ_MINUS_X, 2)),
    ("B 1mxx 2", RefPoly(ONE_MINUS_X_XBAR, 2)),
    ("B xxm1 2", RefPoly(X_XBAR_MINUS_ONE, 2)),
    ("B one", RefPoly(ONE)),
])
def test_sap_basic_references_round_trip(ref, expected):
    text = f"p sap 2 0\ng 0\nt 1 ; {ref}\n"
    proof = parse_sap(text)
    assert proof.terms[0].ref == expected
    assert serialize_sap(proof) == text


def test_sap_minus_x_xbar_has_no_file_form():
    with pytest.raises(ParseError) as err:
        parse_sap("p sap 2 0\ng 0\nt 1 ; B minus_x_xbar 1\n")
    assert str(err.value).startswith("line 3: unknown basic reference ")


def test_sap_basic_index_error_names_the_file_token():
    with pytest.raises(ParseError, match=r"^line 3: 1mxx needs a positive index$"):
        parse_sap("p sap 1 0\ng 0\nt 1 ; B 1mxx 0\n")


def test_sap_header_and_term_errors():
    with pytest.raises(ParseError, match=r"^line 3: unknown reference tag 'Q'$"):
        parse_sap("p sap 1 0\ng 0\nt 1 ; Q 1\n")
    with pytest.raises(ParseError, match=r"^line 3: term coefficient must be positive, got 0$"):
        parse_sap("p sap 1 0\ng 0\nt 0 ; B one\n")
    with pytest.raises(ParseError,
                       match=r"^line 1: header declares 1 hypotheses but file has 0$"):
        parse_sap("p sap 1 1\ng 0\n")
    with pytest.raises(ParseError, match=r"^line 1: missing goal line$"):
        parse_sap("p sap 1 0\nt 1 ; B one\n")


@pytest.mark.parametrize("parse, text, message", [
    (parse_dimacs, "p cnf 1\n", "line 1: header must be 'p cnf <vars> <clauses>'"),
    (parse_dimacs, "p cnf x 1\n", "line 1: expected integer, got 'x'"),
    (parse_dimacs, "p cnf 1 1\n1\n", "line 2: clause line must end with 0"),
    (parse_dimacs, "p cnf 1 1\n0 1 0\n", "line 2: literal 0 may only terminate the clause"),
    (parse_dimacs, "p cnf 1 1\nx 0\n", "line 2: clause literals must be integers"),
    (parse_dimacs, "p cnf 1 2\n1 0\n", "line 1: header declares 2 clauses but file has 1"),
    (parse_cres, "p cres 2 0\nf 0 0\ng 0\n",
     "line 1: header declares 2 formula and 0 inference vertices but file has 1 and 0"),
    (parse_cres, "p cres 1 0\nf\ng 0\n",
     "line 2: clause label line must be 'f <id> <lit> ... 0'"),
    (parse_cres, "p cres 1 1\nf 0 0\ni 0 ax\ng 0\n", "line 3: truncated inference line"),
    (parse_cres, "p cres 1 1\nf 0 0\ni 0 split 1 0\ng 0\n",
     "line 3: split takes one antecedent id and one or two consequent ids"),
    (parse_cres, "p cres 1 1\nf 0 0\ni 0 cut 1 0 x 0\ng 0\n",
     "line 3: expected integer, got 'x'"),
    (parse_cres, "p cres 1 1\nf 0 0\ni 0 split 1 0 0 1.5 y\ng 0\n",
     "line 3: expected integer, got '1.5'"),
    (parse_cres, "p cres 1 1\nf 0 0\ni 0 ax 1 ++1\ng 0\n",
     "line 3: expected integer, got '++1'"),
    (parse_cres, "p cres 1 0\nf 0 0\nh 0 0\ng 0\n", "line 3: hypothesis mark must be 'h <fid>'"),
    (parse_cres, "p cres 1 0\nf 0 0\ng\n", "line 3: goal mark must be 'g <fid>'"),
    (parse_cres, "p cres 1 0\nf 0 0\ng 0\ng 0\n", "line 4: duplicate goal mark"),
    (parse_cres, "p cres 1 0\nf 0 0\ng 5\n", "line 3: goal mark names no formula vertex 5"),
    (parse_cres, "p cres 1 0\nf 0 0\nx 1\ng 0\n", "line 3: unknown line tag 'x'"),
    (parse_cres, "p cres 1 0\nf 0 0\ng 0\nw 0\n", "line 4: flow line must be 'w <iid> <flow>'"),
    (parse_cres, "p cres 1 0\nf 0 0\ng 0\nw 0 a\n", "line 4: bad rational 'a'"),
    (parse_cres, "p cres 1 0\nf 0 0\ng 0\nw 0 1/0\n", "line 4: zero denominator in '1/0'"),
    (parse_cres, "p cres 2 2\nf 0 0\nf 1 1 -1 0\ni 0 ax 1 1\ni 1 split 1 0 1\ng 0\nw 0 1\n",
     "line 1: flow lines missing inference ids [1]"),
    (parse_sap, "p sap 1 0\ng 1 0\ng 1 0\n", "line 3: duplicate goal line"),
    (parse_sap, "p sap 1 0\ng 0\nx\n", "line 3: unknown line tag 'x'"),
    (parse_sap, "p sap 1 0\ng 0\nt 1 1 B one\n",
     "line 3: term line needs a ';' before its reference"),
    (parse_sap, "p sap 1 0\ng 0\nt 1 1 ;\n", "line 3: missing reference polynomial"),
    (parse_sap, "p sap 1 0\ng 0\nt 1 ; B xxsq\n", "line 3: 'B xxsq' needs an index"),
], ids=["dimacs-header-form", "dimacs-count", "dimacs-no-0", "dimacs-inner-0",
        "dimacs-literal", "dimacs-clause-count", "cres-vertex-count", "cres-f-alone", "cres-truncated",
        "cres-split-arity", "cres-cut-id", "cres-split-first-bad-id", "cres-ax-id",
        "cres-h-arity", "cres-g-arity", "cres-second-goal",
        "cres-goal-unknown", "cres-tag", "cres-w-arity", "cres-w-rational",
        "cres-w-zero-denominator", "cres-w-missing", "sap-second-goal", "sap-tag",
        "sap-no-separator", "sap-no-reference", "sap-basic-without-index"])
def test_parse_error_names_its_line_and_text(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


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
    (parse_dimacs, "p cnf 1 2\n1 0\n5 0\n", 3),
    (parse_cres, "p cres -1 0\n", 1),
], ids=["dimacs-header", "sap-header", "sap-basic-index", "dimacs-negative", "sap-negative",
        "dimacs-literal-range", "cres-negative"])
def test_bad_number_names_its_line(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == line
    assert str(err.value).startswith(f"line {line}: ")
