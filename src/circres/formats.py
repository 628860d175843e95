"""Parsers and serializers for the on-disk formats.

All formats are line oriented UTF-8 text, numbers are integers or exact
``num/den`` rationals, and ``c`` lines are comments.

DIMACS CNF::

    p cnf <#vars> <#clauses>
    <lit> ... 0

Proof graphs (``.cres``)::

    p cres <#formula-vertices> <#inference-vertices>
    f <id> <lit> ... 0               formula vertex with its clause
    i <id> ax <var> <out>
    i <id> cut <var> <in1> <in2> <out>
    i <id> split <var> <in> <out1> [<out2>]
    h <fid>                          hypothesis mark
    g <fid>                          goal mark
    w <iid> <flow>                   optional flow labels

Polynomial proofs (``.sap``)::

    p sap <#vars> <#hyps>
    h <lit> ... 0
    g <lit> ... 0
    t <coef> <mono> ; <ref>

where ``<mono>`` is zero or more ``±i^e`` tokens (positive for a variable,
negative for its twin, ``^e`` optional) and ``<ref>`` is ``H i`` for a
hypothesis or ``B xxsq|xsqx|1mxx|xxm1|one [i]`` for a basic polynomial.

Serialization is canonical: parse(serialize(x)) reproduces x exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import Clause, CnfFormula
from .flowcheck import FlowAssignment
from .proofgraph import (
    AXIOM,
    CUT,
    SPLIT,
    FormulaVertex,
    InferenceVertex,
    ProofGraph,
    Rule,
)
from .sheraliadams import (
    HYPOTHESIS,
    ONE,
    ONE_MINUS_X_XBAR,
    Monomial,
    RefPoly,
    SAProof,
    SATerm,
    X_MINUS_XSQ,
    X_XBAR_MINUS_ONE,
    XSQ_MINUS_X,
)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield no, line.split()


def _int(token: str, no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"expected integer, got {token!r}") from None


def _rational(token: str, no: int) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            n, d = int(num), int(den)
        else:
            n, d = int(token), 1
    except ValueError:
        raise ParseError(no, f"bad rational {token!r}") from None
    if d == 0:
        raise ParseError(no, f"zero denominator in {token!r}")
    return Fraction(n, d)


def _clause_tokens(tokens: list[str], no: int) -> Clause:
    if not tokens or tokens[-1] != "0":
        raise ParseError(no, "clause line must end with 0")
    try:
        lits = [int(t) for t in tokens[:-1]]
    except ValueError:
        raise ParseError(no, "clause literals must be integers") from None
    if any(l == 0 for l in lits):
        raise ParseError(no, "literal 0 may only terminate the clause")
    return Clause.from_signed(lits)


# ---------------------------------------------------------------------------
# DIMACS

def parse_dimacs(text: str) -> CnfFormula:
    num_vars = None
    expected = None
    clauses: list[Clause] = []
    header_line = 0
    for no, tokens in _lines(text):
        if tokens[0] == "p":
            if num_vars is not None:
                raise ParseError(no, "duplicate header")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError(no, "header must be 'p cnf <vars> <clauses>'")
            num_vars, expected = _int(tokens[2], no), _int(tokens[3], no)
            header_line = no
            if num_vars < 0 or expected < 0:
                raise ParseError(no, "header counts must be nonnegative")
            continue
        if num_vars is None:
            raise ParseError(no, "clause before header")
        clauses.append(_clause_tokens(tokens, no))
    if num_vars is None:
        raise ParseError(1, "missing 'p cnf' header")
    if expected != len(clauses):
        raise ParseError(
            header_line,
            f"header declares {expected} clauses but file has {len(clauses)}",
        )
    try:
        return CnfFormula.of(num_vars, clauses)
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None


def serialize_dimacs(cnf: CnfFormula, comments: list[str] | None = None) -> str:
    out = [f"c {line}" for line in (comments or [])]
    out.append(f"p cnf {cnf.num_variables} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        lits = " ".join(str(lit.to_int()) for lit in clause.literals)
        out.append((lits + " 0").strip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# proof graphs

_KIND_NAMES = {AXIOM: "ax", CUT: "cut", SPLIT: "split"}
_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}


def parse_cres(text: str) -> tuple[ProofGraph, Optional[FlowAssignment]]:
    formulas: list[FormulaVertex] = []
    inferences: list[InferenceVertex] = []
    hyp_ids: set[int] = set()
    goal_id: Optional[int] = None
    flows: dict[int, Fraction] = {}
    declared = None
    header_line = 0

    for no, tokens in _lines(text):
        tag = tokens[0]
        if tag == "p":
            if len(tokens) != 4 or tokens[1] != "cres":
                raise ParseError(no, "header must be 'p cres <#f> <#i>'")
            declared = (_int(tokens[2], no), _int(tokens[3], no))
            header_line = no
        elif tag == "f":
            if len(tokens) < 2:
                raise ParseError(no, "clause label line must be 'f <id> <lit> ... 0'")
            fid = _int(tokens[1], no)
            formulas.append(FormulaVertex(fid, _clause_tokens(tokens[2:], no)))
        elif tag == "i":
            if len(tokens) < 4:
                raise ParseError(no, "truncated inference line")
            iid = _int(tokens[1], no)
            name = tokens[2]
            if name not in _NAME_KINDS:
                raise ParseError(no, f"unknown rule {name!r}")
            kind = _NAME_KINDS[name]
            var = _int(tokens[3], no)
            refs = [_int(t, no) for t in tokens[4:]]
            if kind == AXIOM:
                if len(refs) != 1:
                    raise ParseError(no, "ax takes one consequent id")
                ins, outs = (), (refs[0],)
            elif kind == CUT:
                if len(refs) != 3:
                    raise ParseError(no, "cut takes two antecedent ids and one consequent id")
                ins, outs = (refs[0], refs[1]), (refs[2],)
            else:
                if len(refs) not in (2, 3):
                    raise ParseError(no, "split takes one antecedent id and one or two consequent ids")
                ins, outs = (refs[0],), tuple(refs[1:])
            try:
                rule = Rule(kind, var)
            except ValueError as exc:
                raise ParseError(no, str(exc)) from None
            inferences.append(InferenceVertex(iid, rule, ins, outs))
        elif tag == "h":
            if len(tokens) != 2:
                raise ParseError(no, "hypothesis mark must be 'h <fid>'")
            hyp_ids.add(_int(tokens[1], no))
        elif tag == "g":
            if len(tokens) != 2:
                raise ParseError(no, "goal mark must be 'g <fid>'")
            if goal_id is not None:
                raise ParseError(no, "duplicate goal mark")
            goal_id = _int(tokens[1], no)
        elif tag == "w":
            if len(tokens) != 3:
                raise ParseError(no, "flow line must be 'w <iid> <flow>'")
            f = _rational(tokens[2], no)
            if f <= 0:
                raise ParseError(no, f"flow must be positive, got {f}")
            flows[_int(tokens[1], no)] = f
        else:
            raise ParseError(no, f"unknown line tag {tag!r}")

    if declared is None:
        raise ParseError(1, "missing 'p cres' header")
    if declared != (len(formulas), len(inferences)):
        raise ParseError(
            header_line,
            f"header declares {declared[0]} formula and {declared[1]} inference "
            f"vertices but file has {len(formulas)} and {len(inferences)}",
        )
    if goal_id is None:
        raise ParseError(header_line, "missing goal mark")
    try:
        graph = ProofGraph(tuple(formulas), tuple(inferences), frozenset(hyp_ids), goal_id)
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None
    if flows:
        missing = [w.id for w in graph.inference_vertices if w.id not in flows]
        if missing:
            raise ParseError(header_line, f"flow lines missing inference ids {missing}")
        return graph, FlowAssignment(flows)
    return graph, None


def _fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def serialize_cres(
    graph: ProofGraph,
    flow: Optional[FlowAssignment] = None,
    comments: list[str] | None = None,
) -> str:
    out = [f"c {line}" for line in (comments or [])]
    out.append(f"p cres {len(graph.formula_vertices)} {len(graph.inference_vertices)}")
    for v in sorted(graph.formula_vertices, key=lambda v: v.id):
        tokens = ["f", str(v.id)] + [str(lit.to_int()) for lit in v.clause.literals] + ["0"]
        out.append(" ".join(tokens))
    for w in sorted(graph.inference_vertices, key=lambda w: w.id):
        refs = " ".join(str(u) for u in (*w.in_neighbors, *w.out_neighbors))
        out.append(f"i {w.id} {_KIND_NAMES[w.rule.kind]} {w.rule.principal} {refs}")
    for h in sorted(graph.hypothesis_ids):
        out.append(f"h {h}")
    out.append(f"g {graph.goal_id}")
    if flow is not None:
        for w in sorted(graph.inference_vertices, key=lambda w: w.id):
            out.append(f"w {w.id} {_fmt_fraction(flow[w.id])}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# polynomial proofs

_BASIC_NAMES = {
    X_MINUS_XSQ: "xxsq",
    XSQ_MINUS_X: "xsqx",
    ONE_MINUS_X_XBAR: "1mxx",
    X_XBAR_MINUS_ONE: "xxm1",
    ONE: "one",
}
_NAME_BASICS = {v: k for k, v in _BASIC_NAMES.items()}


def _parse_monomial(tokens: list[str], no: int) -> Monomial:
    powers: list[tuple[int, int]] = []
    for tok in tokens:
        body, _, exp = tok.partition("^")
        try:
            t = int(body)
            e = int(exp) if exp else 1
        except ValueError:
            raise ParseError(no, f"bad monomial token {tok!r}") from None
        if t == 0 or e < 1:
            raise ParseError(no, f"bad monomial token {tok!r}")
        powers.append((t, e))
    return Monomial.of(powers)


def parse_sap(text: str) -> SAProof:
    num_vars = None
    expected_hyps = None
    header_line = 0
    hyps: list[Clause] = []
    goal: Optional[Clause] = None
    terms: list[SATerm] = []
    for no, tokens in _lines(text):
        tag = tokens[0]
        if tag == "p":
            if len(tokens) != 4 or tokens[1] != "sap":
                raise ParseError(no, "header must be 'p sap <#vars> <#hyps>'")
            num_vars, expected_hyps = _int(tokens[2], no), _int(tokens[3], no)
            header_line = no
            if num_vars < 0 or expected_hyps < 0:
                raise ParseError(no, "header counts must be nonnegative")
        elif tag == "h":
            hyps.append(_clause_tokens(tokens[1:], no))
        elif tag == "g":
            if goal is not None:
                raise ParseError(no, "duplicate goal line")
            goal = _clause_tokens(tokens[1:], no)
        elif tag == "t":
            if ";" not in tokens:
                raise ParseError(no, "term line needs a ';' before its reference")
            sep = tokens.index(";")
            if sep < 2:
                raise ParseError(no, "term line must be 't <coef> <mono> ; <ref>'")
            coef = _rational(tokens[1], no)
            if coef <= 0:
                raise ParseError(no, f"term coefficient must be positive, got {coef}")
            mono = _parse_monomial(tokens[2:sep], no)
            ref_tokens = tokens[sep + 1:]
            if not ref_tokens:
                raise ParseError(no, "missing reference polynomial")
            if ref_tokens[0] == "H":
                if len(ref_tokens) != 2:
                    raise ParseError(no, "hypothesis reference is 'H <index>'")
                kind, index = HYPOTHESIS, _int(ref_tokens[1], no)
            elif ref_tokens[0] == "B":
                if len(ref_tokens) < 2 or ref_tokens[1] not in _NAME_BASICS:
                    raise ParseError(no, f"unknown basic reference {ref_tokens[1:]!r}")
                kind = _NAME_BASICS[ref_tokens[1]]
                if kind == ONE:
                    if len(ref_tokens) != 2:
                        raise ParseError(no, "'B one' takes no index")
                    index = 0
                else:
                    if len(ref_tokens) != 3:
                        raise ParseError(no, f"'B {ref_tokens[1]}' needs an index")
                    index = _int(ref_tokens[2], no)
            else:
                raise ParseError(no, f"unknown reference tag {ref_tokens[0]!r}")
            try:
                ref = RefPoly(kind, index)
            except ValueError as exc:
                raise ParseError(no, str(exc)) from None
            terms.append(SATerm(coef, mono, ref))
        else:
            raise ParseError(no, f"unknown line tag {tag!r}")
    if num_vars is None:
        raise ParseError(1, "missing 'p sap' header")
    if goal is None:
        raise ParseError(header_line, "missing goal line")
    if expected_hyps != len(hyps):
        raise ParseError(
            header_line,
            f"header declares {expected_hyps} hypotheses but file has {len(hyps)}",
        )
    return SAProof(num_vars, tuple(hyps), goal, tuple(terms))


def _mono_tokens(m: Monomial) -> str:
    parts = []
    for tok, e in m.factors:
        parts.append(str(tok) if e == 1 else f"{tok}^{e}")
    return " ".join(parts)


def serialize_sap(proof: SAProof, comments: list[str] | None = None) -> str:
    if proof.goal is None:
        raise ValueError("cannot serialize a proof without a goal clause")
    out = [f"c {line}" for line in (comments or [])]
    out.append(f"p sap {proof.num_variables} {len(proof.hypotheses)}")
    for h in proof.hypotheses:
        out.append(" ".join(["h"] + [str(lit.to_int()) for lit in h.literals] + ["0"]))
    out.append(" ".join(["g"] + [str(lit.to_int()) for lit in proof.goal.literals] + ["0"]))
    for t in proof.terms:
        if t.ref.kind == HYPOTHESIS:
            ref = f"H {t.ref.index}"
        elif t.ref.kind == ONE:
            ref = "B one"
        elif t.ref.kind in _BASIC_NAMES:
            ref = f"B {_BASIC_NAMES[t.ref.kind]} {t.ref.index}"
        else:
            raise ValueError(f"reference kind {t.ref.kind} has no file form")
        mono = _mono_tokens(t.monomial)
        middle = f" {mono}" if mono else ""
        out.append(f"t {_fmt_fraction(t.coefficient)}{middle} ; {ref}")
    return "\n".join(out) + "\n"
