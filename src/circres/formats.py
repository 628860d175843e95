"""Parsers and serializers for the on-disk formats.

All formats are line oriented UTF-8 text, numbers are integers or exact
``num/den`` rationals, and ``c`` lines are comments.  An integer is ASCII
digits after an optional sign: no ``_`` digit groups or non-ASCII digits,
which ``int`` would read.  The ``p`` header is the first line that is not a
comment, so every line is checked as it is read, a repeated ``.cres`` vertex
id included, and an error names the line that holds it; the counts the
header declares are compared with the file at its end.  Every clause line,
a ``.cnf`` line, a ``.cres`` ``f`` line and a ``.sap`` ``h`` or ``g`` line,
is read by ``_clause_tokens``.  A ``.sap`` monomial is built straight from
its tokens and normalized only when a token repeats or has an exponent; each
distinct rule, reference, coefficient, flow, literal and monomial token of a
file is checked and built once, a variable before its bit exists.  No
variable exceeds ``core.MAX_VARIABLE``, nor a header's variable count.

DIMACS CNF::

    p cnf <#vars> <#clauses>
    <lit> ... 0

Proof graphs (``.cres``)::

    p cres <#formula-vertices> <#inference-vertices>
    f <id> <lit> ... 0               formula vertex with its clause
    i <id> ax <var> <out>
    i <id> cut <var> <in1> <in2> <out>
    i <id> split <var> <in> <out1> [<out2>]
    h <fid>                          the clause of fid is a hypothesis
    g <fid>                          goal mark
    w <iid> <flow>                   optional flow labels

Sherali-Adams proofs (``.sap``)::

    p sap <#vars> <#hyps>
    h <lit> ... 0
    g <lit> ... 0
    t <coef> <mono> ; <ref>

where ``<mono>`` is zero or more ``±i^e`` tokens (positive for a variable,
negative for its twin, ``^e`` optional) and ``<ref>`` is ``H i`` for a
hypothesis or ``B <kind> i`` for a basic polynomial (``B one`` takes no
index).  The kinds are the keys of :data:`circres.sheraliadams.BASIC`, the
table of the basic polynomials.

Serialization is canonical: parse(serialize(x)) reproduces x exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import (MAX_VARIABLE, Clause, CnfFormula, MalformedLiteralError, literal_key,
                   mask_literals)
from .proofgraph import AXIOM, CUT, SPLIT, InferenceVertex, ProofGraph, Rule, StructureError
from .sheraliadams import BASIC, HYPOTHESIS, ONE, Monomial, RefPoly, SAProof, SATerm


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _non_ascii_number(line: str) -> Optional[str]:
    """The first number of ``line`` that is not ASCII digits but that ``int``
    reads, with its ``_`` digit groups or non-ASCII digits; the CLI's own
    readers share this rule."""
    if "_" in line or not line.isascii():
        for p in line.replace("/", " ").replace("^", " ").split():
            if ("_" in p or not p.isascii()) and p.lstrip("+-").replace("_", "").isdecimal():
                return p
    return None


def _lines(text: str):
    header = False
    # A line can hold a number that is not ASCII digits only if the text does.
    scan = "_" in text or not text.isascii()
    for no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "c":
            continue
        bad = scan and _non_ascii_number(raw)
        if bad:
            raise ParseError(no, f"number {bad!r} is not ASCII digits")
        if tokens[0] == "p":
            if header:
                raise ParseError(no, "duplicate header")
            header = True
        yield no, tokens


def _header(text: str, kind: str, counts: str):
    """The header's line, its two counts and the lines after it.  The header
    ``p <kind> <counts>`` is the first line that is not a comment; a later
    ``p`` line is a duplicate header, which :func:`_lines` rejects."""
    lines = _lines(text)
    no, tokens = next(lines, (1, None))
    if tokens is None or tokens[0] != "p":
        raise ParseError(no, f"missing 'p {kind}' header")
    if len(tokens) != 4 or tokens[1] != kind:
        raise ParseError(no, f"header must be 'p {kind} {counts}'")
    first, second = _int(tokens[2], no), _int(tokens[3], no)
    if first < 0 or second < 0:
        raise ParseError(no, "header counts must be nonnegative")
    if kind != "cres" and first > MAX_VARIABLE:
        raise ParseError(no, f"variable count {first} exceeds the largest variable index "
                             f"{MAX_VARIABLE}")
    return no, first, second, lines


def _int(token: str, no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"expected integer, got {token!r}") from None


def _rational(token: str, no: int) -> Fraction:
    num, slash, den = token.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        raise ParseError(no, f"bad rational {token!r}") from None
    if d == 0:
        raise ParseError(no, f"zero denominator in {token!r}")
    return Fraction(n, d)


def _literal(token: str, no: int) -> int:
    try:
        lit = int(token)
    except ValueError:
        raise ParseError(no, "clause literals must be integers") from None
    if not lit:
        raise ParseError(no, "literal 0 may only terminate the clause")
    return lit


def _beyond_max(lits: list[int], no: int) -> None:
    try:
        Clause.from_signed(lits)
    except MalformedLiteralError as exc:
        raise ParseError(no, str(exc)) from None


def _clause_tokens(tokens: list[str], no: int, bits: dict[str, int],
                   num_vars: int = MAX_VARIABLE, beyond=_beyond_max) -> Clause:
    """The clause of a ``<lit> ... 0`` line, the OR of its tokens' bits in
    the file's table ``bits``.  A literal beyond ``num_vars`` is reported by
    ``beyond``, given all the line's literals."""
    if not tokens or tokens[-1] != "0":
        raise ParseError(no, "clause line must end with 0")
    mask = 0
    for tok in tokens[:-1]:
        bit = bits.get(tok)
        if bit is None:
            lit = _literal(tok, no)
            if abs(lit) > num_vars:
                beyond([_literal(t, no) for t in tokens[:-1]], no)
            bit = bits[tok] = 1 << literal_key(lit)
        mask |= bit
    return tuple.__new__(Clause, (mask,))


def _literal_tokens(mask: int, table: dict[int, str]) -> list[str]:
    """The literals of a clause mask as tokens, in canonical order; each
    distinct bit is decoded once, into the writer's ``table``."""
    out = []
    while mask:
        b = mask.bit_length() - 1  # the last literal left
        if b not in table:
            table[b] = str(mask_literals(1 << b)[0])
        out.append(table[b])
        mask ^= 1 << b
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# DIMACS

def parse_dimacs(text: str) -> CnfFormula:
    header_line, num_vars, expected, lines = _header(text, "cnf", "<vars> <clauses>")
    bits: dict[str, int] = {}

    def beyond(lits: list[int], no: int) -> None:
        # Name the line's first literal beyond the count, in canonical order.
        lit = min((l for l in lits if abs(l) > num_vars), key=literal_key)
        name = f"x{lit}" if lit > 0 else f"~x{-lit}"
        raise ParseError(no, f"literal {name} exceeds declared variable count {num_vars}")

    clauses = [_clause_tokens(tokens, no, bits, num_vars, beyond) for no, tokens in lines]
    if expected != len(clauses):
        raise ParseError(
            header_line,
            f"header declares {expected} clauses but file has {len(clauses)}",
        )
    return CnfFormula.of(num_vars, clauses)


def serialize_dimacs(cnf: CnfFormula, comments: list[str] | None = None) -> str:
    out = [f"c {line}" for line in (comments or [])]
    out.append(f"p cnf {cnf.num_variables} {len(cnf.clauses)}")
    table: dict[int, str] = {}
    for clause in cnf.clauses:
        out.append(" ".join([*_literal_tokens(clause.mask, table), "0"]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# proof graphs

_KIND_NAMES = {AXIOM: "ax", CUT: "cut", SPLIT: "split"}
_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}


def parse_cres(text: str) -> tuple[ProofGraph, Optional[dict[int, Fraction]]]:
    formulas: dict[int, Clause] = {}
    inferences: dict[int, InferenceVertex] = {}
    hyp_ids: list[int] = []
    goal_id: Optional[int] = None
    flows: dict[int, Fraction] = {}
    values: dict[str, Fraction] = {}  # one Fraction per distinct flow token
    rules: dict[tuple[str, str], Rule] = {}
    bits: dict[str, int] = {}
    header_line, num_formulas, num_inferences, lines = _header(text, "cres", "<#f> <#i>")

    for no, tokens in lines:
        tag = tokens[0]
        if tag == "f":
            if len(tokens) < 2:
                raise ParseError(no, "clause label line must be 'f <id> <lit> ... 0'")
            fid = _int(tokens[1], no)
            if fid in formulas:
                raise ParseError(no, "duplicate formula-vertex id")
            formulas[fid] = _clause_tokens(tokens[2:], no, bits)
        elif tag == "i":
            if len(tokens) < 4:
                raise ParseError(no, "truncated inference line")
            iid = _int(tokens[1], no)
            if iid in inferences:
                raise ParseError(no, "duplicate inference-vertex id")
            rule = rules.get((tokens[2], tokens[3]))
            if rule is None:
                if tokens[2] not in _NAME_KINDS:
                    raise ParseError(no, f"unknown rule {tokens[2]!r}")
                var = _int(tokens[3], no)
                try:
                    rule = rules[tokens[2], tokens[3]] = Rule(_NAME_KINDS[tokens[2]], var)
                except ValueError as exc:
                    raise ParseError(no, str(exc)) from None
            try:
                refs = list(map(int, tokens[4:]))
            except ValueError:  # name the first token that is not an integer
                refs = [_int(t, no) for t in tokens[4:]]
            if rule.kind == AXIOM:
                if len(refs) != 1:
                    raise ParseError(no, "ax takes one consequent id")
                ins, outs = (), (refs[0],)
            elif rule.kind == CUT:
                if len(refs) != 3:
                    raise ParseError(no, "cut takes two antecedent ids and one consequent id")
                ins, outs = (refs[0], refs[1]), (refs[2],)
            else:
                if len(refs) not in (2, 3):
                    raise ParseError(no, "split takes one antecedent id and one or two consequent ids")
                ins, outs = (refs[0],), tuple(refs[1:])
            inferences[iid] = tuple.__new__(InferenceVertex, (rule, ins, outs))
        elif tag == "h":
            if len(tokens) != 2:
                raise ParseError(no, "hypothesis mark must be 'h <fid>'")
            hyp_ids.append(_int(tokens[1], no))
        elif tag == "g":
            if len(tokens) != 2:
                raise ParseError(no, "goal mark must be 'g <fid>'")
            if goal_id is not None:
                raise ParseError(no, "duplicate goal mark")
            goal_id = _int(tokens[1], no)
        elif tag == "w":
            if len(tokens) != 3:
                raise ParseError(no, "flow line must be 'w <iid> <flow>'")
            iid = _int(tokens[1], no)
            if iid in flows:
                raise ParseError(no, f"duplicate flow line for inference vertex {iid}")
            f = values.get(tokens[2])
            if f is None:
                f = values[tokens[2]] = _rational(tokens[2], no)
                if f <= 0:
                    raise ParseError(no, f"flow must be positive, got {f}")
            flows[iid] = f
        else:
            raise ParseError(no, f"unknown line tag {tag!r}")

    if (num_formulas, num_inferences) != (len(formulas), len(inferences)):
        raise ParseError(
            header_line,
            f"header declares {num_formulas} formula and {num_inferences} inference "
            f"vertices but file has {len(formulas)} and {len(inferences)}",
        )
    if goal_id is None:
        raise ParseError(header_line, "missing goal mark")
    if goal_id not in formulas:
        raise ParseError(_line_of(text, "g", goal_id),
                         f"goal mark names no formula vertex {goal_id}")
    hypotheses = frozenset(formulas[fid] for fid in hyp_ids if fid in formulas)
    try:
        graph = ProofGraph(formulas, inferences, hypotheses, goal_id)
    except StructureError as exc:
        # With the goal checked, ProofGraph names an inference vertex.
        raise ParseError(_line_of(text, "i", exc.vertex_id), str(exc)) from None
    for fid in hyp_ids:
        if fid not in formulas:
            raise ParseError(_line_of(text, "h", fid),
                             f"hypothesis mark references unknown formula id {fid}")
    if flows:
        for iid in flows:
            if iid not in inferences:
                raise ParseError(_line_of(text, "w", iid),
                                 f"flow line names no inference vertex {iid}")
        missing = [iid for iid in inferences if iid not in flows]
        if missing:
            raise ParseError(header_line, f"flow lines missing inference ids {missing}")
    return graph, flows or None


def _line_of(text: str, tag: str, ident: int) -> int:
    """The number of the first ``tag`` line whose id is ``ident``; the text
    is read again only on the error path that names the line."""
    return next(no for no, tokens in _lines(text) if tokens[0] == tag and int(tokens[1]) == ident)


def serialize_cres(
    graph: ProofGraph,
    flow: Optional[dict[int, Fraction]] = None,
    comments: list[str] | None = None,
) -> str:
    out = [f"c {line}" for line in (comments or [])]
    out.append(f"p cres {len(graph.formula_vertices)} {len(graph.inference_vertices)}")
    formulas = sorted(graph.formula_vertices.items())
    table: dict[int, str] = {}
    for fid, clause in formulas:
        out.append(" ".join(["f", str(fid), *_literal_tokens(clause.mask, table), "0"]))
    for iid, w in sorted(graph.inference_vertices.items()):
        refs = " ".join(map(str, (*w.in_neighbors, *w.out_neighbors)))
        out.append(f"i {iid} {_KIND_NAMES[w.rule.kind]} {w.rule.principal} {refs}")
    for fid, clause in formulas:
        if clause in graph.hypotheses:
            out.append(f"h {fid}")
    out.append(f"g {graph.goal_id}")
    if flow is not None:
        out += flow_lines(flow, sorted(graph.inference_vertices))
    return "\n".join(out) + "\n"


def flow_lines(flow: dict[int, Fraction], iids: list[int]) -> list[str]:
    """The ``w <iid> <flow>`` line of each of ``iids``."""
    text = _texts(list(flow.values()))
    return [f"w {iid} {text[id(flow[iid])]}" for iid in iids]


def _texts(values: list[Fraction]) -> dict[int, str]:
    """The ``str`` of each distinct object of ``values``, keyed by its ``id``:
    a proof's flows and coefficients share few objects, and each is
    formatted once.  The ids are valid while the caller holds the values."""
    distinct = dict(zip(map(id, values), values))
    return {key: str(v) for key, v in distinct.items()}


# ---------------------------------------------------------------------------
# polynomial proofs

def parse_sap(text: str) -> SAProof:
    header_line, num_vars, expected_hyps, lines = _header(text, "sap", "<#vars> <#hyps>")
    hyps: list[Clause] = []
    goal: Optional[Clause] = None
    terms: list[SATerm] = []
    coefs: dict[str, Fraction] = {}
    refs: dict[tuple[str, ...], RefPoly] = {}
    bits: dict[str, tuple[int, int, int]] = {}
    literal_bits: dict[str, int] = {}

    def in_range(var: int, no: int) -> None:
        if var > num_vars:
            raise ParseError(no, f"variable x{var} exceeds declared variable count {num_vars}")

    def beyond(lits: list[int], no: int) -> None:
        in_range(max(map(abs, lits)), no)

    for no, tokens in lines:
        tag = tokens[0]
        if tag == "h":
            hyps.append(_clause_tokens(tokens[1:], no, literal_bits, num_vars, beyond))
        elif tag == "g":
            if goal is not None:
                raise ParseError(no, "duplicate goal line")
            goal = _clause_tokens(tokens[1:], no, literal_bits, num_vars, beyond)
        elif tag == "t":
            try:
                sep = tokens.index(";")
            except ValueError:
                raise ParseError(no, "term line needs a ';' before its reference") from None
            if sep < 2:
                raise ParseError(no, "term line must be 't <coef> <mono> ; <ref>'")
            coef = coefs.get(tokens[1])
            if coef is None:
                coef = coefs[tokens[1]] = _rational(tokens[1], no)
                if coef <= 0:
                    raise ParseError(no, f"term coefficient must be positive, got {coef}")
            mask = degree = 0
            for tok in tokens[2:sep]:
                entry = bits.get(tok)
                if entry is None:
                    body, caret, exp = tok.partition("^")
                    try:
                        t, e = int(body), int(exp) if caret else 1
                    except ValueError:
                        raise ParseError(no, f"bad monomial token {tok!r}") from None
                    if t == 0 or e < 1:
                        raise ParseError(no, f"bad monomial token {tok!r}")
                    in_range(abs(t), no)  # first: a mask is as wide as its largest variable
                    entry = bits[tok] = 1 << literal_key(t), t, e
                mask |= entry[0]
                degree += entry[2]
            ref_tokens = tuple(tokens[sep + 1:])
            ref = refs.get(ref_tokens)
            if ref is None:
                if not ref_tokens:
                    raise ParseError(no, "missing reference polynomial")
                if ref_tokens[0] == "H":
                    if len(ref_tokens) != 2:
                        raise ParseError(no, "hypothesis reference is 'H <index>'")
                    kind, index = HYPOTHESIS, _int(ref_tokens[1], no)
                    if index > expected_hyps:
                        raise ParseError(
                            no, f"hypothesis index {index} out of range 1..{expected_hyps}")
                elif ref_tokens[0] == "B":
                    kind = ref_tokens[1] if len(ref_tokens) > 1 else None
                    if kind not in BASIC:
                        raise ParseError(no, f"unknown basic reference {ref_tokens[1:]!r}")
                    if kind == ONE:
                        if len(ref_tokens) != 2:
                            raise ParseError(no, "'B one' takes no index")
                        index = 0
                    else:
                        if len(ref_tokens) != 3:
                            raise ParseError(no, f"'B {ref_tokens[1]}' needs an index")
                        index = _int(ref_tokens[2], no)
                        in_range(index, no)  # a basic reference's index is a variable
                else:
                    raise ParseError(no, f"unknown reference tag {ref_tokens[0]!r}")
                try:
                    ref = refs[ref_tokens] = RefPoly(kind, index)
                except ValueError as exc:
                    raise ParseError(no, str(exc)) from None
            # Only a repeated token or an exponent leaves fewer bits than the degree.
            mono = tuple.__new__(Monomial, (mask, ())) if mask.bit_count() == degree else (
                Monomial.of(bits[tok][1:] for tok in tokens[2:sep]))
            terms.append(tuple.__new__(SATerm, (coef, mono, ref)))
        else:
            raise ParseError(no, f"unknown line tag {tag!r}")
    if goal is None:
        raise ParseError(header_line, "missing goal line")
    if expected_hyps != len(hyps):
        raise ParseError(
            header_line,
            f"header declares {expected_hyps} hypotheses but file has {len(hyps)}",
        )
    return SAProof(num_vars, tuple(hyps), goal, tuple(terms))


def _mono_tokens(m: Monomial, table: dict[int, str]) -> str:
    if not m.powers:
        return " ".join(_literal_tokens(m.mask, table))
    return " ".join(f"{tok}^{e}" if e > 1 else str(tok) for tok, e in m.factors)


def serialize_sap(proof: SAProof, comments: list[str] | None = None) -> str:
    out = [f"c {line}" for line in (comments or [])]
    out.append(f"p sap {proof.num_variables} {len(proof.hypotheses)}")
    table: dict[int, str] = {}
    for h in proof.hypotheses:
        out.append(" ".join(["h", *_literal_tokens(h.mask, table), "0"]))
    out.append(" ".join(["g", *_literal_tokens(proof.goal.mask, table), "0"]))
    # Each distinct coefficient object and reference is formatted once.
    coefs = _texts([t.coefficient for t in proof.terms])
    refs = {r: f"H {r.index}" if r.kind == HYPOTHESIS else "B one" if r.kind == ONE
            else f"B {r.kind} {r.index}" for r in {t.ref for t in proof.terms}}
    for c, m, r in proof.terms:
        mono = _mono_tokens(m, table)
        out.append(f"t {coefs[id(c)]} {mono} ; {refs[r]}" if mono else
                   f"t {coefs[id(c)]} ; {refs[r]}")
    return "\n".join(out) + "\n"
