"""Properties of the three text formats on emitted files.

Every emitted ``.cnf``, ``.cres`` and ``.sap`` text parses back to what was
serialized, and every mutation of one (a line deleted or duplicated, a token
replaced, the text truncated) either parses or raises ``ParseError``: the
parsers never fail with any other exception.  Any literal list reads as
``Clause.from_signed`` gives it, and any monomial as ``Monomial.of`` does,
although ``parse_sap`` builds a monomial's mask straight from its tokens and
calls ``Monomial.of`` only for a repeated token or an exponent.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circres.formats import (
    ParseError,
    parse_cres,
    parse_dimacs,
    parse_sap,
    serialize_cres,
    serialize_dimacs,
    serialize_sap,
)
from circres.core import Clause, literal_key
from circres.generators import complete_bipartite, gen_php, php_refutation, random_circular_proof
from circres.sheraliadams import Monomial, circular_to_sa


def _php(n):
    g = complete_bipartite(n + 1, n)
    graph, flow = php_refutation(g)
    return gen_php(g), graph, flow


PHP = {n: _php(n) for n in range(1, 5)}
RANDOM = {seed: random_circular_proof(seed, 5, 8) for seed in range(12)}

EMITTED = {
    "cnf": [serialize_dimacs(cnf, ["a comment"]) for cnf, _, _ in PHP.values()],
    "cres": [serialize_cres(graph, flow) for _, graph, flow in PHP.values()]
    + [serialize_cres(graph) for _, graph, _ in PHP.values()]
    + [serialize_cres(graph, flow) for graph, flow in RANDOM.values()],
    "sap": [serialize_sap(circular_to_sa(graph, flow)) for _, graph, flow in PHP.values()]
    + [serialize_sap(circular_to_sa(graph, flow)) for graph, flow in RANDOM.values()
       if not graph.goal_clause().is_tautological],
}


# ---------------------------------------------------------------------------
# round trips

@pytest.mark.parametrize("n", sorted(PHP))
def test_php_files_round_trip(n):
    cnf, graph, flow = PHP[n]
    assert parse_dimacs(serialize_dimacs(cnf)) == cnf
    assert parse_cres(serialize_cres(graph, flow)) == (graph, flow)
    assert parse_cres(serialize_cres(graph)) == (graph, None)
    proof = circular_to_sa(graph, flow)
    assert parse_sap(serialize_sap(proof)) == proof


@pytest.mark.parametrize("seed", sorted(RANDOM))
def test_random_files_round_trip(seed):
    graph, flow = RANDOM[seed]
    assert parse_cres(serialize_cres(graph, flow)) == (graph, flow)
    if not graph.goal_clause().is_tautological:
        proof = circular_to_sa(graph, flow)
        assert parse_sap(serialize_sap(proof)) == proof


# ---------------------------------------------------------------------------
# mutations

# Tokens that occur in the formats, and some that must not.
TOKENS = ["0", "1", "-1", "2", "7", "-99", "100000", "p", "cnf", "cres", "sap",
          "f", "i", "h", "g", "w", "t", ";", "H", "B", "ax", "cut", "split",
          "one", "1mxx", "xxm1", "xsqx", "xxsq", "1/2", "1/0", "-3/4", "2^3",
          "0^1", "x", "", "c"]


def _variants(token):
    """Near misses of a token: its negation, a zero denominator or exponent,
    a fraction, a non-number."""
    return [f"-{token}", f"{token}/0", f"{token}/2", f"{token}^0", f"{token}x", "0"]


@st.composite
def mutated(draw, kind):
    lines = draw(st.sampled_from(EMITTED[kind])).splitlines()
    op = draw(st.sampled_from(["delete", "duplicate", "replace", "truncate"]))
    k = draw(st.integers(0, len(lines) - 1))
    if op == "delete":
        del lines[k]
    elif op == "duplicate":
        lines.insert(k, lines[k])
    elif op == "replace":
        tokens = lines[k].split() or [""]
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = draw(st.sampled_from(TOKENS) | st.sampled_from(_variants(tokens[j])))
        lines[k] = " ".join(tokens)
    else:
        text = "\n".join(lines)
        return text[:draw(st.integers(0, len(text)))]
    return "\n".join(lines) + "\n"


def _parses_or_rejects(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


_BOUNDED = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@_BOUNDED
@given(mutated("cnf"))
def test_mutated_dimacs_parses_or_raises_parse_error(text):
    _parses_or_rejects(parse_dimacs, text)


@_BOUNDED
@given(mutated("cres"))
def test_mutated_cres_parses_or_raises_parse_error(text):
    _parses_or_rejects(parse_cres, text)


@_BOUNDED
@given(mutated("sap"))
def test_mutated_sap_parses_or_raises_parse_error(text):
    _parses_or_rejects(parse_sap, text)


# ---------------------------------------------------------------------------
# literal lists and monomials read as the normalizing constructors give them

VARS = 6
LITERALS = st.integers(-VARS, VARS).filter(bool)
# Shuffled lists with duplicates and complementary pairs, empty ones, and
# lists already in canonical order.
LITERAL_LISTS = st.lists(LITERALS, max_size=10) | st.lists(LITERALS, max_size=10).map(
    lambda lits: sorted(set(lits), key=literal_key))

READERS = {
    "cnf": lambda line: parse_dimacs(f"p cnf {VARS} 1\n{line}\n").clauses[0],
    "cres": lambda line: parse_cres(f"p cres 1 0\nf 0 {line}\ng 0\n")[0]
    .formula_vertices[0],
    "sap": lambda line: parse_sap(f"p sap {VARS} 0\ng {line}\n").goal,
}


@pytest.mark.parametrize("kind", sorted(READERS))
@_BOUNDED
@given(lits=LITERAL_LISTS)
def test_literal_lists_read_as_from_signed_gives_them(kind, lits):
    clause = READERS[kind](" ".join(map(str, [*lits, 0])))
    assert clause == Clause.from_signed(lits)
    assert all(type(lit) is int for lit in clause.literals)


@_BOUNDED
@given(st.lists(st.tuples(LITERALS, st.integers(1, 3), st.booleans()), max_size=8))
def test_monomial_tokens_read_as_monomial_of_gives_them(factors):
    tokens = [f"{t}^{e}" if caret or e > 1 else str(t) for t, e, caret in factors]
    text = f"p sap {VARS} 0\ng 0\nt 1 {' '.join(tokens)} ; B one\n"
    assert parse_sap(text).terms[0].monomial == Monomial.of((t, e) for t, e, _ in factors)


@_BOUNDED
@given(st.lists(LITERALS, max_size=4), st.lists(LITERALS, max_size=4),
       st.sampled_from([1, -1]), st.sampled_from(["", "^1", "^2"]))
def test_a_variable_beyond_the_header_is_rejected_before_its_bit_is_set(
        before, after, sign, exponent):
    # The mask of x100000000 would take 25 MB; the term is rejected in far less.
    huge = f"{sign * 10 ** 8}{exponent}"
    mono = " ".join([*map(str, before), huge, *map(str, after)])
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_sap(f"p sap {VARS} 0\ng 0\nt 1 {mono} ; B one\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"line 3: variable x{10 ** 8} exceeds declared variable count {VARS}"
    assert peak < 1_000_000
