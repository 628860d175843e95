"""Properties of the three text formats on emitted files.

Every emitted ``.cnf``, ``.cres`` and ``.sap`` text parses back to what was
serialized, and every mutation of one (a line deleted or duplicated, a token
replaced, the text truncated) either parses or raises ``ParseError``: the
parsers never fail with any other exception.
"""

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
from circres.generators import complete_bipartite, gen_php, php_refutation, random_circular_proof
from circres.sheraliadams import circular_to_sa


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
