import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circres.core import (
    MAX_VARIABLE,
    Clause,
    CnfFormula,
    IncompleteAssignmentError,
    MalformedLiteralError,
    TooLargeError,
    all_assignments,
    clause_set,
    evaluate,
    implies_oracle,
    literal_key,
)


def clause(*ints):
    return Clause.from_ints(*ints)


def test_clause_set_makes_the_values_clause_makes():
    masks = [0, clause(3).mask, clause(2, -2).mask, clause(-1000, 7).mask]
    made = clause_set(masks)
    assert all(type(c) is Clause for c in made)
    assert made == {Clause(m) for m in masks} and len(made) == 4
    by_mask = {c.mask: c for c in made}
    for m in masks:
        assert by_mask[m] == Clause(m) and hash(by_mask[m]) == hash(Clause(m))
    assert by_mask[clause(2, -2).mask].is_tautological
    assert str(by_mask[clause(-1000, 7).mask]) == "x7 | ~x1000"
    # It may skip Clause.__new__ only because there is nothing to check.
    assert "Clause.__new__" in clause_set.__doc__ and "no validation" in clause_set.__doc__


def test_literal_rejects_bad_variable():
    with pytest.raises(MalformedLiteralError, match="not a literal: 0"):
        Clause.from_ints(0)
    with pytest.raises(MalformedLiteralError):
        Clause.from_signed([2, 0, -1])
    with pytest.raises(MalformedLiteralError):
        clause(1).with_literal(0)
    for bad in ("1", 1.0, True, None):
        with pytest.raises(MalformedLiteralError):
            Clause.from_signed([bad])


def test_normalize_deduplicates():
    c = Clause.from_signed([1, 1, 2])
    assert c == clause(1, 2)
    assert c.width == 2
    assert c.literals == (1, 2)


def test_normalize_keeps_complementary_pair():
    c = Clause.from_signed([1, -1])
    assert c.width == 2
    assert c.is_tautological
    assert c.literals == (1, -1)


def test_empty_clause():
    c = Clause.from_signed([])
    assert c == Clause() and c.width == 0 and not c.is_tautological
    assert c == Clause()


def _random_literals(rng, n, count):
    return [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(count)]


def test_normalize_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        lits = _random_literals(rng, 6, rng.randint(0, 8))
        once = Clause.from_signed(lits)
        assert Clause.from_signed(once.literals) == once
        assert Clause.from_ints(*reversed(lits)) == once
        assert once.signed() == frozenset(lits)


def test_canonical_order_is_by_variable_positive_first():
    assert clause(-3, 2, 3, -1).literals == (-1, 2, 3, -3)
    assert str(clause(-3, 2, 3, -1)) == "~x1 | x2 | x3 | ~x3"
    assert sorted([-2, 2, -1, 1], key=literal_key) == [1, -1, 2, -2]
    rng = random.Random(7)
    for _ in range(200):
        lits = clause(*_random_literals(rng, 6, rng.randint(0, 8))).literals
        keys = [(abs(l), l < 0) for l in lits]
        assert keys == sorted(keys) and len(set(lits)) == len(lits)


def test_evaluate_examples():
    alpha = {1: 0, 2: 0}
    assert evaluate(clause(1, -2), alpha)
    assert not evaluate(Clause(), alpha)
    assert evaluate(clause(1, -1), alpha)


def test_evaluate_matches_disjunction_semantics():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        lits = _random_literals(rng, n, rng.randint(0, 6))
        c = Clause.from_signed(lits)
        for alpha in all_assignments(n):
            want = any(bool(alpha[abs(l)]) == (l > 0) for l in lits)
            assert evaluate(c, alpha) == want


def test_evaluate_incomplete_assignment():
    with pytest.raises(IncompleteAssignmentError, match="assignment does not cover variable 3"):
        evaluate(clause(3), {1: 1})


def test_implies_oracle_unit_propagation():
    hyp = CnfFormula.of(2, [clause(1), clause(-1, 2)])
    assert implies_oracle(hyp, clause(2))


def test_implies_oracle_no_hypotheses():
    assert not implies_oracle(CnfFormula.of(1, []), clause(1))


def test_implies_oracle_small_pigeonhole():
    # Two pigeons, one hole: every assignment of the two edge variables
    # falsifies some clause, so the empty clause follows.
    hyp = CnfFormula.of(2, [clause(1), clause(2), clause(-1, -2)])
    assert implies_oracle(hyp, Clause())


def test_implies_oracle_guard():
    with pytest.raises(TooLargeError, match="30 variables exceed oracle guard of 24"):
        implies_oracle(CnfFormula.of(30, []), Clause())


def _implies_second_opinion(hyp: CnfFormula, goal: Clause) -> bool:
    """Independent route: hypotheses plus the negated goal are unsatisfiable."""
    n = max(hyp.num_variables, max(goal.variables(), default=0))
    negated = [Clause.from_ints(-l) for l in goal.literals]
    for alpha in all_assignments(n):
        if all(evaluate(c, alpha) for c in hyp.clauses) and all(
            evaluate(u, alpha) for u in negated
        ):
            return False
    return True


def test_implies_oracle_against_negated_goal_enumeration():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(0, 5)):
            k = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), k)
            clauses.append(Clause.from_signed(v if rng.random() < 0.5 else -v for v in vs))
        hyp = CnfFormula.of(n, clauses)
        k = rng.randint(0, min(3, n))
        vs = rng.sample(range(1, n + 1), k)
        goal = Clause.from_signed(v if rng.random() < 0.5 else -v for v in vs)
        assert implies_oracle(hyp, goal) == _implies_second_opinion(hyp, goal)


def test_cnf_rejects_out_of_range_literal():
    with pytest.raises(MalformedLiteralError):
        CnfFormula.of(1, [clause(2)])


def test_cnf_names_the_first_literal_beyond_its_count():
    with pytest.raises(MalformedLiteralError,
                       match="^literal ~x2 exceeds declared variable count 1$"):
        CnfFormula.of(1, [clause(1), clause(3, -2)])


def test_a_variable_beyond_max_variable_is_no_literal():
    assert clause(MAX_VARIABLE, -MAX_VARIABLE).width == 2
    for lit in (MAX_VARIABLE + 1, -10 ** 12):
        with pytest.raises(MalformedLiteralError) as err:
            Clause.from_ints(1, lit)
        assert str(err.value) == (
            f"variable x{abs(lit)} exceeds the largest variable index {MAX_VARIABLE}")
        with pytest.raises(MalformedLiteralError):
            clause(1).with_literal(lit)


# ---------------------------------------------------------------------------
# the clause codec against a model clause: a tuple of literals

VARS = 5
LITERALS = st.integers(-VARS, VARS).filter(bool)
# Duplicates and empty lists come from the plain lists; the mapped ones
# also hold complementary pairs.
LITERAL_LISTS = st.lists(LITERALS, max_size=8) | st.lists(LITERALS, max_size=4).map(
    lambda lits: lits + [-lit for lit in lits[::2]])
# A map from some of the variables to 0 or 1.
ASSIGNMENTS = st.dictionaries(st.integers(1, VARS), st.integers(0, 1))


def _model(lits) -> tuple[int, ...]:
    """A clause as its distinct literals, by variable, positive first."""
    return tuple(sorted(set(lits), key=lambda lit: (abs(lit), lit < 0)))


def _model_evaluate(model, alpha):
    if any(abs(lit) in alpha and bool(alpha[abs(lit)]) == (lit > 0) for lit in model):
        return True
    missing = [abs(lit) for lit in model if abs(lit) not in alpha]
    return f"assignment does not cover variable {min(missing)}" if missing else False


_CODEC = settings(max_examples=150, deadline=None, derandomize=True)


@_CODEC
@given(lits=LITERAL_LISTS, extra=LITERALS)
def test_clause_codec_agrees_with_the_model(lits, extra):
    c, model = Clause.from_signed(lits), _model(lits)
    assert c.literals == model
    assert [literal_key(lit) for lit in c.literals] == sorted(map(literal_key, model))
    assert c.width == len(model)
    assert c.is_tautological == any(-lit in model for lit in model)
    assert c.variables() == {abs(lit) for lit in model}
    assert c.signed() == frozenset(model)
    assert c.with_literal(extra).literals == _model([*model, extra])
    assert str(c) == (" | ".join(f"x{l}" if l > 0 else f"~x{-l}" for l in model) or "_|_")
    assert Clause.from_signed(c.literals) == c
    assert Clause.from_ints(*reversed(lits)) == c


@_CODEC
@given(lits=LITERAL_LISTS, alpha=ASSIGNMENTS)
def test_evaluate_agrees_with_the_model(lits, alpha):
    want = _model_evaluate(_model(lits), alpha)
    if isinstance(want, str):
        with pytest.raises(IncompleteAssignmentError, match=want):
            evaluate(Clause.from_signed(lits), alpha)
    else:
        assert evaluate(Clause.from_signed(lits), alpha) == want


@_CODEC
@given(hyps=st.lists(LITERAL_LISTS, max_size=4), goal=LITERAL_LISTS,
       num_vars=st.integers(0, VARS))
def test_implies_oracle_agrees_with_the_model(hyps, goal, num_vars):
    hyps = [h for h in hyps if all(abs(lit) <= num_vars for lit in h)]
    n = max([num_vars, *map(abs, goal)])
    models = [_model(h) for h in hyps]
    want = all(
        any(bits[abs(lit) - 1] == (lit > 0) for lit in goal)
        for bits in itertools.product((False, True), repeat=n)
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in m) for m in models))
    cnf = CnfFormula.of(num_vars, map(Clause.from_signed, hyps))
    assert implies_oracle(cnf, Clause.from_signed(goal)) == want
