import random

import pytest

from circres.core import (
    Clause,
    CnfFormula,
    IncompleteAssignmentError,
    MalformedLiteralError,
    TooLargeError,
    all_assignments,
    evaluate,
    implies_oracle,
    literal_key,
)


def clause(*ints):
    return Clause.from_ints(*ints)


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
    assert c.is_empty and c.width == 0 and not c.is_tautological
    assert c == Clause(())


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
    assert not evaluate(Clause(()), alpha)
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
    assert implies_oracle(hyp, Clause(()))


def test_implies_oracle_guard():
    with pytest.raises(TooLargeError, match="30 variables exceed oracle guard of 24"):
        implies_oracle(CnfFormula.of(30, []), Clause(()))


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
