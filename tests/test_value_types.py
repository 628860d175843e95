"""The contract of the immutable value types built per clause, per vertex,
per term and per LP row.

Each value prints as ``Type(field=value, ...)``, refuses attribute
assignment and deletion, and hashes exactly as the tuple of its fields, so
every set and dict of them iterates in the same order whatever class
implements them.  ``Rule`` and ``RefPoly`` reject bad arguments with fixed
messages.
"""

from fractions import Fraction

import pytest

from circres.core import Clause
from circres.lp import Constraint
from circres.proofgraph import InferenceVertex, Rule
from circres.sheraliadams import Monomial, RefPoly, SATerm

CLAUSE = Clause.from_ints(1, -2)
RULE = Rule("split", 2)
MONOMIAL = Monomial(4 | 1 << 5, ((1, 2),))
REF = RefPoly("hyp", 3)

VALUES = [
    (CLAUSE, "Clause(mask=36)"),
    (Clause(), "Clause(mask=0)"),
    (RULE, "Rule(kind='split', principal=2)"),
    (InferenceVertex(Rule("axiom", 1), (), (0,)),
     "InferenceVertex(rule=Rule(kind='axiom', principal=1), in_neighbors=(), out_neighbors=(0,))"),
    (InferenceVertex(RULE, (0,), (2, 3)),
     "InferenceVertex(rule=Rule(kind='split', principal=2), "
     "in_neighbors=(0,), out_neighbors=(2, 3))"),
    (MONOMIAL, "Monomial(mask=36, powers=((1, 2),))"),
    (Monomial(), "Monomial(mask=0, powers=())"),
    (REF, "RefPoly(kind='hyp', index=3)"),
    (RefPoly("one"), "RefPoly(kind='one', index=0)"),
    (SATerm(Fraction(1, 2), MONOMIAL, REF),
     "SATerm(coefficient=Fraction(1, 2), monomial=Monomial(mask=36, powers=((1, 2),)), "
     "ref=RefPoly(kind='hyp', index=3))"),
    (Constraint(((0, 1), (2, -3)), 4), "Constraint(coeffs=((0, 1), (2, -3)), rhs=4)"),
]

FIELDS = {
    Clause: ("mask",),
    Rule: ("kind", "principal"),
    InferenceVertex: ("rule", "in_neighbors", "out_neighbors"),
    Monomial: ("mask", "powers"),
    RefPoly: ("kind", "index"),
    SATerm: ("coefficient", "monomial", "ref"),
    Constraint: ("coeffs", "rhs"),
}

IDS = [text.split("(", 1)[0] + str(i) for i, (_, text) in enumerate(VALUES)]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr_is_the_field_listing(value, text):
    assert repr(value) == text
    assert eval(text) == value


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(value, text):
    assert hash(value) == hash(_fields(value))


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_values_are_immutable(value, text):
    for name in (*FIELDS[type(value)], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_keyword_construction_and_equality(value, text):
    cls = type(value)
    again = cls(**dict(zip(FIELDS[cls], _fields(value))))
    assert again == value and hash(again) == hash(value)
    assert all(value != other for other, _ in VALUES if type(other) is cls and other is not value)


@pytest.mark.parametrize("args, message", [
    (("bogus", 1), "unknown rule kind 'bogus'"),
    (("cut", 0), "principal variable must be >= 1, got 0"),
    (("axiom", -3), "principal variable must be >= 1, got -3"),
])
def test_rule_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError) as exc:
        Rule(*args)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        Rule(kind=args[0], principal=args[1])
    assert str(exc.value) == message


@pytest.mark.parametrize("args, message", [
    (("bogus", 1), "unknown reference polynomial kind 'bogus'"),
    (("one", 2), "one takes no index, got 2"),
    (("hyp", 0), "hyp needs a positive index"),
    (("xxsq",), "xxsq needs a positive index"),
    (("1mxx", -1), "1mxx needs a positive index"),
])
def test_refpoly_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError) as exc:
        RefPoly(*args)
    assert str(exc.value) == message


def test_replace_and_make_check_like_the_constructor():
    with pytest.raises(ValueError, match="unknown rule kind 'bogus'"):
        RULE._replace(kind="bogus")
    with pytest.raises(ValueError, match="principal variable must be >= 1, got 0"):
        Rule._make(("cut", 0))
    with pytest.raises(ValueError, match="one takes no index, got 2"):
        RefPoly("one")._replace(index=2)
    assert RULE._replace(principal=5) == Rule("split", 5)
    assert type(RefPoly._make(("hyp", 1))) is RefPoly
