import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circres.core import Clause, CnfFormula, implies_oracle, literal_key
from circres.flowcheck import find_witness, verify_flow
from circres.formats import parse_sap, serialize_cres, serialize_sap
from circres.generators import complete_bipartite, php_refutation, random_circular_proof
from circres.proofgraph import SPLIT, ProofGraphBuilder, balances, validate_rules
from circres.sheraliadams import (
    BASIC,
    HYPOTHESIS,
    MONOMIAL_ONE,
    ONE,
    ONE_MINUS_X_XBAR,
    X_XBAR_MINUS_ONE,
    XSQ_MINUS_X,
    X_MINUS_XSQ,
    InconsistencyError,
    MalformedProofError,
    Monomial,
    RefPoly,
    SAProof,
    SATerm,
    TautologicalClauseError,
    check_sa,
    circular_to_sa,
    clause_gadget,
    encode_clause,
    falsified_monomial,
    gadget_target,
    hyp,
    proof_sum,
    ref_polynomial,
    sa_degree,
    sa_monomial_size,
    sa_to_circular,
)
from circres.sheraliadams import _product as kernel_product
from test_cli import SHAPES_SAP


def clause(*ints):
    return Clause.from_ints(*ints)


def mask(*ints):
    return clause(*ints).mask


def mono(powers):
    return Monomial.of(powers.items())


def sa_proof(num_variables, hypotheses, goal, terms):
    """An ``SAProof`` of ``(coefficient, monomial, reference)`` triples."""
    return SAProof(num_variables, tuple(hypotheses), goal,
                   tuple(SATerm(Fraction(a), q, ref) for a, q, ref in terms))


# ---------------------------------------------------------------------------
# encoding

def test_encode_empty_clause_is_minus_one():
    assert encode_clause(Clause()) == {MONOMIAL_ONE: Fraction(-1)}


def test_encode_mixed_clause():
    # x1 | ~x2 encodes to minus (twin of x1) times x2
    assert encode_clause(clause(1, -2)) == {mono({-1: 1, 2: 1}): Fraction(-1)}


def test_encode_rejects_tautology():
    with pytest.raises(TautologicalClauseError):
        encode_clause(clause(1, -1))


def test_encoding_sign_tracks_satisfaction():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 6)
        k = rng.randint(0, min(4, n))
        vs = rng.sample(range(1, n + 1), k)
        c = Clause.from_signed(v if rng.random() < 0.5 else -v for v in vs)
        ((m, coef),) = encode_clause(c).items()
        from circres.core import evaluate

        for bits in itertools.product((0, 1), repeat=n):
            point = {tok: (bits[abs(tok) - 1] if tok > 0 else 1 - bits[abs(tok) - 1])
                     for v in range(1, n + 1) for tok in (v, -v)}
            sat = evaluate(c, dict(enumerate(bits, 1)))
            value = coef * math.prod(point[tok] ** e for tok, e in m.factors)
            assert (value >= 0) == sat


# ---------------------------------------------------------------------------
# checking

def test_identity_proof_checks():
    proof = sa_proof(1, [clause(1)], clause(1), [(1, MONOMIAL_ONE, hyp(1))])
    assert check_sa(proof)


def test_single_cut_refutation_identity():
    # (x + xb - 1) + enc(x1) + enc(~x1) == -1
    proof = sa_proof(
        1,
        [clause(1), clause(-1)],
        Clause(),
        [
            (1, MONOMIAL_ONE, RefPoly(X_XBAR_MINUS_ONE, 1)),
            (1, MONOMIAL_ONE, hyp(1)),
            (1, MONOMIAL_ONE, hyp(2)),
        ],
    )
    assert check_sa(proof)
    assert sa_degree(proof) == 1


def test_check_rejects_perturbed_coefficient():
    proof = sa_proof(
        1,
        [clause(1), clause(-1)],
        Clause(),
        [
            (Fraction(8, 7), MONOMIAL_ONE, RefPoly(X_XBAR_MINUS_ONE, 1)),
            (1, MONOMIAL_ONE, hyp(1)),
            (1, MONOMIAL_ONE, hyp(2)),
        ],
    )
    assert not check_sa(proof)


def test_check_rejects_nonpositive_coefficient():
    proof = sa_proof(1, [clause(1)], clause(1), [(-1, MONOMIAL_ONE, hyp(1))])
    with pytest.raises(MalformedProofError):
        check_sa(proof)


def test_check_rejects_a_hypothesis_index_out_of_range():
    # A failed build of the reference polynomials is not kept, so each call raises.
    proof = sa_proof(1, [], Clause(), [(1, MONOMIAL_ONE, hyp(1))])
    for call in (check_sa, sa_degree):
        with pytest.raises(MalformedProofError, match="^hypothesis index 1 out of range$"):
            call(proof)


def test_check_invariant_under_reorder_and_split():
    base = sa_proof(
        1,
        [clause(1), clause(-1)],
        Clause(),
        [
            (1, MONOMIAL_ONE, RefPoly(X_XBAR_MINUS_ONE, 1)),
            (1, MONOMIAL_ONE, hyp(1)),
            (1, MONOMIAL_ONE, hyp(2)),
        ],
    )
    reordered = sa_proof(1, base.hypotheses, base.goal, tuple(reversed(base.terms)))
    split_coef = sa_proof(
        1,
        base.hypotheses,
        base.goal,
        [
            (Fraction(1, 3), MONOMIAL_ONE, RefPoly(X_XBAR_MINUS_ONE, 1)),
            (Fraction(2, 3), MONOMIAL_ONE, RefPoly(X_XBAR_MINUS_ONE, 1)),
            (1, MONOMIAL_ONE, hyp(1)),
            (1, MONOMIAL_ONE, hyp(2)),
        ],
    )
    assert check_sa(base) and check_sa(reordered) and check_sa(split_coef)


def test_proof_sum_expands_to_a_tautological_target():
    terms = [
        SATerm(Fraction(1), mono({1: 1}), RefPoly(ONE_MINUS_X_XBAR, 1)),
        SATerm(Fraction(1), MONOMIAL_ONE, RefPoly(XSQ_MINUS_X, 1)),
    ]
    proof = SAProof(1, (), clause(), tuple(terms))
    assert proof_sum(proof) == {mono({1: 1, -1: 1}): Fraction(-1)}


# ---------------------------------------------------------------------------
# the basic reference polynomials

# Each basic kind on variable 2 (``one`` has no index), written out by hand.
_X2, _XB2 = mono({2: 1}), mono({-2: 1})
HAND_WRITTEN_BASIC = {
    X_MINUS_XSQ: {_X2: 1, mono({2: 2}): -1},
    XSQ_MINUS_X: {mono({2: 2}): 1, _X2: -1},
    ONE_MINUS_X_XBAR: {MONOMIAL_ONE: 1, _X2: -1, _XB2: -1},
    X_XBAR_MINUS_ONE: {_X2: 1, _XB2: 1, MONOMIAL_ONE: -1},
    ONE: {MONOMIAL_ONE: 1},
}


def test_basic_table_gives_the_reference_polynomials():
    assert set(BASIC) == set(HAND_WRITTEN_BASIC)
    for kind, poly in HAND_WRITTEN_BASIC.items():
        ref = RefPoly(kind, 0 if kind == ONE else 2)
        assert ref_polynomial(ref, ()) == poly, kind


def test_refpoly_validates_kind_and_index():
    with pytest.raises(ValueError, match="unknown reference polynomial kind"):
        RefPoly("xsq", 1)
    for kind in (HYPOTHESIS, *BASIC.keys() - {ONE}):
        with pytest.raises(ValueError, match=f"{kind} needs a positive index"):
            RefPoly(kind, 0)


def test_one_takes_no_index():
    # 'B one' carries no index in a .sap file, so an indexed 'one' could not
    # round-trip.
    assert RefPoly(ONE) == RefPoly(ONE, 0)
    with pytest.raises(ValueError, match="one takes no index"):
        RefPoly(ONE, 3)


# ---------------------------------------------------------------------------
# the four gadget families

def _random_clause(rng, n, k):
    vs = rng.sample(range(1, n + 1), k)
    return Clause.from_signed(v if rng.random() < 0.5 else -v for v in vs)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
@pytest.mark.parametrize("width", [0, 1, 2, 3])
def test_gadget_families_expand_to_targets(kind, width):
    rng = random.Random(kind * 10 + width)
    for _ in range(5):
        side = _random_clause(rng, 6, width)
        principal = next(v for v in range(1, 8) if v not in side.variables())
        terms = clause_gadget(kind, falsified_monomial(side), principal)
        proof = SAProof(7, (), clause(), tuple(terms))
        target = gadget_target(kind, side, principal)
        assert proof_sum(proof) == target
        deg = sa_degree(proof)
        # Families 2 and 3 carry the side clause next to the principal and
        # meet the width+1 bound exactly; family 1 is fixed at degree 2 and
        # family 4 stays at the clause width.
        if kind in (2, 3):
            assert deg == width + 1
        elif kind == 1:
            assert deg == 2
        else:
            assert deg == width


def test_gadget_examples():
    # family 4 on (x1): a single constant-reference term, the bare monomial
    terms = clause_gadget(4, falsified_monomial(clause(1)), 2)
    assert terms == [SATerm(Fraction(1), mono({-1: 1}), RefPoly(ONE))]
    # family 2 on the empty side clause
    terms = clause_gadget(2, MONOMIAL_ONE, 1)
    assert terms == [SATerm(Fraction(1), MONOMIAL_ONE, RefPoly(X_XBAR_MINUS_ONE, 1))]
    # family 3 with side (x2)
    terms = clause_gadget(3, falsified_monomial(clause(2)), 1)
    assert terms == [SATerm(Fraction(1), mono({-2: 1}), RefPoly(ONE_MINUS_X_XBAR, 1))]


def test_gadget_preconditions():
    # The side clause in each message is read off the side's mask, so an
    # exponent on the side changes no message.  X1 is the monomial of ~x1.
    for side, c in ((falsified_monomial(clause(1)), "x1"), (mono({1: 2}), "~x1")):
        with pytest.raises(ValueError, match=f"^principal x1 occurs in side clause {c}$"):
            clause_gadget(2, side, 1)
    for side in (falsified_monomial(clause(1, -1)), mono({1: 2, -1: 1})):
        with pytest.raises(TautologicalClauseError,
                           match=f"^{re.escape('tautological side clause x1 | ~x1')}$"):
            clause_gadget(4, side, 2)


def test_gadget_kind_outside_one_to_four_rejected():
    for kind in (0, 5):
        with pytest.raises(ValueError, match=f"^gadget kind must be 1..4, got {kind}$"):
            clause_gadget(kind, MONOMIAL_ONE, 1)
        with pytest.raises(ValueError, match=f"^gadget kind must be 1..4, got {kind}$"):
            gadget_target(kind, Clause(), 1)


def test_gadget_target_cancels_a_consequent_that_collapses_onto_the_side():
    # With the principal in the side clause, one consequent of kinds 2 and 3
    # is the side itself: its monomial cancels, and only the tautology's is
    # left, with no zero coefficient beside it.
    for side in (clause(1), clause(-1)):
        assert gadget_target(2, side, 1) == {mono({1: 1, -1: 1}): Fraction(1)}
        assert gadget_target(3, side, 1) == {mono({1: 1, -1: 1}): Fraction(-1)}
    wider = mono({1: 1, -1: 1, -2: 1})  # F(x1 | ~x1 | x2)
    assert gadget_target(2, clause(1, 2), 1) == {wider: Fraction(1)}
    assert gadget_target(3, clause(1, 2), 1) == {wider: Fraction(-1)}


# ---------------------------------------------------------------------------
# circular -> polynomial identity

def _single_cut_builder():
    b = ProofGraphBuilder()
    x = b.vertex(mask(1))
    nx = b.vertex(mask(-1))
    b.mark_hypothesis(x)
    b.mark_hypothesis(nx)
    b.set_goal(b.cut(x, nx, 0, 1))
    return b


def _single_cut():
    return _single_cut_builder().build()


def test_translate_single_cut():
    graph, flow = _single_cut()
    proof = circular_to_sa(graph, flow)
    assert check_sa(proof)
    assert sa_degree(proof) == 1 == graph.width


def test_rule_polynomial_identity_on_random_graphs():
    # The balance-weighted sum of clause encodings equals the flow-weighted
    # sum of rule polynomials; translating and checking exercises exactly
    # this identity.
    for seed in range(30):
        graph, flow = random_circular_proof(seed, 6, 9)
        if graph.goal_clause().is_tautological:
            continue
        proof = circular_to_sa(graph, flow)
        assert check_sa(proof), seed
        assert sa_degree(proof) == graph.width, seed
        assert sa_monomial_size(proof) <= 3 * graph.length, seed


def test_translate_php():
    for n in (2, 3):
        graph, flow = php_refutation(complete_bipartite(n + 1, n))
        proof = circular_to_sa(graph, flow)
        assert check_sa(proof)
        assert sa_degree(proof) == graph.width
        assert sa_monomial_size(proof) <= 3 * graph.length


def test_translation_does_not_depend_on_the_scale_of_the_witness():
    # Every multiplier is divided by the goal balance, so a witness times a
    # positive rational gives the same polynomial proof, byte for byte.
    rng = random.Random(35)
    witnesses = [random_circular_proof(seed, 6, 9) for seed in range(30)]
    witnesses = [w for w in witnesses if not w[0].goal_clause().is_tautological]
    witnesses.append(php_refutation(complete_bipartite(4, 3)))
    witnesses.append(find_witness(random_circular_proof(4, 5, 7)[0]))  # an LP point
    for graph, flow in witnesses:
        factor = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        scaled = {iid: w * factor for iid, w in flow.items()}
        assert (serialize_sap(circular_to_sa(graph, scaled))
                == serialize_sap(circular_to_sa(graph, flow))), factor


def test_translate_suppressed_split_negative_branch():
    # Split of (x2) on x1 keeping only the negative consequent, then a cut
    # back down: exercises the suppressed-consequent term with a negated
    # principal.
    b = ProofGraphBuilder()
    hyp_v = b.vertex(mask(2))
    b.mark_hypothesis(hyp_v)
    (neg_out,) = b.split(hyp_v, 1, keep_positive=False)
    pos_v = b.vertex(mask(2, 1))
    b.mark_hypothesis(pos_v)
    goal = b.vertex(mask(2), fresh=True)
    b.inference("cut", 1, (pos_v, neg_out), (goal,))
    b.set_goal(goal)
    graph, flow = b.build()
    assert verify_flow(graph, flow)
    proof = circular_to_sa(graph, flow)
    assert check_sa(proof)
    g2, f2 = sa_to_circular(proof)
    assert verify_flow(g2, f2)


def test_translate_collapsed_cut_through_tautology():
    # Deriving (~x1) by cutting the elementary tautology against itself's
    # unit: antecedents {(x1 | ~x1), (~x1)}, consequent (~x1).  The side
    # clause contains the principal variable, the collapsed shape.
    b = ProofGraphBuilder()
    taut = b.axiom(1)
    unit = b.vertex(mask(-1))
    b.mark_hypothesis(unit)
    fresh = b.vertex(mask(-1), fresh=True)
    b.inference("cut", 1, (taut, unit), (fresh,))
    b.set_goal(fresh)
    graph, flow = b.build()
    from circres.proofgraph import validate_rules

    assert validate_rules(graph) == []
    assert verify_flow(graph, flow)
    proof = circular_to_sa(graph, flow)
    assert check_sa(proof)
    assert sa_degree(proof) == graph.width == 2


def test_translate_rejects_tautological_goal():
    b = ProofGraphBuilder()
    out = b.axiom(1)
    b.set_goal(out)
    graph, flow = b.build()
    with pytest.raises(TautologicalClauseError):
        circular_to_sa(graph, flow)


def test_translate_rejects_tautological_hypothesis():
    b = _single_cut_builder()
    b.mark_hypothesis(b.vertex(mask(3, -3)))
    graph, flow = b.build()
    assert verify_flow(graph, flow)
    with pytest.raises(TautologicalClauseError, match="^tautological hypothesis x3 \\| ~x3$"):
        circular_to_sa(graph, flow)


def test_translate_rejects_non_elementary_tautology():
    # The axiom x3 | ~x3 split on x4 leaves the sink x3 | ~x3 | x4.
    b = _single_cut_builder()
    (sink,) = b.split(b.axiom(3), 4, keep_negative=False)
    graph, flow = b.build()
    assert verify_flow(graph, flow) and balances(graph, flow)[sink] == 1
    with pytest.raises(TautologicalClauseError,
                       match="^non-elementary tautological clause x3 \\| ~x3 \\| x4 "
                             "cannot be translated$"):
        circular_to_sa(graph, flow)


def test_translate_requires_witness():
    from circres.flowcheck import NotWitnessError
    from circres.generators import unsound_cycle_example

    graph = unsound_cycle_example()
    with pytest.raises(NotWitnessError):
        circular_to_sa(graph, dict.fromkeys(graph.inference_vertices, Fraction(1)))


# ---------------------------------------------------------------------------
# polynomial identity -> circular proof

def test_round_trip_single_cut():
    graph, flow = _single_cut()
    proof = circular_to_sa(graph, flow)
    g2, f2 = sa_to_circular(proof)
    assert verify_flow(g2, f2)
    assert g2.width == sa_degree(proof)


def test_round_trip_php_width_equals_degree():
    for n in (2, 3):
        graph, flow = php_refutation(complete_bipartite(n + 1, n))
        proof = circular_to_sa(graph, flow)
        d = sa_degree(proof)
        g2, f2 = sa_to_circular(proof)
        assert verify_flow(g2, f2)
        assert g2.width == d == graph.width


def test_round_trip_random_proofs():
    for seed in range(25):
        graph, flow = random_circular_proof(seed, 6, 9)
        if graph.goal_clause().is_tautological:
            continue
        proof = circular_to_sa(graph, flow)
        g2, f2 = sa_to_circular(proof)
        assert verify_flow(g2, f2), seed
        assert g2.width == sa_degree(proof), seed
        hyps = CnfFormula.of(
            6, sorted(g2.hypotheses, key=lambda c: tuple(sorted(c.signed())))
        )
        assert implies_oracle(hyps, g2.goal_clause()), seed


def test_identity_style_proof_pads_to_positive_goal_balance():
    proof = sa_proof(2, [clause(1)], clause(1), [(1, MONOMIAL_ONE, hyp(1))])
    assert check_sa(proof)
    graph, flow = sa_to_circular(proof)
    assert verify_flow(graph, flow)
    bal = balances(graph, flow)
    assert bal[graph.goal_id] >= 1
    assert graph.width == sa_degree(proof)
    # The padding carries the weight of the goal hypothesis's unweakened
    # terms, one whose monomial lies inside the hypothesis included:
    # X1 * enc(~x1) is enc(~x1) on 0-1 points.
    x1 = mono({1: 1})
    proof = sa_proof(1, [clause(-1)], clause(-1), [
        (1, x1, hyp(1)), (1, MONOMIAL_ONE, hyp(1)),
        (1, MONOMIAL_ONE, RefPoly(XSQ_MINUS_X, 1)), (1, x1, RefPoly(ONE)),
    ])
    assert check_sa(proof)
    graph, flow = sa_to_circular(proof)
    assert verify_flow(graph, flow)
    assert balances(graph, flow)[graph.goal_id] == 2


def test_sa_to_circular_rejects_non_checking_proof():
    proof = sa_proof(1, [clause(1)], clause(-1), [(1, MONOMIAL_ONE, hyp(1))])
    with pytest.raises(InconsistencyError):
        sa_to_circular(proof)


def test_length_linear_in_monomial_size():
    for seed in range(15):
        graph, flow = random_circular_proof(seed, 6, 9)
        if graph.goal_clause().is_tautological:
            continue
        proof = circular_to_sa(graph, flow)
        g2, _ = sa_to_circular(proof)
        assert g2.length <= 6 * sa_monomial_size(proof) + 6, seed


# ---------------------------------------------------------------------------
# the one-pass expansion kernel against the definition

def _product(m, q):
    """``m * q`` by adding the exponents read from ``.factors``."""
    powers = dict(m.factors)
    for tok, e in q.factors:
        powers[tok] = powers.get(tok, 0) + e
    return Monomial.of(powers.items())


def _expanded_products(proof):
    """The definition, one product at a time: ``a_j * q_j * poly(P_j)``."""
    for t in proof.terms:
        if t.coefficient <= 0:
            raise MalformedProofError(f"term coefficient {t.coefficient} is not positive")
        base = ref_polynomial(t.ref, proof.hypotheses)
        yield {_product(m, t.monomial): k * t.coefficient for m, k in base.items()}


def _defined_sum(proof):
    total = {}
    for e in _expanded_products(proof):
        for m, k in e.items():
            total[m] = total.get(m, 0) + k
    return {m: k for m, k in total.items() if k}


def _defined_degree(proof):
    return max((m.degree for e in _expanded_products(proof) for m in e), default=0)


def _defined_size(proof):
    return sum(len(e) for e in _expanded_products(proof))


def _repeated_reference_proof():
    # One reference polynomial under several monomials (some overlapping, so
    # products cancel and merge), fractional coefficients with coprime
    # denominators, and a hypothesis whose tokens the monomial repeats.
    x_sum = RefPoly(ONE_MINUS_X_XBAR, 2)
    return sa_proof(3, [clause(1, -3), clause(2)], clause(1), [
        (Fraction(1, 2), mono({1: 1}), x_sum),
        (Fraction(2, 3), mono({-3: 1, 1: 2}), x_sum),
        (5, MONOMIAL_ONE, x_sum),
        (Fraction(1, 2), mono({1: 1}), x_sum),
        (Fraction(3, 7), mono({2: 1}), RefPoly(XSQ_MINUS_X, 2)),
        (Fraction(3, 7), MONOMIAL_ONE, RefPoly(X_MINUS_XSQ, 2)),
        (1, mono({-1: 1, 3: 2}), hyp(1)),
        (Fraction(1, 4), mono({-2: 1}), hyp(2)),
        (Fraction(7, 4), MONOMIAL_ONE, RefPoly(ONE)),
    ])


def _kernel_cases():
    cases = []
    for seed in range(40):
        graph, flow = random_circular_proof(seed, 6, 9)
        if not graph.goal_clause().is_tautological:
            cases.append((f"random {seed}", circular_to_sa(graph, flow)))
    for n in range(3, 7):
        graph, flow = php_refutation(complete_bipartite(n + 1, n))
        cases.append((f"php {n}", circular_to_sa(graph, flow)))
    # Rescaling puts the coefficients over several coprime denominators, for
    # the common-denominator accumulation (most translated ones are integers).
    cases += [(f"{name}, rescaled", _rescaled(proof)) for name, proof in cases]
    cases.append(("repeated reference", _repeated_reference_proof()))
    # Twin products, exponents and terms that vanish on 0-1 points.
    cases.append(("term shapes", parse_sap(SHAPES_SAP)))
    return cases


def _rescaled(proof):
    terms = [(t.coefficient * Fraction(j % 4 + 1, j % 5 + 1), t.monomial, t.ref)
             for j, t in enumerate(proof.terms)]
    return sa_proof(proof.num_variables, proof.hypotheses, proof.goal, terms)


def test_kernel_matches_definition():
    for name, proof in _kernel_cases():
        assert proof_sum(proof) == _defined_sum(proof), name
        assert sa_degree(proof) == _defined_degree(proof), name
        assert sa_monomial_size(proof) == _defined_size(proof), name
    repeated = _repeated_reference_proof()
    assert proof_sum(repeated) and not check_sa(repeated)


@pytest.mark.parametrize("bad", [0, -1])
def test_kernel_rejects_nonpositive_coefficient(bad):
    good = (1, MONOMIAL_ONE, hyp(1))
    proof = sa_proof(1, [clause(1)], clause(1), [good, (bad, mono({1: 1}), hyp(1))])
    for measure in (proof_sum, sa_degree, sa_monomial_size):
        with pytest.raises(MalformedProofError):
            measure(proof)


# ---------------------------------------------------------------------------
# monomials against a model: a dict from token to exponent

# Exponents of X_v and Xb_v per variable v, 0 for no factor: tokens reach
# +-300, so masks pass 64 bits and the 512 bits whose literals core.py
# tabulates, and both twins of a variable occur.
_exponent_models = st.dictionaries(
    st.integers(1, 300), st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6,
).map(lambda by_var: {tok: e for v, (ex, exb) in by_var.items()
                      for tok, e in ((v, ex), (-v, exb)) if e})


def _factors(model):
    return tuple(sorted(model.items(), key=lambda f: literal_key(f[0])))


@given(_exponent_models, _exponent_models)
def test_monomial_matches_exponent_model(p, q):
    m = Monomial.of(p.items())
    assert m.factors == _factors(p)
    assert m.degree == sum(p.values())
    assert m == Monomial.of(list(reversed(p.items())))
    assert hash(m) == hash(Monomial.of(list(reversed(p.items()))))
    pq = dict(p)
    for tok, e in q.items():
        pq[tok] = pq.get(tok, 0) + e
    n = Monomial.of(q.items())
    product = Monomial(*kernel_product(m.mask, m.powers, n.mask, n.powers))
    assert product.factors == _factors(pq)
    assert product == Monomial(*kernel_product(n.mask, n.powers, m.mask, m.powers))
    assert product == Monomial.of(pq.items())
    assert product.degree == m.degree + n.degree
    # Pairs with repeated tokens add up.
    assert Monomial.of([*p.items(), *q.items()]) == product


def test_monomial_rejects_bad_powers():
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        Monomial.of([(1, -1)])
    with pytest.raises(ValueError, match="token 0 is not a twin variable"):
        Monomial.of([(0, 1)])


def test_monomial_str_lists_its_factors_in_canonical_order():
    assert str(mono({-3: 1, 2: 1, 1: 2})) == "X1^2*X2*Xb3"
    assert str(MONOMIAL_ONE) == "1"


# ---------------------------------------------------------------------------
# collapsed splits: the unit (x1) split on x1

def _collapsed_split(keep_unit, keep_tautology):
    """A refutation of (x1) and (~x1) by one cut, after a split of the unit
    (x1) on x1 that keeps a fresh copy of (x1), the tautology (x1 | ~x1), or
    both.  A kept copy of (x1) feeds the cut; a kept tautology is a sink."""
    b = ProofGraphBuilder()
    unit, neg = b.vertex(mask(1)), b.vertex(mask(-1))
    b.mark_hypothesis(unit)
    b.mark_hypothesis(neg)
    outs = []
    if keep_unit:
        outs.append(b.vertex(mask(1), fresh=True))
    if keep_tautology:
        outs.append(b.vertex(mask(1, -1)))
    b.inference(SPLIT, 1, (unit,), tuple(outs))
    b.set_goal(b.cut(outs[0] if keep_unit else unit, neg, 0, 1))
    return b.build()


# sha256 of serialize_sap of the translation and of serialize_cres of its
# way back, recorded before monomials became bit masks.
COLLAPSED_SPLIT_SHA256 = {
    "unit": ("d387ac36010142ce97115a0dcbea7dc19a831b7bbbca4f0197ce0ea0cfb985d9",
             "ba3f1613e11451ab4b68ad224f65bf094a730dc293b8120efd9fab79bf08cbc5"),
    "tautology": ("58089ee478c6f81834ee856ab6b37e36d5679621c15edbd287786402169625fb",
                  "61407a578244337c486676baca763ff087f85e964da02cf9392ca1af7185bfba"),
    "both": ("3534f86c509271d66b6abab0ac6a8cc16e6930e96721f14dc941457cb189995b",
             "61407a578244337c486676baca763ff087f85e964da02cf9392ca1af7185bfba"),
}


@pytest.mark.parametrize("keep", sorted(COLLAPSED_SPLIT_SHA256))
def test_collapsed_split_round_trip(keep):
    graph, flow = _collapsed_split(keep != "tautology", keep != "unit")
    assert validate_rules(graph) == []
    proof = circular_to_sa(graph, flow)
    assert check_sa(proof)
    g2, f2 = sa_to_circular(proof)
    assert verify_flow(g2, f2)
    sap, cres = serialize_sap(proof), serialize_cres(g2, f2)
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (sap, cres)) == COLLAPSED_SPLIT_SHA256[keep]
    if keep == "tautology":
        # The squared twin and the product of both twins of x1.
        assert "t 1 -1^2 ; B one" in sap.splitlines()
        assert any(t.monomial == mono({1: 1, -1: 1}) for t in proof.terms)
