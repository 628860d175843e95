"""Twin-variable polynomial proofs and the two clause-proof translations.

A polynomial is a plain ``{Monomial: Fraction}`` dict, like a flow, that
holds no zero coefficient, so two polynomials are equal exactly when their
dicts are.  They live over ``2n`` formally independent variables: ``X_i``
and its twin ``Xb_i`` (intended as the negation of ``X_i`` on 0-1 points,
but never substituted).  A clause maps to the product encoding

    enc(C) = - prod(Xb_j for positive literals) * prod(X_j for negative ones)

so that ``enc(C) >= 0`` holds on a consistent 0-1 point exactly when ``C`` is
satisfied.  A polynomial proof of ``A`` from hypotheses ``A_1..A_m`` is a
list of terms ``(a_j, q_j, P_j)`` with ``a_j > 0`` rational, ``q_j`` a
monomial, and ``P_j`` a hypothesis encoding or a basic polynomial, such that

    sum a_j * q_j * poly(P_j)  ==  enc(A)

holds as an exact formal identity.  The basic polynomials ``x - x^2``,
``x^2 - x``, ``1 - x - xb``, ``x + xb - 1`` and ``1`` are the rows of one
table, :data:`BASIC`, whose keys are also their ``.sap`` names.  Degree is
the maximum degree among the expanded products, monomial size the sum of
their term counts.

Each distinct ``poly(P_j)`` is computed once per proof, in a table kept on
the proof and shared by :func:`check_sa`, :func:`sa_degree` and
:func:`sa_monomial_size`.  Only :func:`check_sa` expands the products, once;
degree and monomial size are read without expanding: multiplying by ``q_j``
is injective on monomials and adds ``deg q_j`` to each degree, and
``a_j > 0``, so the product has exactly ``|poly(P_j)|`` terms and degree
``deg q_j + deg poly(P_j)``.

``circular_to_sa`` rewrites a flow-checked circular proof into such an
identity term by term (degree equals proof width); ``sa_to_circular`` goes
back by reading each term, on 0-1 points, as a rule application (width at
most proof degree).

A monomial is an ``int`` mask in the encoding of ``core.Clause`` (``X_i``
is bit ``2i``, ``Xb_i`` bit ``2i + 1``) plus a record of the rare exponents
above 1, so a clause's falsified-point monomial is its mask with each
variable's two bits exchanged, and most products are ORs.  A mask holds two
bits per variable up to its largest index: the producers here number
variables from 1, but a proof over ``x_{10^8}`` (``core.MAX_VARIABLE``)
handles 25 MB masks.
Monomials, references and terms are named tuples (see :mod:`circres.core`);
``RefPoly`` checks its fields in ``__new__``, and ``_make`` and
``_replace`` go through it.  ``Monomial`` and ``SATerm`` check nothing, so
the per-term loops make them with ``tuple.__new__``, with no Python frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .core import MAX_VARIABLE, Clause, literal_key, mask_literals, positive_mask
from .flowcheck import dual_certificate, verify_flow
from .proofgraph import (
    AXIOM,
    CUT,
    SPLIT,
    ProofGraph,
    ProofGraphBuilder,
    common_numerators,
    weaken,
)


class TautologicalClauseError(ValueError):
    """The product encoding of a tautological clause was requested where the
    translation requires proper clauses."""


class MalformedProofError(ValueError):
    """A polynomial proof violates its structural invariants."""


class InconsistencyError(ValueError):
    """A proof-to-graph translation could not reconcile its goal accounting."""


# ---------------------------------------------------------------------------
# monomials and polynomials

class Monomial(NamedTuple):
    """Power product over twin variables, token ``+i`` for ``X_i`` and
    ``-i`` for ``Xb_i``: ``mask`` is the ``Clause`` mask of its tokens, whose
    bits from low to high are the tokens in canonical order, and ``powers`` holds
    ``(token, exponent)`` for each exponent of 2 or more, in the same order.
    Mask 0 is the constant monomial 1."""

    mask: int = 0
    powers: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def of(powers: Iterable[tuple[int, int]]) -> "Monomial":
        """The monomial of the ``(token, exponent)`` pairs ``powers``, in any
        order.  Pairs of one token multiply, their exponents adding, so the
        product of ``m`` and ``q`` is ``Monomial.of((*m.factors, *q.factors))``."""
        acc: dict[int, int] = {}
        for tok, e in powers:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if not e:
                continue  # a zero power is no factor: ``one``'s row has token 0
            if tok == 0:
                raise ValueError("token 0 is not a twin variable")
            acc[tok] = acc.get(tok, 0) + e
        high = sorted((f for f in acc.items() if f[1] > 1), key=lambda f: literal_key(f[0]))
        return Monomial(Clause.from_signed(acc).mask, tuple(high))

    @property
    def degree(self) -> int:
        if not self.powers:  # the common case: no exponent above 1
            return self.mask.bit_count()
        return self.mask.bit_count() + sum(e - 1 for _, e in self.powers)

    @property
    def factors(self) -> tuple[tuple[int, int], ...]:
        """``(token, exponent)`` pairs in canonical order."""
        exponent = dict(self.powers)
        return tuple((tok, exponent.get(tok, 1)) for tok in mask_literals(self.mask))

    def __str__(self) -> str:
        return "*".join((f"X{tok}" if tok > 0 else f"Xb{-tok}") + (f"^{e}" if e > 1 else "")
                        for tok, e in self.factors) or "1"


MONOMIAL_ONE = Monomial()
_MINUS_ONE = Fraction(-1)


def _twin_swap(mask: int, positive: int) -> int:
    """``mask`` with each variable's two bits exchanged: clause <-> monomial.
    ``positive`` is a :func:`~circres.core.positive_mask` that covers the
    variables of ``mask``; a translation computes one per proof."""
    return (mask & positive) << 1 | (mask >> 1) & positive


# ---------------------------------------------------------------------------
# clause encodings

def falsified_monomial(c: Clause) -> Monomial:
    """The product whose value is 1 exactly on points falsifying ``c``.

    Positive literal ``x_i`` contributes the twin factor ``Xb_i``; negative
    ``~x_i`` contributes ``X_i``: the mask is that of the negated literals.
    Defined for tautological clauses as well, where the product contains
    both twins of a variable.
    """
    return Monomial(_twin_swap(c.mask, positive_mask(c.mask.bit_length() >> 1)))


def encode_clause(c: Clause) -> dict[Monomial, Fraction]:
    """Product encoding ``enc(c)``: minus the falsified-point monomial.

    Rejects tautological clauses, whose encoding would conflate a variable
    with its twin inside one monomial; the translations only ever encode
    proper clauses (elementary tautologies are handled by dedicated gadgets).
    """
    if c.is_tautological:
        raise TautologicalClauseError(f"cannot encode tautological clause {c}")
    return {falsified_monomial(c): _MINUS_ONE}


# ---------------------------------------------------------------------------
# reference polynomials and proofs

HYPOTHESIS = "hyp"
X_MINUS_XSQ = "xxsq"
XSQ_MINUS_X = "xsqx"
ONE_MINUS_X_XBAR = "1mxx"
X_XBAR_MINUS_ONE = "xxm1"
ONE = "one"

#: The basic reference polynomials, each over ``X_i`` and ``Xb_i`` as
#: ``(coefficient, exponent of X_i, exponent of Xb_i)`` rows.  A kind is also
#: its ``.sap`` name after ``B``.  ``one`` has index 0.
BASIC: dict[str, tuple[tuple[int, int, int], ...]] = {
    X_MINUS_XSQ: ((1, 1, 0), (-1, 2, 0)),
    XSQ_MINUS_X: ((1, 2, 0), (-1, 1, 0)),
    ONE_MINUS_X_XBAR: ((1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
    X_XBAR_MINUS_ONE: ((1, 1, 0), (1, 0, 1), (-1, 0, 0)),
    ONE: ((1, 0, 0),),
}


class RefPoly(NamedTuple("RefPoly", [("kind", str), ("index", int)])):
    """Reference polynomial of a proof term: a hypothesis or a basic one."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, kind: str, index: int = 0) -> "RefPoly":
        if kind != HYPOTHESIS and kind not in BASIC:
            raise ValueError(f"unknown reference polynomial kind {kind!r}")
        if kind == ONE:
            if index != 0:
                raise ValueError(f"one takes no index, got {index}")
        elif index < 1:
            raise ValueError(f"{kind} needs a positive index")
        return tuple.__new__(cls, (kind, index))


def hyp(i: int) -> RefPoly:
    return RefPoly(HYPOTHESIS, i)


_ONE_REF = RefPoly(ONE)
_ref = functools.cache(RefPoly)  # one checked reference per kind and index

#: Each basic kind's rows as ``(coefficient, monomial at index 1)``: index
#: ``i`` moves the monomial's bits up by ``2i - 2`` and its tokens to ``±i``.
_BASIC_AT_1 = {kind: tuple((Fraction(k), Monomial.of(((1, e), (-1, eb)))) for k, e, eb in rows)
               for kind, rows in BASIC.items()}


def ref_polynomial(ref: RefPoly, hypotheses: Sequence[Clause]) -> dict[Monomial, Fraction]:
    i = ref.index
    if ref.kind == HYPOTHESIS:
        if not 1 <= i <= len(hypotheses):
            raise MalformedProofError(f"hypothesis index {i} out of range")
        return encode_clause(hypotheses[i - 1])
    if i > MAX_VARIABLE:
        Clause.from_signed((i,))  # raises, before the index's bit exists
    return {tuple.__new__(Monomial, (m.mask << 2 * i >> 2, tuple((t * i, e) for t, e in m.powers)
                                     if m.powers else ())): k for k, m in _BASIC_AT_1[ref.kind]}


class SATerm(NamedTuple):
    coefficient: Fraction
    monomial: Monomial
    ref: RefPoly


@dataclass(frozen=True)
class SAProof:
    """Terms of a polynomial identity proving the goal clause's encoding."""

    num_variables: int
    hypotheses: tuple[Clause, ...]
    goal: Clause
    terms: tuple[SATerm, ...]

    @functools.cached_property
    def _reference_polynomials(self) -> dict[RefPoly, dict[Monomial, Fraction]]:
        """``poly(P)`` for each distinct reference ``P`` of the proof (a proof
        names few), built once per proof.  A coefficient ``<= 0`` is rejected
        on every call: a failed build is not kept."""
        refs: dict[RefPoly, dict[Monomial, Fraction]] = {}
        for t in self.terms:
            if t.coefficient.numerator <= 0:
                raise MalformedProofError(f"term coefficient {t.coefficient} is not positive")
            if t.ref not in refs:
                refs[t.ref] = ref_polynomial(t.ref, self.hypotheses)
        return refs


def proof_sum(proof: SAProof) -> dict[Monomial, Fraction]:
    """``sum a_j * q_j * poly(P_j)`` in one pass, as integer numerators over
    the common denominator of the ``a_j`` (reference polynomials have integer
    coefficients); only the surviving sums become fractions.  A product of
    monomials that share no token and carry no exponent, the common case, is
    the OR of their masks, summed under that plain mask, which becomes a
    monomial only when its sum is nonzero; any other product is
    :meth:`Monomial.of` their factors, summed under that monomial."""
    rows = {ref: [(m.mask, m.powers, k.numerator) for m, k in p.items()]
            for ref, p in proof._reference_polynomials.items()}
    scaled, den = common_numerators([t.coefficient for t in proof.terms])
    acc: dict[int | Monomial, int] = {}
    for c, (q_mask, q_powers), ref in proof.terms:
        a = scaled[id(c)]
        for mask, powers, k in rows[ref]:
            if mask & q_mask or powers or q_powers:
                # Never exponent-free: a shared token or a factor's power
                # leaves an exponent of 2 or more, so no OR's mask is its key.
                key = Monomial.of((*Monomial(mask, powers).factors,
                                   *Monomial(q_mask, q_powers).factors))
            else:  # disjoint tokens, no exponents: the product is an OR
                key = mask | q_mask
            acc[key] = acc.get(key, 0) + a * k
    return {Monomial(key) if type(key) is int else key: Fraction(c, den)
            for key, c in acc.items() if c}


def check_sa(proof: SAProof) -> bool:
    """Exact identity check: the expanded term sum must equal the encoding
    of the goal clause.

    The proof is expanded once, by :func:`proof_sum`, with no twin
    substitution and no multilinearization: formal polynomials are compared.
    A gadget whose natural target involves tautological clauses is checked
    by comparing :func:`proof_sum` with :func:`gadget_target` directly.
    """
    target = encode_clause(proof.goal)
    for h in proof.hypotheses:
        if h.is_tautological:
            raise TautologicalClauseError(f"tautological hypothesis {h}")
    return proof_sum(proof) == target


def sa_degree(proof: SAProof) -> int:
    """Max degree among the expanded products ``a_j * q_j * poly(P_j)``, read
    as ``deg q_j + deg poly(P_j)`` without expanding (see the module docstring)."""
    ref_degree = {ref: max(m.degree for m in p)
                  for ref, p in proof._reference_polynomials.items()}
    return max((t.monomial.degree + ref_degree[t.ref] for t in proof.terms), default=0)


def sa_monomial_size(proof: SAProof) -> int:
    """Sum of the term counts of the expanded products, read as ``|poly(P_j)|``
    without expanding (see the module docstring)."""
    refs = proof._reference_polynomials
    return sum(len(refs[t.ref]) for t in proof.terms)


# ---------------------------------------------------------------------------
# the four basic gadget families

def clause_gadget(kind: int, side: Monomial, principal: int,
                  weight: Fraction = Fraction(1)) -> list[SATerm]:
    """Term lists proving the four basic clause inequalities from nothing,
    each term with coefficient ``weight``.

    With ``m = side`` the falsified-point monomial of the side clause ``C``
    and ``x`` the principal variable:

    1. ``enc(x | ~x) >= 0``            -> ``(1-x-xb) * x + (x^2 - x)``
    2. ``-enc(C|~x) - enc(C|x) + enc(C) >= 0``  -> ``(x + xb - 1) * m``
    3. ``-enc(C) + enc(C|~x) + enc(C|x) >= 0``  -> ``(1 - x - xb) * m``
    4. ``-enc(C) >= 0``                -> ``1 * m``

    Kinds 1-3 require the principal not to occur in the side clause; the side
    clause must not be tautological, which is read off the side's own bits.
    """
    # Bit b of ``both`` marks tokens b and b + 1 of the side: the twins X_v
    # and Xb_v when b = 2v is even.  Most sides have no such bit at all.
    both, tautological = side.mask & side.mask >> 1, 0
    while both and not tautological:
        tautological = (both & -both).bit_length() & 1  # the lowest b is even
        both &= both - 1
    if tautological or kind in (1, 2, 3) and side.mask >> 2 * principal & 3:
        c = Clause(_twin_swap(side.mask, positive_mask(side.mask.bit_length() >> 1)))
        if tautological:
            raise TautologicalClauseError(f"tautological side clause {c}")
        raise ValueError(f"principal x{principal} occurs in side clause {c}")
    if kind == 1:
        return [
            tuple.__new__(SATerm, (weight, Monomial(1 << 2 * principal),
                                   _ref(ONE_MINUS_X_XBAR, principal))),
            tuple.__new__(SATerm, (weight, MONOMIAL_ONE, _ref(XSQ_MINUS_X, principal))),
        ]
    if kind == 2:
        return [tuple.__new__(SATerm, (weight, side, _ref(X_XBAR_MINUS_ONE, principal)))]
    if kind == 3:
        return [tuple.__new__(SATerm, (weight, side, _ref(ONE_MINUS_X_XBAR, principal)))]
    if kind == 4:
        return [tuple.__new__(SATerm, (weight, side, _ONE_REF))]
    raise ValueError(f"gadget kind must be 1..4, got {kind}")


def gadget_target(kind: int, side_clause: Clause, principal: int) -> dict[Monomial, Fraction]:
    """The inequality left-hand side each gadget family expands to, written
    with ``enc(C) = -F(C)`` for ``F`` the falsified-point monomial (which
    tautological clauses have too)."""
    pos = side_clause.with_literal(principal)
    neg = side_clause.with_literal(-principal)
    signed = {
        1: [(Clause.from_ints(principal, -principal), -1)],
        2: [(neg, 1), (pos, 1), (side_clause, -1)],
        3: [(side_clause, 1), (neg, -1), (pos, -1)],
        4: [(side_clause, 1)],
    }
    if kind not in signed:
        raise ValueError(f"gadget kind must be 1..4, got {kind}")
    target: dict[Monomial, Fraction] = {}
    for c, k in signed[kind]:
        m = falsified_monomial(c)
        target[m] = target.get(m, 0) + k
    return {m: Fraction(k) for m, k in target.items() if k}


# ---------------------------------------------------------------------------
# circular proof -> polynomial proof

def _rule_terms(w, coef: Fraction, mono: dict[int, Monomial]) -> list[SATerm]:
    """Proof terms expanding to the rule polynomial of inference vertex ``w``:
    consequent encodings minus antecedent encodings, weighted by ``coef``.
    ``mono`` maps each formula vertex to its falsified-point monomial.
    Only a collapsed rule, whose principal occurs in its side clause, is not
    built from its families.
    """
    x = w.rule.principal
    twin = 3 << 2 * x
    if w.rule.kind == AXIOM:
        return clause_gadget(1, MONOMIAL_ONE, x, coef)
    if w.rule.kind == CUT:
        side = mono[w.out_neighbors[0]]
        if not side.mask & twin:
            return clause_gadget(2, side, x, coef)
        # Collapsed cut: one antecedent equals the consequent, the other is
        # the elementary tautology; the rule polynomial is +x*xb times the
        # side remainder.
        other = next((m for m in map(mono.get, w.in_neighbors) if m != side), side)
        return [SATerm(coef, other, _ONE_REF)]
    # Split.
    side = mono[w.in_neighbors[0]]
    if not side.mask & twin:
        terms = clause_gadget(3, side, x, coef)
        if len(w.out_neighbors) == 1:
            # Suppressed consequent: add back its encoding, whose bit of x
            # is the one the kept consequent lacks.
            kept = mono[w.out_neighbors[0]].mask
            terms += clause_gadget(4, Monomial(side.mask | twin & ~kept), x, coef)
        return terms
    # Collapsed split on a variable of the side clause.
    outs = [mono[u] for u in w.out_neighbors]
    if len(outs) == 1 and outs[0] == side:
        return []  # rule polynomial is identically zero
    if len(outs) == 1:
        # Kept only the tautological side: side must be the unit clause of x.
        tok = x if side.mask >> 2 * x & 1 else -x
        return [
            SATerm(coef, side, _ref(ONE_MINUS_X_XBAR, x)),
            SATerm(coef, Monomial(side.mask, ((tok, 2),)), _ONE_REF),
        ]
    # Both consequents present: one collapsed to side, other the elementary
    # tautology (side must be a unit clause on x).
    return clause_gadget(1, MONOMIAL_ONE, x, coef)


def circular_to_sa(graph: ProofGraph, flow: dict[int, Fraction]) -> SAProof:
    """Write the :func:`dual_certificate` of a flow-checked circular proof
    with each of its inequalities as a polynomial.

    Each rule multiplier ``flow/goal_balance`` weights its rule polynomial,
    and each formula multiplier ``balance/goal_balance`` off the goal
    weights, by its absolute value, its clause encoding: a hypothesis
    reference at a source, a monomial at a sink.  The result passes
    :func:`check_sa` with degree equal to the proof width.  The variables'
    :func:`~circres.core.positive_mask` is computed once, and each reference
    is made once.
    """
    goal = graph.goal_clause()
    if goal.is_tautological:
        raise TautologicalClauseError(f"tautological goal {goal}")
    # Hypotheses in the order of their sorted signed literals, which fixes
    # the ``h`` lines and ``H i`` indices of a written proof.
    hyp_clauses = sorted(graph.hypotheses, key=lambda c: sorted(c.signed()))
    for h in hyp_clauses:
        if h.is_tautological:
            raise TautologicalClauseError(f"tautological hypothesis {h}")
    cert = dual_certificate(graph, flow)
    hyp_refs = {h: hyp(i) for i, h in enumerate(hyp_clauses, 1)}
    # The largest variable of a clause is read off the top bit of its mask.
    top = max(c.mask.bit_length() for c in graph.formula_vertices.values())
    num_vars = max([top - 1 >> 1, 0,
                    *(w.rule.principal for w in graph.inference_vertices.values())])
    positive = positive_mask(num_vars)
    mono = {fid: tuple.__new__(Monomial, (_twin_swap(c.mask, positive), ()))
            for fid, c in graph.formula_vertices.items()}
    for fid, c in graph.formula_vertices.items():
        # The elementary tautologies are the tautologies of width 2.
        m = mono[fid].mask
        if m & (m >> 1) & positive and m.bit_count() != 2:
            raise TautologicalClauseError(
                f"non-elementary tautological clause {c} cannot be translated"
            )

    terms: list[SATerm] = []
    for iid, w in graph.inference_vertices.items():
        terms += _rule_terms(w, cert.rule_multipliers[iid], mono)
    for fid, m in cert.formula_multipliers.items():
        if m < 0:
            terms.append(tuple.__new__(SATerm, (-m, MONOMIAL_ONE,
                                                hyp_refs[graph.formula_vertices[fid]])))
        elif fid != graph.goal_id:
            terms.append(tuple.__new__(SATerm, (m, mono[fid], _ONE_REF)))
    return SAProof(num_vars, tuple(hyp_clauses), goal, tuple(terms))


# ---------------------------------------------------------------------------
# polynomial proof -> circular proof

def sa_to_circular(proof: SAProof) -> tuple[ProofGraph, dict[int, Fraction]]:
    """Read a checked polynomial proof as a circular proof of its goal.

    Each term ``a * q * P`` becomes weight ``a`` on rules or slack around
    the clause ``C`` whose falsified-point monomial ``F(C)`` is ``q`` with
    its exponents dropped.  On each 0-1 point of the twin variables a power
    equals its base, so there the term equals the polynomial of what it
    becomes, given at each branch with ``x`` the variable of a basic ``P``:
    a rule's is its consequents' ``-F`` minus its antecedents', and slack's
    is ``-F`` at a source, ``+F`` at a sink.  The terms' sum is then
    multilinear and agrees with the goal's encoding on all 0-1 points, so
    the two are equal and the graph has the goal's balances.

    The width of the result is at most the proof degree, and equal on the
    round trips the tests check: exponents and terms that vanish on 0-1
    points count toward the degree only.  The exception is an empty goal
    that is also a hypothesis: its detour through ``x1`` has width 1.  The
    proof is checked first, by :func:`check_sa`, which also rejects a
    tautological goal, and :func:`verify_flow` rechecks the graph built.
    """
    if not check_sa(proof):
        raise InconsistencyError("polynomial proof does not check")

    b = ProofGraphBuilder()
    goal_vertex = b.vertex(proof.goal.mask)
    hyp_masks = [h.mask for h in proof.hypotheses]
    # The largest monomial has the largest mask, which covers every term's variables.
    top = max(map(itemgetter(1), proof.terms), default=MONOMIAL_ONE).mask
    positive = positive_mask(top.bit_length() >> 1)

    identity_budget = Fraction(0)
    for a, q, (kind, i) in proof.terms:
        c = _twin_swap(q.mask, positive)  # the term's clause
        twin = 3 << 2 * i  # for a basic kind, both literals of its variable
        if kind == HYPOTHESIS:  # -F(H | C): slack at H, splits from H to H | C
            h = hyp_masks[i - 1]
            b.vertex(h)
            if not c & ~h and proof.hypotheses[i - 1] == proof.goal:
                identity_budget += a
            weaken(b, h, h | c, a)
        elif kind == ONE_MINUS_X_XBAR and c & twin:  # -F(C | x | ~x): axiom, splits
            b.inference(AXIOM, i, (), (b.vertex(twin),), a)
            weaken(b, twin, twin | c, a)
        elif kind == ONE_MINUS_X_XBAR:  # F(C) - F(C | x) - F(C | ~x): a split
            src = b.vertex(c)
            pos, neg = b.vertex(c | 1 << 2 * i), b.vertex(c | 2 << 2 * i)
            b.inference(SPLIT, i, (src,), (pos, neg), a)
        elif kind == X_XBAR_MINUS_ONE and c & twin:  # F(C | x | ~x): sink slack
            b.vertex(c | twin)
        elif kind == X_XBAR_MINUS_ONE:  # F(C | x) + F(C | ~x) - F(C): a cut
            pos, neg = b.vertex(c | 1 << 2 * i), b.vertex(c | 2 << 2 * i)
            b.inference(CUT, i, (pos, neg), (b.vertex(c),), a)
        elif kind == ONE:  # F(C): sink slack
            b.vertex(c)
        # x - x^2 and x^2 - x are zero: nothing

    b.mark_hypotheses(set(hyp_masks))
    b.set_goal(goal_vertex)
    graph, flow = b.build()
    if graph.inference_vertices and verify_flow(graph, flow):
        return graph, flow
    if proof.goal not in proof.hypotheses:
        raise InconsistencyError("terms do not yield a witnessing flow for the goal")
    b.pad_identity(proof.goal.mask, max(identity_budget, Fraction(1)))
    graph, flow = b.build()
    if not verify_flow(graph, flow):
        raise InconsistencyError("translated graph fails its own flow check")
    return graph, flow

