"""Certification of circular proofs through flow assignments.

A flow assignment gives every inference vertex a positive weight.  It
witnesses a proof when every source (a formula vertex of negative balance)
is labelled by a hypothesis clause and the goal vertex is a sink (of
positive balance); :func:`verify_flow` and :func:`dual_certificate` read
this off one sweep of :func:`~circres.proofgraph.balance_numerators`.
Witness search is an exact linear feasibility question.  It is tried first
at the unit flow, weight 1 everywhere: every formula derived at least as
often as it is used as a premise.  When that witnesses, it is the solver's
own answer, so no program is built.  A negative answer can often
be read off a starved vertex, which rules out every positive flow: a goal
that no inference derives, or a premise that no inference derives and no
hypothesis labels.  Once a witness exists the proof is sound, and this
module also produces the two artifacts that make soundness auditable:

* a falsified-source trace: given an assignment falsifying a sink, walk the
  graph (decreasing total flow) to a falsified hypothesis vertex;
* a dual certificate: nonzero multipliers that collapse the semantic
  inequalities of the rules into the contradiction ``0 >= 1``, which
  ``sheraliadams.circular_to_sa`` writes as a polynomial identity.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from . import lp
from .core import evaluate
from .proofgraph import ProofGraph, RuleViolation, balance_numerators, validate_rules


class ValidationError(ValueError):
    """The graph fails its local rule templates; ``violations`` lists them."""

    def __init__(self, violations: list[RuleViolation]) -> None:
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


class NotWitnessError(ValueError):
    """A flow assignment expected to witness a proof does not."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


def _witness_program(graph: ProofGraph) -> tuple[lp.LinearProgram, list[int]]:
    """Feasibility program for flows witnessing a proof at ``graph.goal_id``.

    Rows: goal balance >= 1; balance >= 0 for every non-hypothesis,
    non-goal formula vertex, in formula order.  Declared bounds: each flow
    variable >= 1.  Returns the program and the inference-vertex ids in
    variable order.
    """
    order = sorted(graph.inference_vertices)
    # Column k is inference order[k]'s +1 per consequent and -1 per premise;
    # appended in increasing k, each vertex's row is sorted as built.
    rowmap: dict[int, list[tuple[int, int]]] = {fid: [] for fid in graph.formula_vertices}
    for k, iid in enumerate(order):
        w = graph.inference_vertices[iid]
        column: dict[int, int] = {}
        for u in w.out_neighbors:
            column[u] = column.get(u, 0) + 1
        for u in w.in_neighbors:
            column[u] = column.get(u, 0) - 1
        for u, c in column.items():
            if c:
                rowmap[u].append((k, c))

    goal = graph.goal_id
    rows = [lp.Constraint(tuple(rowmap[goal]), 1)]
    rows += [lp.Constraint(tuple(rowmap[fid]), 0)
             for fid, clause in graph.formula_vertices.items()
             if fid != goal and clause not in graph.hypotheses]
    return lp.LinearProgram(len(order), rows, dict.fromkeys(range(len(order)), 1)), order


def starved_vertex(graph: ProofGraph) -> Optional[int]:
    """A formula vertex whose balance fails for every positive flow, or
    ``None``: the least vertex other than the goal that some inference uses
    as a premise, none derives, and no hypothesis labels (it starves every
    choice of goal), else ``graph.goal_id`` when no inference derives it."""
    derived: set[int] = set()
    used: set[int] = set()
    for w in graph.inference_vertices.values():
        derived.update(w.out_neighbors)
        used.update(w.in_neighbors)
    used -= derived
    used.discard(graph.goal_id)
    starved = [u for u in used if graph.formula_vertices[u] not in graph.hypotheses]
    if starved:
        return min(starved)
    return None if graph.goal_id in derived else graph.goal_id


def _goal_candidates(graph: ProofGraph) -> Iterator[ProofGraph]:
    """``graph`` itself, then ``graph`` with its goal moved to each other
    vertex that carries the goal clause, in id order."""
    yield graph
    goal_clause = graph.goal_clause()
    for fid in sorted([fid for fid, clause in graph.formula_vertices.items()
                       if clause == goal_clause and fid != graph.goal_id]):
        yield dataclasses.replace(graph, goal_id=fid)


def find_witness(graph: ProofGraph, flow: Optional[dict[int, Fraction]] = None
                 ) -> tuple[ProofGraph, Optional[dict[int, Fraction]]]:
    """Certify a proof graph: validate its rules once, then find a witness.
    Returns the graph with its goal at the witnessed vertex and the witness,
    or ``graph`` and ``None`` when no flow witnesses it.

    Raises :class:`ValidationError` on rule violations.  The goal clause may
    label several vertices; the marked goal is tried first, then the others
    in id order, and the first one witnessed is the goal returned.  A
    supplied ``flow`` that :func:`verify_flow` accepts at some candidate is
    returned as the witness itself (the same dict), with no solver call.
    Otherwise, as when no flow is supplied, each candidate in turn is
    witnessed by the unit flow if :func:`verify_flow` accepts it, with no
    solver call (it is the solver's point too: the walk from the lower
    bounds takes no pivot), or else its flow program is solved by exact
    linear feasibility.
    """
    problems = validate_rules(graph)
    if problems:
        raise ValidationError(problems)
    if flow is not None:
        for candidate in _goal_candidates(graph):
            if verify_flow(candidate, flow):
                return candidate, flow
    unit = dict.fromkeys(sorted(graph.inference_vertices), Fraction(1))
    for candidate in _goal_candidates(graph):
        if verify_flow(candidate, unit):
            return candidate, unit
        program, order = _witness_program(candidate)
        point = lp.feasible(program)
        if point is not None:
            return candidate, {iid: point[k] for k, iid in enumerate(order)}
    return graph, None


def _witnessed(graph: ProofGraph, flow: dict[int, Fraction], bal: dict[int, int]) -> bool:
    """:func:`verify_flow`, read on the balance numerators ``bal`` of ``flow``."""
    formulas, hypotheses = graph.formula_vertices, graph.hypotheses
    return (all(f.numerator > 0 for f in flow.values()) and bal[graph.goal_id] > 0
            and all(b >= 0 or formulas[u] in hypotheses for u, b in bal.items()))


def verify_flow(graph: ProofGraph, flow: dict[int, Fraction]) -> bool:
    """Arithmetic re-check on one balance sweep, no solver: every flow
    positive, ``graph.goal_id`` a sink, and every source labelled by a
    hypothesis."""
    return _witnessed(graph, flow, balance_numerators(graph, flow)[0])


def integralize(graph: ProofGraph, flow: dict[int, Fraction]) -> dict[int, Fraction]:
    """Scale a witnessing flow to positive integers.

    Uniform positive scaling by the common denominator preserves the sign of
    every balance, hence the source and sink sets.
    """
    if not verify_flow(graph, flow):
        raise NotWitnessError("flow assignment does not witness the proof")
    scale = math.lcm(*(f.denominator for f in flow.values()))
    return {iid: f * scale for iid, f in flow.items()}


def trace_falsified_source(graph: ProofGraph, integral_flow: dict[int, Fraction],
                           sink_id: int, alpha: Mapping[int, int]) -> tuple[int, int]:
    """Walk from a sink that ``alpha`` falsifies to a falsified source.

    Works on a private copy of the integral flow: at each step it picks an
    in-neighbour ``r`` of the current falsified sink, moves to a falsified
    antecedent of ``r``, and removes ``min(balance(sink), flow(r))`` units of
    flow through ``r``.  The total flow strictly decreases each step, so the
    walk terminates; it stops at the first vertex of negative balance.
    Returns that vertex's id and the number of reductions made, which is at
    most the total flow.
    """
    bal, _ = balance_numerators(graph, integral_flow)  # den is 1 past the check below
    if not all(f > 0 and f.denominator == 1 for f in integral_flow.values()):
        raise PreconditionError("tracer requires positive integral flows")
    if evaluate(graph.formula_vertices[sink_id], alpha):
        raise PreconditionError("assignment satisfies the sink clause")

    flows = dict(integral_flow)
    if bal[sink_id] <= 0:
        raise PreconditionError("sink vertex must have strictly positive balance")
    producers: dict[int, list[int]] = {}
    for iid, w in graph.inference_vertices.items():
        for u in w.out_neighbors:
            producers.setdefault(u, []).append(iid)

    s = sink_id
    steps = 0
    while True:
        # Invariant: alpha falsifies clause(s) and bal[s] > 0.
        r = None
        for cand in sorted(producers.get(s, ())):
            if flows[cand] > 0:
                r = cand
                break
        if r is None:
            raise AssertionError("positive balance without a flowing producer")
        rule_vertex = graph.inference_vertices[r]
        u = None
        for cand in sorted(rule_vertex.in_neighbors):
            if not evaluate(graph.formula_vertices[cand], alpha):
                u = cand
                break
        if u is None:
            raise AssertionError(
                "falsified consequent with all antecedents satisfied; unsound rule"
            )
        if bal[u] < 0:
            return u, steps
        # Each reduction removes at least one unit of total flow.
        steps += 1
        delta = min(bal[s], flows[r])
        flows[r] -= delta
        for v in rule_vertex.in_neighbors:
            bal[v] += delta
        for v in rule_vertex.out_neighbors:
            bal[v] -= delta
        if bal[u] <= 0:
            raise AssertionError("degenerate rule broke the sink invariant")
        s = u


@dataclass(frozen=True)
class DualCertificate:
    """Nonzero multipliers for the semantic inequality system of a checked
    proof; a missing key reads as 0.

    ``formula_multipliers`` weight one inequality per formula vertex of
    nonzero balance (``-Z`` at the graph's goal, ``1 - Z`` elsewhere), and
    may be negative only on a vertex labelled by a hypothesis;
    ``rule_multipliers`` weight the validity inequality of each inference
    vertex.
    """

    formula_multipliers: dict[int, Fraction]
    rule_multipliers: dict[int, Fraction]


def dual_certificate(graph: ProofGraph, flow: dict[int, Fraction]) -> DualCertificate:
    """Multipliers ``balance(u)/balance(goal)`` and ``flow(w)/balance(goal)``,
    read off the same sweep of integer balance numerators that checks the
    witness: negative exactly at the sources, and omitted where the balance
    is 0.  :func:`verify_dual_certificate` checks the combination."""
    bal, den = balance_numerators(graph, flow)
    if not _witnessed(graph, flow, bal):
        raise NotWitnessError("flow assignment does not witness the proof")
    goal_num = bal[graph.goal_id]
    scale = Fraction(den, goal_num)
    rules = ({iid: flow[iid] for iid in graph.inference_vertices} if scale == 1 else
             {iid: flow[iid] * scale for iid in graph.inference_vertices})
    return DualCertificate({u: Fraction(b, goal_num) for u, b in bal.items() if b}, rules)


def certificate_combination(graph: ProofGraph,
                            cert: DualCertificate) -> tuple[dict[int, Fraction], Fraction]:
    """Expand the weighted sum of semantic inequalities symbolically.

    Every formula vertex ``u`` carries an indeterminate for the truth value of
    its clause.  The inequalities (all in ``expr >= 0`` form):

    * goal vertex ``graph.goal_id``: ``-Z_goal``;
    * any other formula vertex: ``1 - Z_u``;
    * inference vertex ``w``: ``sum(1 - Z_a, antecedents) - sum(1 - Z_b, consequents)``.

    Returns the coefficient of every indeterminate and the constant term of
    the combination.
    """
    mult = cert.formula_multipliers
    coeff = {fid: -mult.get(fid, Fraction(0)) for fid in graph.formula_vertices}
    const = -sum((v for fid, v in coeff.items() if fid != graph.goal_id), Fraction(0))
    for iid, w in graph.inference_vertices.items():
        c = cert.rule_multipliers.get(iid, Fraction(0))
        if not c:
            continue
        for u in w.in_neighbors:
            coeff[u] -= c
            const += c
        for u in w.out_neighbors:
            coeff[u] += c
            const -= c
    return coeff, const


def verify_dual_certificate(graph: ProofGraph, cert: DualCertificate) -> bool:
    """True iff the combination collapses exactly to ``0 >= 1``.

    Every multiplier must name a vertex of ``graph``, a negative formula
    multiplier must sit on a vertex labelled by a hypothesis clause, rule
    multipliers must be nonnegative, every indeterminate must cancel, and
    the constant must be exactly ``-1`` (the combined inequality reads
    ``-1 >= 0``, equivalently ``0 >= 1``).  This is sound: an assignment
    satisfying the hypotheses and falsifying the goal makes every weighted
    inequality nonnegative, a negative weight only multiplying ``1 - Z = 0``
    at a satisfied hypothesis, yet they sum to ``-1``.
    """
    formulas = graph.formula_vertices
    if not (cert.formula_multipliers.keys() <= formulas.keys()
            and cert.rule_multipliers.keys() <= graph.inference_vertices.keys()):
        return False
    if any(b < 0 and formulas[u] not in graph.hypotheses
           for u, b in cert.formula_multipliers.items()):
        return False
    if any(c < 0 for c in cert.rule_multipliers.values()):
        return False
    coeff, const = certificate_combination(graph, cert)
    return all(c == 0 for c in coeff.values()) and const == Fraction(-1)
