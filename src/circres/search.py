"""Bounded-width proof search and a dag-like width-saturation oracle.

``circular_search`` solves the degree-``w`` Sherali-Adams program of the
hypotheses rather than a flow program over the width-``w`` clause lattice.
Write ``F_D`` for the multilinear polynomial that is 1 exactly where clause
``D`` is false.  A cut or split on ``x`` between ``d`` and ``d | x``,
``d | ~x`` respects ``F_d = F_{d|x} + F_{d|~x}``, so the clause balances of
any flow satisfy ``sum_D b_D F_D = 0``; conversely every such balance
vector comes from a flow on the lattice.  An all-negative clause ``N_m`` has
``F`` equal to the single monomial ``x^m``, so its balance is fixed by the
others.  The program therefore has one variable per non-tautological
clause of width at most ``w`` with a positive literal, one row per monomial
of degree at most ``w`` (the balance of ``N_m``), and the sign conditions of
a proof: the goal's balance is at least 1 and every other non-hypothesis
balance is nonnegative.  A feasible point is turned back into cuts and
splits, clause by clause, and rechecked exactly as a circular proof.

``daglike_width_saturate`` is the classical comparison point: the least fixed
point of width-bounded resolution and weakening over the hypotheses.  It
saturates under resolution alone, discarding subsumed clauses, and then
rebuilds the closure as every weakening of width at most ``w`` of what
remains; weakening can always be postponed past resolution without raising
width, so the result is the same set.  A formula has a dag-like width-``w`` refutation
exactly when the saturation contains the empty clause, which makes the pair
of procedures a practical probe for instances where circular width beats
dag-like width.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from . import lp
from .core import Clause, CnfFormula
from .flowcheck import FlowAssignment, verify_flow
from .proofgraph import ProofGraph, ProofGraphBuilder

DEFAULT_ROW_BUDGET = 2_000_000


class WidthError(ValueError):
    """Requested width below the width of the hypotheses or goal."""


class SearchBudgetError(RuntimeError):
    """The search LP would exceed the configured budget."""

    def __init__(self, rows: int, cols: int, budget: int) -> None:
        self.rows = rows
        self.cols = cols
        self.budget = budget
        super().__init__(
            f"search LP needs {rows} rows and {cols} clause-balance variables, "
            f"exceeding the budget of {budget}"
        )


def lattice_size(num_vars: int, width: int) -> tuple[int, int]:
    """Formula and inference vertex counts of the width-``width`` clause
    lattice that search proofs live in: every clause of width at most
    ``width`` and every elementary tautology; an axiom per variable, every
    cut and split whose clauses fit, and a split from each unit clause onto
    itself and its tautology."""
    formulas = n_infs = 0
    for k in range(min(width, num_vars) + 1):
        formulas += math.comb(num_vars, k) * 2 ** k
        if k <= width - 1:
            n_infs += 2 * math.comb(num_vars, k) * 2 ** k * (num_vars - k)
    formulas += num_vars          # elementary tautologies
    n_infs += num_vars            # axioms
    n_infs += 2 * num_vars        # collapsing unit splits
    return formulas, n_infs


def _signed_clauses(num_vars: int, width: int):
    """All non-tautological clauses of width at most ``width`` as frozensets
    of signed variables, canonically ordered."""
    for k in range(width + 1):
        for vs in itertools.combinations(range(1, num_vars + 1), k):
            for signs in itertools.product((1, -1), repeat=k):
                yield frozenset(v * s for v, s in zip(vs, signs))


def _proper_clauses(num_vars: int, width: int):
    """All non-tautological clauses of width at most ``width``, canonically ordered."""
    return map(Clause.from_signed, _signed_clauses(num_vars, width))


def circular_search(
    hypotheses: CnfFormula,
    goal: Clause,
    width: int,
    row_budget: int = DEFAULT_ROW_BUDGET,
) -> Optional[tuple[ProofGraph, FlowAssignment]]:
    """Search for a width-bounded circular proof of ``goal`` by linear feasibility.

    Solves the degree-``width`` Sherali-Adams program over clause balances
    (see the module docstring) with one exact LP call.  Returns a proof made
    of the cuts and splits that realize the balances found, with their flows,
    or ``None`` when no width-``width`` circular proof exists (by soundness,
    in particular, when the goal does not follow).  Raises
    :class:`SearchBudgetError` if the program's rows plus variables would
    exceed ``row_budget`` and :class:`WidthError` if ``width`` cannot even
    accommodate the inputs.
    """
    n = max(hypotheses.num_variables, max(goal.variables(), default=0))
    needed = max(
        [c.width for c in hypotheses.clauses] + [goal.width]
    ) if (hypotheses.clauses or goal.literals) else 0
    if width < needed:
        raise WidthError(f"width {width} below input width {needed}")
    if goal.is_tautological:
        raise WidthError("goal clause must not be tautological")

    target = goal.signed()
    hyps = {c.signed() for c in hypotheses.clauses if not c.is_tautological}
    clauses = sum(math.comb(n, k) * 2 ** k for k in range(width + 1))
    rows = clauses - len(hyps - {target})
    cols = clauses - sum(math.comb(n, k) for k in range(width + 1))
    if rows + cols > row_budget:
        raise SearchBudgetError(rows, cols, row_budget)

    # The balance of each clause as a linear form in the variables: b_D
    # itself when D has a positive literal, and minus the coefficient of x^m
    # in sum_D b_D F_D for N_m, using F_D = sum over subsets S of D's
    # positive variables of (-1)^|S| x^(N | S), N the negated variables.
    variables: list[frozenset[int]] = []
    balance: dict[frozenset[int], dict[int, int]] = {}
    for d in _signed_clauses(n, width):
        if max(d, default=0) > 0:
            balance[d] = {len(variables): 1}
            variables.append(d)
        else:
            balance[d] = {}
    for j, d in enumerate(variables):
        pos = [l for l in d if l > 0]
        neg = d.difference(pos)
        for k in range(len(pos) + 1):
            for s in itertools.combinations(pos, k):
                balance[neg.union(-x for x in s)][j] = 1 if k % 2 else -1

    program = lp.LinearProgram(len(variables))
    for d, form in balance.items():
        if d == target:
            program.add_geq(form, 1)
        elif d not in hyps:
            program.add_geq(form, 0)
    point = lp.feasible(program)
    if point is None:
        return None

    # Realize the balances: for D = d | x, x its largest positive variable,
    # a cut on (d, x) of value -t (a split of value t when t > 0) settles the
    # residual t of D and moves t onto d and -t onto d | ~x, both with one
    # positive literal fewer.  Monomials are independent, so nothing may be
    # left on the all-negative clauses.
    residual = {
        d: sum((c * point[j] for j, c in form.items()), Fraction(0))
        for d, form in balance.items()
    }
    values: dict[tuple[frozenset[int], int], Fraction] = {}
    for d in sorted(variables, key=lambda d: -sum(l > 0 for l in d)):
        t = residual.pop(d)
        if not t:
            continue
        x = max(d)
        side = d - {x}
        values[side, x] = -t
        residual[side] += t
        residual[side | {-x}] -= t
    if any(residual.values()):
        raise AssertionError("clause balances leave a residual on an all-negative clause")
    return _pruned(values, goal, set(hypotheses.clauses))


def _pruned(values, goal: Clause, hyp_clauses) -> tuple[ProofGraph, FlowAssignment]:
    """The proof with a cut (positive value) or split (negative value) on
    each ``(side, x)`` of ``values``, checked by :func:`verify_flow`."""
    builder = ProofGraphBuilder()
    builder.set_goal(builder.vertex(goal))
    for (side, x), value in values.items():
        d = Clause.from_signed(side)
        if value > 0:
            pos = builder.vertex(Clause.from_signed(side | {x}))
            neg = builder.vertex(Clause.from_signed(side | {-x}))
            builder.cut(pos, neg, d, x, value)
        else:
            builder.split(builder.vertex(d), x, flow=-value)
    for clause, fid in builder.clause_index():
        if clause in hyp_clauses:
            builder.mark_hypothesis(fid)
    graph, flows = builder.build()
    flow = FlowAssignment(flows)
    if not verify_flow(graph, flow, graph.goal_id):
        raise AssertionError("search solution fails its own flow check")
    return graph, flow


def daglike_width_saturate(hypotheses: CnfFormula, width: int) -> set[Clause]:
    """Least fixed point of width-bounded resolution and weakening.

    Tautological resolvents and weakenings never belong to the closure.  The
    result contains the empty clause exactly when a dag-like resolution
    refutation of width at most ``width`` exists.

    Weakening is eliminated from the fixed-point computation: a resolvent of
    weakenings ``C' >= C`` and ``D' >= D`` either contains ``C`` or ``D`` or
    contains ``res(C, D)``, so the closure is the upward closure, within
    width ``width``, of a resolution-only core.  That core is saturated with
    forward subsumption (a resolvent with a kept nonempty subset is
    dropped) and lazy backward subsumption (a queued clause is dropped when
    popped if a proper nonempty subset is kept by then), shortest clauses
    first.  The closure is then rebuilt by adding one literal at a time to
    the nonempty core clauses.  If resolution derives the empty clause at
    width 2 or more, every non-tautological clause of width at most
    ``width`` follows (each is a weakening of a unit ``x`` or ``~x``, or a
    resolvent of a weakening of each), and that set is returned at once.
    An empty hypothesis stays inert: it neither subsumes nor is weakened.
    """
    needed = max((c.width for c in hypotheses.clauses), default=0)
    if width < needed:
        raise WidthError(f"width {width} below hypothesis width {needed}")
    n = hypotheses.num_variables

    kept: set[frozenset[int]] = set()
    queues: list[list[frozenset[int]]] = [[] for _ in range(width + 1)]
    active: dict[int, list[frozenset[int]]] = {}

    def has_kept_subset(c: frozenset[int], max_size: int) -> bool:
        for k in range(1, max_size + 1):
            for sub in itertools.combinations(c, k):
                if frozenset(sub) in kept:
                    return True
        return False

    def keep(c: frozenset[int]) -> None:
        kept.add(c)
        if c:
            queues[len(c)].append(c)

    for c in hypotheses.clauses:
        if not c.is_tautological:
            keep(c.signed())

    while any(queues):
        c = next(q for q in queues if q).pop()
        if has_kept_subset(c, len(c) - 1):
            continue
        for lit in c:
            rest = c - {lit}
            for d in active.get(-lit, ()):
                resolvent = rest | (d - {-lit})
                if len(resolvent) > width or any(-l in resolvent for l in resolvent):
                    continue
                if not resolvent and width >= 2:
                    return set(_proper_clauses(n, width))
                if not has_kept_subset(resolvent, len(resolvent)):
                    keep(resolvent)
        for lit in c:
            active.setdefault(lit, []).append(c)

    closure = set(kept)
    frontier = [c for c in kept if 0 < len(c) < width]
    while frontier:
        c = frontier.pop()
        for v in range(1, n + 1):
            if v in c or -v in c:
                continue
            for lit in (v, -v):
                weakened = c | {lit}
                if weakened not in closure:
                    closure.add(weakened)
                    if len(weakened) < width:
                        frontier.append(weakened)
    return {Clause.from_signed(c) for c in closure}
