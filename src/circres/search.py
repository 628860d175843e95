"""Bounded-width proof search and a dag-like width-saturation oracle.

``circular_search`` lays down one formula vertex per clause of width at most
``w`` (proper clauses plus the elementary tautologies), one axiom vertex per
variable, and every cut and split whose participating clauses all fit, then
asks the exact LP for flows giving the goal positive balance while keeping
every non-hypothesis balance nonnegative.  A feasible point, pruned to its
positive-flow support, is a checked circular proof.

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
from typing import Optional

from . import lp
from .core import Clause, CnfFormula, Literal
from .flowcheck import FlowAssignment, verify_flow
from .proofgraph import (
    AXIOM,
    CUT,
    SPLIT,
    FormulaVertex,
    InferenceVertex,
    ProofGraph,
    Rule,
)

DEFAULT_ROW_BUDGET = 2_000_000


class WidthError(ValueError):
    """Requested width below the width of the hypotheses or goal."""


class SearchBudgetError(RuntimeError):
    """The lattice LP would exceed the configured budget."""

    def __init__(self, rows: int, cols: int, budget: int) -> None:
        self.rows = rows
        self.cols = cols
        self.budget = budget
        super().__init__(
            f"search LP needs {rows} balance rows and {cols} flow variables, "
            f"exceeding the budget of {budget}"
        )


def lattice_size(num_vars: int, width: int) -> tuple[int, int]:
    """Formula and inference vertex counts of the search lattice."""
    import math

    formulas = n_infs = 0
    for k in range(min(width, num_vars) + 1):
        formulas += math.comb(num_vars, k) * 2 ** k
        if k <= width - 1:
            n_infs += 2 * math.comb(num_vars, k) * 2 ** k * (num_vars - k)
    formulas += num_vars          # elementary tautologies
    n_infs += num_vars            # axioms
    n_infs += 2 * num_vars        # collapsing unit splits
    return formulas, n_infs


def _proper_clauses(num_vars: int, width: int):
    """All non-tautological clauses of width at most ``width``, canonically ordered."""
    for k in range(width + 1):
        for vs in itertools.combinations(range(1, num_vars + 1), k):
            for signs in itertools.product((1, -1), repeat=k):
                yield Clause.from_signed(v * s for v, s in zip(vs, signs))


def circular_search(
    hypotheses: CnfFormula,
    goal: Clause,
    width: int,
    row_budget: int = DEFAULT_ROW_BUDGET,
) -> Optional[tuple[ProofGraph, FlowAssignment]]:
    """Search for a width-bounded circular proof of ``goal`` by linear feasibility.

    Returns the witnessed proof restricted to inference vertices of positive
    flow, or ``None`` when no flow exists (by soundness, in particular, when
    the goal does not follow).  Raises :class:`SearchBudgetError` if the
    lattice would be too large and :class:`WidthError` if ``width`` cannot
    even accommodate the inputs.
    """
    n = hypotheses.num_variables
    needed = max(
        [c.width for c in hypotheses.clauses] + [goal.width]
    ) if (hypotheses.clauses or goal.literals) else 0
    if width < needed:
        raise WidthError(f"width {width} below input width {needed}")
    if goal.is_tautological:
        raise WidthError("goal clause must not be tautological")

    clauses = list(_proper_clauses(n, width))
    taut = [Clause.from_ints(v, -v) for v in range(1, n + 1)]
    vid: dict[Clause, int] = {}
    formulas: list[FormulaVertex] = []
    for c in clauses + taut:
        vid[c] = len(formulas)
        formulas.append(FormulaVertex(vid[c], c))

    inferences: list[InferenceVertex] = []

    def add(kind: str, principal: int, ins: tuple[int, ...], outs: tuple[int, ...]) -> None:
        inferences.append(
            InferenceVertex(len(inferences), Rule(kind, principal), ins, outs)
        )

    for v in range(1, n + 1):
        add(AXIOM, v, (), (vid[Clause.from_ints(v, -v)],))
    for c in clauses:
        if c.width > width - 1:
            continue
        free = [v for v in range(1, n + 1) if v not in c.variables()]
        for x in free:
            pos = c.with_literal(Literal(x, True))
            neg = c.with_literal(Literal(x, False))
            add(CUT, x, (vid[pos], vid[neg]), (vid[c],))
            add(SPLIT, x, (vid[c],), (vid[pos], vid[neg]))
    # Splits from unit clauses onto their elementary tautologies keep the
    # lattice closed under the collapsing rule shape.
    for v in range(1, n + 1):
        for sign in (1, -1):
            unit = Clause.from_ints(sign * v)
            add(SPLIT, v, (vid[unit],), (vid[unit], vid[Clause.from_ints(v, -v)]))

    hyp_clauses = set(hypotheses.clauses)
    rows = sum(1 for c in vid if c not in hyp_clauses or c == goal)
    if rows + len(inferences) > row_budget:
        raise SearchBudgetError(rows, len(inferences), row_budget)

    goal_vertex = vid[goal]
    program = lp.LinearProgram(len(inferences))
    rowmap: dict[int, dict[int, int]] = {f.id: {} for f in formulas}
    for w in inferences:
        for u in w.out_neighbors:
            rowmap[u][w.id] = rowmap[u].get(w.id, 0) + 1
        for u in w.in_neighbors:
            rowmap[u][w.id] = rowmap[u].get(w.id, 0) - 1
    program.add_geq(rowmap[goal_vertex], 1)
    for f in formulas:
        if f.id == goal_vertex or f.clause in hyp_clauses:
            continue
        program.add_geq(rowmap[f.id], 0)
    for w in inferences:
        program.add_geq({w.id: 1}, 0)

    point = lp.feasible(program)
    if point is None:
        return None
    kept = [w for w in inferences if point[w.id] > 0]
    flow_values = {w.id: point[w.id] for w in kept}
    return _pruned(formulas, kept, flow_values, goal_vertex, hyp_clauses)


def _pruned(formulas, kept, flow_values, goal_vertex: int, hyp_clauses):
    touched = {goal_vertex}
    for w in kept:
        touched.update(w.in_neighbors)
        touched.update(w.out_neighbors)
    remap = {old: new for new, old in enumerate(sorted(touched))}
    new_formulas = tuple(
        FormulaVertex(remap[f.id], f.clause) for f in formulas if f.id in touched
    )
    new_infs = tuple(
        InferenceVertex(
            k,
            w.rule,
            tuple(remap[u] for u in w.in_neighbors),
            tuple(remap[u] for u in w.out_neighbors),
        )
        for k, w in enumerate(kept)
    )
    hyp_ids = frozenset(f.id for f in new_formulas if f.clause in hyp_clauses)
    graph = ProofGraph(new_formulas, new_infs, hyp_ids, remap[goal_vertex])
    flow = FlowAssignment({k: flow_values[w.id] for k, w in enumerate(kept)})
    if not verify_flow(graph, flow, graph.goal_id):
        raise AssertionError("pruned search solution fails its own flow check")
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
