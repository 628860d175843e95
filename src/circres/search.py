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
clause of width at most ``w`` with a positive literal, and the sign
conditions of a proof: the goal's balance is at least 1, every other
non-hypothesis balance is nonnegative, and hypothesis balances are free.
On a clause with a positive literal the condition is a declared lower bound
on its own variable; on ``N_m`` it is a row, the balance of ``N_m`` read off
the monomial ``x^m`` (degree at most ``w``).  A feasible point is turned
back into cuts and splits, clause by clause, and rechecked exactly as a
circular proof.

A hypothesis ``H`` inside the goal ``G`` is a proof by itself:
single-consequent splits from ``H`` up to ``G``, of width ``|G|``, or, when
``H`` is ``G``, the identity proof, a split from the hypothesis copy onto a
fresh goal copy (a vertex has one clause, so the goal needs its own).
Width 0 admits no rule, not even that split.  The search answers with it
and builds no program: the loop below returns it before it resolves
anything.  Past that first step, everything below assumes no hypothesis
lies inside the goal.

The program is built on a restriction of the instance.  Let ``y`` be a
variable outside the goal that occurs in the hypotheses in at most one
sign, and ``l`` that literal (either one when ``y`` is unused).  Setting
``y`` to make ``l`` true and dropping the hypotheses that contain ``l``
leaves a program that is feasible exactly when the full one is:

* Full to restricted: substituting ``y`` into ``sum_D b_D F_D = 0`` maps
  ``F`` of ``D | l`` to 0 and ``F`` of ``D | ~l`` to ``F_D``, so
  ``b'_D = b_D + b_(D | ~l)`` (the second term when ``D | ~l`` has width at
  most ``w``) solves the restricted identity over the clauses without ``y``.
  No hypothesis contains ``~l``, so the added balance is nonnegative, and
  the goal, which has no ``y``, keeps a balance of at least 1.
* Restricted to full: a proof from fewer hypotheses over fewer variables
  is a proof from all of them.

Dropping repeats until every variable left is in the goal or in the
remaining hypotheses in both signs.  Those variables, in increasing order,
are renamed ``x_1 .. x_k`` by rank; the program is built and solved on the
rank masks, and each clause of the realized proof is mapped back through
the rank table.  The map keeps variable order, so it keeps canonical
literal order, and an instance with nothing to drop over ``x_1 .. x_n``
solves the same program as without the restriction.

Both procedures rest on one given-clause loop, the acyclic width-``w``
closure of cut and split: resolution over the hypotheses, shortest clauses
first, with forward and lazy backward subsumption, in which a resolvent
``R`` of ``c`` and ``d`` on ``x`` is kept only when ``|R| + 1 <= w``, the
width at which cut and split reach it, by weakening ``c`` to ``R | x`` and
``d`` to ``R | ~x`` and cutting on ``x``.  Each active clause is indexed
under each of its literals by its side, the clause less that literal, so a
resolvent is the union of two sides.  Clauses wait in one queue per width,
popped last in first out at a cursor on the shortest nonempty width, which
a shorter resolvent lowers.  The loop records each kept clause's parents
and stops at the first kept clause inside a target, a hypothesis before
any resolvent.

Before the program is built, the search runs the loop at width ``w`` over
the restricted hypotheses, with the goal as the target.  The derivation of
the clause it stops at, weakened to the goal, is an acyclic width-``w``
proof, and with use counts as flows an acyclic proof is a circular one:
each derived clause is consumed as often as it is made, so only hypotheses
are sources and the goal's balance is 1.  The program is complete for
width-``w`` circular proofs, so the stage changes no found/none answer,
only which step gives it.

When the closure holds no clause inside the goal, it presolves the
program: the balance of every clause of width at most ``w`` that contains
a kept clause, a hypothesis or a kept resolvent, is left free, as the
hypotheses' are, so an all-negative one loses its row and any other its
declared bound.  Each such clause ``W`` has an acyclic width-``w``
derivation: that of a kept clause ``K`` inside it, then single-consequent
splits that add the literals of ``W`` missing from ``K``.  No kept clause
lies inside the goal: no hypothesis does, and the loop would have stopped
at a resolvent that did.  So the goal keeps its bound.  This changes no
answer:

* Extended to original: a point of the presolved program is realized as
  cuts and splits in which a freed clause ``W`` may be a source, of some
  amount ``a_W``.  When ``W`` is not kept, splits of value ``a_W`` from a
  kept clause ``K`` inside it up to ``W`` are spliced in, and ``a_W``
  moves onto ``K``.  Then the acyclic derivation of each kept resolvent
  ``C`` that owes some ``a_C``, with use counts scaled by ``a_C`` and
  pushed down to the hypotheses, is spliced in: that makes ``C`` exactly
  ``a_C`` more than it consumes and leaves only hypotheses as sources, at
  width at most ``w``.  The result is a width-``w`` circular proof from
  the original hypotheses.
* Original to extended: the presolved program is the original one less
  some constraints, a relaxation, so every point of the original is one
  of it.

The clauses left constrained are those that contain no kept clause, so
every clause inside a constrained one is constrained too, and the program
is built from them alone: a row per constrained all-negative clause, and a
variable per clause with a positive literal that enters one of those rows,
bounded below when the clause is constrained.  A clause ``N | P``, ``N``
its negative and ``P`` its positive part, enters the rows of
``N | (S << 1)`` for the ``S`` inside ``P`` (below), each of which contains
``N``, the row of ``N`` itself among them.  So it enters a constrained row
exactly when ``N`` is constrained: the variables are the clauses with a
positive literal whose negative part is constrained, every constrained one
among them, and the clauses left out are free and enter no row: fixing
their balances at 0 changes no answer.

``daglike_width_saturate`` is the classical comparison point: the least
fixed point of width-bounded resolution and weakening over the hypotheses.
A classical resolvent is a cut of premises one literal wider than itself,
so its resolution core is the loop at width ``w + 1`` with the empty
clause as the target; the closure is then rebuilt as every weakening of
width at most ``w`` of that core, since weakening can always be postponed
past resolution without raising width.  A formula has a dag-like width-``w``
refutation exactly when the closure contains the empty clause, which makes
the pair of procedures a practical probe for instances where circular
width beats dag-like width.  For the same reason the classical closure
cannot stand in for the search's stage or its presolve: a classical
width-``w`` resolvent need not have a width-``w`` circular proof, so the
first half of the argument above fails for it.  On the Tseitin formula of
``K_4``, freeing the classical width-4 closure in the program turns the
correct none at width 4 into "found".

Both procedures work on the ``core.Clause`` mask: literal ``l`` sets bit
``literal_key(l)``, so bit ``2v`` is ``x_v``, bit ``2v + 1`` is ``~x_v``, and
the bits read from low to high are the literals in canonical order.  In the
search, ``F_D`` is the sum of ``(-1)^|S| x^(N | S)`` over the submasks ``S``
of the positive part ``P`` (the even bits) of ``D``, ``N`` its negative
part, so the variable ``b_D`` enters the row of ``N | (S << 1)`` with sign
``-(-1)^|S|``.  In the loop, a literal bit's complement is its
neighbour; the resolvent of ``c`` and ``d`` on bit ``b`` of ``c`` is
``(c ^ b) | (d ^ comp(b))``, the sides indexed under ``b`` and ``comp(b)``;
``r`` is tautological when ``r & (r >> 1)`` has a positive-literal bit set;
its width is ``r.bit_count()``; subsumption looks up submasks in the dict
of kept clauses; and a weakening ORs in one bit.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple, Optional

from . import lp
from .core import Clause, CnfFormula, clause_set, positive_mask
from .flowcheck import verify_flow
from .proofgraph import CUT, SPLIT, ProofGraph, ProofGraphBuilder, weaken

DEFAULT_ROW_BUDGET = 2_000_000

# Each clause the acyclic closure keeps, mapped to the (c, d, bit) it is the
# resolvent of, or to None for a hypothesis.
_Parents = dict[int, Optional[tuple[int, int, int]]]


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
    itself and its tautology.

    Nothing in the package calls it.  Kept only for perfbench, whose
    ``search.lattice_formulas`` and ``search.lattice_inferences`` counters
    call it with the CNF header's ``num_variables``, not with the size of
    the program the search solves; deleting it breaks the benchmark."""
    formulas = n_infs = 0
    for k in range(min(width, num_vars) + 1):
        formulas += math.comb(num_vars, k) * 2 ** k
        if k <= width - 1:
            n_infs += 2 * math.comb(num_vars, k) * 2 ** k * (num_vars - k)
    formulas += num_vars          # elementary tautologies
    n_infs += num_vars            # axioms
    n_infs += 2 * num_vars        # collapsing unit splits
    return formulas, n_infs


def _clause_masks(num_vars: int, width: int) -> list[int]:
    """All non-tautological clauses of width at most ``width`` as masks, canonically ordered."""
    masks = []
    for k in range(width + 1):
        for vs in itertools.combinations(range(1, num_vars + 1), k):
            masks += map(sum, itertools.product(*[(1 << 2 * v, 2 << 2 * v) for v in vs]))
    return masks


def _hypothesis_masks(hypotheses: CnfFormula) -> set[int]:
    return {c.mask for c in hypotheses.clauses if not c.is_tautological}


def _restriction(hypotheses: CnfFormula, goal: Clause, width: int) -> tuple[list[int], set[int], int]:
    """The instance the search works on: the variables kept by the
    restriction (see the module docstring) in increasing order, then the
    kept hypotheses and the goal as masks over their ranks, variable
    ``kept[i - 1]`` becoming ``x_i``.  Raises :class:`WidthError`, on
    the unrestricted input, if ``width`` is below the inputs' width or the
    goal is tautological."""
    needed = max(c.width for c in (*hypotheses.clauses, goal))
    if width < needed:
        raise WidthError(f"width {width} below input width {needed}")
    if goal.is_tautological:
        raise WidthError("goal clause must not be tautological")
    target = goal.mask
    goal_vars = (target | target >> 1) & positive_mask(target.bit_length() >> 1)
    hyps = _hypothesis_masks(hypotheses)
    while True:
        union = 0
        for h in hyps:
            union |= h
        kept_vars = union & union >> 1 & positive_mask(union.bit_length() >> 1) | goal_vars
        # kept_vars * 3 has both literal bits of every kept variable.
        survivors = {h for h in hyps if not h & ~(kept_vars * 3)}
        if len(survivors) == len(hyps):
            break
        hyps = survivors
    kept = []
    while kept_vars:
        low = kept_vars & -kept_vars
        kept.append(low.bit_length() >> 1)
        kept_vars ^= low
    rank = {v: i for i, v in enumerate(kept, 1)}
    return kept, {_renamed(h, rank) for h in hyps}, _renamed(target, rank)


def _renamed(mask: int, table) -> int:
    """``mask`` with the variable ``v`` of each literal replaced by ``table[v]``."""
    out = 0
    while mask:
        b = mask.bit_length() - 1
        mask ^= 1 << b
        out |= 1 << (2 * table[b >> 1] | b & 1)
    return out


class SearchAnswer(NamedTuple):
    """What :func:`circular_search` did: the proof and flow or ``None``, the
    unpresolved program's constraints and clause-balance variables, the step
    that answered (``"hypothesis"``, ``"closure"`` or ``"lp"``), the number
    of kept clauses, and the presolved LP's size when one was solved."""

    proof: Optional[tuple[ProofGraph, dict[int, Fraction]]]
    lattice: tuple[int, int]
    stage: str
    kept: int
    presolved: Optional[tuple[int, int]]


def circular_search(
    hypotheses: CnfFormula,
    goal: Clause,
    width: int,
    row_budget: int = DEFAULT_ROW_BUDGET,
) -> SearchAnswer:
    """Search for a width-bounded circular proof of ``goal``.

    Works on the restricted instance (see the module docstring) in steps:
    the acyclic width-``width`` closure, whose first step answers a
    hypothesis inside the goal by the identity proof or by splits from the
    hypothesis up to the goal, then, when the closure holds no clause
    inside the goal, the degree-``width`` Sherali-Adams program over clause
    balances, presolved by leaving the balances of the closure's kept
    clauses and of every clause that contains one free, so at most one
    exact LP call.  The answer's proof is the weakened hypothesis, the
    closure's derivation or the cuts and splits that realize the balances
    found with the derivations of the freed clauses they draw on spliced
    in, with its flows, or ``None`` when no width-``width`` circular proof
    exists (by soundness, in particular, when the goal does not follow).
    Raises :class:`SearchBudgetError`, before either step, if the sum of
    ``lattice`` would exceed ``row_budget``, and :class:`WidthError` if
    ``width`` cannot even accommodate the inputs.
    """
    kept, hyps, target = _restriction(hypotheses, goal, width)
    n = len(kept)
    # A constraint per clause of width at most ``width`` but the hypotheses
    # other than the goal (a row when the clause is all-negative, a declared
    # bound otherwise), and a variable per clause with a positive literal.
    clauses = sum(math.comb(n, k) * 2 ** k for k in range(width + 1))
    rows = clauses - len(hyps - {target})
    cols = clauses - sum(math.comb(n, k) for k in range(width + 1))
    if rows + cols > row_budget:
        raise SearchBudgetError(rows, cols, row_budget)
    up = [0, *kept]
    b = ProofGraphBuilder()
    b.set_goal(b.vertex(goal.mask))
    parents, found = _acyclic_closure(n, hyps, target, width)
    answer = SearchAnswer(None, (rows, cols), "lp", len(parents), None)
    if found is None:
        # Every kept clause and every weakening of one is as free as the
        # hypotheses (see the module docstring).
        variables, program = _program(n, width, target, parents)
        answer = answer._replace(presolved=(len(program.rows) + len(program.lower), program.num_vars))
        point = lp.feasible(program)
        if point is None:
            return answer
        _emit_derivation(b, parents, _realize(b, point, variables, up), up)
    elif target in hyps:
        # The identity proof; width 0 admits no rule, not even its split.
        answer = answer._replace(stage="hypothesis")
        if not width:
            return answer
        b.pad_identity(goal.mask)
    else:
        # Splits from a hypothesis inside the goal, or the closure's derivation.
        answer = answer._replace(stage="hypothesis" if found in hyps else "closure")
        _emit_derivation(b, parents, {target: 1}, up)
    b.mark_hypotheses(_hypothesis_masks(hypotheses))
    graph, flow = b.build()
    if not verify_flow(graph, flow):
        raise AssertionError("search solution fails its own flow check")
    return answer._replace(proof=(graph, flow))


def _acyclic_closure(n: int, hyps: set[int], target: int,
                     width: int) -> tuple[_Parents, Optional[int]]:
    """The resolution core of the acyclic width-``width`` closure of cut and
    split over ``hyps``, masks over ``x_1 .. x_n``: the given-clause loop of
    the module docstring, shortest clauses first, last in first out within
    a width, each active clause indexed by its sides, with forward and lazy
    backward subsumption, keeping a resolvent ``R`` only when
    ``|R| + 1 <= width``, the width of the weakened premises ``R | x`` and
    ``R | ~x`` its cut needs, and stopping at the first kept clause inside
    ``target``: the first hypothesis inside it, in :func:`_kept_subset`'s
    order, before any resolution, so an empty hypothesis stops it at once.

    Returns every kept clause, in the order kept, mapped to ``(c, d, bit)``
    when it is the resolvent of ``c`` and ``d`` on bit ``bit`` of ``c`` and
    to ``None`` when it is a hypothesis, and the clause the loop stopped at,
    or ``None``."""
    positive = positive_mask(n)
    parents: _Parents = dict.fromkeys(hyps)
    found = _kept_subset(target, parents, target)
    if found is not None:
        return parents, found
    queues: list[list[int]] = [[] for _ in range(width + 1)]
    for h in hyps:
        queues[h.bit_count()].append(h)
    # sides[bit]: the active clauses holding literal bit ``bit``, less it.
    sides: dict[int, list[int]] = {}
    k = 0
    while True:
        while k <= width and not queues[k]:
            k += 1
        if k > width:
            return parents, None
        c = queues[k].pop()
        if _kept_subset(c, parents, (c - 1) & c) is not None:
            continue
        rest = c
        while rest:
            bit = rest & -rest
            rest ^= bit
            comp = bit << 1 if bit & positive else bit >> 1
            side = c ^ bit
            for other in sides.get(comp, ()):
                resolvent = side | other
                r = resolvent.bit_count()
                if r >= width or resolvent & (resolvent >> 1) & positive:
                    continue
                if resolvent in parents or _kept_subset(resolvent, parents, resolvent) is not None:
                    continue
                parents[resolvent] = (c, other | comp, bit)
                if not resolvent & ~target:
                    return parents, resolvent
                queues[r].append(resolvent)
                if r < k:
                    k = r
            # Safe before c's later bits are resolved: c holds no complement
            # of its own bits, so it never meets itself in sides.
            sides.setdefault(bit, []).append(side)


def _emit_derivation(b: ProofGraphBuilder, parents: _Parents, owed: dict[int, Fraction | int],
                     up: list[int]) -> None:
    """Add to ``b`` what supplies each clause that ``owed`` maps to an
    amount, each clause mapped back through the rank table ``up``: a
    hypothesis is a source, a clause that ``parents`` records (see
    :func:`_acyclic_closure`) gets its acyclic derivation, and any other
    clause single-consequent splits from the first recorded clause among its
    submasks, itself first, which then owes the amount.  The resolvent
    ``R`` of ``c`` and ``d`` on ``x`` is a cut of ``R | x`` and ``R | ~x``,
    each reached from its premise by splits that add one literal at a time.
    Flows are use counts, pushed down from the owed amounts in reverse
    derivation order, so every derived clause is made as often as it is
    consumed plus what it owes, and only hypotheses are sources; the
    weakenings come last."""
    uses: dict[int, Fraction | int] = {}
    weakenings = []
    for w, amount in owed.items():
        k = _kept_subset(w, parents, w)
        if k is None:
            raise AssertionError("a constrained clause balance is negative")
        uses[k] = uses.get(k, 0) + amount
        if k != w:
            weakenings.append((k, w, amount))
    for r in reversed(parents):
        if r in uses and parents[r] is not None:
            c, d, _ = parents[r]
            uses[c] = uses.get(c, 0) + uses[r]
            uses[d] = uses.get(d, 0) + uses[r]
    for r, step in parents.items():
        if r not in uses or step is None:
            continue
        c, d, bit = step
        index = bit.bit_length() - 1
        if index & 1:  # c holds ~x, d holds x
            c, d = d, c
        x = up[index >> 1]
        pos, neg = 1 << 2 * x, 2 << 2 * x
        side = _renamed(r, up)
        weaken(b, _renamed(c, up), side | pos, uses[r])
        weaken(b, _renamed(d, up), side | neg, uses[r])
        b.inference(CUT, x, (b.vertex(side | pos), b.vertex(side | neg)),
                    (b.vertex(side),), uses[r])
    for k, w, amount in weakenings:
        weaken(b, _renamed(k, up), _renamed(w, up), amount)


def _kept_subset(c: int, kept, sub: int) -> Optional[int]:
    """The first submask of ``c`` in ``kept`` from its submask ``sub`` down,
    the empty clause last, or ``None``: the one "contains a kept clause" test
    of :func:`_acyclic_closure`, :func:`_emit_derivation` and
    :func:`_program`.  Starting at ``c`` itself asks whether ``c`` contains a
    kept clause, at ``(c - 1) & c`` whether it properly contains one."""
    while sub not in kept:
        if not sub:
            return None
        sub = (sub - 1) & c
    return sub


def _program(n: int, width: int, target: int, kept) -> tuple[list[int], lp.LinearProgram]:
    """The search LP over ``x_1 .. x_n`` (the module docstring) presolved by
    ``kept``, no clause of which may lie inside ``target``: the balance of
    every clause that contains a clause of ``kept`` is free, and that of
    ``target``, constrained like every clause inside it, is at least 1.  Its
    rows are the constrained all-negative clauses, in decreasing mask
    order, and its variables the clauses with a positive literal that enter
    one of those rows, in increasing mask order: exactly the clauses whose
    negative part is constrained, since every row a clause enters contains
    its negative part, whose own row it enters.  A variable is bounded
    below when its clause is constrained.  Every other balance is left out,
    which fixes it at 0.  The two orders are a choice: of the four that
    sort by mask, this one took the fewest pivots on the near-cubic
    pigeonhole variants.  Returns the variables' clauses and the program."""
    # small[k]: the positive clauses of width at most k, the empty one first.
    small = [[0]]
    for k in range(1, width + 1):
        small.append(small[-1] + [sum(c) for c in itertools.combinations(
            [1 << 2 * v for v in range(1, n + 1)], k)])
    rows = sorted((p << 1 for p in small[width] if _kept_subset(p << 1, kept, p << 1) is None),
                  reverse=True)
    index = {r: i for i, r in enumerate(rows)}
    variables = sorted(r | p for r in rows for p in small[width - r.bit_count()][1:]
                       if not p & r >> 1)
    # The row of N | (S << 1) holds -(-1)^|S| b_D for every D = N | P with
    # S inside P (the module docstring); j grows, so each row stays sorted.
    positive = positive_mask(n)
    forms: list[list[tuple[int, int]]] = [[] for _ in rows]
    lower = {}
    for j, d in enumerate(variables):
        p = d & positive
        s = p
        while True:
            i = index.get(d ^ p | s << 1)
            if i is not None:
                forms[i].append((j, 1 if s.bit_count() & 1 else -1))
            if not s:
                break
            s = (s - 1) & p
        if _kept_subset(d, kept, d) is None:
            lower[j] = int(d == target)
    program = lp.LinearProgram(
        len(variables),
        [lp.Constraint(tuple(form), int(r == target)) for r, form in zip(rows, forms)],
        lower,
    )
    return variables, program


def _realize(b: ProofGraphBuilder, point: list[Fraction], variables: list[int],
             up: list[int]) -> dict[int, Fraction]:
    """Add to ``b`` the cuts and splits that realize the balances ``point``
    of :func:`_program`, each clause mapped back through the rank table
    ``up``, and return what each clause left as a source owes: minus its
    balance, where that is negative.

    For D = side | x, x its top positive bit, a cut on (side, x) of value
    -t (a split of value t when t > 0) settles the residual t of D and moves
    t onto side and -t onto side | ~x, both with one positive literal fewer.
    Clauses are settled level by level, from the most positive literals
    down, starting from the point's support; what the walk leaves on an
    all-negative clause is minus that clause's balance.  Residuals are
    integers over the point's common denominator."""
    positive = positive_mask(len(up) - 1)
    den = math.lcm(*(v.denominator for v in point))
    levels: defaultdict[int, dict[int, int]] = defaultdict(dict)  # by positive literals
    owed = {}
    for d, v in zip(variables, point):
        if v:
            levels[(d & positive).bit_count()][d] = v.numerator * (den // v.denominator)
            if v < 0:
                owed[d] = -v
    for k in range(max(levels, default=0), 0, -1):
        below = levels[k - 1]
        for d, t in levels[k].items():
            if not t:
                continue
            top = 1 << (d & positive).bit_length() - 1
            below[d ^ top] = below.get(d ^ top, 0) + t
            below[d ^ top | top << 1] = below.get(d ^ top | top << 1, 0) - t
            x, value = up[top.bit_length() >> 1], Fraction(abs(t), den)
            d, top = _renamed(d, up), 1 << 2 * x
            side, neg = d ^ top, d ^ top | (top << 1)
            if t < 0:
                b.inference(CUT, x, (b.vertex(d), b.vertex(neg)), (b.vertex(side),), value)
            else:
                b.inference(SPLIT, x, (b.vertex(side),), (b.vertex(d), b.vertex(neg)), value)
    owed |= {d: Fraction(t, den) for d, t in levels[0].items() if t > 0}
    return owed


def daglike_width_saturate(hypotheses: CnfFormula, width: int) -> set[Clause]:
    """Least fixed point of width-bounded resolution and weakening.

    Tautological resolvents and weakenings never belong to the closure.  The
    result contains the empty clause exactly when a dag-like resolution
    refutation of width at most ``width`` exists.

    Weakening is eliminated from the fixed-point computation: a resolvent of
    weakenings ``C' >= C`` and ``D' >= D`` either contains ``C`` or ``D`` or
    contains ``res(C, D)``, so the closure is the upward closure, within
    width ``width``, of a resolution-only core.  That core is the
    :func:`_acyclic_closure` at ``width + 1`` with the empty target: the
    resolvent ``R`` of ``c | x`` and ``d | ~x`` is the cut of ``R | x`` and
    ``R | ~x``, so the loop's bound ``|R| + 1 <= width + 1`` is the
    classical ``|R| <= width``.  Each nonempty core clause below the width
    is then weakened by every literal its variables leave free, and so is
    each new weakening still below it; :func:`core.clause_set` makes and
    deduplicates the hypotheses, core and weakenings in one call.  If
    resolution derives the empty clause at width 2 or more, every
    non-tautological clause of width at most ``width`` follows (each is a
    weakening of a unit ``x`` or ``~x``, or a resolvent of a weakening of
    each), and that set is returned.  At width 1 the loop stops at the empty
    clause too, and loses nothing: the clauses are units, whose only
    resolvent is the empty clause, so the core is the hypotheses and the
    empty clause.  An empty hypothesis, which would stop the loop's first
    step, is left out of the loop and added back to the closure, inert: it
    neither resolves, subsumes nor is weakened.
    """
    needed = max((c.width for c in hypotheses.clauses), default=0)
    if width < needed:
        raise WidthError(f"width {width} below hypothesis width {needed}")
    n = hypotheses.num_variables
    hyps = _hypothesis_masks(hypotheses)
    parents, found = _acyclic_closure(n, hyps - {0}, 0, width + 1)
    if found is not None and width >= 2:
        return clause_set(_clause_masks(n, width))

    masks = [*hyps & {0}, *parents]  # the empty hypothesis back in
    positive = positive_mask(n)
    literals = [1 << b for b in range(2, 2 * n + 2)]
    short = [c for c in parents if 0 < c.bit_count() < width]
    seen = set(short)
    while short:
        c = short.pop()
        used = ((c | c >> 1) & positive) * 3  # both literal bits of c's variables
        weakened = [c | b for b in literals if not b & used]
        masks += weakened
        if c.bit_count() + 1 < width:
            fresh = [w for w in weakened if w not in seen]
            seen.update(fresh)
            short += fresh
    return clause_set(masks)
