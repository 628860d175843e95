import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circres import lp
from circres.core import Clause, CnfFormula, implies_oracle
from circres.flowcheck import find_witness, verify_flow
from circres.generators import (
    complete_bipartite,
    gen_php,
    near_cubic_bipartite,
    php_refutation,
)
from circres.proofgraph import AXIOM, CUT, SPLIT, validate_rules
from circres.search import (
    SearchAnswer,
    SearchBudgetError,
    WidthError,
    _acyclic_closure,
    circular_search,
    daglike_width_saturate,
    lattice_size,
)


def clause(*ints):
    return Clause.from_ints(*ints)


def unit_contradiction():
    return CnfFormula.of(1, [clause(1), clause(-1)])


def test_unit_contradiction_width_one():
    res = circular_search(unit_contradiction(), Clause(), 1).proof
    assert res is not None
    graph, flow = res
    assert validate_rules(graph) == []
    assert verify_flow(graph, flow)
    assert graph.width <= 1


def test_satisfiable_formula_never_refuted():
    cnf = CnfFormula.of(2, [clause(1, 2)])
    assert circular_search(cnf, Clause(), 2).proof is None
    assert circular_search(cnf, Clause(), 2 + 1).proof is None


def test_goal_derivation_non_refutation():
    # (x2) follows from {(x2|x1), (x2|~x1)}
    cnf = CnfFormula.of(2, [clause(2, 1), clause(2, -1)])
    res = circular_search(cnf, clause(2), 2).proof
    assert res is not None
    graph, flow = res
    assert verify_flow(graph, flow)
    assert graph.goal_clause() == clause(2)


def test_width_zero_finds_nothing():
    # Width 0 admits no rule at all, so not even a hypothesis goal gets a
    # positive balance.
    answer = circular_search(CnfFormula.of(1, [Clause()]), Clause(), 0)
    assert answer.proof is None and answer.stage == "hypothesis"
    assert circular_search(CnfFormula.of(2, []), Clause(), 0).proof is None


@pytest.mark.parametrize("cnf, goal", [
    (CnfFormula.of(2, [clause(1)]), clause(1)),
    (CnfFormula.of(3, [clause(-3, 1), clause(2)]), clause(1, -3)),
    (CnfFormula.of(1, [Clause()]), Clause()),
    (CnfFormula.of(0, [Clause()]), Clause()),
], ids=["unit", "binary", "empty", "empty-no-variables"])
def test_goal_that_is_a_hypothesis_gets_the_identity_proof(cnf, goal):
    # A proof vertex has one clause, so the goal needs a vertex of its own:
    # the answer is a split from the hypothesis copy onto a fresh goal copy.
    width = max(goal.width, 1)
    graph, flow = circular_search(cnf, goal, width).proof
    assert validate_rules(graph) == [] and verify_flow(graph, flow)
    assert graph.goal_clause() == goal and graph.width == width
    assert graph.hypotheses == {goal}
    assert _lattice_search(cnf, goal, width)


@pytest.mark.parametrize("cnf, goal, inside", [
    (CnfFormula.of(3, [clause(1), clause(-1, 2), clause(-2, 3)]), clause(1, 3), clause(1)),
    (CnfFormula.of(2, [Clause()]), clause(1, -2), Clause()),
    (CnfFormula.of(2, [clause(1), clause(-1, 2), clause(2)]), clause(2), clause(2)),
], ids=["strictly-inside", "empty-hypothesis", "derived-hypothesis"])
def test_a_hypothesis_inside_the_goal_is_the_proof(monkeypatch, cnf, goal, inside):
    # Splits from the hypothesis up to the goal, one per missing literal, or
    # the identity proof's one split when the goal is the hypothesis, even
    # when the other hypotheses derive it too.
    monkeypatch.setattr(lp, "feasible", lambda program: pytest.fail("an LP was solved"))
    answer = circular_search(cnf, goal, 2)
    assert answer.stage == "hypothesis" and answer.presolved is None
    graph, _ = answer.proof
    assert [w.rule.kind for w in graph.inference_vertices.values()] == (
        [SPLIT] * (goal.width - inside.width or 1))
    assert graph.formula_vertices[graph.inference_vertices[0].in_neighbors[0]] == inside
    graph, flow = find_witness(dataclasses.replace(graph, hypotheses=frozenset(cnf.clauses)))
    assert flow is not None and graph.goal_clause() == goal


def test_goal_may_name_variables_beyond_the_hypotheses():
    res = circular_search(CnfFormula.of(1, [clause(1)]), clause(1, 2), 2).proof
    assert res is not None
    graph, flow = res
    assert graph.goal_clause() == clause(1, 2)
    assert verify_flow(graph, flow)


def test_unimplied_goal_not_found():
    cnf = CnfFormula.of(2, [clause(1, 2)])
    assert circular_search(cnf, clause(1), 2).proof is None


def test_width_error_below_inputs():
    cnf = CnfFormula.of(3, [clause(1, 2, 3)])
    with pytest.raises(WidthError):
        circular_search(cnf, Clause(), 2)
    with pytest.raises(WidthError) as info:
        daglike_width_saturate(cnf, 2)
    assert str(info.value) == "width 2 below hypothesis width 3"


def test_budget_guard():
    cnf = gen_php(complete_bipartite(3, 2))
    with pytest.raises(SearchBudgetError) as err:
        circular_search(cnf, Clause(), 3, row_budget=10)
    assert err.value.rows > 0 and err.value.cols > 0
    assert (err.value.rows, err.value.cols) == circular_search(cnf, Clause(), 3).lattice


def test_lattice_size_matches_enumeration():
    import itertools
    from circres.search import _clause_masks

    for n, w in [(3, 2), (4, 3), (5, 2)]:
        formulas, infs = lattice_size(n, w)
        clauses = [Clause(m) for m in _clause_masks(n, w)]
        assert formulas == len(clauses) + n
        expected_infs = n + 2 * n  # axioms plus collapsing unit splits
        for c in clauses:
            if c.width <= w - 1:
                expected_infs += 2 * (n - len(c.variables()))
        assert infs == expected_infs


def test_php_search_finds_width_three_sparse():
    g = near_cubic_bipartite(4, 0)
    cnf = gen_php(g)
    res = circular_search(cnf, Clause(), 3).proof
    assert res is not None
    graph, flow = res
    assert verify_flow(graph, flow)
    assert validate_rules(graph) == []
    assert graph.width <= 3


def test_php_complete_width_three():
    cnf = gen_php(complete_bipartite(3, 2))
    res = circular_search(cnf, Clause(), 3).proof
    assert res is not None
    assert res[0].width <= 3


def test_monotone_in_width():
    cnf = unit_contradiction()
    for w in (1, 2, 3):
        assert circular_search(cnf, Clause(), w).proof is not None


def test_search_agrees_with_oracle_on_refutability():
    import itertools
    import random

    rng = random.Random(13)
    for _ in range(15):
        n = 3
        clauses = []
        for _ in range(rng.randint(2, 5)):
            k = rng.randint(1, 2)
            vs = rng.sample(range(1, n + 1), k)
            clauses.append(Clause.from_signed(v if rng.random() < 0.5 else -v for v in vs))
        cnf = CnfFormula.of(n, clauses)
        unsat = implies_oracle(cnf, Clause())
        found = circular_search(cnf, Clause(), 3).proof is not None
        if found:
            assert unsat
        if not unsat:
            assert not found


def _lattice_search(hypotheses: CnfFormula, goal: Clause, width: int) -> bool:
    """Reference: whether the flow program over the width-``width`` clause
    lattice is feasible.  The lattice has a vertex per clause of width at
    most ``width`` and per elementary tautology, an axiom per variable,
    every cut and split whose clauses fit, and a split from each unit clause
    onto itself and its tautology; the program asks for nonnegative flows
    giving the goal balance at least 1 and every other non-hypothesis clause
    a nonnegative balance.  One vertex per clause cannot tell a hypothesis
    copy of the goal from the goal itself, so a goal that is a hypothesis is
    proved outright, by the split from that copy onto a fresh goal vertex,
    at any width but 0."""
    from circres.search import _clause_masks

    n = hypotheses.num_variables
    clauses = [Clause(m) for m in _clause_masks(n, width)]
    taut = [Clause.from_ints(v, -v) for v in range(1, n + 1)]
    vid = {c: k for k, c in enumerate(clauses + taut)}
    rules: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    for v in range(1, n + 1):
        rules.append((AXIOM, (), (vid[Clause.from_ints(v, -v)],)))
    for c in clauses:
        if c.width > width - 1:
            continue
        for x in range(1, n + 1):
            if x in c.variables():
                continue
            pos = vid[c.with_literal(x)]
            neg = vid[c.with_literal(-x)]
            rules.append((CUT, (pos, neg), (vid[c],)))
            rules.append((SPLIT, (vid[c],), (pos, neg)))
    for v in range(1, n + 1):
        for sign in (1, -1):
            unit = vid[Clause.from_ints(sign * v)]
            rules.append((SPLIT, (unit,), (unit, vid[Clause.from_ints(v, -v)])))

    rowmap: dict[int, dict[int, int]] = {k: {} for k in vid.values()}
    for j, (_, ins, outs) in enumerate(rules):
        for u in outs:
            rowmap[u][j] = rowmap[u].get(j, 0) + 1
        for u in ins:
            rowmap[u][j] = rowmap[u].get(j, 0) - 1
    hyp_clauses = set(hypotheses.clauses)
    constrained = {goal: 1} | {c: 0 for c in vid if c != goal and c not in hyp_clauses}
    rows = [lp.Constraint(tuple(sorted((j, a) for j, a in rowmap[vid[c]].items() if a)), rhs)
            for c, rhs in constrained.items()]
    program = lp.LinearProgram(len(rules), rows, {j: 0 for j in range(len(rules))})
    identity = goal in hyp_clauses and width > 0
    return lp.feasible(program) is not None or identity


def _assert_search_matches_lattice(cnf: CnfFormula, goal: Clause, width: int) -> None:
    found = circular_search(cnf, goal, width).proof
    assert (found is not None) == _lattice_search(cnf, goal, width), (
        [str(c) for c in cnf.clauses], str(goal), width)
    if found is not None:
        graph, flow = found
        assert validate_rules(graph) == []
        assert verify_flow(graph, flow)
        assert graph.width <= width
        assert graph.goal_clause() == goal
        assert graph.hypotheses <= set(cnf.clauses)


def test_search_matches_lattice_flow_program_on_random_cnfs():
    rng = random.Random(7)
    cases = [
        (CnfFormula.of(2, []), Clause(), 1),
        (CnfFormula.of(2, []), clause(1, -2), 2),
        (unit_contradiction(), clause(1), 1),
        (CnfFormula.of(2, [clause(1, -1), clause(2)]), clause(2, 1), 2),
        (CnfFormula.of(2, [Clause(), clause(1)]), Clause(), 2),
    ]
    for _ in range(300):
        n = rng.randint(1, 4)
        width = rng.randint(1, 3)
        cnf = _random_cnf(rng, n, width, rng.randint(0, 8))
        hyps = [c for c in cnf.clauses if not c.is_tautological]
        pick = rng.random()
        if pick < 0.2 and hyps:
            goal = rng.choice(hyps)
        elif pick < 0.5:
            goal = Clause()
        else:
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(n, width)))
            goal = Clause.from_signed(rng.choice((1, -1)) * v for v in vs)
        cases.append((cnf, goal, width))
    for cnf, goal, width in cases:
        _assert_search_matches_lattice(cnf, goal, width)


def _definition_program(hypotheses: CnfFormula, goal: Clause, width: int, free=frozenset()):
    """The search LP as the module docstring defines it, built over frozensets
    of signed literals: ``(num_vars, rows, lower)`` with a variable per proper
    clause of width at most ``width`` that has a positive literal, a declared
    bound per such clause whose balance is constrained, and a row per
    constrained all-negative clause balance in canonical clause order.  The
    balances of the hypotheses and of the clauses in ``free`` are free."""
    return _definition(hypotheses, goal, width, free)[2:]


def _definition(hypotheses: CnfFormula, goal: Clause, width: int, free=frozenset()):
    """:func:`_definition_program`'s program after the clauses of its
    variables and the clauses of its rows, in order."""
    import itertools

    n = max(hypotheses.num_variables, max(goal.variables(), default=0))
    clauses = [
        frozenset(v * s for v, s in zip(vs, signs))
        for k in range(width + 1)
        for vs in itertools.combinations(range(1, n + 1), k)
        for signs in itertools.product((1, -1), repeat=k)
    ]
    variables = [d for d in clauses if max(d, default=0) > 0]
    # b_D is its own variable when D has a positive literal; for the
    # all-negative N_m it is minus the coefficient of x^m in sum_D b_D F_D,
    # where F_D = sum over subsets S of D's positive variables of
    # (-1)^|S| x^(N | S).
    balance: dict[frozenset[int], dict[int, int]] = {d: {} for d in clauses}
    for j, d in enumerate(variables):
        balance[d][j] = 1
        pos = [l for l in d if l > 0]
        neg = d.difference(pos)
        for k in range(len(pos) + 1):
            for s in itertools.combinations(pos, k):
                balance[neg.union(-x for x in s)][j] = 1 if k % 2 else -1
    hyps = {c.signed() for c in hypotheses.clauses if not c.is_tautological} | set(free)
    target = goal.signed()
    constrained = {d: 1 if d == target else 0 for d in clauses if d == target or d not in hyps}
    rows = [
        lp.Constraint(tuple(sorted(balance[d].items())), bound)
        for d, bound in constrained.items()
        if d not in variables
    ]
    lower = {j: constrained[d] for j, d in enumerate(variables) if d in constrained}
    return variables, [d for d in constrained if d not in variables], len(variables), rows, lower


def _presolved_program(hypotheses: CnfFormula, goal: Clause, width: int, kept):
    """The search LP presolved by ``kept``, from the definition: the program
    of :func:`_definition_program` with every clause but the goal that
    contains a clause of ``kept`` free, less the variables that enter no
    row and are not the goal's, with its rows in decreasing and its
    variables in increasing clause-mask order."""
    import itertools

    n = max(hypotheses.num_variables, max(goal.variables(), default=0))
    target = goal.signed()
    free = {
        d for k in range(width + 1)
        for vs in itertools.combinations(range(1, n + 1), k)
        for d in (frozenset(v * s for v, s in zip(vs, signs))
                  for signs in itertools.product((1, -1), repeat=k))
        if d != target and any(c <= d for c in kept)
    }
    variables, row_clauses, _, rows, lower = _definition(hypotheses, goal, width, free)
    mask = {d: Clause.from_signed(d).mask for d in (*variables, *row_clauses)}
    used = {j for row in rows for j, _ in row.coeffs}
    used |= {j for j, d in enumerate(variables) if d == target}
    index = {j: i for i, j in enumerate(sorted(used, key=lambda j: mask[variables[j]]))}
    rows = [lp.Constraint(tuple(sorted((index[j], c) for j, c in row.coeffs)), row.rhs)
            for _, row in sorted(zip(row_clauses, rows), key=lambda p: -mask[p[0]])]
    return len(index), rows, {index[j]: bound for j, bound in lower.items() if j in index}


def _restricted(hypotheses: CnfFormula, goal: Clause) -> tuple[CnfFormula, Clause]:
    """Reference restriction over sets of signed literals: drop every
    hypothesis with a pure literal outside the goal's variables, one whose
    complement no remaining hypothesis has, until none is left; then number
    the variables left, the goal's and those with both signs, ``1..k`` in
    increasing order."""
    hyps = {c.signed() for c in hypotheses.clauses if not c.is_tautological}
    goal_vars = {abs(l) for l in goal.signed()}
    while True:
        lits = set().union(*hyps)
        pure = {l for l in lits if -l not in lits and abs(l) not in goal_vars}
        kept = {h for h in hyps if not h & pure}
        if kept == hyps:
            break
        hyps = kept
    lits = set().union(*hyps)
    rank = {v: i for i, v in enumerate(sorted(goal_vars | {abs(l) for l in lits}), 1)}

    def renamed(c):
        return Clause.from_signed(rank[abs(l)] if l > 0 else -rank[-l] for l in c)

    return CnfFormula.of(len(rank), map(renamed, hyps)), renamed(goal.signed())


def _padded_cnf(rng: random.Random, n: int, width: int, count: int) -> CnfFormula:
    # _random_cnf over n variables, declared over up to 2 more, with up to 2
    # more clauses that each add a literal of a variable no other clause has.
    cnf = _random_cnf(rng, n, width, count)
    clauses = list(cnf.clauses)
    for v in range(n + 1, n + rng.randint(0, 2) + 1):
        base = rng.choice(clauses) if clauses else Clause()
        if base.width < width:
            clauses.append(base.with_literal(rng.choice((1, -1)) * v))
    return CnfFormula.of(n + 2, clauses)


def test_search_program_matches_definition(monkeypatch):
    from circres.search import _program, _restriction

    rng = random.Random(15)
    cases = [
        (CnfFormula.of(2, []), Clause(), 1),
        (CnfFormula.of(3, []), clause(-1, 2, -3), 3),
        (unit_contradiction(), clause(1), 1),
        (CnfFormula.of(2, [Clause(), clause(1)]), Clause(), 2),
        (gen_php(near_cubic_bipartite(3, 0)), Clause(), 3),
        # Unused x3..x6; then unused x2, x4 and x6 around the kept x1, x3, x5.
        (CnfFormula.of(6, [clause(1, 2), clause(-1, 2), clause(-2)]), Clause(), 2),
        (CnfFormula.of(6, [clause(1, 5), clause(-1, 5), clause(-5, 3)]), clause(3), 2),
        # x3 is pure, then x2 once (-2, 3) is dropped, then x1: nothing is left.
        (CnfFormula.of(3, [clause(1), clause(-1, 2), clause(-2, 3)]), Clause(), 2),
        # A pure literal in the goal's variable stays.
        (CnfFormula.of(3, [clause(1, 3), clause(-1, 3), clause(2)]), clause(3), 2),
        (CnfFormula.of(9, gen_php(near_cubic_bipartite(3, 0)).clauses[1:]), Clause(), 3),
        # Satisfiable near-cubic n=4: rows of every width and, at width 4,
        # columns of up to four literals.
        (CnfFormula.of(12, gen_php(near_cubic_bipartite(4, 0)).clauses[1:]), Clause(), 3),
        (CnfFormula.of(12, gen_php(near_cubic_bipartite(4, 1)).clauses[1:]), Clause(), 4),
    ]
    for _ in range(100):
        n = rng.randint(1, 5)
        width = rng.randint(1, 3)
        cnf = _random_cnf(rng, n, width, rng.randint(0, 8))
        hyps = [c for c in cnf.clauses if not c.is_tautological]
        pick = rng.random()
        if pick < 0.25 and hyps:
            goal = rng.choice(hyps)
        elif pick < 0.5:
            goal = Clause()
        else:
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(n, width)))
            goal = Clause.from_signed(rng.choice((1, -1)) * v for v in vs)
        cases.append((cnf, goal, width))
    rng = random.Random(16)
    for _ in range(60):
        n = rng.randint(1, 4)
        width = rng.randint(1, 3)
        cnf = _padded_cnf(rng, n, width, rng.randint(0, 6))
        goal = Clause() if rng.random() < 0.5 else Clause.from_signed(
            rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 3), rng.randint(1, width)))
        cases.append((cnf, goal, width))
    answered = presolved = 0
    for cnf, goal, width in cases:
        restricted, renamed = _restricted(cnf, goal)
        label = ([str(c) for c in cnf.clauses], str(goal), width)
        # A hypothesis inside the goal is the proof, and no LP is solved.
        # Otherwise the program presolved by the hypotheses is the
        # definition's, and the closure answers when the goal has an
        # acyclic width-w derivation; when it has none the search solves
        # the program with every clause that has such a derivation free:
        # they are the weakenings of the kept clauses.
        skipped = any(c.signed() <= renamed.signed() for c in restricted.clauses)
        if not skipped:
            kept, hyps, target = _restriction(cnf, goal, width)
            _, program = _program(len(kept), width, target, hyps)
            assert program == lp.LinearProgram(*_presolved_program(
                restricted, renamed, width, {c.signed() for c in restricted.clauses})), label
        num_vars, rows, lower = _definition_program(restricted, renamed, width)
        closure = _cut_split_closure(restricted, width)
        stage = not skipped and renamed.signed() in closure
        seen = []
        solve = lp.feasible
        monkeypatch.setattr(lp, "feasible", lambda p: seen.append(p) or solve(p))
        answer = circular_search(cnf, goal, width)
        monkeypatch.undo()
        assert answer.lattice == (len(rows) + len(lower), num_vars), label
        assert answer.stage == ("hypothesis" if skipped else "closure" if stage else "lp"), label
        if stage or skipped:
            assert seen == [] and answer.presolved is None, label
        else:
            (solved,) = seen
            assert solved == lp.LinearProgram(*_presolved_program(
                restricted, renamed, width, closure - {renamed.signed()})), label
            size = len(solved.rows) + len(solved.lower)
            assert answer.presolved == (size, solved.num_vars), label
            presolved += size + solved.num_vars < len(rows) + len(lower) + num_vars
        answered += stage
    assert 0 < answered < len(cases) // 2
    # Most random instances restrict to nothing; the dropped pigeon does not.
    assert presolved


@st.composite
def _instances_with_spare_variables(draw):
    """A CNF over ``x_1 .. x_n`` with up to two variables that only one
    clause uses, in one sign, and up to two that none uses, all renumbered
    by a drawn permutation; a width; and a goal that is empty, a
    hypothesis or drawn over every declared variable."""
    n, pure, unused = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    width = draw(st.integers(1, 3))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, max_size=width), max_size=6))
    for v in range(n + 1, n + pure + 1):
        clauses.append(draw(st.lists(literal, max_size=width - 1)) + [draw(st.sampled_from((v, -v)))])
    total = n + pure + unused
    name = [0, *draw(st.permutations(range(1, total + 1)))]
    cnf = CnfFormula.of(total, [
        Clause.from_signed(name[l] if l > 0 else -name[-l] for l in c) for c in clauses])
    hyps = [c for c in cnf.clauses if not c.is_tautological]
    kind = draw(st.sampled_from(("empty", "hypothesis", "drawn")))
    if kind == "hypothesis" and hyps:
        goal = draw(st.sampled_from(hyps))
    elif kind == "drawn":
        vs = draw(st.lists(st.integers(1, total), min_size=1, max_size=width, unique=True))
        goal = Clause.from_signed(draw(st.sampled_from((v, -v))) for v in vs)
    else:
        goal = Clause()
    return cnf, goal, width


@settings(max_examples=60, deadline=None)
@given(_instances_with_spare_variables())
def test_restricted_search_answers_like_the_unrestricted_program(instance):
    # The restriction drops pure and unused variables before the LP: the
    # answer must still be the full program's, and a proof found from the
    # kept hypotheses must be witnessed against all of them.
    cnf, goal, width = instance
    found = circular_search(cnf, goal, width).proof
    num_vars, rows, lower = _definition_program(cnf, goal, width)
    point, _ = lp.solve(lp.LinearProgram(num_vars, rows, lower))
    identity = goal in cnf.clauses and width > 0
    assert (found is not None) == (point is not None or identity)
    if found is not None:
        graph, _ = found
        graph, flow = find_witness(dataclasses.replace(graph, hypotheses=frozenset(cnf.clauses)))
        assert flow is not None and graph.goal_clause() == goal


def test_search_matches_lattice_flow_program_with_unused_variables():
    # Each CNF uses some of its declared variables, chosen at random, so the
    # ones it leaves unused sit below, between and above the used ones.
    rng = random.Random(8)
    for _ in range(60):
        declared = rng.randint(2, 5)
        used = rng.sample(range(1, declared + 1), rng.randint(1, min(3, declared - 1)))
        width = rng.randint(1, 3)
        clauses = [
            Clause.from_signed(rng.choice((1, -1)) * rng.choice(used)
                               for _ in range(rng.randint(0, width)))
            for _ in range(rng.randint(0, 6))
        ]
        cnf = CnfFormula.of(declared, clauses)
        hyps = [c for c in clauses if not c.is_tautological]
        pick = rng.random()
        if pick < 0.2 and hyps:
            goal = rng.choice(hyps)
        elif pick < 0.5:
            goal = Clause()
        else:
            vs = rng.sample(range(1, declared + 1), rng.randint(1, min(declared, width)))
            goal = Clause.from_signed(rng.choice((1, -1)) * v for v in vs)
        _assert_search_matches_lattice(cnf, goal, width)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_matches_lattice_flow_program_on_near_cubic(seed):
    cnf = gen_php(near_cubic_bipartite(3, seed))
    # Clause ``seed`` is the pigeon clause of pigeon ``seed + 1``.
    dropped = CnfFormula.of(
        cnf.num_variables, [c for i, c in enumerate(cnf.clauses) if i != seed]
    )
    for f in (cnf, dropped):
        _assert_search_matches_lattice(f, Clause(), 3)


# ---------------------------------------------------------------------------
# the acyclic closure stage

def _cut_split_closure(hypotheses: CnfFormula, width: int) -> set[frozenset[int]]:
    """Reference: every non-tautological clause of width at most ``width``
    with an acyclic width-``width`` derivation in cut and split, as a set of
    signed literals, found by applying both rules until nothing new appears:
    a split takes ``C`` to ``C | x`` and ``C | ~x`` when ``|C| < width``, a
    cut takes ``C | x`` and ``C | ~x`` to ``C``."""
    n = hypotheses.num_variables
    closure = {c.signed() for c in hypotheses.clauses if not c.is_tautological}
    queue = list(closure)
    while queue:
        c = queue.pop()
        made = [c - {lit} for lit in c if (c - {lit}) | {-lit} in closure]
        if len(c) < width:
            made += [c | {lit} for v in range(1, n + 1) if v not in c and -v not in c
                     for lit in (v, -v)]
        for d in made:
            if d not in closure:
                closure.add(d)
                queue.append(d)
    return closure


def _upward(clauses, n: int, width: int) -> set[frozenset[int]]:
    """Every non-tautological clause of width at most ``width`` over
    ``x_1 .. x_n`` that contains one of ``clauses``."""
    out = set(clauses)
    queue = list(out)
    while queue:
        c = queue.pop()
        if len(c) < width:
            for v in range(1, n + 1):
                for d in (c | {v}, c | {-v}):
                    if v not in c and -v not in c and d not in out:
                        out.add(d)
                        queue.append(d)
    return out


def test_acyclic_closure_matches_the_cut_split_fixpoint_on_random_cnfs():
    # The target is the empty clause, so the loop runs to the end unless it
    # derives the empty clause; then only the answer and the soundness of
    # each kept clause can be compared.
    rng = random.Random(40)
    tested = refuted = 0
    for _ in range(240):
        n = rng.randint(1, 5)
        cnf = _random_cnf(rng, n, rng.randint(1, 4), rng.randint(0, 10))
        hyps = {c.mask for c in cnf.clauses if not c.is_tautological}
        if 0 in hyps:
            continue
        tested += 1
        for width in range(max([1] + [c.width for c in cnf.clauses]), 5):
            parents, found = _acyclic_closure(n, hyps, 0, width)
            reference = _cut_split_closure(cnf, width)
            kept = {Clause(m).signed() for m in parents}
            label = ([str(c) for c in cnf.clauses], width)
            if found is None:
                assert _upward(kept, n, width) == reference, label
            else:
                refuted += 1
                assert found == 0 and frozenset() in reference and kept <= reference, label
    assert tested >= 200 and refuted > 0


def test_acyclic_closure_answers_near_cubic_without_the_lp(monkeypatch):
    calls = []
    solve = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda p: calls.append(p) or solve(p))
    for n, seed in [(3, s) for s in range(60)] + [(5, 2)]:
        cnf = gen_php(near_cubic_bipartite(n, seed))
        answer = circular_search(cnf, Clause(), 3)
        assert calls == [], (n, seed)
        assert answer.stage == "closure" and answer.presolved is None
        graph, _ = answer.proof
        assert graph.width <= 3 and validate_rules(graph) == []
        witnessed, flow = find_witness(graph)
        assert flow is not None and witnessed.goal_clause() == Clause()
        calls.clear()


def test_dropped_pigeon_variants_solve_one_program(monkeypatch):
    # near_cubic_bipartite(3, seed) has 4 pigeons, whose clauses come first;
    # dropping any one of them leaves a satisfiable CNF.
    calls = []
    solve = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda p: calls.append(p) or solve(p))
    for seed in range(6):
        cnf = gen_php(near_cubic_bipartite(3, seed))
        for p in range(4):
            dropped = CnfFormula.of(cnf.num_variables, cnf.clauses[:p] + cnf.clauses[p + 1:])
            assert not implies_oracle(dropped, Clause())
            answer = circular_search(dropped, Clause(), 3)
            assert answer.proof is None and len(calls) == 1, (seed, p)
            assert answer.stage == "lp" and answer.presolved is not None
            calls.clear()


def _assert_presolve_keeps_the_answer(cnf: CnfFormula, goal: Clause, width: int) -> SearchAnswer:
    # Freeing the closure's kept clauses and their weakenings relaxes the
    # program, and each has an acyclic width-w proof, so the answer is the
    # unpresolved program's (or the identity proof's); a proof found from
    # the relaxed program owes those derivations, and once they are spliced
    # in it, its own flow and a witness found afresh both check against the
    # input alone.  Each answer is certified exactly: a proof found by its
    # width and those checks, and a none by a countermodel of the goal,
    # which by soundness leaves the unpresolved program infeasible.  Only a
    # none whose goal follows is compared with the unpresolved program and
    # the identity rule.  Returns the search's answer.
    answer = circular_search(cnf, goal, width)
    found = answer.proof
    label = ([str(c) for c in cnf.clauses], str(goal), width)
    if found is not None:
        graph, flow = found
        graph = dataclasses.replace(graph, hypotheses=frozenset(cnf.clauses))
        assert graph.width <= width and verify_flow(graph, flow), label
        graph, flow = find_witness(graph)
        assert flow is not None and graph.goal_clause() == goal, label
    elif implies_oracle(cnf, goal):
        restricted, renamed = _restricted(cnf, goal)
        program = lp.LinearProgram(*_definition_program(restricted, renamed, width))
        assert lp.feasible(program) is None, label
        assert renamed not in restricted.clauses or width == 0, label
    return answer


@pytest.fixture
def owed(monkeypatch):
    """What ``_realize`` leaves each clause it makes a source to owe, per
    LP-found proof."""
    from circres import search

    seen = []
    realize = search._realize

    def recording(*args):
        seen.append(realize(*args))
        return seen[-1]

    monkeypatch.setattr(search, "_realize", recording)
    return seen


@pytest.mark.parametrize("n", [3, 4, 5])
def test_presolve_changes_no_near_cubic_answer(owed, n):
    # Each instance as is and less its first (a pigeon clause) or its last
    # clause (a hole clause).
    owing = {}
    for seed in range(3):
        cnf = gen_php(near_cubic_bipartite(n, seed))
        for dropped in (None, 0, len(cnf.clauses) - 1):
            owed.clear()
            _assert_presolve_keeps_the_answer(CnfFormula.of(cnf.num_variables, [
                c for i, c in enumerate(cnf.clauses) if i != dropped]), Clause(), 3)
            if dropped is None and owed:
                owing[seed] = _owed_kinds(cnf, owed)
    # At n = 3 the closure refutes every complete instance.  At n = 4 the
    # presolved program does, and each proof splices in the derivations of
    # 3 to 6 kept resolvents and weakens a kept clause to 3 or 4 others; at
    # n = 5 it refutes seeds 0 and 1, and the closure seed 2.
    assert owing == {3: {}, 4: {0: (5, 4), 1: (3, 4), 2: (6, 3)},
                     5: {0: (4, 4), 1: (3, 8)}}[n]


def _owed_kinds(cnf: CnfFormula, owed) -> tuple[int, int]:
    """How many of the clauses the one LP-found proof recorded in ``owed``
    left as sources are kept resolvents of the closure, and how many are
    weakenings of a kept clause; the others are hypotheses."""
    from circres.search import _acyclic_closure, _restriction

    (sources,) = owed
    kept, hyps, target = _restriction(cnf, Clause(), 3)
    parents, _ = _acyclic_closure(len(kept), hyps, target, 3)
    return (sum(c in parents.keys() - hyps for c in sources),
            sum(c not in parents for c in sources))


def test_a_point_that_draws_on_a_weakening_gets_it_spliced_in(owed):
    # The presolved LP frees every weakening of a kept clause, so a point may
    # make one a source; the search must supply it by splits from the kept
    # clause inside it, or its own flow check fails.
    cnf = gen_php(near_cubic_bipartite(4, 0))
    graph, _ = circular_search(cnf, Clause(), 3).proof
    assert _owed_kinds(cnf, owed)[1] > 0
    graph, flow = find_witness(graph)
    assert flow is not None and graph.goal_clause() == Clause()
    assert graph.hypotheses <= set(cnf.clauses)


def test_presolve_changes_no_random_answer():
    # CNFs drawn as in the lattice cross-check, with every kind of goal, then
    # random 2- and 3-CNFs over distinct variables at width 3, which the
    # closure mostly leaves to the presolved LP.
    rng = random.Random(42)
    cases = []
    for _ in range(100):
        n = rng.randint(1, 5)
        width = rng.randint(1, 3)
        cnf = _random_cnf(rng, n, width, rng.randint(0, 10))
        hyps = [c for c in cnf.clauses if not c.is_tautological]
        pick = rng.random()
        if pick < 0.2 and hyps:
            goal = rng.choice(hyps)
        elif pick < 0.6:
            goal = Clause()
        else:
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(n, width)))
            goal = Clause.from_signed(rng.choice((1, -1)) * v for v in vs)
        cases.append((cnf, goal, width))
    for _ in range(60):
        n = rng.randint(4, 6)
        cases.append((CnfFormula.of(n, [
            Clause.from_signed(rng.choice((1, -1)) * v
                               for v in rng.sample(range(1, n + 1), rng.randint(2, 3)))
            for _ in range(rng.randint(2 * n, 4 * n))]), Clause(), 3))
    presolved = 0
    for case in cases:
        answer = _assert_presolve_keeps_the_answer(*case)
        if answer.stage == "lp":
            presolved += sum(answer.presolved) < sum(answer.lattice)
    assert presolved > len(cases) // 5


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_classical_width_three_gives_width_four_acyclic_proofs(monkeypatch, n):
    # Criterion 7's instances: classical width 3 refutes them, so the
    # acyclic closure at width 4 does, as a classical resolvent is a cut of
    # premises one literal wider, and the search answers without the LP.
    cnf = gen_php(near_cubic_bipartite(n, 0))
    assert Clause() in daglike_width_saturate(cnf, 3)
    calls = []
    solve = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda p: calls.append(p) or solve(p))
    answer = circular_search(cnf, Clause(), 4)
    assert calls == [] and answer.stage == "closure"
    graph, _ = answer.proof
    assert graph.width <= 4 and validate_rules(graph) == []
    witnessed, flow = find_witness(graph)
    assert flow is not None and witnessed.goal_clause() == Clause()


# ---------------------------------------------------------------------------
# dag-like width saturation

def test_saturate_unit_contradiction():
    out = daglike_width_saturate(unit_contradiction(), 1)
    assert Clause() in out


def test_saturate_satisfiable_never_empty():
    cnf = CnfFormula.of(2, [clause(1, 2), clause(-1, 2)])
    out = daglike_width_saturate(cnf, 2)
    assert Clause() not in out
    assert clause(2) in out  # the resolvent appears


def test_saturate_returns_clauses():
    cnf = gen_php(near_cubic_bipartite(4, 0))
    refuted = daglike_width_saturate(cnf, 3)
    unrefuted = daglike_width_saturate(CnfFormula.of(cnf.num_variables, cnf.clauses[1:]), 3)
    assert Clause() in refuted and Clause() not in unrefuted
    assert all(type(c) is Clause for c in refuted | unrefuted)


def test_saturate_contains_weakenings():
    cnf = CnfFormula.of(2, [clause(1)])
    out = daglike_width_saturate(cnf, 2)
    assert clause(1, 2) in out and clause(1, -2) in out


def test_saturate_derivations_are_sound():
    cnf = CnfFormula.of(3, [clause(1, 2), clause(-1, 3), clause(-2, 3)])
    out = daglike_width_saturate(cnf, 3)
    for c in out:
        assert implies_oracle(cnf, c)


def test_daglike_goal_implies_circular_success_for_refutations():
    # For refutations a dag-like width-w derivation embeds in the circular
    # lattice at the same width.
    cases = [
        unit_contradiction(),
        CnfFormula.of(2, [clause(1), clause(-1, 2), clause(-2)]),
        gen_php(complete_bipartite(3, 2)),
    ]
    for cnf in cases:
        w = max(3, max(c.width for c in cnf.clauses))
        if Clause() in daglike_width_saturate(cnf, w):
            assert circular_search(cnf, Clause(), w).proof is not None


def _weakening_closure(hypotheses: CnfFormula, width: int) -> set[Clause]:
    """Reference: the least fixed point of width-bounded resolution and
    weakening, computed directly by applying both rules until nothing new
    appears.  Tautologies are skipped and the empty clause is not weakened."""
    n = hypotheses.num_variables
    seen: set[frozenset[int]] = set()
    by_literal: dict[int, list[frozenset[int]]] = {}
    queue: list[frozenset[int]] = []

    def push(c: frozenset[int]) -> None:
        if c in seen:
            return
        seen.add(c)
        queue.append(c)
        for lit in c:
            by_literal.setdefault(lit, []).append(c)

    for c in hypotheses.clauses:
        if not c.is_tautological:
            push(c.signed())

    while queue:
        c = queue.pop()
        if not c:
            continue
        for lit in c:
            for d in list(by_literal.get(-lit, ())):
                resolvent = (c - {lit}) | (d - {-lit})
                if len(resolvent) > width:
                    continue
                if any(-l in resolvent for l in resolvent):
                    continue
                push(resolvent)
        if len(c) < width:
            for v in range(1, n + 1):
                for lit in (v, -v):
                    if lit in c or -lit in c:
                        continue
                    push(c | {lit})

    return {Clause.from_signed(c) for c in seen}


def _random_cnf(rng: random.Random, n: int, width: int, count: int) -> CnfFormula:
    # Literals are drawn with repetition, so some clauses come out
    # tautological or shorter than drawn; one formula in ten also has the
    # empty clause as a hypothesis.
    clauses = [Clause()] if rng.random() < 0.1 else []
    for _ in range(count):
        k = rng.randint(min(1, width), width)
        clauses.append(Clause.from_signed(
            rng.choice((1, -1)) * rng.randint(1, n) for _ in range(k)
        ))
    return CnfFormula.of(n, clauses)


def test_saturate_matches_weakening_closure_on_random_cnfs():
    rng = random.Random(2024)
    cases = [
        CnfFormula.of(3, []),
        CnfFormula.of(2, [Clause(), clause(1, 2), clause(-1)]),
        CnfFormula.of(3, [clause(1, -1), clause(2, 3), clause(-2, -3)]),
        unit_contradiction(),
        # At width 1 the loop stops at the empty clause; in this clause
        # order x2 and ~x3 are still queued then.
        CnfFormula.of(3, [clause(1), clause(-3), clause(2), clause(-1)]),
        # An empty hypothesis next to a refutable pair.
        CnfFormula.of(2, [Clause(), clause(1), clause(-1)]),
    ]
    for _ in range(300):
        n = rng.randint(1, 5)
        cases.append(_random_cnf(rng, n, rng.randint(0, 4), rng.randint(0, 10)))
    for cnf in cases:
        needed = max((c.width for c in cnf.clauses), default=0)
        for width in range(needed, 5):
            assert daglike_width_saturate(cnf, width) == _weakening_closure(cnf, width), (
                [str(c) for c in cnf.clauses], width)


def test_saturate_matches_weakening_closure_past_64_bits():
    # The saturation keeps x_v at bit 2v of a clause mask and ~x_v at bit
    # 2v + 1, so variables from 32 up sit past the first 64 bits.  Clauses
    # mix variables on both sides of that line; widths stay at 2 or less to
    # keep the reference cheap.
    rng = random.Random(64)
    cases = [
        CnfFormula.of(40, [clause(40), clause(-40, 33), clause(-33)]),
        # Each resolvent is a tautology on a variable at the 64-bit line.
        CnfFormula.of(40, [clause(32, 33), clause(-32, -33)]),
    ]
    for _ in range(20):
        n = rng.randint(33, 40)
        cases.append(CnfFormula.of(n, [
            Clause.from_signed(rng.choice((1, -1)) * rng.randint(24, n)
                               for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(1, 8))
        ]))
    for cnf in cases:
        for width in range(max(c.width for c in cnf.clauses), 3):
            assert daglike_width_saturate(cnf, width) == _weakening_closure(cnf, width), (
                [str(c) for c in cnf.clauses], width)


def test_width_three_saturation_past_64_bits():
    # At width 3 the weakenings of a unit gain a second literal, so their
    # rebuild reaches a second level; variables 24..36 put it on both sides
    # of bit 64.  The reference is cheaper than _weakening_closure here: the
    # closure is every non-tautological clause of width at most 3 that
    # contains a clause of the resolution core, a hypothesis among them.
    rng = random.Random(36)
    cases = [
        # x33 and ~x30 | x36 are resolvents, x33 a unit core clause.
        CnfFormula.of(36, [clause(24, 33), clause(-24, 33), clause(-33, -30, 36)]),
        *(CnfFormula.of(36, [
            Clause.from_signed(rng.choice((1, -1)) * rng.randint(24, 36)
                               for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(4, 6))
        ]) for _ in range(2)),
    ]
    for cnf in cases:
        hyps = {c.mask for c in cnf.clauses if not c.is_tautological}
        core, _ = _acyclic_closure(cnf.num_variables, hyps, 0, 4)
        units = [1 << b for b in range(2, 2 * cnf.num_variables + 2)]
        positive = sum(units[::2])
        expected = set()
        for k in range(4):
            for bits in itertools.combinations(units, k):
                mask = sum(bits)
                if mask & mask >> 1 & positive:  # both x_v and ~x_v
                    continue
                sub = mask
                while sub not in core and sub:
                    sub = (sub - 1) & mask
                if sub in core:
                    expected.add(Clause(mask))
        assert daglike_width_saturate(cnf, 3) == expected, [str(c) for c in cnf.clauses]


def test_saturation_ignores_hypothesis_order_repeats_and_tautologies():
    # The closure is a fixed point of the hypotheses as a set: shuffling
    # them, repeating one or adding a tautology leaves it as it is, though
    # the loop's order of kept clauses moves with the hypotheses' order.
    rng = random.Random(52)
    for _ in range(150):
        n = rng.randint(1, 6)
        cnf = _random_cnf(rng, n, rng.randint(1, 4), rng.randint(1, 10))
        v = rng.randint(1, n)
        shuffled = rng.sample(cnf.clauses, len(cnf.clauses))
        repeated = [*cnf.clauses, rng.choice(cnf.clauses)]
        tautology = [*shuffled, clause(v, -v)]
        needed = max(c.width for c in cnf.clauses)
        for width in range(needed, 5):
            closure = daglike_width_saturate(cnf, width)
            # The tautology's width is 2, below which the saturation rejects it.
            for clauses in (shuffled, repeated, tautology)[:2 + (width >= 2)]:
                assert daglike_width_saturate(CnfFormula.of(n, clauses), width) == closure, (
                    [str(c) for c in clauses], width)


def test_saturation_makes_its_set_in_one_clause_set_call(monkeypatch):
    # The returned set is the one that a single core.clause_set call made,
    # on the refuted branch too, so no second hashed pass over the closure
    # builds it again.
    from circres import search

    made = []
    clause_set = search.clause_set

    def counting(masks):
        made.append(clause_set(masks))
        return made[-1]

    monkeypatch.setattr(search, "clause_set", counting)
    small = gen_php(near_cubic_bipartite(4, 1))
    cases = [(small, True), (CnfFormula.of(small.num_variables, small.clauses[1:]), False),
             (gen_php(near_cubic_bipartite(15, 1)), False)]
    for cnf, refuted in cases:
        made.clear()
        closure = daglike_width_saturate(cnf, 3)
        assert len(made) == 1 and made[0] is closure and (Clause() in closure) == refuted


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_saturate_matches_weakening_closure_on_near_cubic(seed):
    cnf = gen_php(near_cubic_bipartite(4, seed))
    # Clause ``seed`` is the pigeon clause of pigeon ``seed + 1``.
    dropped = CnfFormula.of(
        cnf.num_variables, [c for i, c in enumerate(cnf.clauses) if i != seed]
    )
    for f in (cnf, dropped):
        assert daglike_width_saturate(f, 3) == _weakening_closure(f, 3)


@pytest.mark.parametrize("n, seed", [(15, 1), (16, 1), (20, 0)])
def test_width_three_separation(n, seed):
    # Dag-like width 3 does not refute these near-cubic pigeonhole
    # instances, while the pieced circular refutation has width 3.
    g = near_cubic_bipartite(n, seed)
    assert Clause() not in daglike_width_saturate(gen_php(g), 3)
    graph, flow = php_refutation(g)
    assert graph.width <= 3
    assert verify_flow(graph, flow)


def test_width_three_closure_at_15_1():
    # Closure sizes of the (15, 1) instance, alone and with pigeon clause 0
    # or 5 dropped, and the whole closure against the reference.
    cnf = gen_php(near_cubic_bipartite(15, 1))
    closures = {
        dropped: daglike_width_saturate(CnfFormula.of(
            cnf.num_variables, [c for i, c in enumerate(cnf.clauses) if i != dropped]
        ), 3)
        for dropped in (None, 0, 5)
    }
    assert {d: len(c) for d, c in closures.items()} == {None: 6981, 0: 6873, 5: 6927}
    assert closures[None] == _weakening_closure(cnf, 3)


def _loop_ladder():
    # The loop digests' cases: near-cubic n=3..6, seeds 0-3, as is and less
    # clause 0, restricted as circular_search restricts them, at widths 3 and
    # 4 with the empty target; (15, 1) at width 4, the loop that
    # daglike_width_saturate(cnf, 3) runs; and 200 seeded random CNFs at each
    # width from their input width to 4, each with a random target.  Yields
    # the CNF, then the (n, hyps, target, width) closures run on it.
    from circres.search import _restriction

    for n in range(3, 7):
        for seed in range(4):
            cnf = gen_php(near_cubic_bipartite(n, seed))
            for f in (cnf, CnfFormula.of(cnf.num_variables, cnf.clauses[1:])):
                runs = []
                for width in (3, 4):
                    kept, hyps, target = _restriction(f, Clause(), width)
                    runs.append((len(kept), hyps, target, width))
                yield f, runs
    cnf = gen_php(near_cubic_bipartite(15, 1))
    yield cnf, [(cnf.num_variables, {c.mask for c in cnf.clauses}, 0, 4)]
    rng = random.Random(48)
    for _ in range(200):
        n = rng.randint(1, 6)
        cnf = _random_cnf(rng, n, rng.randint(1, 3), rng.randint(0, 12))
        hyps = {c.mask for c in cnf.clauses if not c.is_tautological}
        runs = []
        for width in range(max((c.width for c in cnf.clauses), default=0), 5):
            drawn = rng.sample(range(1, n + 1), rng.randint(0, min(n, width)))
            target = Clause.from_signed(rng.choice((1, -1)) * v for v in drawn)
            runs.append((n, hyps, target.mask, width))
        yield cnf, runs


def test_acyclic_closure_and_saturation_match_their_pins():
    # The given-clause loop's whole output, every kept clause with its
    # parents in the order kept and the clause it stopped at, and the
    # dag-like closures at width 3, so a faster loop keeps its order too.
    # The searched proofs' pins read ``parents`` only through four proofs.
    import hashlib

    loop, closure = hashlib.sha256(), hashlib.sha256()
    for cnf, runs in _loop_ladder():
        for n, hyps, target, width in runs:
            parents, found = _acyclic_closure(n, hyps, target, width)
            loop.update(repr((list(parents.items()), found)).encode())
        closure.update(repr(sorted(c.mask for c in daglike_width_saturate(cnf, 3))).encode())
    assert loop.hexdigest() == "218b5f87a56f55d289c5d07758b7a4dfa2a5966483eb7aefdce70f1307503938"
    assert closure.hexdigest() == "d7263528a375051536d97a8f91e23a63bc7b1b2aabf4bd882fb50b6b97f48775"
