import random

import pytest

from circres import lp
from circres.core import Clause, CnfFormula, Literal, implies_oracle
from circres.flowcheck import verify_flow
from circres.generators import (
    complete_bipartite,
    gen_php,
    near_cubic_bipartite,
    php_refutation,
)
from circres.proofgraph import AXIOM, CUT, SPLIT, validate_rules
from circres.search import (
    SearchBudgetError,
    WidthError,
    circular_search,
    daglike_width_saturate,
    lattice_size,
)


def clause(*ints):
    return Clause.from_ints(*ints)


def unit_contradiction():
    return CnfFormula.of(1, [clause(1), clause(-1)])


def test_unit_contradiction_width_one():
    res = circular_search(unit_contradiction(), Clause(()), 1)
    assert res is not None
    graph, flow = res
    assert validate_rules(graph) == []
    assert verify_flow(graph, flow, graph.goal_id)
    assert graph.width <= 1


def test_satisfiable_formula_never_refuted():
    cnf = CnfFormula.of(2, [clause(1, 2)])
    assert circular_search(cnf, Clause(()), 2) is None
    assert circular_search(cnf, Clause(()), 2 + 1) is None


def test_goal_derivation_non_refutation():
    # (x2) follows from {(x2|x1), (x2|~x1)}
    cnf = CnfFormula.of(2, [clause(2, 1), clause(2, -1)])
    res = circular_search(cnf, clause(2), 2)
    assert res is not None
    graph, flow = res
    assert verify_flow(graph, flow, graph.goal_id)
    assert graph.goal_clause() == clause(2)


def test_width_zero_finds_nothing():
    # Width 0 admits no rule at all, so not even a hypothesis goal gets a
    # positive balance.
    assert circular_search(CnfFormula.of(1, [Clause(())]), Clause(()), 0) is None
    assert circular_search(CnfFormula.of(2, []), Clause(()), 0) is None


def test_goal_may_name_variables_beyond_the_hypotheses():
    res = circular_search(CnfFormula.of(1, [clause(1)]), clause(1, 2), 2)
    assert res is not None
    graph, flow = res
    assert graph.goal_clause() == clause(1, 2)
    assert verify_flow(graph, flow, graph.goal_id)


def test_unimplied_goal_not_found():
    cnf = CnfFormula.of(2, [clause(1, 2)])
    assert circular_search(cnf, clause(1), 2) is None


def test_width_error_below_inputs():
    cnf = CnfFormula.of(3, [clause(1, 2, 3)])
    with pytest.raises(WidthError):
        circular_search(cnf, Clause(()), 2)
    with pytest.raises(WidthError):
        daglike_width_saturate(cnf, 2)


def test_budget_guard():
    cnf = gen_php(complete_bipartite(3, 2))
    with pytest.raises(SearchBudgetError) as err:
        circular_search(cnf, Clause(()), 3, row_budget=10)
    assert err.value.rows > 0 and err.value.cols > 0


def test_lattice_size_matches_enumeration():
    import itertools
    from circres.search import _proper_clauses

    for n, w in [(3, 2), (4, 3), (5, 2)]:
        formulas, infs = lattice_size(n, w)
        clauses = list(_proper_clauses(n, w))
        assert formulas == len(clauses) + n
        expected_infs = n + 2 * n  # axioms plus collapsing unit splits
        for c in clauses:
            if c.width <= w - 1:
                expected_infs += 2 * (n - len(c.variables()))
        assert infs == expected_infs


def test_php_search_finds_width_three_sparse():
    g = near_cubic_bipartite(4, 0)
    cnf = gen_php(g)
    res = circular_search(cnf, Clause(()), 3)
    assert res is not None
    graph, flow = res
    assert verify_flow(graph, flow, graph.goal_id)
    assert validate_rules(graph) == []
    assert graph.width <= 3


def test_php_complete_width_three():
    cnf = gen_php(complete_bipartite(3, 2))
    res = circular_search(cnf, Clause(()), 3)
    assert res is not None
    assert res[0].width <= 3


def test_monotone_in_width():
    cnf = unit_contradiction()
    for w in (1, 2, 3):
        assert circular_search(cnf, Clause(()), w) is not None


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
        unsat = implies_oracle(cnf, Clause(()))
        found = circular_search(cnf, Clause(()), 3) is not None
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
    a nonnegative balance."""
    from circres.search import _proper_clauses

    n = hypotheses.num_variables
    clauses = list(_proper_clauses(n, width))
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
            pos = vid[c.with_literal(Literal(x, True))]
            neg = vid[c.with_literal(Literal(x, False))]
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
    program = lp.LinearProgram(len(rules))
    program.add_geq(rowmap[vid[goal]], 1)
    for c, k in vid.items():
        if c != goal and c not in hyp_clauses:
            program.add_geq(rowmap[k], 0)
    for j in range(len(rules)):
        program.add_geq({j: 1}, 0)
    return lp.feasible(program) is not None


def _assert_search_matches_lattice(cnf: CnfFormula, goal: Clause, width: int) -> None:
    found = circular_search(cnf, goal, width)
    assert (found is not None) == _lattice_search(cnf, goal, width), (
        [str(c) for c in cnf.clauses], str(goal), width)
    if found is not None:
        graph, flow = found
        assert validate_rules(graph) == []
        assert verify_flow(graph, flow, graph.goal_id)
        assert graph.width <= width
        assert graph.goal_clause() == goal
        assert graph.hypothesis_clauses() <= set(cnf.clauses)


def test_search_matches_lattice_flow_program_on_random_cnfs():
    rng = random.Random(7)
    cases = [
        (CnfFormula.of(2, []), Clause(()), 1),
        (CnfFormula.of(2, []), clause(1, -2), 2),
        (unit_contradiction(), clause(1), 1),
        (CnfFormula.of(2, [clause(1, -1), clause(2)]), clause(2, 1), 2),
        (CnfFormula.of(2, [Clause(()), clause(1)]), Clause(()), 2),
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
            goal = Clause(())
        else:
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(n, width)))
            goal = Clause.from_signed(rng.choice((1, -1)) * v for v in vs)
        cases.append((cnf, goal, width))
    for cnf, goal, width in cases:
        _assert_search_matches_lattice(cnf, goal, width)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_matches_lattice_flow_program_on_near_cubic(seed):
    cnf = gen_php(near_cubic_bipartite(3, seed))
    # Clause ``seed`` is the pigeon clause of pigeon ``seed + 1``.
    dropped = CnfFormula.of(
        cnf.num_variables, [c for i, c in enumerate(cnf.clauses) if i != seed]
    )
    for f in (cnf, dropped):
        _assert_search_matches_lattice(f, Clause(()), 3)


# ---------------------------------------------------------------------------
# dag-like width saturation

def test_saturate_unit_contradiction():
    out = daglike_width_saturate(unit_contradiction(), 1)
    assert Clause(()) in out


def test_saturate_satisfiable_never_empty():
    cnf = CnfFormula.of(2, [clause(1, 2), clause(-1, 2)])
    out = daglike_width_saturate(cnf, 2)
    assert Clause(()) not in out
    assert clause(2) in out  # the resolvent appears


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
        if Clause(()) in daglike_width_saturate(cnf, w):
            assert circular_search(cnf, Clause(()), w) is not None


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
    clauses = [Clause(())] if rng.random() < 0.1 else []
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
        CnfFormula.of(2, [Clause(()), clause(1, 2), clause(-1)]),
        CnfFormula.of(3, [clause(1, -1), clause(2, 3), clause(-2, -3)]),
        unit_contradiction(),
    ]
    for _ in range(300):
        n = rng.randint(1, 5)
        cases.append(_random_cnf(rng, n, rng.randint(0, 4), rng.randint(0, 10)))
    for cnf in cases:
        needed = max((c.width for c in cnf.clauses), default=0)
        for width in range(needed, 5):
            assert daglike_width_saturate(cnf, width) == _weakening_closure(cnf, width), (
                [str(c) for c in cnf.clauses], width)


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
    assert Clause(()) not in daglike_width_saturate(gen_php(g), 3)
    graph, flow = php_refutation(g)
    assert graph.width <= 3
    assert verify_flow(graph, flow, graph.goal_id)
