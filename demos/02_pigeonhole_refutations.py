"""Compact circular refutations of pigeonhole contradictions.

Dag-like resolution needs exponential length for these formulas, but with
cycles the pigeonhole principle has short refutations: one piece per pigeon
(turning its clause into a unit of the empty clause while demanding one unit
of each incident negated edge) and one piece per hole (producing those
negated edges from a unit of the empty clause).  Gluing the pieces makes
every edge literal balance out and leaves the empty clause with balance
pigeons - holes = 1.
"""

from fractions import Fraction

from circres import (
    Clause,
    balance_numerators,
    complete_bipartite,
    gen_php,
    php_refutation,
    verify_flow,
)
from circres.generators import near_cubic_bipartite

print("Complete instances, pigeons = holes + 1:")
print(f"{'holes':>6} {'clauses':>8} {'length':>7} {'width':>6} {'goal balance':>13}")
for n in range(2, 11):
    g = complete_bipartite(n + 1, n)
    cnf = gen_php(g)
    graph, flow = php_refutation(g)
    assert verify_flow(graph, flow)
    bal, den = balance_numerators(graph, flow)
    goal_balance = Fraction(bal[graph.goal_id], den)
    print(f"{n:>6} {len(cnf.clauses):>8} {graph.length:>7} {graph.width:>6} {str(goal_balance):>13}")

print()
print("Sparse instances keep the width at the graph degree:")
for n in (4, 6, 8):
    g = near_cubic_bipartite(n, seed=1)
    graph, flow = php_refutation(g)
    assert verify_flow(graph, flow)
    print(
        f"  {n + 1} pigeons, {n} holes, max degree {g.max_degree()}: "
        f"length {graph.length}, width {graph.width}"
    )

print()
print("Length grows polynomially; the dag-like lower bounds are exponential.")
