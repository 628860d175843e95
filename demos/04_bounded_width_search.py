"""Bounded-width proof search by exact linear feasibility.

Width-w circular resolution is degree-w Sherali-Adams, so the search solves
one small exact LP: a balance per clause of width at most w, one row per
monomial of degree at most w tying the balances into a polynomial identity,
the goal's balance at least 1 and every other non-hypothesis balance
nonnegative.  A feasible point is turned back into cuts and splits on the
width-w clause lattice and rechecked as a circular proof; infeasibility is
definitive for that width.
"""

import time

from circres import (
    Clause,
    CnfFormula,
    circular_search,
    daglike_width_saturate,
    gen_php,
    verify_flow,
)
from circres.generators import near_cubic_bipartite
from circres.search import lattice_size

print("Unit contradiction at width 1:")
cnf = CnfFormula.of(1, [Clause.from_ints(1), Clause.from_ints(-1)])
graph, flow = circular_search(cnf, Clause(()), width=1)
print(f"  found length-{graph.length} refutation, verified: "
      f"{verify_flow(graph, flow, graph.goal_id)}")

print()
print("A satisfiable formula is never refuted, at any width:")
sat = CnfFormula.of(2, [Clause.from_ints(1, 2)])
print(f"  width 2 -> {circular_search(sat, Clause(()), 2)}")

print()
print("Sparse pigeonhole contradiction, width 3:")
g = near_cubic_bipartite(4, seed=0)
php = gen_php(g)
rows, cols = lattice_size(php.num_variables, 3)
print(f"  lattice: {rows} clause vertices, {cols} rule vertices")
t0 = time.time()
result = circular_search(php, Clause(()), width=3)
graph, flow = result
print(
    f"  found width-{graph.width} refutation of length {graph.length} "
    f"in {time.time() - t0:.1f}s, verified: {verify_flow(graph, flow, graph.goal_id)}"
)

print()
print("Dag-like comparison oracle on the same instance:")
closure = daglike_width_saturate(php, 3)
print(
    f"  width-3 saturation closure has {len(closure)} clauses; "
    f"empty clause derived: {Clause(()) in closure}"
)
print("  (at this scale narrow dag-like refutations still exist; the width-3")
print("   separation shows on larger instances, e.g. near-cubic n=15, seed 1)")
