"""Checking circular proofs: a sound one, and the classic unsound cycle.

A circular proof is a directed bipartite graph of clauses and rule
applications (axiom, symmetric cut, split) in which cycles are allowed.
What separates a proof from a mere pre-proof is a flow assignment: positive
weights on the rules such that only hypothesis clauses are consumed on net
and the goal clause is produced on net.  This demo builds both kinds of
graph and runs the exact-arithmetic certifier on them.
"""

from fractions import Fraction

from circres import (
    Clause,
    ProofGraphBuilder,
    balance_numerators,
    export_dot,
    find_witness,
    unsound_cycle_example,
    verify_flow,
)
from circres.proofgraph import CUT


def show(graph, flow=None):
    bal, den = balance_numerators(graph, flow) if flow else (None, 1)
    for fid, clause in graph.formula_vertices.items():
        marks = []
        if clause in graph.hypotheses:
            marks.append("hypothesis")
        if fid == graph.goal_id:
            marks.append("goal")
        line = f"  [{fid}] {clause}"
        if marks:
            line += f"  ({', '.join(marks)})"
        if bal is not None:
            line += f"  balance {Fraction(bal[fid], den)}"
        print(line)


print("A sound derivation of (x2) from (x2 | x1) and (x2 | ~x1):")
# The builder takes each clause as its mask and each rule over vertex ids.
left_mask, right_mask = Clause.from_ints(2, 1).mask, Clause.from_ints(2, -1).mask
b = ProofGraphBuilder()
left = b.vertex(left_mask)
right = b.vertex(right_mask)
b.mark_hypotheses({left_mask, right_mask})
goal = b.vertex(Clause.from_ints(2).mask)
b.inference(CUT, 1, (left, right), (goal,))
b.set_goal(goal)
graph, flow = b.build()
show(graph, flow)
print(f"verify_flow: {verify_flow(graph, flow)}")
print()

print("The unsound cycle: empty clause from no hypotheses.")
print("Each rule application is locally valid; the flow condition is what fails.")
cycle = unsound_cycle_example()
show(cycle)
_, flow = find_witness(cycle)
print(f"find_witness -> witnessed = {flow is not None}")
print()
print("DOT rendering of the unsound cycle (paste into graphviz):")
print(export_dot(cycle))
