"""Round trip between circular proofs and twin-variable polynomial proofs.

A flow-checked circular proof is, term for term, a polynomial identity: each
rule application contributes its rule polynomial weighted by flow over goal
balance, each net-consumed or net-produced clause contributes its encoding.
Both directions keep the identity exact.  Circular to polynomial gives
degree equal to the width and monomial size <= 3 x length; polynomial to
circular gives width at most the degree (1 for degree 0), and on the round
trips below it comes back at the width it started from.
"""

from circres import (
    check_sa,
    circular_to_sa,
    complete_bipartite,
    php_refutation,
    random_circular_proof,
    sa_degree,
    sa_monomial_size,
    sa_to_circular,
    verify_flow,
)

print("Pigeonhole refutations, there and back again:")
print(f"{'holes':>6} {'width':>6} {'degree':>7} {'msize':>7} {'3xlen':>7} {'back width':>11}")
for n in (2, 3, 4, 5):
    graph, flow = php_refutation(complete_bipartite(n + 1, n))
    proof = circular_to_sa(graph, flow)
    assert check_sa(proof)
    degree = sa_degree(proof)
    back, back_flow = sa_to_circular(proof)
    assert verify_flow(back, back_flow)
    print(
        f"{n:>6} {graph.width:>6} {degree:>7} {sa_monomial_size(proof):>7} "
        f"{3 * graph.length:>7} {back.width:>11}"
    )

print()
print("Random witnessed proofs, same exact correspondence:")
matches = 0
for seed in range(40):
    graph, flow = random_circular_proof(seed, num_vars=6, size_budget=10)
    if graph.goal_clause().is_tautological:
        continue
    proof = circular_to_sa(graph, flow)
    assert check_sa(proof)
    back, back_flow = sa_to_circular(proof)
    assert verify_flow(back, back_flow)
    assert sa_degree(proof) == graph.width == back.width
    matches += 1
print(f"  width == degree held exactly on all {matches} translatable samples")
