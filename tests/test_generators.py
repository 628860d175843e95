import dataclasses
import hashlib
import math
import random
import time

import pytest

from circres import generators
from circres.core import Clause, CnfFormula, all_assignments, evaluate, implies_oracle
from circres.flowcheck import verify_flow
from circres.formats import serialize_cres
from circres.generators import (
    BipartiteGraph,
    IsolatedVertexError,
    complete_bipartite,
    edge_variables,
    gen_php,
    near_cubic_bipartite,
    php_refutation,
    random_circular_proof,
    unsound_cycle_example,
)
from circres.proofgraph import balance_numerators, validate_rules


def clause(*ints):
    return Clause.from_ints(*ints)


def test_edge_variables_lexicographic():
    g = BipartiteGraph(2, 2, frozenset({(1, 2), (2, 1), (1, 1)}))
    assert edge_variables(g) == {(1, 1): 1, (1, 2): 2, (2, 1): 3}


def test_gen_php_two_pigeons_one_hole():
    cnf = gen_php(complete_bipartite(2, 1))
    assert set(cnf.clauses) == {clause(1), clause(2), clause(-1, -2)}


def test_gen_php_complete_counts():
    for n in (2, 3, 4):
        cnf = gen_php(complete_bipartite(n + 1, n))
        expected = (n + 1) + n * (n + 1) * n // 2
        assert len(cnf.clauses) == expected
        assert cnf.num_variables == (n + 1) * n


def test_gen_php_isolated_pigeon():
    g = BipartiteGraph(2, 1, frozenset({(1, 1)}))
    with pytest.raises(IsolatedVertexError):
        gen_php(g)
    with pytest.raises(IsolatedVertexError, match="pigeon 2"):
        php_refutation(g)


def test_gen_php_satisfiable_with_matching():
    # as many holes as pigeons and a perfect matching available
    g = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 2)}))
    cnf = gen_php(g)
    sat = any(
        all(evaluate(c, alpha) for c in cnf.clauses)
        for alpha in all_assignments(cnf.num_variables)
    )
    assert sat


def test_php_refutation_small():
    g = complete_bipartite(2, 1)
    graph, flow = php_refutation(g)
    assert validate_rules(graph) == []
    assert verify_flow(graph, flow)
    bal, den = balance_numerators(graph, flow)
    assert bal[graph.goal_id] == den


def test_php_refutation_balance_and_sources():
    for n in (2, 3, 4):
        g = complete_bipartite(n + 1, n)
        cnf = gen_php(g)
        graph, flow = php_refutation(g)
        assert validate_rules(graph) == []
        assert verify_flow(graph, flow)
        bal, den = balance_numerators(graph, flow)
        assert bal[graph.goal_id] == den  # pigeons minus holes
        php_clauses = set(cnf.clauses)
        for fid, c in graph.formula_vertices.items():
            if bal[fid] < 0:
                assert c in php_clauses
        assert graph.width <= g.max_degree()


def test_php_refutation_marks_the_formula_as_hypotheses():
    graphs = [complete_bipartite(n + 1, n) for n in (1, 2, 3, 4)]
    graphs += [near_cubic_bipartite(n, seed) for n, seed in [(3, 0), (5, 2), (6, 1)]]
    graphs.append(BipartiteGraph(3, 2, frozenset({(1, 1), (2, 1), (3, 1)})))
    for g in graphs:
        graph, _ = php_refutation(g)
        assert graph.hypotheses == set(gen_php(g).clauses)


def test_php_refutation_sparse_graph():
    g = near_cubic_bipartite(6, 1)
    graph, flow = php_refutation(g)
    assert verify_flow(graph, flow)
    assert graph.width <= 3


def test_php_refutation_needs_more_pigeons():
    with pytest.raises(ValueError):
        php_refutation(complete_bipartite(2, 2))


def test_php_length_growth_subquartic():
    lengths = {}
    for n in range(2, 11):
        graph, _ = php_refutation(complete_bipartite(n + 1, n))
        lengths[n] = graph.length
    xs = [math.log(n) for n in lengths]
    ys = [math.log(l) for l in lengths.values()]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    assert slope <= 4.0


def test_near_cubic_bipartite_shape():
    for n in (3, 5, 7):
        g = near_cubic_bipartite(n, 0)
        assert g.left_size == n + 1 and g.right_size == n
        assert g.max_degree() <= 3
        assert len(g.edges) == 3 * n
        assert all(g.left_neighbors(u) for u in range(1, n + 2))
    with pytest.raises(ValueError, match="need at least 3 holes for a degree-3 instance"):
        near_cubic_bipartite(2, 0)


def test_near_cubic_bipartite_gives_up_on_an_unshuffled_pairing(monkeypatch):
    # Unshuffled, the first two stubs of pigeon 1 both meet a stub of hole 1
    # on every draw, so no pairing is simple.
    monkeypatch.setattr(random.Random, "shuffle", lambda self, x: None)
    with pytest.raises(RuntimeError, match="no simple pairing found for n=4, seed=3"):
        near_cubic_bipartite(4, 3)


def test_adjacency_matches_edge_scan():
    graphs = (complete_bipartite(4, 3), near_cubic_bipartite(7, 2), BipartiteGraph(3, 4, frozenset()))
    for g in graphs:
        for u in range(1, g.left_size + 1):
            assert list(g.left_neighbors(u)) == sorted(v for a, v in g.edges if a == u)
        for v in range(1, g.right_size + 1):
            assert list(g.right_neighbors(v)) == sorted(u for u, b in g.edges if b == v)
    # The adjacency maps are not fields: equality, hashing and the field list
    # see only the sizes and the edge set.
    g = near_cubic_bipartite(5, 1)
    twin = BipartiteGraph(g.left_size, g.right_size, frozenset(sorted(g.edges, reverse=True)))
    assert g == twin and hash(g) == hash(twin)
    assert [f.name for f in dataclasses.fields(g)] == ["left_size", "right_size", "edges"]
    assert g != BipartiteGraph(g.left_size, g.right_size, g.edges - {min(g.edges)})


def test_unsound_cycle_shape():
    graph = unsound_cycle_example()
    assert validate_rules(graph) == []
    assert len(graph.formula_vertices) == 4
    assert len(graph.inference_vertices) == 4
    assert graph.goal_clause() == Clause()
    assert not graph.hypotheses


def test_random_proof_deterministic():
    a = random_circular_proof(7, 5, 8)
    b = random_circular_proof(7, 5, 8)
    assert a[0] == b[0] and a[1] == b[1]


def test_random_proof_budget_one():
    graph, flow = random_circular_proof(0, 3, 1)
    assert len(graph.inference_vertices) == 1
    assert graph.goal_clause().is_tautological
    assert verify_flow(graph, flow)


def test_random_proof_rejects_unreachable_budgets():
    with pytest.raises(ValueError, match="size budget must be at least 1"):
        random_circular_proof(0, 3, 0)
    # One variable allows only the axiom x1 | ~x1 and the hypotheses, so the
    # draws stall long before 50 inferences.
    with pytest.raises(ValueError, match=r"^budget 50 is out of reach \(vars 1, max width 4\): "
                                         r"10000 draws in a row added no inference$"):
        random_circular_proof(0, 1, 50)


def test_random_proof_does_not_scale_with_the_variable_count():
    # A split finds its variable from the clause's own bits; listing the
    # 100,000 variables on each draw took about 2 s.
    start = time.process_time()
    graph, flow = random_circular_proof(0, 100000, 12)
    assert time.process_time() - start < 0.5
    assert verify_flow(graph, flow)


def _listed_draw(rng, mask, num_vars):
    """The split's draw as ``rng.choice`` over the listed free variables."""
    candidates = [v for v in range(1, num_vars + 1) if not mask >> 2 * v & 3]
    return rng.choice(candidates) if candidates else None


def _outcome(*args):
    try:
        return serialize_cres(*random_circular_proof(*args), [])
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("max_width", [2, 4])
@pytest.mark.parametrize("num_vars, budget", [(6, 12), (2, 2), (5, 7), (5, 9), (1000, 12)])
def test_random_proof_draws_as_the_listed_draw(monkeypatch, num_vars, budget, max_width):
    drawn = [_outcome(seed, num_vars, budget, max_width) for seed in range(60)]
    monkeypatch.setattr(generators, "_free_variable", _listed_draw)
    assert [_outcome(seed, num_vars, budget, max_width) for seed in range(60)] == drawn


# One digest of the generator's output over a grid of seeds and shapes
# (seed, vars, budget, max width), each proof serialized with its flows or
# replaced by its error text, then the unsound cycle; recorded before the
# generator moved from vertex ids to clause masks.
GRID_SHAPES = [(6, 12, 4), (3, 8, 4), (4, 20, 3), (8, 30, 5), (2, 5, 2), (5, 1, 4), (1, 4, 3)]
GRID_SHA256 = "4f1fb920b5c51df98fc03a374acea5246c676d903bcfe409e08898b826ac7659"


def test_random_proof_grid_is_pinned():
    outputs = []
    for seed in range(30):
        for num_vars, budget, max_width in GRID_SHAPES:
            try:
                graph, flow = random_circular_proof(seed, num_vars, budget, max_width)
            except ValueError as exc:
                outputs.append(str(exc))
                continue
            # The loop stops at the budget, less 2 when a pump pair is due;
            # the identity padding adds one inference and the pump pair up
            # to two.
            assert budget - 2 <= len(graph.inference_vertices) <= budget + 1
            outputs.append(serialize_cres(graph, flow, []))
    outputs.append(serialize_cres(unsound_cycle_example()))
    assert hashlib.sha256("\n".join(outputs).encode()).hexdigest() == GRID_SHA256


def test_random_proofs_always_check():
    for seed in range(200):
        graph, flow = random_circular_proof(seed, 6, 10)
        assert validate_rules(graph) == [], seed
        assert verify_flow(graph, flow), seed


def test_random_proofs_sound_against_oracle():
    for seed in range(150):
        graph, flow = random_circular_proof(seed, 5, 9)
        hyp = CnfFormula.of(
            5, sorted(graph.hypotheses, key=lambda c: tuple(sorted(c.signed())))
        )
        assert implies_oracle(hyp, graph.goal_clause()), seed


def test_random_proofs_contain_cycles_sometimes():
    cyclic = 0
    for seed in range(60):
        graph, _ = random_circular_proof(seed, 5, 10)
        # a cycle exists iff some vertex is produced and consumed by rules in
        # a loop; detect via depth-first search over the directed graph
        adj: dict[int, set[int]] = {}
        for iid, w in graph.inference_vertices.items():
            for u in w.in_neighbors:
                adj.setdefault(("f", u), set()).add(("i", iid))
            for u in w.out_neighbors:
                adj.setdefault(("i", iid), set()).add(("f", u))
        color: dict = {}

        def has_cycle(node) -> bool:
            color[node] = 1
            for nxt in adj.get(node, ()):
                c = color.get(nxt, 0)
                if c == 1:
                    return True
                if c == 0 and has_cycle(nxt):
                    return True
            color[node] = 2
            return False

        if any(has_cycle(n) for n in list(adj) if color.get(n, 0) == 0):
            cyclic += 1
    assert cyclic > 10
