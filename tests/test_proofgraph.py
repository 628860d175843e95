import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circres.core import Clause
from circres.flowcheck import verify_flow
from circres.formats import serialize_cres
from circres.generators import random_circular_proof, unsound_cycle_example
from circres.proofgraph import (
    AXIOM,
    CUT,
    SPLIT,
    IncompleteFlowError,
    InferenceVertex,
    ProofGraph,
    ProofGraphBuilder,
    Rule,
    StructureError,
    balance_numerators,
    export_dot,
    validate_rules,
)


def clause(*ints):
    return Clause.from_ints(*ints)


def mask(*ints):
    return clause(*ints).mask


def single_cut():
    b = ProofGraphBuilder()
    x = b.vertex(mask(1))
    nx = b.vertex(mask(-1))
    b.mark_hypotheses({mask(1), mask(-1)})
    e = b.vertex(0)
    b.inference(CUT, 1, (x, nx), (e,))
    b.set_goal(e)
    return b.build()


def test_valid_cut_template():
    b = ProofGraphBuilder()
    a = b.vertex(mask(1, 2))
    c = b.vertex(mask(1, -2))
    out = b.vertex(mask(1))
    b.inference(CUT, 2, (a, c), (out,))
    b.set_goal(out)
    graph, _ = b.build()
    assert validate_rules(graph) == []


def test_cut_with_mismatched_side_clauses():
    graph = ProofGraph(
        {0: clause(1, 2), 1: clause(3, -2), 2: clause(1, 3)},
        {0: InferenceVertex(Rule(CUT, 2), (0, 1), (2,))},
        frozenset(),
        2,
    )
    problems = validate_rules(graph)
    assert len(problems) == 1 and "side clause" in problems[0].message


def test_collapsing_split_is_valid():
    # Splitting (x1) on x1 keeps one consequent equal to the antecedent and
    # the other the elementary tautology.
    graph = ProofGraph(
        {0: clause(1), 1: clause(1, -1)},
        {0: InferenceVertex(Rule(SPLIT, 1), (0,), (0, 1))},
        frozenset({clause(1)}),
        1,
    )
    assert validate_rules(graph) == []


def test_builder_split_of_a_tautology_on_its_variable_with_one_consequent():
    # Both x1 | ~x1 | x1 and x1 | ~x1 | ~x1 are the antecedent itself, so
    # the split has one consequent, the antecedent.
    b = ProofGraphBuilder()
    taut = b.vertex(mask(1, -1))
    b.inference(AXIOM, 1, (), (taut,))
    b.inference(SPLIT, 1, (taut,), (taut,))
    b.set_goal(taut)
    graph, _ = b.build()
    assert graph.inference_vertices[1].out_neighbors == (taut,)
    assert validate_rules(graph) == []
    # The builder keeps a repeated consequent as given, for the rule check.
    b.inference(SPLIT, 1, (taut,), (taut, taut))
    graph, _ = b.build()
    assert graph.inference_vertices[2].out_neighbors == (taut, taut)
    assert [str(v) for v in validate_rules(graph)] == [
        "inference 2: split consequents must be distinct"]


def test_builder_requires_a_goal():
    with pytest.raises(ValueError, match="goal vertex was never set"):
        ProofGraphBuilder().build()


def test_axiom_template():
    graph = ProofGraph(
        {0: clause(2, -2)},
        {0: InferenceVertex(Rule(AXIOM, 2), (), (0,))},
        frozenset(),
        0,
    )
    assert validate_rules(graph) == []
    bad = ProofGraph(
        {0: clause(2)},
        {0: InferenceVertex(Rule(AXIOM, 2), (), (0,))},
        frozenset(),
        0,
    )
    assert validate_rules(bad)


def test_dangling_reference_rejected():
    with pytest.raises(StructureError) as info:
        ProofGraph(
            {0: clause(1)},
            {0: InferenceVertex(Rule(SPLIT, 2), (0,), (7,))},
            frozenset(),
            0,
        )
    assert info.value.vertex_id == 0


def test_validation_order_invariant():
    for seed in range(10):
        graph, _ = random_circular_proof(seed, 5, 9)
        shuffled = ProofGraph(
            dict(reversed(graph.formula_vertices.items())),
            dict(reversed(graph.inference_vertices.items())),
            graph.hypotheses,
            graph.goal_id,
        )
        assert validate_rules(graph) == []
        assert validate_rules(shuffled) == []


def test_balance_examples():
    b = ProofGraphBuilder()
    out = b.vertex(mask(1, -1))
    b.inference(AXIOM, 1, (), (out,))
    b.set_goal(out)
    graph, flow = b.build()
    assert balance_numerators(graph, flow) == ({out: 1}, 1)

    graph, flow = single_cut()
    bal, den = balance_numerators(graph, flow)
    assert bal[graph.goal_id] == den == 1
    assert [u for u, b in bal.items() if b > 0] == [graph.goal_id]
    assert {graph.formula_vertices[u] for u, b in bal.items() if b < 0} == {clause(1), clause(-1)}


def test_unsound_cycle_balances_always_negative():
    graph = unsound_cycle_example()
    assert validate_rules(graph) == []
    x_id = next(fid for fid, c in graph.formula_vertices.items() if c == clause(1))
    for trial in range(20):
        rng = random.Random(trial)
        flow = {iid: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for iid in graph.inference_vertices}
        assert balance_numerators(graph, flow)[0][x_id] < 0


def test_pass_through_balance_zero():
    b = ProofGraphBuilder()
    src = b.vertex(mask(1))
    b.mark_hypotheses({mask(1)})
    mid = b.vertex(mask(1, 2))
    b.inference(SPLIT, 2, (src,), (mid,), flow=3)
    top = b.vertex(mask(1, 2, 3))
    b.inference(SPLIT, 3, (mid,), (top,), flow=3)
    b.set_goal(top)
    graph, flow = b.build()
    assert balance_numerators(graph, flow)[0][mid] == 0


def test_missing_flow_entry():
    graph, flow = single_cut()
    flow.popitem()
    with pytest.raises(IncompleteFlowError, match="no flow for inference vertex 0"):
        balance_numerators(graph, flow)


def test_double_counting_identity():
    # Sum of balances equals sum over rules of flow times (outdegree minus
    # indegree), exactly.
    for seed in range(25):
        graph, flow = random_circular_proof(seed, 6, 10)
        bal, den = balance_numerators(graph, flow)
        total = Fraction(sum(bal.values()), den)
        expected = sum(
            flow[iid] * (len(w.out_neighbors) - len(w.in_neighbors))
            for iid, w in graph.inference_vertices.items()
        )
        assert total == expected


def test_no_inference_vertices_no_sources_or_sinks():
    graph = ProofGraph({0: clause(1)}, {}, frozenset(), 0)
    assert balance_numerators(graph, {}) == ({0: 0}, 1)


def _fraction_balances(graph, flows):
    acc = dict.fromkeys(graph.formula_vertices, Fraction(0))
    for iid, w in graph.inference_vertices.items():
        for u in w.out_neighbors:
            acc[u] += flows[iid]
        for u in w.in_neighbors:
            acc[u] -= flows[iid]
    return acc


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.integers(1, 12), bare=st.booleans(),
       data=st.data())
def test_integer_balances_agree_with_fraction_sums(seed, budget, bare, data):
    # Rational flows with assorted denominators on random proofs, and on the
    # same formula vertices with no inference vertices at all.
    graph, _ = random_circular_proof(seed, 5, budget)
    if bare:
        graph = ProofGraph(graph.formula_vertices, {}, graph.hypotheses, graph.goal_id)
    flows = {
        iid: Fraction(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 12)))
        for iid in graph.inference_vertices
    }
    expected = _fraction_balances(graph, flows)
    bal, den = balance_numerators(graph, flows)
    assert den == math.lcm(*(f.denominator for f in flows.values()))
    assert {u: Fraction(b, den) for u, b in bal.items()} == expected
    hyps = graph.hypotheses
    witnessed = expected[graph.goal_id] > 0 and all(
        expected[fid] >= 0 or c in hyps for fid, c in graph.formula_vertices.items()
    )
    assert verify_flow(graph, flows) == witnessed


DOT_EDGE = r"^\s+[fi]\d+ -> [fi]\d+;$"
DOT_NODE = r'^\s+[fi]\d+ \[shape=(box|circle), label=".*"\];$'


def _check_dot_shape(text: str) -> tuple[int, int, int]:
    import re

    lines = text.strip().splitlines()
    assert lines[0] == "digraph proof {"
    assert lines[-1] == "}"
    boxes = circles = edges = 0
    for line in lines[1:-1]:
        if re.match(DOT_EDGE, line):
            edges += 1
        elif re.match(DOT_NODE, line):
            if "shape=box" in line:
                boxes += 1
            else:
                circles += 1
        else:
            raise AssertionError(f"unparsed DOT line: {line!r}")
    return boxes, circles, edges


def test_empty_graph_is_rejected():
    # A graph without vertices has no goal vertex either.
    with pytest.raises(StructureError, match="goal id 0 is not a formula vertex"):
        ProofGraph({}, {}, frozenset(), 0)


def test_dot_unsound_cycle_counts():
    graph = unsound_cycle_example()
    boxes, circles, edges = _check_dot_shape(export_dot(graph))
    assert boxes == 4 and circles == 4 and edges >= 8


def test_dot_with_flows_reparses():
    graph, flow = single_cut()
    _check_dot_shape(export_dot(graph, flow))


def test_fresh_copy_of_a_hypothesis_is_a_hypothesis():
    b = ProofGraphBuilder()
    x = b.vertex(mask(1))
    copy = b.vertex(mask(1), fresh=True)
    goal = b.vertex(mask(2))
    b.mark_hypotheses({mask(1), mask(3)})
    b.set_goal(goal)
    graph, _ = b.build()
    assert graph.hypotheses == {clause(1)}
    marks = [line for line in serialize_cres(graph).splitlines() if line.startswith("h ")]
    assert marks == [f"h {x}", f"h {copy}"]
