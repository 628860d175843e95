import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from circres.core import Clause, CnfFormula, all_assignments, evaluate, implies_oracle
from circres.flowcheck import (
    DualCertificate,
    NotWitnessError,
    PreconditionError,
    ValidationError,
    certificate_combination,
    dual_certificate,
    find_witness,
    integralize,
    trace_falsified_source,
    verify_dual_certificate,
    verify_flow,
)
from circres.generators import (
    complete_bipartite,
    gen_php,
    php_refutation,
    random_circular_proof,
    unsound_cycle_example,
)
from circres.proofgraph import (
    IncompleteFlowError,
    InferenceVertex,
    ProofGraphBuilder,
    ProofGraph,
    Rule,
    SPLIT,
    balances,
    sources_and_sinks,
    validate_rules,
)


def clause(*ints):
    return Clause.from_ints(*ints)


def mask(*ints):
    return clause(*ints).mask


def uniform(graph):
    return dict.fromkeys(graph.inference_vertices, Fraction(1))


def single_cut():
    b = ProofGraphBuilder()
    x = b.vertex(mask(1))
    nx = b.vertex(mask(-1))
    b.mark_hypothesis(x)
    b.mark_hypothesis(nx)
    e = b.cut(x, nx, 0, 1)
    b.set_goal(e)
    return b.build()


def weakening_proof():
    # (x2) from {(x2 | x1), (x2 | ~x1)} by one cut.
    b = ProofGraphBuilder()
    a = b.vertex(mask(2, 1))
    c = b.vertex(mask(2, -1))
    b.mark_hypothesis(a)
    b.mark_hypothesis(c)
    out = b.cut(a, c, mask(2), 1)
    b.set_goal(out)
    return b.build()


def test_unsound_cycle_not_witnessed():
    cycle = unsound_cycle_example()
    assert find_witness(cycle) == (cycle, None)


def test_acyclic_cut_witnessed():
    graph, _ = single_cut()
    witnessed, flow = find_witness(graph)
    assert flow is not None
    assert verify_flow(graph, flow)
    assert balances(witnessed, flow)[graph.goal_id] >= 1


def test_php_construction_witnessed_by_program():
    graph, _ = php_refutation(complete_bipartite(3, 2))
    _, flow = find_witness(graph)
    assert flow is not None
    assert verify_flow(graph, flow)


def test_find_witness_refuses_invalid_rules():
    bad = ProofGraph(
        {0: clause(1), 1: clause(2)},
        {0: InferenceVertex(Rule(SPLIT, 3), (0,), (1,))},
        frozenset({clause(1)}),
        1,
    )
    with pytest.raises(ValidationError) as info:
        find_witness(bad)
    assert [str(v) for v in info.value.violations] == [
        "inference 0: split consequent x2 is neither x1 | x3 nor x1 | ~x3"
    ]
    assert str(info.value) == str(info.value.violations[0])


def _mutated(seed):
    """A random proof with some inference vertices rewired: a principal
    redrawn, or an antecedent or consequent id replaced, added or dropped."""
    graph, _ = random_circular_proof(seed, 5, 10)
    rng = random.Random(seed)
    fids = list(graph.formula_vertices)
    rewired = {}
    for iid, w in graph.inference_vertices.items():
        x, ins, outs = w.rule.principal, list(w.in_neighbors), list(w.out_neighbors)
        r = rng.random()
        if r < 0.2:
            x = rng.randint(1, 5)
        elif r < 0.35 and ins:
            ins[rng.randrange(len(ins))] = rng.choice(fids)
        elif r < 0.5:
            outs[rng.randrange(len(outs))] = rng.choice(fids)
        elif r < 0.6:
            ins.append(rng.choice(fids))
        elif r < 0.7:
            outs.append(rng.choice(fids))
        elif r < 0.75:
            outs.pop()
        rewired[iid] = InferenceVertex(Rule(w.rule.kind, x), tuple(ins), tuple(outs))
    return ProofGraph(graph.formula_vertices, rewired, graph.hypotheses,
                      graph.goal_id)


# sha256 of the joined messages of test_rule_messages_are_stable, recorded
# when the expected clauses were still built for every rule check.
RULE_MESSAGES_SHA256 = "10b42589899d0d5efbc39a3d62070c18e38983ff4f2e49c0a8b0eaa3d949127f"


def test_rule_messages_are_stable():
    messages = [str(v) for seed in range(50) for v in validate_rules(_mutated(seed))]
    assert len(messages) == 403
    for shape in ("cut antecedents must be", "split consequent", "axiom consequent must be",
                  "must have exactly", "split consequents must be distinct"):
        assert any(shape in m for m in messages), shape
    digest = hashlib.sha256("\n".join(messages).encode()).hexdigest()
    assert digest == RULE_MESSAGES_SHA256


def test_find_witness_takes_supplied_flows(monkeypatch):
    graph, flow = php_refutation(complete_bipartite(3, 2))
    monkeypatch.setattr("circres.lp.feasible", None)  # the solver must not run
    witnessed, found = find_witness(graph, flow)
    assert found is flow and witnessed is graph


def test_find_witness_moves_the_goal_to_the_witnessed_copy():
    # The goal mark points at a second, isolated empty-clause vertex.
    graph, flow = php_refutation(complete_bipartite(3, 2))
    spare = len(graph.formula_vertices)
    dup = ProofGraph({**graph.formula_vertices, spare: Clause()},
                     graph.inference_vertices, graph.hypotheses, spare)
    assert not verify_flow(dup, flow)
    for supplied in (flow, None):
        witnessed, found = find_witness(dup, supplied)
        assert witnessed.goal_id == graph.goal_id
        assert verify_flow(witnessed, found)
        assert balances(witnessed, found)[witnessed.goal_id] == 1


def test_find_witness_solves_past_rejected_flows():
    graph, flow = php_refutation(complete_bipartite(3, 2))
    tampered = {**flow, 0: Fraction(1000)}
    assert not verify_flow(graph, tampered)
    _, found = find_witness(graph, tampered)
    assert found is not None and found is not tampered
    assert found == find_witness(graph)[1]

    cycle = unsound_cycle_example()
    witnessed, found = find_witness(cycle, uniform(cycle))
    assert found is None and witnessed is cycle


def test_verify_flow_examples():
    graph, flow = php_refutation(complete_bipartite(4, 3))
    assert verify_flow(graph, flow)
    assert not verify_flow(graph, {**flow, 0: Fraction(0)})

    unsound = unsound_cycle_example()
    assert not verify_flow(unsound, uniform(unsound))
    with pytest.raises(IncompleteFlowError,
                       match="no flow for inference vertex"):
        verify_flow(graph, {})


def test_find_witness_agrees_with_verify():
    for seed in range(40):
        graph, _ = random_circular_proof(seed, 6, 9)
        _, flow = find_witness(graph)
        assert flow is not None
        assert verify_flow(graph, flow)


def test_soundness_fuzz_against_oracle():
    for seed in range(150):
        graph, flow = random_circular_proof(seed, 6, 9)
        assert verify_flow(graph, flow)
        nvars = max((v for c in
                     graph.formula_vertices.values()
                     for v in c.variables()), default=1)
        hyp = CnfFormula.of(
            nvars,
            sorted(graph.hypotheses, key=lambda c: tuple(sorted(c.signed()))),
        )
        assert implies_oracle(hyp, graph.goal_clause())


def test_contrapositive_unimplied_goal_never_witnessed():
    # Whenever the goal does not follow semantically, no flow can witness it.
    rng = random.Random(23)
    found = 0
    for seed in range(200):
        graph, flow = random_circular_proof(seed, 5, 7)
        nvars = 5
        hyp = CnfFormula.of(
            nvars,
            sorted(graph.hypotheses, key=lambda c: tuple(sorted(c.signed()))),
        )
        # Perturb the goal to a random clause; test only unimplied ones.
        k = rng.randint(0, 2)
        vs = rng.sample(range(1, nvars + 1), k)
        target = Clause.from_signed(v if rng.random() < 0.5 else -v for v in vs)
        if implies_oracle(hyp, target):
            continue
        found += 1
        tid = next((fid for fid, c in graph.formula_vertices.items() if c == target), None)
        if tid is None:
            continue
        retargeted = ProofGraph(
            graph.formula_vertices, graph.inference_vertices, graph.hypotheses, tid
        )
        assert find_witness(retargeted)[1] is None
    assert found > 20


def test_integralize_clears_denominators():
    b = ProofGraphBuilder()
    src = b.vertex(mask(1))
    b.mark_hypothesis(src)
    (mid,) = b.split(src, 2, keep_negative=False, flow=Fraction(1, 2))
    (top,) = b.split(mid, 3, keep_negative=False, flow=Fraction(1, 3))
    b.set_goal(top)
    graph, flow = b.build()
    out = integralize(graph, flow)
    assert out == {0: Fraction(3), 1: Fraction(2)}


def test_integralize_preserves_source_sink_sets():
    rng = random.Random(7)
    for seed in range(60):
        graph, flow = random_circular_proof(seed, 6, 8)
        noisy = {iid: f * Fraction(rng.randint(1, 5), rng.randint(1, 5))
                 for iid, f in flow.items()}
        if not verify_flow(graph, noisy):
            noisy = flow
        out = integralize(graph, noisy)
        assert all(f.denominator == 1 and f > 0 for f in out.values())
        assert sources_and_sinks(graph, noisy) == sources_and_sinks(graph, out)


def test_integralize_unchanged_when_integral():
    graph, flow = single_cut()
    assert integralize(graph, flow) == flow


def test_integralize_rejects_nonpositive():
    graph, flow = single_cut()
    with pytest.raises(NotWitnessError, match="flow assignment does not witness the proof"):
        integralize(graph, {0: Fraction(0)})


# ---------------------------------------------------------------------------
# falsified-source tracing

def test_trace_single_cut():
    graph, flow = single_cut()
    source, _ = trace_falsified_source(graph, flow, graph.goal_id, {1: 1})
    assert graph.formula_vertices[source] == clause(-1)


def test_trace_weakening_proof():
    graph, flow = weakening_proof()
    source, _ = trace_falsified_source(graph, flow, graph.goal_id, {1: 0, 2: 0})
    assert graph.formula_vertices[source] == clause(2, 1)


def test_trace_requires_falsified_sink():
    graph, flow = weakening_proof()
    # goal clause (x2) satisfied by the assignment: precondition violated
    with pytest.raises(PreconditionError, match="assignment satisfies the sink clause"):
        trace_falsified_source(graph, flow, graph.goal_id, {1: 0, 2: 1})


def test_trace_requires_integral_flow():
    graph, _ = single_cut()
    with pytest.raises(PreconditionError, match="tracer requires positive integral flows"):
        trace_falsified_source(graph, {0: Fraction(1, 2)}, graph.goal_id, {1: 1})
    with pytest.raises(IncompleteFlowError,
                       match="no flow for inference vertex"):
        trace_falsified_source(graph, {}, graph.goal_id, {1: 1})


def test_trace_requires_a_sink():
    # A pigeon clause is a hypothesis the refutation consumes: its balance
    # is negative, though the all-zero assignment falsifies it.
    graph, flow = php_refutation(complete_bipartite(3, 2))
    pigeon = next(fid for fid, c in graph.formula_vertices.items()
                  if c in graph.hypotheses and c.literals[0] > 0)
    with pytest.raises(PreconditionError,
                       match="sink vertex must have strictly positive balance"):
        trace_falsified_source(graph, flow, pigeon, {v: 0 for v in range(1, 7)})


def test_trace_php_returns_falsified_hypothesis():
    g = complete_bipartite(3, 2)
    graph, flow = php_refutation(g)
    rng = random.Random(1)
    nvars = 6
    for _ in range(20):
        alpha = {v: rng.randint(0, 1) for v in range(1, nvars + 1)}
        vid, steps = trace_falsified_source(graph, flow, graph.goal_id, alpha)
        found = graph.formula_vertices[vid]
        assert found in graph.hypotheses
        assert not evaluate(found, alpha)
        assert steps <= sum(flow.values())


def test_trace_totality_random_proofs():
    checked = 0
    for seed in range(120):
        graph, flow = random_circular_proof(seed, 6, 9)
        goal = graph.goal_clause()
        flow = integralize(graph, flow)
        falsifier = None
        for alpha in all_assignments(6):
            if not evaluate(goal, alpha):
                falsifier = alpha
                break
        if falsifier is None:
            continue
        vid, steps = trace_falsified_source(graph, flow, graph.goal_id, falsifier)
        assert graph.formula_vertices[vid] in graph.hypotheses
        assert not evaluate(graph.formula_vertices[vid], falsifier)
        assert steps <= sum(flow.values())
        checked += 1
    assert checked > 60


# ---------------------------------------------------------------------------
# dual certificates

def _collapses(graph, cert):
    coeff, const = certificate_combination(graph, cert)
    return all(c == 0 for c in coeff.values()) and const == -1


def test_dual_certificate_single_cut():
    graph, flow = single_cut()
    cert = dual_certificate(graph, flow)
    # x and ~x are the hypothesis sources, and the empty clause the goal.
    assert list(cert.formula_multipliers.values()) == [-1, -1, 1]
    assert all(v == 1 for v in cert.rule_multipliers.values())
    assert _collapses(graph, cert)
    assert verify_dual_certificate(graph, cert)


def test_dual_certificate_php_and_random():
    # The negative multipliers sit on the sources, all of them hypotheses.
    cases = [php_refutation(complete_bipartite(4, 3))]
    cases += [random_circular_proof(seed, 6, 9) for seed in range(60)]
    for graph, flow in cases:
        cert = dual_certificate(graph, flow)
        negative = {u for u, b in cert.formula_multipliers.items() if b < 0}
        assert negative == sources_and_sinks(graph, flow)[0]
        assert {graph.formula_vertices[u] for u in negative} <= graph.hypotheses
        assert verify_dual_certificate(graph, cert)


def test_tampered_certificate_rejected():
    graph, flow = single_cut()
    cert = dual_certificate(graph, flow)
    tampered = dict(cert.rule_multipliers)
    key = next(iter(tampered))
    tampered[key] += Fraction(1, 7)
    bad = DualCertificate(cert.formula_multipliers, tampered)
    assert not verify_dual_certificate(graph, bad)


def test_negative_multiplier_rejected():
    # A negative rule multiplier: with the cut doubled, weight moved from
    # one copy to the other keeps the combination at 0 >= 1, so only the
    # sign rule rejects it.  (A negative formula multiplier off the
    # hypotheses is the forged certificate below.)
    graph, flow = single_cut()
    (iid, cut), = graph.inference_vertices.items()
    doubled = dataclasses.replace(graph, inference_vertices={iid: cut, iid + 1: cut})
    cert = dual_certificate(doubled, {iid: Fraction(1), iid + 1: Fraction(1)})
    assert verify_dual_certificate(doubled, cert)
    negated = dataclasses.replace(cert, rule_multipliers={iid: Fraction(3, 2),
                                                         iid + 1: Fraction(-1, 2)})
    assert _collapses(doubled, negated)
    assert not verify_dual_certificate(doubled, negated)


def test_forged_certificate_rejected():
    # The unsound cycle has no hypotheses, yet negative multipliers on x1
    # and ~x1 make the combination collapse to 0 >= 1.
    graph = unsound_cycle_example()
    ids = {c: fid for fid, c in graph.formula_vertices.items()}
    x, nx, goal = ids[clause(1)], ids[clause(-1)], graph.goal_id
    final_cut = next(iid for iid, w in graph.inference_vertices.items()
                     if goal in w.out_neighbors)
    forged = DualCertificate({goal: 1, x: -1, nx: -1}, {final_cut: 1})
    assert _collapses(graph, forged)
    assert not verify_dual_certificate(graph, forged)


def test_certificate_with_an_unknown_id_rejected():
    # A zero multiplier changes no sum, so only the key check rejects these.
    graph, flow = single_cut()
    cert = dual_certificate(graph, flow)
    for unknown in (
        dataclasses.replace(cert, formula_multipliers={**cert.formula_multipliers, 99: 0}),
        dataclasses.replace(cert, rule_multipliers={**cert.rule_multipliers, 99: 0}),
    ):
        assert _collapses(graph, unknown)
        assert not verify_dual_certificate(graph, unknown)


def test_certificate_for_another_goal_rejected():
    graph, flow = single_cut()
    cert = dual_certificate(graph, flow)
    moved = dataclasses.replace(graph, goal_id=next(
        fid for fid, c in graph.formula_vertices.items() if c in graph.hypotheses))
    assert not verify_dual_certificate(moved, cert)


def test_dual_certificate_requires_witness():
    graph = unsound_cycle_example()
    with pytest.raises(NotWitnessError):
        dual_certificate(graph, uniform(graph))
