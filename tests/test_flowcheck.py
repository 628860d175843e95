import collections
import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from circres import cli, flowcheck, lp, proofgraph
from circres.core import Clause, CnfFormula, all_assignments, evaluate, implies_oracle
from circres.flowcheck import (
    DualCertificate,
    NotWitnessError,
    PreconditionError,
    ValidationError,
    _goal_candidates,
    _witness_program,
    certificate_combination,
    dual_certificate,
    find_witness,
    integralize,
    starved_vertex,
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
    CUT,
    SPLIT,
    balance_numerators,
    validate_rules,
)
from circres.formats import serialize_cres, serialize_dimacs
from circres.sheraliadams import circular_to_sa
from test_proofgraph import _fraction_balances, rewired, single_cut


def clause(*ints):
    return Clause.from_ints(*ints)


def mask(*ints):
    return clause(*ints).mask


def uniform(graph):
    return dict.fromkeys(graph.inference_vertices, Fraction(1))


def weakening_proof():
    # (x2) from {(x2 | x1), (x2 | ~x1)} by one cut.
    b = ProofGraphBuilder()
    a = b.vertex(mask(2, 1))
    c = b.vertex(mask(2, -1))
    b.mark_hypotheses({mask(2, 1), mask(2, -1)})
    out = b.vertex(mask(2))
    b.inference(CUT, 1, (a, c), (out,))
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
    bal, den = balance_numerators(witnessed, flow)
    assert bal[graph.goal_id] >= den


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
    return rewired(graph, random.Random(seed), 5)


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
        assert _fraction_balances(witnessed, found)[witnessed.goal_id] == 1


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


def _witnesses(graph, flow):
    """The definition of a witness, on balances summed as fractions: every
    flow positive, the goal a sink, and every source labelled by a
    hypothesis."""
    if not graph.inference_vertices.keys() <= flow.keys():
        raise IncompleteFlowError
    bal = _fraction_balances(graph, flow)
    return (all(f > 0 for f in flow.values()) and bal[graph.goal_id] > 0
            and all(graph.formula_vertices[u] in graph.hypotheses
                    for u, b in bal.items() if b < 0))


def _certificate(graph, flow):
    """The dual certificate by its definition: ``balance/balance(goal)``
    where the balance is nonzero, and ``flow/balance(goal)``."""
    if not _witnesses(graph, flow):
        raise NotWitnessError
    bal = _fraction_balances(graph, flow)
    goal = bal[graph.goal_id]
    return DualCertificate({u: b / goal for u, b in bal.items() if b},
                           {iid: flow[iid] / goal for iid in graph.inference_vertices})


def _answer(check, graph, flow):
    try:
        return check(graph, flow)
    except IncompleteFlowError:
        return "incomplete"
    except NotWitnessError:
        return "not a witness"


def test_verify_flow_is_its_definition():
    # Random proofs with random hypothesis subsets and goal moves, under
    # flows with zero, negative and fractional entries, extra keys and
    # missing ones; dual_certificate is checked on the same cases.
    rng = random.Random(34)
    answers = collections.Counter()
    for case in range(600):
        graph, flow = random_circular_proof(rng.randrange(1 << 20), rng.randint(4, 6),
                                            rng.randint(1, 12))
        if rng.random() < 0.5:
            hypotheses = frozenset(c for c in graph.formula_vertices.values()
                                   if rng.random() < 0.7)
            graph = dataclasses.replace(graph, hypotheses=hypotheses)
        if rng.random() < 0.3:
            graph = dataclasses.replace(graph, goal_id=rng.choice(sorted(graph.formula_vertices)))
        flow = dict(flow)
        for iid in list(flow):
            r = rng.random()
            if r < 0.05:
                flow[iid] = Fraction(0)
            elif r < 0.1:
                flow[iid] = Fraction(-rng.randint(1, 3), rng.randint(1, 3))
            elif r < 0.3:
                flow[iid] = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            elif r < 0.32:
                del flow[iid]
        if rng.random() < 0.2:
            flow[max(graph.inference_vertices) + 1] = Fraction(rng.randint(-1, 2))
        got = _answer(verify_flow, graph, flow)
        assert got == _answer(_witnesses, graph, flow), case
        assert _answer(dual_certificate, graph, flow) == _answer(_certificate, graph, flow), case
        answers[got] += 1
    assert min(answers.values()) >= 50 and len(answers) == 3, answers


def test_one_balance_sweep_per_question(monkeypatch, tmp_path, capsys):
    # One counting wrapper behind every binding of balance_numerators.
    calls = []
    sweep = proofgraph.balance_numerators

    def counting(graph, flow):
        calls.append(1)
        return sweep(graph, flow)

    for module in (proofgraph, flowcheck):
        monkeypatch.setattr(module, "balance_numerators", counting)
    graph, flow = php_refutation(complete_bipartite(4, 3))
    for question in (verify_flow, dual_certificate, circular_to_sa):
        calls.clear()
        question(graph, flow)
        assert len(calls) == 1, question.__name__
    # check reads its goal-balance line off the goal's own inferences, so
    # the witness check is its one sweep, with or without supplied flows.
    assert not hasattr(cli, "balance_numerators")
    proof, cnf = tmp_path / "p.cres", tmp_path / "p.cnf"
    cnf.write_text(serialize_dimacs(gen_php(complete_bipartite(4, 3))))
    for flows in (flow, None):
        proof.write_text(serialize_cres(graph, flows))
        calls.clear()
        assert cli.main(["check", str(proof), str(cnf)]) == 0
        assert len(calls) == 1 and "goal balance 1\n" in capsys.readouterr().out


def test_find_witness_agrees_with_verify():
    for seed in range(40):
        graph, _ = random_circular_proof(seed, 6, 9)
        _, flow = find_witness(graph)
        assert flow is not None
        assert verify_flow(graph, flow)


def _with_collapsed_rules(graph, rng):
    """``graph`` with one to three collapsed rules on nonempty vertices: a
    cut of ``C`` and ``x | ~x`` onto ``C`` itself, or a split of ``C`` onto
    ``C`` itself and ``x | ~x``, for a variable ``x`` of ``C``.  ``C`` is
    premise and consequent of one inference, so its +1 and -1 cancel."""
    formulas, inferences = dict(graph.formula_vertices), dict(graph.inference_vertices)
    for _ in range(rng.randint(1, 3)):
        fid = rng.choice([f for f, c in formulas.items() if c.width])
        x = rng.choice(sorted(formulas[fid].variables()))
        taut = len(formulas)
        formulas[taut] = Clause.from_ints(x, -x)
        if rng.random() < 0.5:
            rule = InferenceVertex(Rule(CUT, x), (fid, taut), (fid,))
        else:
            rule = InferenceVertex(Rule(SPLIT, x), (fid,), (fid, taut))
        inferences[len(inferences)] = rule
    return dataclasses.replace(graph, formula_vertices=formulas, inference_vertices=inferences)


def _reference_witness_program(graph):
    """The flow program from its definition: column ``k`` is the balance of
    every formula vertex under a flow of 1 on the ``k``-th inference and 0
    elsewhere, and a row holds its vertex's nonzero entries in column order."""
    order = sorted(graph.inference_vertices)
    columns = [balance_numerators(graph, {i: Fraction(i == k) for i in order})[0]
               for k in order]
    constrained = [graph.goal_id] + [
        fid for fid, c in graph.formula_vertices.items()
        if fid != graph.goal_id and c not in graph.hypotheses]
    rows = [lp.Constraint(tuple((k, col[fid]) for k, col in enumerate(columns) if col[fid]),
                          int(fid == graph.goal_id))
            for fid in constrained]
    return lp.LinearProgram(len(order), rows, {k: 1 for k in range(len(order))}), order


def test_witness_program_matches_definition():
    rng = random.Random(11)
    cancelled = 0
    for seed in range(60):
        graph, _ = random_circular_proof(seed, 5, rng.randint(2, 12))
        graph = _with_collapsed_rules(graph, rng)
        program, order = _witness_program(graph)
        reference, ref_order = _reference_witness_program(graph)
        assert (program.rows, program.lower, order) == (reference.rows, reference.lower, ref_order)
        # Collapsed rules on vertices with a row, where +1 and -1 leave no entry.
        rowed = {fid for fid, c in graph.formula_vertices.items()
                 if fid == graph.goal_id or c not in graph.hypotheses}
        cancelled += sum(bool(set(w.in_neighbors) & set(w.out_neighbors) & rowed)
                         for w in graph.inference_vertices.values())
    assert cancelled >= 60


def _solver_only_witness(graph):
    """find_witness without the unit flow: every candidate's flow program
    goes to the solver, in the same order."""
    for candidate in _goal_candidates(graph):
        program, order = _witness_program(candidate)
        point, _ = lp.solve(program)
        if point is not None:
            return candidate, dict(zip(order, point))
    return graph, None


def _items(answer):
    graph, flow = answer
    return graph, None if flow is None else list(flow.items())


def test_find_witness_answers_like_the_solver_alone(monkeypatch):
    # Random proofs with random hypothesis subsets, about a third of them
    # with the goal on a random vertex.  Each case is tallied by how it was
    # decided: a witness with or without a solver call, or none, with or
    # without a starved vertex.
    calls = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda program: calls.append(1) or feasible(program))
    rng = random.Random(33)
    decided = collections.Counter()
    for case in range(1000):
        graph, _ = random_circular_proof(rng.randrange(1 << 20), rng.randint(4, 6),
                                         rng.randint(1, 14))
        hypotheses = frozenset(c for c in graph.formula_vertices.values() if rng.random() < 0.5)
        graph = dataclasses.replace(graph, hypotheses=hypotheses)
        if rng.random() < 0.3:
            graph = dataclasses.replace(graph, goal_id=rng.choice(sorted(graph.formula_vertices)))
        calls.clear()
        got = find_witness(graph)
        assert _items(got) == _items(_solver_only_witness(graph)), case
        if got[1] is not None:
            decided["solver" if calls else "unit flow"] += 1
        else:
            decided["starved" if starved_vertex(graph) is not None else "no witness"] += 1
    assert min(decided.values()) >= 50 and len(decided) == 4, decided


def test_pigeonhole_refutations_are_witnessed_by_the_unit_flow(monkeypatch):
    monkeypatch.setattr("circres.lp.feasible", None)  # the solver must not run
    for n in range(2, 11):
        graph, _ = php_refutation(complete_bipartite(n + 1, n))
        assert find_witness(graph) == (graph, dict.fromkeys(graph.inference_vertices, 1))
    # Without its first pigeon clause the refutation has a starved vertex.
    monkeypatch.undo()
    for n in range(2, 11):
        g = complete_bipartite(n + 1, n)
        graph, _ = php_refutation(g)
        pigeon = gen_php(g).clauses[0]
        dropped = dataclasses.replace(graph, hypotheses=graph.hypotheses - {pigeon})
        assert find_witness(dropped) == (dropped, None)
        assert dropped.formula_vertices[starved_vertex(dropped)] == pigeon


def test_starved_vertex_examples():
    assert starved_vertex(unsound_cycle_example()) is None
    graph, _ = single_cut()
    assert starved_vertex(graph) is None
    # Without its hypotheses the cut uses two underived premises: the least
    # id is named.
    bare = dataclasses.replace(graph, hypotheses=frozenset())
    assert starved_vertex(bare) == min(bare.inference_vertices[0].in_neighbors)
    # A goal no inference derives, even one labelled by a hypothesis.
    for premise in graph.inference_vertices[0].in_neighbors:
        assert starved_vertex(dataclasses.replace(graph, goal_id=premise)) == premise
    # A starved premise other than the goal is named before an underived goal.
    first, second = sorted(bare.inference_vertices[0].in_neighbors)
    assert starved_vertex(dataclasses.replace(bare, goal_id=first)) == second


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
    b.mark_hypotheses({mask(1)})
    mid = b.vertex(mask(1, 2))
    b.inference(SPLIT, 2, (src,), (mid,), flow=Fraction(1, 2))
    top = b.vertex(mask(1, 2, 3))
    b.inference(SPLIT, 3, (mid,), (top,), flow=Fraction(1, 3))
    b.set_goal(top)
    graph, flow = b.build()
    out = integralize(graph, flow)
    assert out == {0: Fraction(3), 1: Fraction(2)}


def _signs(graph, flow):
    """The sign of every balance: -1 at a source, 1 at a sink, 0 elsewhere."""
    return {u: (b > 0) - (b < 0) for u, b in _fraction_balances(graph, flow).items()}


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
        assert _signs(graph, noisy) == _signs(graph, out)


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
        bal = _fraction_balances(graph, flow)
        bs = bal[graph.goal_id]
        assert cert.formula_multipliers == {u: b / bs for u, b in bal.items() if b}
        assert cert.rule_multipliers == {iid: f / bs for iid, f in flow.items()}
        assert 0 not in cert.formula_multipliers.values()
        assert 0 not in cert.rule_multipliers.values()
        negative = {u for u, b in cert.formula_multipliers.items() if b < 0}
        assert negative == {u for u, b in bal.items() if b < 0}
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
