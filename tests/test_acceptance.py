"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single ``criterion N: PASS`` line on success (run with
``pytest -s`` to see them); failures carry the measured values.  Everything
asserted here is exact rational arithmetic unless a runtime bound is given.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from circres.cli import main as cli_main
from circres.core import Clause, CnfFormula, evaluate, implies_oracle
from circres.flowcheck import (
    certificate_combination,
    dual_certificate,
    integralize,
    trace_falsified_source,
    verify_dual_certificate,
    verify_flow,
)
from circres.formats import parse_cres, parse_dimacs, parse_sap, serialize_cres
from circres.generators import (
    complete_bipartite,
    gen_php,
    near_cubic_bipartite,
    php_refutation,
    random_circular_proof,
    unsound_cycle_example,
)
from circres.proofgraph import balance_numerators
from circres.search import circular_search, daglike_width_saturate
from circres.sheraliadams import (
    SAProof,
    check_sa,
    circular_to_sa,
    clause_gadget,
    falsified_monomial,
    gadget_target,
    proof_sum,
    sa_degree,
    sa_monomial_size,
    sa_to_circular,
)

SOUNDNESS_SEEDS = 1000
TRACE_PAIRS = 200
RANDOM_VARS = 8


@pytest.fixture(scope="module")
def php_proofs():
    out = {}
    for n in range(2, 11):
        g = complete_bipartite(n + 1, n)
        out[n] = (gen_php(g), *php_refutation(g))
    return out


@pytest.fixture(scope="module")
def random_proofs():
    out = []
    for seed in range(SOUNDNESS_SEEDS):
        out.append(random_circular_proof(seed, RANDOM_VARS, 6 + seed % 9))
    return out


def test_criterion_01_unsound_cycle_rejected(tmp_path, capsys):
    graph = unsound_cycle_example()
    proof = tmp_path / "cycle.cres"
    proof.write_text(serialize_cres(graph))
    cnf = tmp_path / "nohyps.cnf"
    cnf.write_text("p cnf 1 0\n")
    start = time.monotonic()
    code = cli_main(["check", str(proof), str(cnf)])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 1 and "NOT-WITNESSED" in out
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: PASS - unsound cycle rejected with exit 1 in {elapsed:.3f}s")


def test_criterion_02_php_family(tmp_path, capsys):
    start = time.monotonic()
    lengths = {}
    for n in range(2, 11):
        cnf_path = tmp_path / f"php{n}.cnf"
        proof_path = tmp_path / f"php{n}.cres"
        assert cli_main([
            "gen-php", "--complete", str(n),
            "--cnf-out", str(cnf_path), "--proof-out", str(proof_path),
        ]) == 0
        assert cli_main(["check", str(proof_path), str(cnf_path)]) == 0
        out = capsys.readouterr().out
        assert "goal balance 1\n" in out  # exactly |pigeons| - |holes| = 1
        graph, _ = parse_cres(proof_path.read_text())
        lengths[n] = graph.length
    elapsed = time.monotonic() - start
    xs = [math.log(n) for n in lengths]
    ys = [math.log(l) for l in lengths.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    assert slope <= 4.0, f"length growth exponent {slope:.2f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 2: PASS - pigeonhole family n=2..10 checked, growth "
        f"exponent {slope:.2f} <= 4, {elapsed:.1f}s"
    )


def _twenty_translatable(random_proofs):
    chosen = []
    for graph, flow in random_proofs:
        if graph.goal_clause().is_tautological:
            continue
        chosen.append((graph, flow))
        if len(chosen) == 20:
            break
    return chosen


def test_criterion_03_width_degree_exactness(php_proofs, random_proofs):
    cases = _twenty_translatable(random_proofs)
    cases += [(g, f) for (_, g, f) in php_proofs.values()]
    for graph, flow in cases:
        proof = circular_to_sa(graph, flow)
        assert check_sa(proof)
        degree = sa_degree(proof)
        assert degree == graph.width, (degree, graph.width)
        assert sa_monomial_size(proof) <= 3 * graph.length
        g2, f2 = sa_to_circular(proof)
        assert verify_flow(g2, f2)
        assert g2.width == degree, (g2.width, degree)
    print(
        f"criterion 3: PASS - degree == width exactly on {len(cases)} proofs "
        f"(20 random + pigeonhole family), both directions"
    )


def test_criterion_04_soundness_fuzz(random_proofs):
    start = time.monotonic()
    for seed, (graph, flow) in enumerate(random_proofs):
        assert verify_flow(graph, flow), seed
        hyp = CnfFormula.of(
            RANDOM_VARS,
            sorted(graph.hypotheses, key=lambda c: tuple(sorted(c.signed()))),
        )
        assert implies_oracle(hyp, graph.goal_clause()), f"counterexample at seed {seed}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"criterion 4: PASS - {len(random_proofs)} witnessed proofs confirmed "
        f"by exhaustive oracle, zero counterexamples, {elapsed:.1f}s"
    )


def test_criterion_05_tracer_totality(random_proofs):
    rng = random.Random(99)
    done = 0
    for graph, flow in random_proofs:
        if done >= TRACE_PAIRS:
            break
        goal = graph.goal_clause()
        if goal.is_tautological:
            continue
        integral = integralize(graph, flow)
        values = {v: rng.randint(0, 1) for v in range(1, RANDOM_VARS + 1)}
        for lit in goal.literals:
            values[abs(lit)] = 0 if lit > 0 else 1
        assert not evaluate(goal, values)
        vid, steps = trace_falsified_source(graph, integral, graph.goal_id, values)
        found = graph.formula_vertices[vid]
        assert found in graph.hypotheses
        assert not evaluate(found, values)
        assert steps <= sum(integral.values())
        done += 1
    assert done == TRACE_PAIRS
    print(
        f"criterion 5: PASS - tracer returned a falsified hypothesis within "
        f"the flow-sum step bound on {done} (proof, assignment) pairs"
    )


def test_criterion_06_dual_certificates(php_proofs, random_proofs):
    count = 0
    for _, graph, flow in php_proofs.values():
        cert = dual_certificate(graph, flow)
        coeff, const = certificate_combination(graph, cert)
        assert all(c == 0 for c in coeff.values()) and const == Fraction(-1)
        assert verify_dual_certificate(graph, cert)
        count += 1
    for graph, flow in random_proofs:
        cert = dual_certificate(graph, flow)
        coeff, const = certificate_combination(graph, cert)
        assert all(c == 0 for c in coeff.values()) and const == Fraction(-1)
        count += 1
    print(
        f"criterion 6: PASS - {count} dual certificates combine to exactly "
        f"0 >= 1 (every indeterminate cancels, constant -1)"
    )


def test_criterion_07_width_separation():
    """Bounded-width separation probe on near-3-regular pigeonhole instances.

    For every max-degree-3 bipartite graph with one pigeon more than holes, a
    width-3 circular refutation exists by construction.  The criterion also
    requires width-3 dag-like saturation to fail on these instances; that
    part is asserted here as stated and measured honestly.
    """
    start = time.monotonic()
    saturation_failed = {}
    for n in range(4, 8):
        g = near_cubic_bipartite(n, 0)
        cnf = gen_php(g)
        closure = daglike_width_saturate(cnf, 3)
        saturation_failed[n] = Clause() not in closure
    # Circular side, demonstrated within the probe's runtime budget.
    circular_ok = {}
    for n in (4, 5):
        g = near_cubic_bipartite(n, 0)
        res = circular_search(gen_php(g), Clause(), 3).proof
        circular_ok[n] = res is not None and verify_flow(res[0], res[1])
    elapsed = time.monotonic() - start
    assert all(circular_ok.values()), circular_ok
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    assert all(saturation_failed.values()), (
        "width-3 dag-like saturation derived the empty clause on these "
        f"instances (per n: {saturation_failed}); at this scale the sparse "
        "pigeonhole contradictions admit narrow dag-like refutations, so the "
        "separation does not materialize"
    )
    print(
        f"criterion 7: PASS - saturation failed while circular width-3 "
        f"succeeded, {elapsed:.1f}s"
    )


def test_criterion_08_gadget_families():
    rng = random.Random(4)
    checked = 0
    for width in range(4):
        for _ in range(4):
            vs = rng.sample(range(1, 7), width)
            side = Clause.from_signed(v if rng.random() < 0.5 else -v for v in vs)
            principal = next(v for v in range(1, 8) if v not in side.variables())
            for kind in (1, 2, 3, 4):
                terms = clause_gadget(kind, falsified_monomial(side), principal)
                proof = SAProof(7, (), Clause(), tuple(terms))
                assert proof_sum(proof) == gadget_target(kind, side, principal)
                degree = sa_degree(proof)
                # The cut- and split-shaped families meet width+1 exactly;
                # the tautology family is pinned at degree 2 and the plain
                # nonnegativity family at the clause width itself.
                if kind in (2, 3):
                    assert degree == width + 1, (kind, width, degree)
                elif kind == 1:
                    assert degree == 2
                else:
                    assert degree == width
                checked += 1
    print(
        f"criterion 8: PASS - {checked} gadget instances expand exactly to "
        f"their targets with the stated degrees"
    )


def _signs(graph, flow):
    """The sign of every balance: -1 at a source, 1 at a sink, 0 elsewhere."""
    return {u: (b > 0) - (b < 0) for u, b in balance_numerators(graph, flow)[0].items()}


def test_criterion_09_integral_flows(php_proofs, random_proofs):
    checked = 0
    for _, graph, flow in php_proofs.values():
        integral = integralize(graph, flow)
        bound = math.factorial(graph.length)
        assert all(f.denominator == 1 and 0 < f <= bound for f in integral.values())
        assert _signs(graph, flow) == _signs(graph, integral)
        checked += 1
    for graph, flow in random_proofs[:200]:
        integral = integralize(graph, flow)
        bound = math.factorial(graph.length)
        assert all(f.denominator == 1 and 0 < f <= bound for f in integral.values())
        assert _signs(graph, flow) == _signs(graph, integral)
        checked += 1
    print(
        f"criterion 9: PASS - {checked} witnessed proofs integralized to "
        f"positive integers within the factorial bound, source/sink sets intact"
    )


def test_criterion_10_format_round_trips(tmp_path):
    emitted = []
    cnf_path = tmp_path / "php.cnf"
    proof_path = tmp_path / "php.cres"
    assert cli_main([
        "gen-php", "--complete", "3",
        "--cnf-out", str(cnf_path), "--proof-out", str(proof_path),
    ]) == 0
    emitted += [cnf_path, proof_path]
    sap_path = tmp_path / "php.sap"
    assert cli_main(["translate", "c2s", str(proof_path), "-o", str(sap_path)]) == 0
    emitted.append(sap_path)
    back_path = tmp_path / "back.cres"
    assert cli_main(["translate", "s2c", str(sap_path), "-o", str(back_path)]) == 0
    emitted.append(back_path)
    unit_cnf = tmp_path / "unit.cnf"
    unit_cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    found = tmp_path / "unit.cres"
    assert cli_main(["search", str(unit_cnf), "--width", "1", "-o", str(found)]) == 0
    emitted.append(found)
    rand_path = tmp_path / "rand.cres"
    assert cli_main(["gen-random", "--seed", "3", "--vars", "5", "--budget", "9",
                     "-o", str(rand_path)]) == 0
    emitted.append(rand_path)

    count = 0
    for path in emitted:
        text = path.read_text()
        if path.suffix == ".cnf":
            obj = parse_dimacs(text)
            from circres.formats import serialize_dimacs

            comments = [l[2:] for l in text.splitlines() if l.startswith("c ")]
            assert serialize_dimacs(obj, comments) == text
        elif path.suffix == ".cres":
            graph, flow = parse_cres(text)
            comments = [l[2:] for l in text.splitlines() if l.startswith("c ")]
            assert serialize_cres(graph, flow, comments) == text
        else:
            proof = parse_sap(text)
            from circres.formats import serialize_sap

            comments = [l[2:] for l in text.splitlines() if l.startswith("c ")]
            assert serialize_sap(proof, comments) == text
        count += 1
    print(f"criterion 10: PASS - {count}/{count} emitted files round-trip to canonical equality")
