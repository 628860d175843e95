"""Self-tests of the benchmark: tracer restore, the metric mapping, metric
names against BENCHMARK.json, the known-answer gate, and the refusal to run
without sources."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_wrappers_restore_the_originals():
    run.circres_api()
    import circres.cli
    import circres.flowcheck
    import circres.lp
    import circres.search

    before = {(m, k): v for m in (circres.cli, circres.flowcheck, circres.lp, circres.search)
              for k, v in vars(m).items() if callable(v)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert circres.lp.feasible is not before[(circres.lp, "feasible")]
        assert circres.cli.find_witness is not before[(circres.cli, "find_witness")]
        assert circres.search.verify_flow is not before[(circres.search, "verify_flow")]
    finally:
        tracer.restore()
    after = {(m, k): v for m in (circres.cli, circres.flowcheck, circres.lp, circres.search)
             for k, v in vars(m).items() if callable(v)}
    assert after == before


def test_metric_names_match_benchmark_json():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    mapped = [name for group in tracing.MAPPING for name in group[0]]
    assert sorted(mapped) == sorted(n for n, _ in tracing.PER_LAYER)


# The first ops of each workload's first pass, traced: php_pipeline's first
# instance, width_search's whole pass, daglike_saturate's first n=4 pair.
@pytest.mark.parametrize("workload,ops", [
    ("php_pipeline", 5), ("width_search", None), ("daglike_saturate", 2),
])
def test_each_metric_is_recorded_where_the_mapping_says(tmp_path, workload, ops):
    ws = workloads.Workspace(run.circres_api(), tmp_path, 1, workload)
    passes, _ = workloads.WORKLOADS[workload](ws, 1)
    tally, tracer = run.Tally(), tracing.Tracer()
    run.run_pass(passes[0][:ops], tally, tracer)
    assert tally.failed == 0, tally.problems
    values = tracer.per_layer(tracer.op + 1, 1.0)
    for metrics, moves, _, zero, _ in tracing.MAPPING:
        for name in metrics:
            if workload in moves:
                assert values[name] > 0, name
            if workload in zero:
                assert values[name] == 0, name


@pytest.fixture
def keep_circres_modules():
    """set_up imports circres afresh; put back the modules other tests hold."""
    ours = lambda name: name == "circres" or name.startswith("circres.")
    saved = {name: m for name, m in sys.modules.items() if ours(name)}
    yield
    for name in [name for name in sys.modules if ours(name)]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_set_up_builds_the_measured_passes_and_a_passing_warm_up(
        tmp_path, workload, keep_circres_modules):
    tally = run.Tally()
    (seconds, probe), passes = run.set_up(workload, 1, 2, tmp_path, tally)
    assert len(passes) == 2 and seconds > 0 and probe > 0
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems


def test_gate_counts_a_wrong_verdict(tmp_path):
    ws = workloads.Workspace(run.circres_api(), tmp_path, 1, "php_pipeline")
    cnf, cres = ws.path("p.cnf"), ws.path("p.cres")
    tally = run.Tally()
    run.run_op(ws.cli_op("gen", ["gen-php", "--complete", "2", "--cnf-out", cnf,
                                 "--proof-out", cres], 0, "wrote"), tally)
    run.run_op(ws.cli_op("check", ["check", cres, cnf], 1, "NOT-WITNESSED"), tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_oracle_rejects_a_tampered_refutation(tmp_path):
    ws = workloads.Workspace(run.circres_api(), tmp_path, 1, "php_pipeline")
    cres = ws.path("p.cres")
    run.run_op(ws.cli_op("gen", ["gen-php", "--complete", "3", "--cnf-out", ws.path("p.cnf"),
                                 "--proof-out", cres], 0, "wrote"), run.Tally())
    text = Path(cres).read_text()
    edges = [(u, v) for u in range(1, 5) for v in range(1, 4)]
    clauses = oracle.php_clauses(4, 3, edges)
    assert oracle.check_cres(text, clauses) is None
    assert oracle.check_cres(text, clauses[1:]) is not None
    flows = {int(t.split()[1]): Fraction(t.split()[2]) for t in text.splitlines()
             if t.startswith("w ")}
    flows[min(flows)] = Fraction(0)
    assert oracle.check_cres(text, clauses, flows) is not None


def test_matching_proves_the_variant_satisfiable():
    edges = [(1, 1), (2, 1), (3, 2)]
    assert oracle.matching_assignment(3, 2, edges, 3) is None
    true_vars = oracle.matching_assignment(3, 2, edges, 1)
    clauses = oracle.php_clauses(3, 2, edges)
    assert all(oracle.satisfies(true_vars, c) for c in clauses[1:])
    assert not oracle.resolution_refutes(clauses[1:], 2)
    assert oracle.resolution_refutes(clauses, 2)


def test_runner_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "php_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
