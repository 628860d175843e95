"""Command-line front end.

Subcommands wire the library into a batch pipeline over the text formats of
:mod:`circres.formats`:

* ``check``      certify a proof file against a CNF of hypotheses;
* ``gen-php``    emit a pigeonhole CNF and its checked refutation;
* ``translate``  convert between proof graphs and polynomial proofs;
* ``search``     bounded-width proof search for a goal clause;
* ``gen-random`` emit a seeded random checked proof (fuzzing aid).

Exit codes are stable: 0 success, 1 sound negative answer (not witnessed /
not found), 2 input or usage error, 3 resource guard tripped, 4 internal
error (an exception the program does not expect, reported in one line).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import formats, generators, search as search_mod, sheraliadams as sa
from .core import Clause
from .flowcheck import find_witness, verify_flow
from .proofgraph import balances, export_dot, validate_rules

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _parse_goal(spec: str) -> Clause:
    if spec.strip() in ("", "empty"):
        return Clause(())
    tokens = spec.split()
    if tokens[-1] != "0":
        raise UsageError("goal spec must end with 0 or be 'empty'")
    try:
        return Clause.from_signed(int(t) for t in tokens[:-1])
    except ValueError as exc:
        raise UsageError(f"bad goal spec: {exc}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    graph, file_flow = formats.parse_cres(_read(args.proof))
    cnf = formats.parse_dimacs(_read(args.cnf))
    hyp_clauses = set(cnf.clauses)
    hyp_ids = frozenset(
        v.id for v in graph.formula_vertices if v.clause in hyp_clauses
    )
    graph = dataclasses.replace(graph, hypothesis_ids=hyp_ids)
    if args.goal is not None:
        goal_clause = _parse_goal(args.goal)
        candidates = [v.id for v in graph.formula_vertices if v.clause == goal_clause]
        if not candidates:
            raise UsageError(f"no formula vertex carries the goal clause {goal_clause}")
        graph = dataclasses.replace(graph, goal_id=min(candidates))

    problems = validate_rules(graph)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return EXIT_INPUT

    flow = None
    if file_flow is not None and verify_flow(graph, file_flow, graph.goal_id):
        flow = file_flow
        print("WITNESSED (supplied flows verified)")
    else:
        if file_flow is not None:
            print("supplied flows rejected: they do not witness the proof; "
                  "solving the flow program instead")
        report = find_witness(graph)
        if report.witnessed:
            flow = report.flow
            print("WITNESSED")
        else:
            print("NOT-WITNESSED")
            for v in report.violations:
                print(f"  {v}")
    if flow is not None:
        bal = balances(graph, flow)
        print(f"goal balance {bal[graph.goal_id]}")
        for w in sorted(graph.inference_vertices, key=lambda w: w.id):
            print(f"w {w.id} {flow[w.id]}")
    if args.dot:
        _write(args.dot, export_dot(graph, flow))
    return EXIT_OK if flow is not None else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# gen-php

def _parse_bipartite_file(path: str) -> generators.BipartiteGraph:
    edges = []
    sizes = None
    for no, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise UsageError(f"{path}:{no}: expected two integers per line")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError(f"{path}:{no}: expected two integers per line") from None
        if sizes is None:
            sizes = (a, b)
        else:
            edges.append((a, b))
    if sizes is None:
        raise UsageError(f"{path}: empty graph file")
    try:
        return generators.BipartiteGraph(sizes[0], sizes[1], frozenset(edges))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_gen_php(args) -> int:
    if args.complete is not None:
        if args.complete < 1:
            raise UsageError("--complete needs a positive hole count")
        g = generators.complete_bipartite(args.complete + 1, args.complete)
        stem = f"php_{args.complete + 1}_{args.complete}"
    else:
        g = _parse_bipartite_file(args.graph)
        stem = Path(args.graph).stem
    if g.left_size <= g.right_size:
        raise UsageError("pigeonhole refutations need more pigeons than holes")
    cnf = generators.gen_php(g)
    graph, flow = generators.php_refutation(g)

    var = generators.edge_variables(g)
    comments = [f"pigeonhole contradiction, {g.left_size} pigeons {g.right_size} holes"]
    comments += [f"variable {i} = edge ({u},{v})" for (u, v), i in sorted(var.items())]
    cnf_path = args.cnf_out or f"{stem}.cnf"
    proof_path = args.proof_out or f"{stem}.cres"
    _write(cnf_path, formats.serialize_dimacs(cnf, comments))
    _write(
        proof_path,
        formats.serialize_cres(
            graph, flow if args.emit_flows else None,
            [f"refutation of {cnf_path}, width {graph.width}, length {graph.length}"],
        ),
    )
    if args.dot:
        _write(args.dot, export_dot(graph, flow))
    print(f"wrote {cnf_path} ({len(cnf.clauses)} clauses) and {proof_path} "
          f"(width {graph.width}, length {graph.length})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# translate

def cmd_translate(args) -> int:
    if args.direction == "c2s":
        graph, flow = formats.parse_cres(_read(args.input))
        problems = validate_rules(graph)
        if problems:
            for p in problems:
                print(f"error: {p}", file=sys.stderr)
            return EXIT_INPUT
        if flow is None or not verify_flow(graph, flow, graph.goal_id):
            report = find_witness(graph)
            if not report.witnessed:
                print("error: input proof is not witnessed", file=sys.stderr)
                return EXIT_INPUT
            flow = report.flow
        proof = sa.circular_to_sa(graph, flow)
        if not sa.check_sa(proof):
            raise AssertionError("translated polynomial proof fails its checker")
        out = args.out or str(Path(args.input).with_suffix(".sap"))
        _write(out, formats.serialize_sap(proof, [f"translated from {args.input}"]))
        degree = sa.sa_degree(proof)
        msize = sa.sa_monomial_size(proof)
        print(
            f"wrote {out}: degree {degree} == width {graph.width}: "
            f"{degree == graph.width}; monomial size {msize} <= "
            f"3*length {3 * graph.length}: {msize <= 3 * graph.length}"
        )
        return EXIT_OK

    proof = formats.parse_sap(_read(args.input))
    if not sa.check_sa(proof):
        print("error: polynomial proof does not check", file=sys.stderr)
        return EXIT_INPUT
    graph, flow = sa.sa_to_circular(proof)
    out = args.out or str(Path(args.input).with_suffix(".cres"))
    _write(
        out,
        formats.serialize_cres(
            graph, flow if args.emit_flows else None, [f"translated from {args.input}"]
        ),
    )
    degree = sa.sa_degree(proof)
    print(
        f"wrote {out}: width {graph.width} == degree {degree}: "
        f"{graph.width == degree}; length {graph.length}, "
        f"monomial size {sa.sa_monomial_size(proof)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# search

def cmd_search(args) -> int:
    cnf = formats.parse_dimacs(_read(args.cnf))
    goal = _parse_goal(args.goal)
    n_formulas, n_inferences = search_mod.lattice_size(cnf.num_variables, args.width)
    print(f"lattice: {n_formulas} clause vertices, {n_inferences} inference vertices")
    start = time.monotonic()
    try:
        result = search_mod.circular_search(cnf, goal, args.width, args.guard_rows)
    except search_mod.WidthError as exc:
        raise UsageError(str(exc)) from None
    except search_mod.SearchBudgetError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    elapsed = time.monotonic() - start
    print(f"solve time {elapsed:.2f}s")
    if result is None:
        print(f"no width-{args.width} circular proof exists")
        return EXIT_NEGATIVE
    graph, flow = result
    out = args.out or str(Path(args.cnf).with_suffix(".cres"))
    _write(
        out,
        formats.serialize_cres(
            graph, flow if args.emit_flows else None,
            [f"width-{args.width} proof found for {args.cnf}"],
        ),
    )
    if args.dot:
        _write(args.dot, export_dot(graph, flow))
    print(f"wrote {out}: width {graph.width}, length {graph.length}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen-random

def cmd_gen_random(args) -> int:
    if args.budget < 1:
        raise UsageError("--budget must be at least 1")
    graph, flow = generators.random_circular_proof(
        args.seed, args.vars, args.budget, args.max_width
    )
    out = args.out or f"random_{args.seed}.cres"
    _write(
        out,
        formats.serialize_cres(
            graph, flow, [f"seed {args.seed}, {args.vars} vars, budget {args.budget}"]
        ),
    )
    print(f"wrote {out}: width {graph.width}, length {graph.length}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circres",
        description="circular resolution proofs: check, generate, translate, search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a proof file against a CNF")
    p.add_argument("proof", help="proof graph file (.cres)")
    p.add_argument("cnf", help="hypothesis clauses (DIMACS)")
    p.add_argument("--goal", help="goal clause, e.g. '1 -2 0' or 'empty'")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen-php", help="emit a pigeonhole CNF and its refutation")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--complete", type=int, metavar="N",
                     help="complete bipartite instance with N+1 pigeons, N holes")
    grp.add_argument("--graph", help="bipartite graph file: 'U V' header, then 'u v' edges")
    p.add_argument("--cnf-out", help="CNF output path")
    p.add_argument("--proof-out", help="proof output path")
    p.add_argument("--emit-flows", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.set_defaults(func=cmd_gen_php)

    p = sub.add_parser("translate", help="convert between proof formats")
    p.add_argument("direction", choices=("c2s", "s2c"),
                   help="c2s: graph to polynomial proof; s2c: back")
    p.add_argument("input")
    p.add_argument("-o", "--out", help="output path (default: swap extension)")
    p.add_argument("--emit-flows", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("search", help="bounded-width circular proof search")
    p.add_argument("cnf", help="hypothesis clauses (DIMACS)")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--goal", default="empty", help="goal clause (default: empty)")
    p.add_argument("--guard-rows", type=int, default=search_mod.DEFAULT_ROW_BUDGET)
    p.add_argument("-o", "--out", help="proof output path")
    p.add_argument("--emit-flows", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen-random", help="emit a seeded random checked proof")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vars", type=int, default=6)
    p.add_argument("--budget", type=int, default=12)
    p.add_argument("--max-width", type=int, default=4)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen_random)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, formats.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (sa.TautologicalClauseError, sa.MalformedProofError,
            sa.InconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
