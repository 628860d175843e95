"""Command-line front end, the only module that prints: the library returns
values, and :func:`search_lines` words ``search``'s answer.

Subcommands wire the library into a batch pipeline over the text formats of
:mod:`circres.formats`:

* ``check``      certify a proof file against a CNF of hypotheses;
* ``gen-php``    emit a pigeonhole CNF and its checked refutation;
* ``translate``  convert between proof graphs and polynomial proofs;
* ``search``     bounded-width proof search for a goal clause;
* ``gen-random`` emit a seeded random checked proof (fuzzing aid).

Exit codes are stable: 0 success, 1 sound negative answer (not witnessed /
not found), 2 input or usage error, 3 resource guard tripped, 4 internal
error (an exception the program does not expect, reported in one line),
141 (128 + SIGPIPE) standard output closed early by its reader, as in
``circres check ... | head -1``; nothing is printed for it.

:func:`main` runs a command with the cyclic garbage collector off and then
restores the caller's setting.  A command's proof graphs, flows and
polynomial terms are many small objects that form no reference cycle, so a
collector pass over them frees nothing; the tests check that every command
leaves no cyclic garbage.  On its own, this moved perfbench's
``php_pipeline`` by -0.4% to +6.1% in ops per second (6 paired runs on a
2-CPU machine, median +2.5%).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import formats, generators, search as search_mod, sheraliadams as sa
from .core import Clause
from .flowcheck import ValidationError, find_witness, starved_vertex
from .proofgraph import export_dot

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are usage errors: one ``error:`` line, exit 2."""

    def error(self, message):
        raise UsageError(message)


def _integer(token: str) -> int:
    """An integer option, read by the formats' rule for integers."""
    bad = formats._non_ascii_number(token)
    if bad:
        raise argparse.ArgumentTypeError(f"number {bad!r} is not ASCII digits")
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            formats._past_limit(token) or f"invalid integer {token!r}") from None


def _parse_goal(spec: str) -> Clause:
    if spec.strip() in ("", "empty"):
        return Clause()
    tokens = spec.split()
    if tokens[-1] != "0":
        raise UsageError("goal spec must end with 0 or be 'empty'")
    bad = formats._non_ascii_number(spec)  # the formats' rule for integers
    if bad:
        raise UsageError(f"bad goal spec: number {bad!r} is not ASCII digits")
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
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _write_proof(path: str, graph, flow, comment: str) -> None:
    _write(path, formats.serialize_cres(graph, flow, [comment]))


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    graph, file_flow = formats.parse_cres(_read(args.proof))
    cnf = formats.parse_dimacs(_read(args.cnf))
    goal_id = graph.goal_id
    if args.goal is not None:
        goal_clause = _parse_goal(args.goal)
        candidates = [fid for fid, c in graph.formula_vertices.items() if c == goal_clause]
        if not candidates:
            raise UsageError(f"no formula vertex carries the goal clause {goal_clause}")
        goal_id = min(candidates)
    graph = dataclasses.replace(graph, hypotheses=frozenset(cnf.clauses), goal_id=goal_id)

    graph, flow = find_witness(graph, file_flow)
    if file_flow is not None and flow is file_flow:
        print("WITNESSED (supplied flows verified)")
    else:
        if file_flow is not None:
            print("supplied flows rejected: they do not witness the proof; "
                  "looking for a witness instead")
        print("WITNESSED" if flow is not None else "NOT-WITNESSED")
    if flow is None:
        print(f"  no flow assignment witnesses goal clause {graph.goal_clause()}")
        starved = starved_vertex(graph)
        if starved == graph.goal_id:
            print(f"  goal vertex {starved} is derived by no inference")
        elif starved is not None:
            print(f"  vertex {starved} ({graph.formula_vertices[starved]}) is used as a "
                  "premise, derived by no inference, and not a hypothesis")
    else:
        # Only the inferences at the goal add to its balance: no second sweep.
        goal = graph.goal_id
        balance = sum((flow[iid] * (w.out_neighbors.count(goal) - w.in_neighbors.count(goal))
                       for iid, w in graph.inference_vertices.items()
                       if goal in w.out_neighbors or goal in w.in_neighbors), Fraction(0))
        print(f"goal balance {balance}")
        print(*formats.flow_lines(flow, sorted(graph.inference_vertices)), sep="\n")
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
        bad = formats._non_ascii_number(line)
        if bad:
            raise UsageError(f"{path}:{no}: number {bad!r} is not ASCII digits")
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
    return generators.BipartiteGraph(sizes[0], sizes[1], frozenset(edges))


def cmd_gen_php(args) -> int:
    if args.complete is not None:
        if args.complete < 1:
            raise UsageError("--complete needs a positive hole count")
        g = generators.complete_bipartite(args.complete + 1, args.complete)
        stem = f"php_{args.complete + 1}_{args.complete}"
    else:
        g = _parse_bipartite_file(args.graph)
        stem = Path(args.graph).stem
    graph, flow = generators.php_refutation(g)
    cnf = generators.gen_php(g)

    var = generators.edge_variables(g)
    comments = [f"pigeonhole contradiction, {g.left_size} pigeons {g.right_size} holes"]
    comments += [f"variable {i} = edge ({u},{v})" for (u, v), i in sorted(var.items())]
    cnf_path = args.cnf_out or f"{stem}.cnf"
    proof_path = args.proof_out or f"{stem}.cres"
    _write(cnf_path, formats.serialize_dimacs(cnf, comments))
    try:
        _write_proof(proof_path, graph, flow if args.emit_flows else None,
                     f"refutation of {Path(cnf_path).name}, width {graph.width}, length {graph.length}")
    except UsageError:
        Path(cnf_path).unlink()  # the pair is written whole or not at all
        raise
    if args.dot:
        _write(args.dot, export_dot(graph, flow))
    print(f"wrote {cnf_path} ({len(cnf.clauses)} clauses) and {proof_path} "
          f"(width {graph.width}, length {graph.length})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# translate

def cmd_translate(args) -> int:
    if args.direction == "c2s":
        graph, file_flow = formats.parse_cres(_read(args.input))
        graph, flow = find_witness(graph, file_flow)
        if flow is None:
            print("error: input proof is not witnessed", file=sys.stderr)
            return EXIT_INPUT
        proof = sa.circular_to_sa(graph, flow)
        if not sa.check_sa(proof):
            raise AssertionError("translated polynomial proof fails its checker")
        out = args.out or str(Path(args.input).with_suffix(".sap"))
        _write(out, formats.serialize_sap(proof, [f"translated from {Path(args.input).name}"]))
        degree = sa.sa_degree(proof)
        msize = sa.sa_monomial_size(proof)
        print(
            f"wrote {out}: degree {degree} == width {graph.width}: "
            f"{degree == graph.width}; monomial size {msize} <= "
            f"3*length {3 * graph.length}: {msize <= 3 * graph.length}"
        )
        return EXIT_OK

    proof = formats.parse_sap(_read(args.input))
    graph, flow = sa.sa_to_circular(proof)  # checks the identity, or raises
    out = args.out or str(Path(args.input).with_suffix(".cres"))
    _write_proof(out, graph, flow, f"translated from {Path(args.input).name}")
    degree = sa.sa_degree(proof)
    # The width is at most the degree, or 1 for degree 0: the empty goal is
    # then a hypothesis, padded by a split through x1 (see sa_to_circular).
    claim = f"degree {degree}" if degree else "degree 0 + 1 (padding split)"
    print(
        f"wrote {out}: width {graph.width} <= {claim}: "
        f"{graph.width <= max(degree, 1)}; length {graph.length}, "
        f"monomial size {sa.sa_monomial_size(proof)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# search

def _lp_line(name: str, rows: int, cols: int) -> str:
    return f"{name} LP: {rows} rows, {cols} clause-balance variables"


def search_lines(answer: search_mod.SearchAnswer) -> list[str]:
    """What ``search`` prints of a search's answer: the size of the program
    without the presolve, which ``--guard-rows`` bounds, then the closure's outcome."""
    if answer.stage == "lp":
        note = f"no proof ({answer.kept} kept clauses; {_lp_line('presolved', *answer.presolved)})"
    elif answer.stage == "hypothesis":
        note = "skipped, a hypothesis lies inside the goal; no LP solved"
    else:
        note = f"proof found from {answer.kept} kept clauses, no LP solved"
    return [_lp_line("search", *answer.lattice), f"acyclic closure: {note}"]


def cmd_search(args) -> int:
    if args.guard_rows < 0:
        raise UsageError(f"--guard-rows must be nonnegative, got {args.guard_rows}")
    cnf = formats.parse_dimacs(_read(args.cnf))
    goal = _parse_goal(args.goal)
    start = time.monotonic()
    try:
        answer = search_mod.circular_search(cnf, goal, args.width, args.guard_rows)
    except search_mod.SearchBudgetError as exc:
        print(_lp_line("search", exc.rows, exc.cols))
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    print(*search_lines(answer), f"solve time {time.monotonic() - start:.2f}s", sep="\n")
    if answer.proof is None:
        print(f"no width-{args.width} circular proof exists")
        return EXIT_NEGATIVE
    graph, flow = answer.proof
    out = args.out or str(Path(args.cnf).with_suffix(".cres"))
    _write_proof(out, graph, flow, f"width-{args.width} proof found for {Path(args.cnf).name}")
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
    _write_proof(out, graph, flow, f"seed {args.seed}, {args.vars} vars, budget {args.budget}")
    print(f"wrote {out}: width {graph.width}, length {graph.length}")
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: the tests and
    perfbench call :func:`main` in process, and a build (six parsers and
    their actions) costs about 1 ms.  Reuse is safe: ``parse_args`` makes a
    fresh namespace, no default is mutable, and :meth:`_Parser.error` raises."""
    parser = _Parser(
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
    grp.add_argument("--complete", type=_integer, metavar="N",
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
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("search", help="bounded-width circular proof search")
    p.add_argument("cnf", help="hypothesis clauses (DIMACS)")
    p.add_argument("--width", type=_integer, required=True)
    p.add_argument("--goal", default="empty", help="goal clause (default: empty)")
    p.add_argument("--guard-rows", type=_integer, default=search_mod.DEFAULT_ROW_BUDGET)
    p.add_argument("-o", "--out", help="proof output path")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen-random", help="emit a seeded random checked proof")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--vars", type=_integer, default=6)
    p.add_argument("--budget", type=_integer, default=12)
    p.add_argument("--max-width", type=_integer, default=4)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen_random)
    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away; send what is still buffered nowhere, so
        # the flush at interpreter shutdown does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValidationError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # UsageError, ParseError and the library's input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
