"""The benchmark's workloads: inputs made from the seed, the op mix, and the
known-answer gate that judges every op outside the timed region.

An op is one user-facing call: ``circres.cli.main([...])`` on files in the
run's work directory, or one library call where the CLI has no command.  A
workload is a list of passes, each a list of ops; ``php_pipeline`` repeats
one fixed pass, the other two draw fresh instances for every pass.

Why these three:

* ``php_pipeline`` - complete pigeonhole, n = 6..10 holes, through
  gen-php -> check -> check against a satisfiable variant -> translate c2s ->
  translate s2c.  It crosses every layer except ``search``, writes as well as
  reads, and takes both LP paths (feasible and infeasible).
* ``width_search`` - ``search --width 3`` on near-cubic pigeonhole with
  n = 3 and on two of its satisfiable variants; the LP is most of each op.
  The refutable instances take longer than the variants and vary more with
  the seed; two variants per instance put the median op inside the
  variants' cluster rather than on the edge between the two.  At n = 4 one
  op takes about 12 s, too long for enough ops per run.
* ``daglike_saturate`` - ``daglike_width_saturate(cnf, 3)``, the LP-free
  path; each pass saturates a near-cubic n = 4 instance (refutable at width
  3) and a satisfiable variant, then (n = 15, seed 1) (not refutable at
  width 3) and two of its satisfiable variants.  It is the control for LP
  changes.  The three n = 15 ops are the same work in every run, and they
  put the median op inside their cluster rather than on the edge between
  the cheap satisfiable n = 4 variants and the seed-dependent n = 4 ops.

A satisfiable variant drops one pigeon clause; the seed picks which, among
the pigeons whose removal leaves a perfect matching, and that matching is
the assignment that proves the variant satisfiable.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle

WIDTH = 3
PHP_HOLES = range(6, 11)
SEARCH_HOLES = 3
SATURATE_HOLES = 4
# Hand-written expectation: no independent reference exists for this
# instance.  Width-3 saturation stops without the empty clause, at 6981
# clauses (ROADMAP, open item 3).
WIDE_INSTANCE = (15, 1)
WIDE_EXPECTED = (False, 6981)
# Graph seed of width_search's warm-up op, so set-up does the same work in
# every run.
WARM_UP_SEED = 1
# Seconds one pass takes at nominal speed, measured when the benchmark was
# defined.  A run of --seconds S measures round(S / PASS_SECONDS) passes, so
# its op count does not depend on how fast the machine or the program is:
# 2 passes (50 ops), 8 (24 ops) and 4 (20 ops) at S = 30.
PASS_SECONDS = {"php_pipeline": 14.5, "width_search": 3.7, "daglike_saturate": 7.5}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # (return value, captured output) -> None, or what was wrong
    verdict: Callable[[object, str], Optional[str]]


@dataclass
class Instance:
    """A pigeonhole CNF, its clauses as written, and one satisfiable variant."""

    edges: frozenset
    clauses: list
    dropped: int
    drop_clauses: list
    true_vars: frozenset

    @property
    def num_vars(self) -> int:
        return len(self.edges)


def make_instances(pigeons: int, holes: int, edges, rng: random.Random,
                   count: int) -> list[Instance]:
    """``count`` satisfiable variants of one pigeonhole CNF, each dropping
    a different pigeon clause."""
    clauses = oracle.php_clauses(pigeons, holes, edges)
    candidates = []
    for p in range(1, pigeons + 1):
        matched = oracle.matching_assignment(pigeons, holes, edges, p)
        if matched is not None:
            candidates.append((p, matched))
    return [Instance(frozenset(edges), clauses, dropped,
                     clauses[:dropped - 1] + clauses[dropped:], true_vars)
            for dropped, true_vars in rng.sample(candidates, count)]


def near_cubic(ws, n: int, seed: int, count: int) -> list[Instance]:
    g = ws.circres(ws.cc.generators.near_cubic_bipartite, n, seed)
    return make_instances(g.left_size, g.right_size, g.edges, ws.rng, count)


class Gate:
    """Verdict checks; a check that passed for identical bytes is not redone.
    Keys are kept as digests, so the gate holds no copy of emitted files."""

    def __init__(self) -> None:
        self.passed: set = set()
        self.answers: dict = {}

    def memo(self, key, compute: Callable[[], object]):
        if key not in self.answers:
            self.answers[key] = compute()
        return self.answers[key]

    def once(self, key, check: Callable[[], Optional[str]]) -> Optional[str]:
        key = hashlib.sha256(repr(key).encode()).digest()
        if key in self.passed:
            return None
        problem = check()
        if problem is None:
            self.passed.add(key)
        return problem

    def satisfiable(self, inst: Instance) -> Optional[str]:
        def check():
            if not all(oracle.satisfies(inst.true_vars, c) for c in inst.drop_clauses):
                return "matching does not satisfy the satisfiable variant"
            return None
        return self.once(("sat", inst.edges, inst.dropped), check)


class Workspace:
    """The circres modules of the current import, the run's directory, and
    the seconds circres spent making the inputs."""

    def __init__(self, cc, workdir: Path, seed: int, name: str) -> None:
        self.cc = cc
        self.dir = workdir
        self.rng = random.Random(f"{name}:{seed}")
        self.gate = Gate()
        self.setup_seconds = 0.0

    def circres(self, fn, *args):
        """Call circres to make an input; the call's time counts as set-up.
        The benchmark's own work on inputs (oracles, files) does not."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.setup_seconds += time.perf_counter() - start

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def read(self, path: str) -> str:
        return Path(path).read_text(encoding="utf-8")

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        Path(path).write_text(text, encoding="utf-8")
        return path

    def cli_op(self, label, argv, code, expect_text, check=None) -> Op:
        def call():
            return sys.modules["circres.cli"].main(argv)

        def verdict(value, out):
            if value != code:
                return f"exit {value!r}, expected {code}"
            if expect_text not in out:
                return f"output lacks {expect_text!r}"
            return check(out) if check else None

        return Op(label, call, verdict)


def _flows_from(out: str):
    return {int(t[1]): Fraction(t[2]) for t in (l.split() for l in out.splitlines())
            if len(t) == 3 and t[0] == "w"}


# ---------------------------------------------------------------------------

# Each workload function takes the number of passes the run measures and
# returns that many passes and the untimed warm-up op, which does the same
# work in every run.

def php_pipeline(ws: Workspace, count: int) -> tuple[list[list[Op]], Op]:
    ops = []
    for n in PHP_HOLES:
        edges = [(u, v) for u in range(1, n + 2) for v in range(1, n + 1)]
        inst, = make_instances(n + 1, n, edges, ws.rng, 1)
        cnf, cres = ws.path(f"php{n}.cnf"), ws.path(f"php{n}.cres")
        sap, back = ws.path(f"php{n}.sap"), ws.path(f"php{n}-back.cres")
        drop = ws.write(f"php{n}-drop.cnf", oracle.dimacs_text(inst.num_vars, inst.drop_clauses))
        ops += _php_ops(ws, inst, n, cnf, cres, drop, sap, back)
    return [ops] * count, ops[0]


def _php_ops(ws, inst, n, cnf, cres, drop, sap, back) -> list[Op]:
    gate, want = ws.gate, set(inst.clauses)

    def same_cnf(out):
        text = ws.read(cnf)
        def check():
            nv, got = oracle.parse_dimacs(text)
            ok = nv == inst.num_vars and len(got) == len(want) and set(got) == want
            return None if ok else "emitted CNF is not the pigeonhole CNF"
        return gate.once(("cnf", text), check)

    def witnessed(out):
        text = ws.read(cres)
        return gate.once(("check", text, out),
                         lambda: oracle.check_cres(text, want, _flows_from(out)))

    def not_witnessed(out):
        return gate.satisfiable(inst)

    def sap_checks(out):
        text = ws.read(sap)
        def check():
            proof = ws.cc.parse_sap(text)
            if not ws.cc.check_sa(proof):
                return "emitted polynomial proof fails its checker"
            hyps = {h.signed() for h in proof.hypotheses}
            if not hyps <= want or proof.goal is None or proof.goal.literals:
                return "polynomial proof has foreign hypotheses or a non-empty goal"
            return None
        if "False" in out:
            return "translation broke width == degree or the size bound"
        return gate.once(("sap", text), check)

    def back_checks(out):
        text = ws.read(back)
        return gate.once(("back", text), lambda: oracle.check_cres(text, want))

    return [
        ws.cli_op(f"gen-php n={n}", ["gen-php", "--complete", str(n), "--no-emit-flows",
                                     "--cnf-out", cnf, "--proof-out", cres],
                  0, "wrote", same_cnf),
        ws.cli_op(f"check n={n}", ["check", cres, cnf], 0, "WITNESSED", witnessed),
        ws.cli_op(f"check-sat n={n}", ["check", cres, drop], 1, "NOT-WITNESSED", not_witnessed),
        ws.cli_op(f"c2s n={n}", ["translate", "c2s", cres, "-o", sap], 0, "degree", sap_checks),
        ws.cli_op(f"s2c n={n}", ["translate", "s2c", sap, "-o", back], 0, "width", back_checks),
    ]


def width_search(ws: Workspace, count: int) -> tuple[list[list[Op]], Op]:
    passes = []
    for i in range(count):
        insts = near_cubic(ws, SEARCH_HOLES, ws.rng.randrange(1 << 30), 2)
        ops = [_search_unsat_op(ws, f"search unsat #{i}", f"w{i}",
                                insts[0].num_vars, insts[0].clauses)]
        for j, inst in enumerate(insts):
            drop = ws.write(f"w{i}-drop{j}.cnf",
                            oracle.dimacs_text(inst.num_vars, inst.drop_clauses))
            ops.append(ws.cli_op(f"search sat #{i}.{j}",
                                 ["search", drop, "--width", str(WIDTH),
                                  "-o", ws.path(f"w{i}-drop{j}.cres")],
                                 1, f"no width-{WIDTH} circular proof exists",
                                 lambda _, inst=inst: ws.gate.satisfiable(inst)))
        passes.append(ops)
    g = ws.circres(ws.cc.generators.near_cubic_bipartite, SEARCH_HOLES, WARM_UP_SEED)
    warm_up = _search_unsat_op(ws, "search unsat warm-up", "w-warm", len(g.edges),
                               oracle.php_clauses(g.left_size, g.right_size, g.edges))
    return passes, warm_up


def _search_unsat_op(ws: Workspace, label: str, stem: str, num_vars: int, clauses) -> Op:
    """Search a refutable instance; the emitted proof must check."""
    cnf = ws.write(f"{stem}.cnf", oracle.dimacs_text(num_vars, clauses))
    proof, want = ws.path(f"{stem}.cres"), set(clauses)

    def proof_checks(out):
        text = ws.read(proof)
        return ws.gate.once(("search", text), lambda: oracle.check_cres(text, want))

    return ws.cli_op(label, ["search", cnf, "--width", str(WIDTH), "-o", proof],
                     0, "wrote", proof_checks)


def daglike_saturate(ws: Workspace, count: int) -> tuple[list[list[Op]], Op]:
    g = ws.circres(ws.cc.generators.near_cubic_bipartite, *WIDE_INSTANCE)
    passes = []
    for i in range(count):
        small, = near_cubic(ws, SATURATE_HOLES, ws.rng.randrange(1 << 30), 1)
        wide = make_instances(g.left_size, g.right_size, g.edges, ws.rng, 2)
        passes.append([
            _saturate_op(ws, f"saturate n=4 #{i}", small, False),
            _saturate_op(ws, f"saturate n=4 sat #{i}", small, True),
            _saturate_op(ws, f"saturate n=15 #{i}", wide[0], False, WIDE_EXPECTED),
            _saturate_op(ws, f"saturate n=15 sat #{i}.0", wide[0], True),
            _saturate_op(ws, f"saturate n=15 sat #{i}.1", wide[1], True),
        ])
    # The n=15 refutation attempt does not depend on the seed.
    return passes, passes[0][2]


def _saturate_op(ws: Workspace, label: str, inst: Instance, satisfiable: bool,
                 expected: Optional[tuple[bool, int]] = None) -> Op:
    """Saturate ``inst`` or its satisfiable variant.  For the unsatisfiable
    one, ``expected`` is the hand-written (empty clause derived, closure
    size); without it, resolution saturation in :mod:`oracle` decides."""
    cc = ws.cc
    clauses = inst.drop_clauses if satisfiable else inst.clauses
    cnf = ws.circres(lambda: cc.CnfFormula.of(
        inst.num_vars, [cc.Clause.from_signed(c) for c in clauses]))

    def call():
        return sys.modules["circres.search"].daglike_width_saturate(cnf, WIDTH)

    def verdict(closure, out):
        if not isinstance(closure, set):
            return f"returned {closure!r}"
        signed = [c.signed() for c in closure]
        if satisfiable:
            if not all(oracle.satisfies(inst.true_vars, c) for c in signed):
                return "closure has a clause the satisfying assignment falsifies"
            return ws.gate.satisfiable(inst)
        if expected is not None:
            refutes, size = expected
        else:
            refutes = ws.gate.memo(("refutes", inst.edges),
                                   lambda: oracle.resolution_refutes(clauses, WIDTH))
            size = oracle.clauses_up_to_width(inst.num_vars, WIDTH) if refutes else None
        if (oracle.EMPTY in signed) != refutes:
            return f"empty clause derived: {not refutes}, expected {refutes}"
        if size is not None and len(signed) != size:
            return f"closure has {len(signed)} clauses, expected {size}"
        return None

    return Op(label, call, verdict)


WORKLOADS = {
    "php_pipeline": php_pipeline,
    "width_search": width_search,
    "daglike_saturate": daglike_saturate,
}
