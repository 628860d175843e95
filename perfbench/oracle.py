"""Known answers computed without circres.

Everything here is written from the definitions, so the benchmark can judge
the program's verdicts and emitted files without trusting the program:

* pigeonhole CNFs of a bipartite graph (one variable per edge, numbered
  lexicographically by ``(pigeon, hole)``), as clause sets;
* a perfect matching of the pigeons that remain after one pigeon clause is
  dropped, which is a satisfying assignment of that variant;
* a DIMACS reader and a ``.cres`` proof checker: local rule templates plus
  exact flow balances over ``Fraction``;
* width-bounded resolution saturation without weakening, which derives the
  empty clause exactly when width-bounded resolution with weakening does.

Clauses are frozensets of signed ints throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

EMPTY = frozenset()


def edge_variables(edges) -> dict[tuple[int, int], int]:
    return {e: i + 1 for i, e in enumerate(sorted(edges))}


def php_clauses(pigeons: int, holes: int, edges) -> list[frozenset[int]]:
    """Pigeon clauses in pigeon order, then the pairwise hole exclusions."""
    var = edge_variables(edges)
    out = []
    for u in range(1, pigeons + 1):
        out.append(frozenset(var[(u, v)] for v in range(1, holes + 1) if (u, v) in var))
    for v in range(1, holes + 1):
        users = [u for u in range(1, pigeons + 1) if (u, v) in var]
        for i, a in enumerate(users):
            for b in users[i + 1:]:
                out.append(frozenset((-var[(a, v)], -var[(b, v)])))
    return out


def dimacs_text(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(str(l) for l in sorted(c, key=abs)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[frozenset[int]]]:
    num_vars, clauses = None, []
    for raw in text.splitlines():
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            num_vars = int(tok[2])
            continue
        if tok[-1] != "0":
            raise ValueError(f"unterminated clause line {raw!r}")
        clauses.append(frozenset(int(t) for t in tok[:-1]))
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    return num_vars, clauses


def matching_assignment(pigeons: int, holes: int, edges, dropped: int):
    """A satisfying assignment (set of true variables) of the pigeonhole CNF
    with pigeon ``dropped``'s clause removed, or ``None`` when the other
    pigeons have no perfect matching into the holes (Kuhn's augmenting paths).
    """
    adj = {u: sorted(v for (a, v) in edges if a == u) for u in range(1, pigeons + 1)}
    owner: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in owner or augment(owner[v], seen):
                owner[v] = u
                return True
        return False

    for u in range(1, pigeons + 1):
        if u != dropped and not augment(u, set()):
            return None
    var = edge_variables(edges)
    return frozenset(var[(u, v)] for v, u in owner.items())


def satisfies(true_vars: frozenset[int], clause) -> bool:
    return any((l > 0) == (abs(l) in true_vars) for l in clause)


def clauses_up_to_width(num_vars: int, width: int) -> int:
    """Number of non-tautological clauses of width at most ``width``."""
    return sum(comb(num_vars, k) * 2 ** k for k in range(width + 1))


def resolution_refutes(clauses, width: int) -> bool:
    """Does width-bounded resolution (no weakening) derive the empty clause?"""
    seen = {c for c in clauses if not any(-l in c for l in c)}
    queue = list(seen)
    by_lit: dict[int, list[frozenset[int]]] = {}
    for c in seen:
        for l in c:
            by_lit.setdefault(l, []).append(c)
    while queue:
        c = queue.pop()
        if not c:
            return True
        for l in c:
            for d in list(by_lit.get(-l, ())):
                r = (c - {l}) | (d - {-l})
                if len(r) > width or r in seen or any(-x in r for x in r):
                    continue
                seen.add(r)
                queue.append(r)
                for x in r:
                    by_lit.setdefault(x, []).append(r)
    return EMPTY in seen


def check_cres(text: str, hypotheses, flows=None) -> str | None:
    """Verify a ``.cres`` refutation of ``hypotheses``; ``None`` when it holds.

    Checks every inference against its rule template, that every flow is
    positive, that every vertex of negative balance carries a hypothesis
    clause, and that the goal carries the empty clause with positive balance.
    Flows come from the file's ``w`` lines unless ``flows`` is given.
    """
    formulas: dict[int, frozenset[int]] = {}
    infs: list[tuple[int, str, int, list[int]]] = []
    goal = None
    file_flows: dict[int, Fraction] = {}
    for raw in text.splitlines():
        tok = raw.split()
        if not tok or tok[0] in ("c", "p", "h"):
            continue
        if tok[0] == "f":
            formulas[int(tok[1])] = frozenset(int(t) for t in tok[2:-1])
        elif tok[0] == "i":
            infs.append((int(tok[1]), tok[2], int(tok[3]), [int(t) for t in tok[4:]]))
        elif tok[0] == "g":
            goal = int(tok[1])
        elif tok[0] == "w":
            file_flows[int(tok[1])] = Fraction(tok[2])
    flows = file_flows if flows is None else flows
    if goal is None or formulas.get(goal) != EMPTY:
        return "goal is not the empty clause"
    bal = {fid: Fraction(0) for fid in formulas}
    for iid, kind, x, refs in infs:
        f = flows.get(iid)
        if f is None or f <= 0:
            return f"inference {iid} has no positive flow"
        if kind == "ax":
            ins, outs = [], refs
            ok = len(outs) == 1 and formulas[outs[0]] == frozenset((x, -x))
        elif kind == "cut":
            ins, outs = refs[:2], refs[2:]
            ok = len(outs) == 1 and {formulas[i] for i in ins} == {
                formulas[outs[0]] | {x}, formulas[outs[0]] | {-x}
            }
        elif kind == "split":
            ins, outs = refs[:1], refs[1:]
            allowed = {formulas[ins[0]] | {x}, formulas[ins[0]] | {-x}}
            ok = (1 <= len(outs) <= 2 and len({formulas[o] for o in outs}) == len(outs)
                  and all(formulas[o] in allowed for o in outs))
        else:
            return f"inference {iid} has unknown rule {kind}"
        if not ok:
            return f"inference {iid} breaks the {kind} template"
        for o in outs:
            bal[o] += f
        for i in ins:
            bal[i] -= f
    hyps = set(hypotheses)
    for fid, b in bal.items():
        if b < 0 and formulas[fid] not in hyps:
            return f"vertex {fid} is consumed but not a hypothesis"
    if bal[goal] <= 0:
        return "goal balance is not positive"
    return None
