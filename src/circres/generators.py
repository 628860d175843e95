"""Instance and proof generators: graph pigeonhole formulas, their compact
circular refutations, and seeded random proofs for fuzzing.

The pigeonhole refutation is assembled from one piece per pigeon and one per
hole, every inference carrying flow 1:

* the pigeon piece turns the pigeon clause into one unit of the empty clause
  while demanding one unit of ``~edge`` for each incident edge;
* the hole piece consumes one unit of the empty clause and produces one unit
  of every incident ``~edge``, consuming hole clauses along the way.

Identifying equal clause labels across pieces makes every ``~edge`` vertex
balance to zero, leaves the pigeon and hole clauses as the only sources, and
gives the empty clause balance ``|U| - |V| > 0``.  Every generator holds its
clauses as masks and builds with ``vertex`` and ``inference`` alone.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import MAX_VARIABLE, Clause, CnfFormula, literal_key
from .proofgraph import (
    AXIOM,
    CUT,
    SPLIT,
    ProofGraph,
    ProofGraphBuilder,
)


class IsolatedVertexError(ValueError):
    """A pigeon with no candidate hole has no clause and no refutation piece."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on pigeons ``1..left_size`` and holes ``1..right_size``."""

    left_size: int
    right_size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.left_size < 0 or self.right_size < 0:
            raise ValueError(f"bipartite graph sizes must be nonnegative, "
                             f"got {self.left_size} and {self.right_size}")
        # Sorted adjacency, built once; not a field, so == and hash ignore it.
        left: dict[int, list[int]] = {}
        right: dict[int, list[int]] = {}
        for u, v in sorted(self.edges):
            if not (1 <= u <= self.left_size and 1 <= v <= self.right_size):
                raise ValueError(f"edge ({u},{v}) out of range")
            left.setdefault(u, []).append(v)
            right.setdefault(v, []).append(u)
        object.__setattr__(self, "_adjacency", (left, right))

    def left_neighbors(self, u: int) -> list[int]:
        return list(self._adjacency[0].get(u, ()))

    def right_neighbors(self, v: int) -> list[int]:
        return list(self._adjacency[1].get(v, ()))

    def max_degree(self) -> int:
        degs = [len(self.left_neighbors(u)) for u in range(1, self.left_size + 1)]
        degs += [len(self.right_neighbors(v)) for v in range(1, self.right_size + 1)]
        return max(degs, default=0)


def complete_bipartite(left: int, right: int) -> BipartiteGraph:
    edges = frozenset(
        (u, v) for u in range(1, left + 1) for v in range(1, right + 1)
    )
    return BipartiteGraph(left, right, edges)


def edge_variables(g: BipartiteGraph) -> dict[tuple[int, int], int]:
    """Edge-to-variable numbering, lexicographic by (pigeon, hole)."""
    return {edge: i + 1 for i, edge in enumerate(sorted(g.edges))}


def gen_php(g: BipartiteGraph) -> CnfFormula:
    """The pigeonhole contradiction of ``g``: every pigeon somewhere, no hole
    doubly used.  One variable per edge."""
    var = edge_variables(g)
    clauses: list[Clause] = []
    for u in range(1, g.left_size + 1):
        nbrs = g.left_neighbors(u)
        if not nbrs:
            raise IsolatedVertexError(f"pigeon {u} has no incident edge")
        clauses.append(Clause.from_signed(var[(u, v)] for v in nbrs))
    for v in range(1, g.right_size + 1):
        ys = [var[(u, v)] for u in g.right_neighbors(v)]
        clauses.extend(Clause.from_ints(-y, -z) for y, z in itertools.combinations(ys, 2))
    return CnfFormula.of(len(var), clauses)


# ---------------------------------------------------------------------------
# pigeonhole refutation pieces
#
# The order of the builder calls fixes every vertex and inference id, and so
# every byte of an emitted refutation.  Each piece ORs its clauses' masks
# from the bits of its edge variables' literals, and returns the masks of the
# hypotheses it consumes.

def _add_pigeon_piece(b: ProofGraphBuilder, xs: Sequence[int]) -> int:
    """Derive the empty clause from the pigeon clause over edge variables
    ``xs``, demanding one unit of each ``~x``; return the pigeon clause.

    For ``x = xs[k]``, last first: split ``~x`` up to ``~x | xs[:k]`` one
    literal at a time, then cut it with ``xs[:k+1]`` down to ``xs[:k]``.
    """
    prefix = [0]  # prefix[k] is the mask of xs[:k]
    for x in xs:
        prefix.append(prefix[-1] | 1 << literal_key(x))
    for k in range(len(xs) - 1, -1, -1):
        x, not_x = xs[k], 1 << literal_key(-xs[k])
        cur = b.vertex(not_x)
        for j in range(k):
            nxt = b.vertex(not_x | prefix[j + 1])
            b.inference(SPLIT, xs[j], (cur,), (nxt,))
            cur = nxt
        b.inference(CUT, x, (cur, b.vertex(prefix[k + 1])), (b.vertex(prefix[k]),))
    return prefix[-1]


def _add_hole_piece(b: ProofGraphBuilder, ys: Sequence[int]) -> list[int]:
    """Produce one unit of each ``~y`` from one unit of the empty clause,
    consuming the pairwise exclusion clauses of the hole, which it returns.

    Level ``k`` handles ``y = ys[k]``, and every clause it touches carries
    the later edge literals ``rest = ys[k+1:]``.  In order, it emits

    1. a repair split on ``y`` of ``~ys[j] | ~ys[i] | rest`` to
       ``~ys[j] | ~ys[i] | y | rest``, keeping only that consequent, for each
       earlier exclusion pair ``j < i < k`` (by ``i``, then ``j``);
    2. a cut on ``y`` of ``~ys[j] | y | rest`` and ``~ys[j] | ~y | rest`` to
       ``~ys[j] | rest``, for each ``j < k``;
    3. a split on ``y`` of ``rest`` to ``y | rest`` and ``~y | rest``.

    At the last level ``rest`` is empty, so its split consumes the empty
    clause and its cuts consume exclusion clauses as they are.  The repairs
    of the later levels weaken every other exclusion clause, one literal at
    a time, to the antecedent its cut consumes.
    """
    neg = [1 << literal_key(-y) for y in ys]
    suffix = [0] * (len(ys) + 1)  # suffix[k] is the mask of ys[k:]
    for k in range(len(ys) - 1, -1, -1):
        suffix[k] = suffix[k + 1] | 1 << literal_key(ys[k])
    for k, y in enumerate(ys):
        rest, pos = suffix[k + 1], 1 << literal_key(y)
        for i in range(k):
            for j in range(i):
                pair = neg[j] | neg[i] | rest
                b.inference(SPLIT, y, (b.vertex(pair),), (b.vertex(pair | pos),))
        for j in range(k):
            b.inference(
                CUT, y,
                (b.vertex(neg[j] | pos | rest), b.vertex(neg[j] | neg[k] | rest)),
                (b.vertex(neg[j] | rest),),
            )
        b.inference(SPLIT, y, (b.vertex(rest),), (b.vertex(pos | rest), b.vertex(neg[k] | rest)))
    return [p | q for p, q in itertools.combinations(neg, 2)]


def php_refutation(g: BipartiteGraph) -> tuple[ProofGraph, dict[int, Fraction]]:
    """Pieced refutation of the pigeonhole contradiction, all flows 1.

    Requires more pigeons than holes and raises :class:`IsolatedVertexError`
    for a pigeon with no edge, as :func:`gen_php` does.  The clauses of
    ``gen_php(g)`` are marked as hypotheses, without building the formula.
    Width is bounded by the maximum degree of ``g`` and the empty clause
    ends with balance ``|U| - |V|``.
    """
    if g.left_size <= g.right_size:
        raise ValueError("pigeonhole refutations need more pigeons than holes")
    var = edge_variables(g)
    b = ProofGraphBuilder()
    hypotheses: set[int] = set()
    for u in range(1, g.left_size + 1):
        xs = [var[(u, v)] for v in g.left_neighbors(u)]
        if not xs:
            raise IsolatedVertexError(f"pigeon {u} has no incident edge")
        hypotheses.add(_add_pigeon_piece(b, xs))
    for v in range(1, g.right_size + 1):
        ys = [var[(u, v)] for u in g.right_neighbors(v)]
        if ys:
            hypotheses.update(_add_hole_piece(b, ys))
    b.mark_hypotheses(hypotheses)
    b.set_goal(b.vertex(0))
    return b.build()


def near_cubic_bipartite(n: int, seed: int) -> BipartiteGraph:
    """Random bipartite graph with ``n + 1`` pigeons, ``n`` holes, and both
    sides of degree at most 3.

    Holes are exactly 3-regular; ``n - 2`` pigeons have degree 3 and three
    have degree 2 (the largest edge count a max-degree-3 unbalanced bipartite
    graph allows).  Deterministic in ``seed``; sampled by shuffling hole
    stubs until the pairing is a simple graph.
    """
    if n < 3:
        raise ValueError("need at least 3 holes for a degree-3 instance")
    rng = random.Random(seed)
    pigeons = list(range(1, n + 2))
    low_degree = rng.sample(pigeons, 3)
    stubs = []
    for u in pigeons:
        stubs.extend([u] * (2 if u in low_degree else 3))
    hole_stubs = [v for v in range(1, n + 1) for _ in range(3)]
    for _ in range(10_000):
        rng.shuffle(hole_stubs)
        edges = set(zip(stubs, hole_stubs))
        if len(edges) == 3 * n:
            return BipartiteGraph(n + 1, n, frozenset(edges))
    raise RuntimeError(f"no simple pairing found for n={n}, seed={seed}")


# ---------------------------------------------------------------------------
# the classic unsound cycle

def unsound_cycle_example() -> ProofGraph:
    """The textbook unsound pre-proof: the empty clause from no hypotheses.

    An axiom feeds ``x | ~x``; two collapsed cuts derive ``x`` and ``~x``
    using those very clauses cyclically; a final cut derives the empty
    clause.  Every rule application is locally valid, yet whatever positive
    flows are chosen, ``x`` and ``~x`` keep negative balance, so no flow
    assignment witnesses the refutation.
    """
    b = ProofGraphBuilder()
    taut = b.vertex(3 << 2)  # x1 | ~x1
    b.inference(AXIOM, 1, (), (taut,))
    x, nx = b.vertex(1 << 2), b.vertex(2 << 2)  # x1 and ~x1
    b.inference(CUT, 1, (x, taut), (x,))
    b.inference(CUT, 1, (taut, nx), (nx,))
    empty = b.vertex(0)
    b.inference(CUT, 1, (x, nx), (empty,))
    b.set_goal(empty)
    graph, _ = b.build()
    return graph


# ---------------------------------------------------------------------------
# random witnessed proofs

def _demand_flows(graph: ProofGraph) -> dict[int, Fraction]:
    """Flows for a dag-built graph: walk inferences newest-first, covering the
    accumulated demand of each consequent (at least 1 everywhere)."""
    deficit = dict.fromkeys(graph.formula_vertices, Fraction(0))
    deficit[graph.goal_id] = Fraction(1)
    flows: dict[int, Fraction] = {}
    for iid, w in sorted(graph.inference_vertices.items(), reverse=True):
        need = max([deficit[u] for u in w.out_neighbors] + [Fraction(1)])
        flows[iid] = need
        for u in w.out_neighbors:
            deficit[u] -= need
        for u in w.in_neighbors:
            deficit[u] += need
    return flows


# Far above the longest stall of a run that finishes: under 170 draws in a row
# over seeds 0-39, 1-8 variables, budgets 1-20 and width 4.
MAX_STALLED_DRAWS = 10_000


def _free_variable(rng: random.Random, mask: int, num_vars: int) -> Optional[int]:
    """A uniform draw among the variables ``1..num_vars`` that clause ``mask``,
    not tautological, lacks, or None if it has them all: the k-th of them,
    found by stepping past the mask's bits in increasing order, for the one
    draw that ``rng.choice`` over the list of them would make."""
    free = num_vars - mask.bit_count()
    if not free:
        return None
    x = rng.randrange(free) + 1
    while mask:
        bit = mask & -mask
        if bit.bit_length() - 1 >> 1 <= x:
            x += 1
        mask ^= bit
    return x


def random_circular_proof(
    seed: int,
    num_vars: int,
    size_budget: int,
    max_width: int = 4,
) -> tuple[ProofGraph, dict[int, Fraction]]:
    """Deterministic random witnessed proof with ``size_budget - 2`` to
    ``size_budget + 1`` inferences.

    Built dag-like (every consequent vertex is created by its rule) up to
    ``size_budget`` inferences, or 2 fewer when a balance-neutral split/cut
    cycle is due, which adds 2 unless it merges or finds no clause to pump;
    padding a goal that is a hypothesis adds 1.  Flows are assigned
    newest-first to keep all derived balances nonnegative and the goal
    balance at least 1.  Always passes rule validation and the flow check.
    Inferences of equal shape merge, so once every reachable inference exists
    no draw adds one; ``ValueError`` is raised after :data:`MAX_STALLED_DRAWS`
    such draws in a row.  It is raised at once for a ``max_width`` below 1,
    since every hypothesis has a literal, or below 2 for a budget of 1, which
    is one axiom.
    """
    if size_budget < 1:
        raise ValueError("size budget must be at least 1")
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if num_vars > MAX_VARIABLE:  # refused before a clause mask of that size exists
        raise ValueError(f"{num_vars} variables exceed the largest variable index {MAX_VARIABLE}")
    rng = random.Random(seed)
    b = ProofGraphBuilder()

    if size_budget == 1:
        if max_width < 2:
            raise ValueError(f"size budget 1 is one axiom, of width 2 > max width {max_width}")
        x = rng.randint(1, num_vars)
        out = b.vertex(3 << 2 * x)
        b.inference(AXIOM, x, (), (out,))
        b.set_goal(out)
        graph, _ = b.build()
        return graph, _demand_flows(graph)
    if max_width < 1:
        raise ValueError(f"max width {max_width} is below 1, the width of a unit hypothesis")

    # Hypotheses: a few short proper clauses.
    hyp_width = max(1, min(max_width - 1, 2))
    n_hyp = rng.randint(1, 3)
    pool: list[int] = []  # the mask of every vertex the draws make, in order
    for _ in range(n_hyp):
        k = rng.randint(1, hyp_width)
        vs = rng.sample(range(1, num_vars + 1), min(k, num_vars))
        mask = sum(1 << literal_key(v if rng.random() < 0.5 else -v) for v in vs)
        if mask not in pool:
            b.vertex(mask)
            pool.append(mask)
    hyp_masks = frozenset(pool)
    b.mark_hypotheses(hyp_masks)

    derived: list[int] = []
    want_pump = size_budget >= 4 and rng.random() < 0.5
    budget = size_budget - (2 if want_pump else 0)

    stalled, seen = 0, -1
    while b.num_inferences < budget:
        stalled = stalled + 1 if b.num_inferences == seen else 0
        if stalled == MAX_STALLED_DRAWS:
            raise ValueError(
                f"budget {size_budget} is out of reach (vars {num_vars}, max width "
                f"{max_width}): {stalled} draws in a row added no inference"
            )
        seen = b.num_inferences
        roll = rng.random()
        if roll < 0.15 and max_width >= 2:
            x = rng.randint(1, num_vars)
            out = 3 << 2 * x
            b.inference(AXIOM, x, (), (b.vertex(out),))
            if out not in pool:
                pool.append(out)
                derived.append(out)
            continue
        if roll < 0.60:
            c = rng.choice(pool)
            # Weakening a tautology would create non-elementary tautological
            # clauses, which the polynomial translation cannot encode.
            if c.bit_count() >= max_width or Clause(c).is_tautological:
                continue
            x = _free_variable(rng, c, num_vars)
            if x is None:
                continue
            pos, neg = c | 1 << 2 * x, c | 2 << 2 * x
            if rng.random() < 0.6:
                outs = (pos, neg)
            else:
                outs = (pos,) if rng.random() < 0.5 else (neg,)
            b.inference(SPLIT, x, (b.vertex(c),), tuple(b.vertex(out) for out in outs))
            for out in outs:
                if out not in pool:
                    pool.append(out)
                derived.append(out)
            continue
        # Cut: look for a resolvable pair already in the pool.
        c = rng.choice(pool)
        if not c:
            continue
        rest = c
        for _ in range(rng.choice(range(c.bit_count()))):  # drop the k lowest literals
            rest &= rest - 1
        bit = rest & -rest  # the k-th literal in canonical order
        x, negative = divmod(bit.bit_length() - 1, 2)
        side = c ^ bit
        other = side | (bit >> 1 if negative else bit << 1)
        if other not in pool:
            continue
        pos, neg = (other, c) if negative else (c, other)
        b.inference(CUT, x, (b.vertex(pos), b.vertex(neg)), (b.vertex(side),))
        if side not in pool:
            pool.append(side)
        derived.append(side)

    # A useful goal is derived, proper, and not itself a hypothesis clause
    # (hypothesis vertices absorb demand instead of accumulating balance).
    goal = next((m for m in reversed(dict.fromkeys(derived))
                 if not Clause(m).is_tautological and m not in hyp_masks), None)
    if goal is not None:
        b.set_goal(b.vertex(goal))
    else:
        # Force one derivation: the identity proof of the first hypothesis.
        b.pad_identity(pool[0])

    if want_pump:
        pumpable = [
            m for m in pool
            if not Clause(m).is_tautological and m.bit_count() < min(max_width, num_vars)
        ]
        if pumpable:
            c = rng.choice(pumpable)
            x = next(v for v in range(1, num_vars + 1) if not c >> 2 * v & 3)
            rng.randint(1, 3)  # a flow no longer used, drawn to keep the seeded stream
            src, pos, neg = b.vertex(c), b.vertex(c | 1 << 2 * x), b.vertex(c | 2 << 2 * x)
            b.inference(SPLIT, x, (src,), (pos, neg))
            b.inference(CUT, x, (pos, neg), (src,))

    graph, _ = b.build()
    # Demand propagation assigns the pump pair equal flows on its own, so the
    # cycle stays balance-neutral.
    return graph, _demand_flows(graph)
