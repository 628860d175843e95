"""Circular pre-proof graphs: rules axiom / symmetric cut / split, plus local
rule validation, DOT export, and :func:`balance_numerators`, the one reader of
a flow's balances, whose signs mark the sources (negative) and sinks
(positive).  A flow is a plain ``dict`` from each inference-vertex id to a
positive ``Fraction``.

A proof graph is a directed bipartite graph between formula vertices (each
holding a clause) and inference vertices (each holding a rule), kept as two
dicts keyed by vertex id, like a flow: ``{fid: Clause}`` and
``{iid: InferenceVertex}``, so an id cannot repeat.  Cycles are permitted;
the graph stores the compact representation in which backedges between
equal formulas have already been contracted.  Whether such a graph
constitutes an actual proof is decided by the flow machinery in
:mod:`circres.flowcheck`; nothing here penalizes circularity itself.

Rule shapes, with principal variable ``x`` and side clause ``C`` (all clause
matching happens after normalization, so idempotent collapses like
``C | x == C`` when ``x`` already occurs in ``C`` are legal):

* axiom: no antecedent, one consequent ``x | ~x``;
* cut: antecedents ``C | x`` and ``C | ~x``, consequent ``C``;
* split: antecedent ``C``, consequents among ``C | x`` and ``C | ~x``
  (one of the two may be suppressed).

Rules and inference vertices are named tuples (see :mod:`circres.core`);
``Rule`` checks its fields in ``__new__``, and ``_make`` and ``_replace`` go
through it.  ``InferenceVertex`` checks nothing, so the builder and the
reader make it with ``tuple.__new__``, with no Python frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Container, NamedTuple, Optional, Sequence

from .core import MAX_VARIABLE, Clause

AXIOM = "axiom"
CUT = "cut"
SPLIT = "split"
_ONE = Fraction(1)


class StructureError(ValueError):
    """A vertex referenced a neighbor id that does not exist: ``vertex_id``
    is the inference vertex, or the goal id that names no formula vertex."""

    def __init__(self, message: str, vertex_id: int) -> None:
        super().__init__(message)
        self.vertex_id = vertex_id


class IncompleteFlowError(KeyError):
    """A flow assignment is missing an inference vertex."""


class Rule(NamedTuple("Rule", [("kind", str), ("principal", int)])):
    """An inference rule tag: one of axiom / cut / split with its principal variable."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, kind: str, principal: int) -> "Rule":
        if kind not in (AXIOM, CUT, SPLIT):
            raise ValueError(f"unknown rule kind {kind!r}")
        if principal < 1:
            raise ValueError(f"principal variable must be >= 1, got {principal}")
        if principal > MAX_VARIABLE:
            raise ValueError(f"principal variable must be <= {MAX_VARIABLE}, got {principal}")
        return tuple.__new__(cls, (kind, principal))


_rule = cache(Rule)  # one checked Rule per kind and principal


class InferenceVertex(NamedTuple):
    rule: Rule
    in_neighbors: tuple[int, ...]
    out_neighbors: tuple[int, ...]


@dataclass(frozen=True)
class RuleViolation:
    vertex_id: int
    message: str

    def __str__(self) -> str:
        return f"inference {self.vertex_id}: {self.message}"


@dataclass(frozen=True)
class ProofGraph:
    """Circular pre-proof graph with its goal and its hypotheses: clauses
    whose vertices may be consumed more often than derived.

    ``formula_vertices`` maps each formula-vertex id to its clause and
    ``inference_vertices`` each inference-vertex id to its vertex; their
    order (file order when read, creation order when built) is the order of
    every program row, term and DOT line made from them.  Nothing mutates
    them, and a graph is not hashable.
    """

    formula_vertices: dict[int, Clause]
    inference_vertices: dict[int, InferenceVertex]
    hypotheses: frozenset[Clause]
    goal_id: int

    def __post_init__(self) -> None:
        fv = self.formula_vertices
        for iid, w in self.inference_vertices.items():
            for u in (*w.in_neighbors, *w.out_neighbors):
                if u not in fv:
                    raise StructureError(f"inference {iid} references unknown formula id {u}", iid)
        if self.goal_id not in fv:
            raise StructureError(f"goal id {self.goal_id} is not a formula vertex", self.goal_id)

    def goal_clause(self) -> Clause:
        return self.formula_vertices[self.goal_id]

    # -- measures -----------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of vertices of the graph, formula and inference alike."""
        return len(self.formula_vertices) + len(self.inference_vertices)

    @cached_property
    def width(self) -> int:
        """Largest number of literals in any clause label."""
        return max((c.mask.bit_count() for c in self.formula_vertices.values()), default=0)


def validate_rules(graph: ProofGraph) -> list[RuleViolation]:
    """All local rule-template violations, vertex by vertex; empty iff every
    vertex matches its rule.  Each template is matched once, on clause masks
    (``side | p`` is ``side | x`` and ``side | n`` is ``side | ~x``), and a
    message is worded only on the branch that fails."""
    fv = graph.formula_vertices
    out: list[RuleViolation] = []
    for iid, ((kind, x), ins, outs) in graph.inference_vertices.items():
        p, n = 1 << 2 * x, 2 << 2 * x
        if kind == CUT:
            if len(outs) != 1:
                out.append(RuleViolation(iid, "cut must have exactly one consequent"))
            elif len(ins) != 2:
                out.append(RuleViolation(iid, "cut must have exactly two antecedents"))
            else:
                side, a, b = fv[outs[0]], fv[ins[0]], fv[ins[1]]
                if {a.mask, b.mask} != {side.mask | p, side.mask | n}:
                    out.append(RuleViolation(
                        iid, f"cut antecedents must be {{{Clause(side.mask | p)}}} and "
                             f"{{{Clause(side.mask | n)}}} sharing side clause {side}, "
                             f"got {a} and {b}"))
        elif kind == SPLIT:
            if len(ins) != 1:
                out.append(RuleViolation(iid, "split must have exactly one antecedent"))
            elif not 0 < len(outs) < 3:
                out.append(RuleViolation(iid, "split must have one or two consequents"))
            else:
                side = fv[ins[0]].mask
                if len(outs) == 2 and fv[outs[0]] == fv[outs[1]]:
                    out.append(RuleViolation(iid, "split consequents must be distinct"))
                for u in outs:
                    if fv[u].mask != side | p and fv[u].mask != side | n:
                        out.append(RuleViolation(
                            iid, f"split consequent {fv[u]} is neither {Clause(side | p)} "
                                 f"nor {Clause(side | n)}"))
        elif kind == AXIOM:
            if ins:
                out.append(RuleViolation(iid, "axiom must have no antecedents"))
            if len(outs) != 1:
                out.append(RuleViolation(iid, "axiom must have exactly one consequent"))
            elif fv[outs[0]].mask != p | n:
                out.append(RuleViolation(
                    iid, f"axiom consequent must be x{x} | ~x{x}, got {fv[outs[0]]}"))
    return out


def common_numerators(values: list[Fraction]) -> tuple[dict[int, int], int]:
    """Each distinct object of ``values``, keyed by its ``id``, as an integer
    numerator over ``den``, the lcm of their denominators.  A proof's flows
    and coefficients share few objects, so each is scaled once; the ids are
    valid while the caller holds the values."""
    distinct = dict(zip(map(id, values), values))
    den = math.lcm(*(f.denominator for f in distinct.values()))
    return {key: f.numerator * (den // f.denominator) for key, f in distinct.items()}, den


def balance_numerators(graph: ProofGraph,
                       flow: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """Inflow minus outflow of every formula vertex, summed in one sweep as
    integer numerators over ``den > 0``, the lcm of the flows' denominators."""
    try:
        flows = [flow[iid] for iid in graph.inference_vertices]
    except KeyError as missing:
        raise IncompleteFlowError(f"no flow for inference vertex {missing.args[0]}") from None
    scaled, den = common_numerators(flows)
    acc = dict.fromkeys(graph.formula_vertices, 0)
    for w, f in zip(graph.inference_vertices.values(), flows):
        a = scaled[id(f)]
        for u in w.out_neighbors:
            acc[u] += a
        for u in w.in_neighbors:
            acc[u] -= a
    return acc, den


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: ProofGraph, flow: Optional[dict[int, Fraction]] = None) -> str:
    """Render the graph as a DOT digraph.

    Formula vertices are boxes, marked ``hyp`` when their clause is a
    hypothesis, inference vertices circles; when ``flow`` is given each
    inference vertex is labelled with its flow.
    """
    lines = ["digraph proof {"]
    for fid, clause in graph.formula_vertices.items():
        marks = []
        if clause in graph.hypotheses:
            marks.append("hyp")
        if fid == graph.goal_id:
            marks.append("goal")
        label = str(clause) + (f"  [{','.join(marks)}]" if marks else "")
        lines.append(f"  f{fid} [shape=box, label={_dot_quote(label)}];")
    for iid, w in graph.inference_vertices.items():
        label = f"{w.rule.kind} x{w.rule.principal}"
        if flow is not None:
            label += f"\\nflow={flow[iid]}"
        lines.append(f"  i{iid} [shape=circle, label={_dot_quote(label)}];")
    for iid, w in graph.inference_vertices.items():
        for u in w.in_neighbors:
            lines.append(f"  f{u} -> i{iid};")
        for u in w.out_neighbors:
            lines.append(f"  i{iid} -> f{u};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class ProofGraphBuilder:
    """Incremental construction of a proof graph and its flows, from clause
    masks (see :mod:`circres.core`); ids are in creation order."""

    def __init__(self) -> None:
        self._formulas: list[Clause] = []
        self._by_mask: dict[int, int] = {}
        self._inferences: list[InferenceVertex] = []
        self._by_shape: dict[tuple, int] = {}  # (rule, len(ins), sorted ins, sorted outs)
        self._flows: dict[int, Fraction] = {}
        self._hypotheses: set[Clause] = set()
        self._goal: Optional[int] = None

    def vertex(self, mask: int, fresh: bool = False) -> int:
        """The id of the first vertex stored for ``mask`` (one memo), or of a
        new one, with its ``Clause``, when there is none or ``fresh=True``."""
        fid = self._by_mask.get(mask)
        if fid is None or fresh:
            fid = len(self._formulas)
            self._formulas.append(tuple.__new__(Clause, (mask,)))  # Clause does no check
            self._by_mask.setdefault(mask, fid)
        return fid

    def inference(
        self,
        kind: str,
        principal: int,
        ins: Sequence[int],
        outs: Sequence[int],
        flow: Fraction | int = 1,
    ) -> int:
        """The id of the rule from vertices ``ins`` to ``outs``, merged with an
        earlier one of identical shape (rule, sorted ids) by summing flows.
        A repeated consequent stays, for :func:`validate_rules` to report."""
        shape = (kind, principal, len(ins), *sorted(ins), *sorted(outs))
        iid = self._by_shape.get(shape)
        if iid is not None:
            self._flows[iid] += flow
            return iid
        iid = len(self._inferences)
        self._inferences.append(
            tuple.__new__(InferenceVertex, (_rule(kind, principal), tuple(ins), tuple(outs))))
        self._by_shape[shape] = iid
        self._flows[iid] = (flow if type(flow) is Fraction else _ONE if flow == 1
                            else Fraction(flow))
        return iid

    def mark_hypotheses(self, masks: Container[int]) -> None:
        """Make a hypothesis of each vertex clause whose mask is in ``masks``."""
        self._hypotheses.update(self._formulas[fid] for mask, fid in self._by_mask.items()
                                if mask in masks)

    def set_goal(self, fid: int) -> None:
        self._goal = fid

    def pad_identity(self, goal_mask: int, flow: Fraction | int = 1) -> None:
        """Route ``flow`` from the vertex of ``goal_mask`` to a fresh copy of
        it, and make the copy the goal: the proof of a goal that is a
        hypothesis.

        A nonempty goal gets a collapsing split that introduces its own first
        literal, so the width stays the goal's width; the empty goal gets a
        split/cut detour through ``x1``, of width 1.  Either gives the goal
        balance ``flow`` while keeping every other balance intact.
        """
        source = self.vertex(goal_mask)
        fresh = self.vertex(goal_mask, fresh=True)
        if goal_mask:
            first = (goal_mask & -goal_mask).bit_length() - 1 >> 1  # its first variable
            self.inference(SPLIT, first, (source,), (fresh,), flow)
        else:
            pos, neg = self.vertex(1 << 2), self.vertex(2 << 2)  # x1 and ~x1
            self.inference(SPLIT, 1, (source,), (pos, neg), flow)
            self.inference(CUT, 1, (pos, neg), (fresh,), flow)
        self.set_goal(fresh)

    @property
    def num_inferences(self) -> int:
        return len(self._inferences)

    def build(self) -> tuple[ProofGraph, dict[int, Fraction]]:
        """The graph and a copy of its flows, so building twice is safe."""
        if self._goal is None:
            raise ValueError("goal vertex was never set")
        graph = ProofGraph(
            dict(enumerate(self._formulas)),
            dict(enumerate(self._inferences)),
            frozenset(self._hypotheses),
            self._goal,
        )
        return graph, dict(self._flows)


def weaken(b: ProofGraphBuilder, mask: int, to: int, flow: Fraction | int) -> None:
    """Add to ``b`` single-consequent splits of value ``flow`` from ``mask``
    up to its superset ``to``, one per missing literal, in canonical order."""
    rest = to & ~mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        b.inference(SPLIT, bit.bit_length() - 1 >> 1, (b.vertex(mask),),
                    (b.vertex(mask | bit),), flow)
        mask |= bit
