"""Spans and counts recorded from outside the program.

:class:`Tracer` wraps public circres functions.  For each traced function it
replaces every module-level binding that refers to the original function
object, in every loaded ``circres`` module, so callers that imported the
name (``circres.cli.find_witness``) and callers that look it up through the
module (``circres.lp.feasible`` from ``flowcheck`` and ``search``) both reach
the wrapper.  :meth:`Tracer.restore` puts every original back.

A span is ``(name, start, end, parent, op)``, kept in memory while the run
lasts.  A layer's self time is its span durations minus the parts covered by
child spans.  Counters are read from call arguments and return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _lp_counts(args, result):
    program = args[0]
    out = {
        "lp.calls": 1,
        "lp.rows": len(program.rows),
        "lp.cols": program.num_vars,
        "lp.nnz": sum(len(row.coeffs) for row in program.rows),
    }
    if result is None:
        out["lp.infeasible_calls"] = 1
    return out


def _lattice_counts(args, result):
    from circres.search import lattice_size

    formulas, inferences = lattice_size(args[0].num_variables, args[2])
    return {"search.lattice_formulas": formulas, "search.lattice_inferences": inferences}


def _bytes_in(args, result):
    return {"formats.bytes_in": len(args[0].encode())}


def _bytes_out(args, result):
    return {"formats.bytes_out": len(result.encode())}


# (module, function, span name, counter) for every traced public function.
# The span name is the per-layer metric prefix; ``cli.main`` is the root of
# each command, so its self time is the CLI's own work.
TRACED = [
    ("circres.cli", "main", "cli", None),
    ("circres.generators", "gen_php", "generators.gen_php", None),
    ("circres.generators", "php_refutation", "generators.php_refutation",
     lambda a, r: {"generators.proof_inferences": len(r[0].inference_vertices)}),
    ("circres.formats", "parse_dimacs", "formats.parse_dimacs", _bytes_in),
    ("circres.formats", "parse_cres", "formats.parse_cres", _bytes_in),
    ("circres.formats", "parse_sap", "formats.parse_sap", _bytes_in),
    ("circres.formats", "serialize_dimacs", "formats.serialize_dimacs", _bytes_out),
    ("circres.formats", "serialize_cres", "formats.serialize_cres", _bytes_out),
    ("circres.formats", "serialize_sap", "formats.serialize_sap", _bytes_out),
    ("circres.proofgraph", "validate_rules", "proofgraph.validate_rules", None),
    ("circres.flowcheck", "find_witness", "flowcheck.find_witness", None),
    ("circres.flowcheck", "verify_flow", "flowcheck.verify_flow", None),
    ("circres.lp", "feasible", "lp.feasible", _lp_counts),
    ("circres.sheraliadams", "circular_to_sa", "sheraliadams.circular_to_sa",
     lambda a, r: {"sheraliadams.terms": len(r.terms)}),
    ("circres.sheraliadams", "check_sa", "sheraliadams.check_sa", None),
    ("circres.sheraliadams", "sa_to_circular", "sheraliadams.sa_to_circular", None),
    ("circres.search", "circular_search", "search.circular_search", _lattice_counts),
    ("circres.search", "daglike_width_saturate", "search.daglike_width_saturate",
     lambda a, r: {"search.closure_clauses": len(r)}),
]

SPAN_NAMES = [name for _, _, name, _ in TRACED]

# Per-layer metrics: every span's self time, then the counters.  Self times
# and per-op counts are per op; sizes are per call of the layer that saw them.
COUNTS_PER_OP = {
    "lp.calls": "calls/op", "lp.infeasible_calls": "calls/op",
    "formats.bytes_in": "B/op", "formats.bytes_out": "B/op",
}
SIZES_PER_CALL = {
    "lp.rows": ("lp.feasible", "rows/call"),
    "lp.cols": ("lp.feasible", "cols/call"),
    "lp.nnz": ("lp.feasible", "nnz/call"),
    "generators.proof_inferences": ("generators.php_refutation", "vertices/call"),
    "search.lattice_formulas": ("search.circular_search", "vertices/call"),
    "search.lattice_inferences": ("search.circular_search", "vertices/call"),
    "search.closure_clauses": ("search.daglike_width_saturate", "clauses/call"),
    "sheraliadams.terms": ("sheraliadams.circular_to_sa", "terms/call"),
}
PER_LAYER = (
    [(f"{name}.self_s", "s/op") for name in SPAN_NAMES]
    + list(COUNTS_PER_OP.items())
    + [(name, unit) for name, (_, unit) in SIZES_PER_CALL.items()]
    + [("trace.overhead_ratio", "ratio")]
)


PHP, WIDTH, DAG = "php_pipeline", "width_search", "daglike_saturate"
# Written down before measuring: which workloads each per-layer metric is
# recorded on and should move, the end-to-end metrics it should move there,
# the workloads where it is predicted to stay 0, and the ROADMAP baseline
# row (single +-20% runs) it replaces.  Formats, rule validation, flow
# checking and the CLI also record small amounts on width_search.
MAPPING = [
    (["generators.php_refutation.self_s", "generators.gen_php.self_s",
      "generators.proof_inferences"],
     [PHP], ["ops_per_s", "op_s.tail"], [WIDTH, DAG],
     "php_refutation (complete PHP, n+1 pigeons)"),
    (["lp.feasible.self_s", "lp.calls", "lp.infeasible_calls", "lp.rows", "lp.cols", "lp.nnz"],
     [WIDTH, PHP], ["ops_per_s", "op_s.p50"], [DAG],
     "find_witness (criss-cross LP), and the seconds of circular_search width 3; "
     "pivot counts wait for an lp result object"),
    (["search.circular_search.self_s", "search.lattice_formulas",
      "search.lattice_inferences"],
     [WIDTH], ["ops_per_s", "op_s.p50"], [PHP, DAG],
     "circular_search width 3"),
    (["search.daglike_width_saturate.self_s", "search.closure_clauses"],
     [DAG], ["ops_per_s", "peak_rss_mb"], [PHP, WIDTH],
     "daglike_width_saturate width 3"),
    (["sheraliadams.circular_to_sa.self_s", "sheraliadams.check_sa.self_s",
      "sheraliadams.sa_to_circular.self_s", "sheraliadams.terms"],
     [PHP], ["ops_per_s", "op_s.tail"], [WIDTH, DAG],
     "circular_to_sa / check_sa / sa_to_circular"),
    ([f"formats.{f}.self_s" for f in ("parse_dimacs", "parse_cres", "parse_sap",
                                      "serialize_dimacs", "serialize_cres", "serialize_sap")]
     + ["formats.bytes_in", "formats.bytes_out", "proofgraph.validate_rules.self_s",
        "flowcheck.find_witness.self_s", "flowcheck.verify_flow.self_s", "cli.self_s"],
     [PHP], ["ops_per_s", "op_s.p50"], [DAG],
     "verify_flow (arithmetic); find_witness together with lp.feasible"),
    (["trace.overhead_ratio"], [PHP, WIDTH, DAG], [], [], None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "circres" or name.startswith("circres."))]
        for modname, attr, span, counter in TRACED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, span, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    def _wrap(self, fn, name, counter):
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def per_layer(self, ops: int, overhead_ratio: float, scale: float = 1.0) -> dict[str, float]:
        """Every per-layer metric, normalised per op or per call; self times
        are multiplied by ``scale``."""
        selfs, calls = self.self_times(), self.calls()
        out = {f"{name}.self_s": selfs.get(name, 0.0) * scale / ops for name in SPAN_NAMES}
        for name in COUNTS_PER_OP:
            out[name] = self.counts.get(name, 0) / ops
        for name, (layer, _) in SIZES_PER_CALL.items():
            out[name] = self.counts.get(name, 0) / calls[layer] if calls.get(layer) else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
