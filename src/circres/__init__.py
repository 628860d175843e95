"""Circular resolution proofs: representation, exact flow certification,
pigeonhole refutation generators, polynomial-proof translations, and
bounded-width proof search."""

from .core import (
    Clause,
    CnfFormula,
    evaluate,
    implies_oracle,
)
from .flowcheck import (
    DualCertificate,
    dual_certificate,
    find_witness,
    integralize,
    trace_falsified_source,
    verify_dual_certificate,
    verify_flow,
)
from .generators import (
    BipartiteGraph,
    complete_bipartite,
    gen_php,
    php_refutation,
    random_circular_proof,
    unsound_cycle_example,
)
from .lp import LinearProgram, feasible, solve
from .proofgraph import (
    InferenceVertex,
    ProofGraph,
    ProofGraphBuilder,
    Rule,
    balances,
    export_dot,
    sources_and_sinks,
    validate_rules,
)
from .search import circular_search, daglike_width_saturate
from .sheraliadams import (
    Monomial,
    RefPoly,
    SAProof,
    SATerm,
    check_sa,
    circular_to_sa,
    clause_gadget,
    encode_clause,
    sa_degree,
    sa_monomial_size,
    sa_to_circular,
)

__version__ = "0.1.0"
