"""critgraph: exact critical groups (sandpile groups) and spanning-tree
counts of multigraphs, with closed forms for the C4 x Cn family.

Everything is integer-exact (arbitrary precision); the only floating
point in the package is the optional eigenvalue-product cross-check of
the tree counts.
"""

from .exactla import (
    IntegerMatrix,
    SnfResult,
    SparseMatrix,
    canonical_chain,
    det,
    det_bareiss,
    determinantal_divisor,
    invariant_factors_from_divisors,
    is_unimodular,
    parse_matrix,
    snf,
)
from .graph import (
    Multigraph,
    c4xcn,
    cartesian_product,
    cycle,
    laplacian,
    parse_edge_list,
    sparse_laplacian,
)
from .seq import (
    SeqKind,
    derived_seq,
    observed_valuation,
    parity_split,
    predicted_valuation,
    u_prefix,
    u_seq,
    v_partial_sum,
    v_prefix,
    v_seq,
)
from .critgroup import (
    AbelianGroup,
    PipelineReport,
    closed_form_group,
    closed_form_raw_factors,
    coeffs,
    factorwise_subgroup,
    format_group,
    group_of_graph,
    group_via_relations,
    relations_matrix,
    subgroup_check,
    verify_reduction_pipeline,
)
from .treecount import (
    TreeCountReport,
    tree_count_closed,
    tree_count_matrix,
    trig_product_check,
)

__all__ = [
    "AbelianGroup",
    "IntegerMatrix",
    "Multigraph",
    "PipelineReport",
    "SeqKind",
    "SnfResult",
    "SparseMatrix",
    "TreeCountReport",
    "c4xcn",
    "canonical_chain",
    "cartesian_product",
    "closed_form_group",
    "closed_form_raw_factors",
    "coeffs",
    "cycle",
    "derived_seq",
    "det",
    "det_bareiss",
    "determinantal_divisor",
    "factorwise_subgroup",
    "format_group",
    "group_of_graph",
    "group_via_relations",
    "invariant_factors_from_divisors",
    "is_unimodular",
    "laplacian",
    "observed_valuation",
    "parse_edge_list",
    "parity_split",
    "parse_matrix",
    "predicted_valuation",
    "relations_matrix",
    "snf",
    "sparse_laplacian",
    "subgroup_check",
    "tree_count_closed",
    "tree_count_matrix",
    "trig_product_check",
    "u_prefix",
    "u_seq",
    "v_partial_sum",
    "v_prefix",
    "v_seq",
    "verify_reduction_pipeline",
]

__version__ = "0.1.0"
