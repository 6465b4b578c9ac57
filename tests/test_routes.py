"""What the five routes of C4 x Cn share.

The three group routes (closed form, 8x8 relations matrix, full Laplacian)
and the two tree counts (closed form, Matrix-Tree determinant) agree on
every n checked, and their agreement is evidence only as far as they
share no code.  Each route runs at n = 40 under a profile hook that
collects the package functions it calls, and every pairwise intersection
is compared with the table below.  A change to what the routes share edits the table.
"""

import inspect
import itertools
import sys

from critgraph import critgroup, exactla, graph, seq, treecount
from critgraph.critgroup import closed_form_group, group_of_graph, group_via_relations
from critgraph.graph import c4xcn
from critgraph.treecount import tree_count_closed, tree_count_matrix

_ROUTES = {
    "closed-group": lambda: closed_form_group(40),
    "relations-group": lambda: group_via_relations(40),
    "laplacian-group": lambda: group_of_graph(c4xcn(40)),
    "closed-count": lambda: tree_count_closed(40),
    "matrix-count": lambda: tree_count_matrix(c4xcn(40)),
}

_DENSE_ENGINE = {
    "exactla.SnfResult.__init__", "exactla._clear_column", "exactla._dense_snf",
    "exactla._ext_gcd", "exactla._min_abs_pivot", "exactla.snf",
}
_C4XCN = {
    "graph.Multigraph.__init__", "graph.Multigraph.vertex_count", "graph._edge_key",
    "graph.c4xcn", "graph.cartesian_product", "graph.cycle",
}
_GROUP = {"critgroup.AbelianGroup.__init__", "critgroup.AbelianGroup.__post_init__"}
_N_CHECK = {"graph._require_c4xcn_n"}
_PRE_PASS = {
    "exactla.SparseMatrix.__init__", "exactla.SparseMatrix.row_count",
    "exactla._eliminate_units", "exactla._permutation_sign", "exactla._sparse",
}

_SHARED = {
    ("closed-group", "relations-group"):
        _GROUP | _N_CHECK | {"critgroup._exact_div", "seq._u_pair"},
    ("closed-group", "laplacian-group"): _GROUP | _N_CHECK,
    ("closed-group", "closed-count"): _N_CHECK | {
        "seq._check_index", "seq._check_kind", "seq._start", "seq._term",
        "seq._u_pair", "seq.derived_seq", "seq.parity_split",
    },
    ("closed-group", "matrix-count"): _N_CHECK,
    ("relations-group", "laplacian-group"):
        _GROUP | _N_CHECK | _DENSE_ENGINE | {"critgroup._group_from_snf_diag"},
    ("relations-group", "closed-count"): _N_CHECK | {"seq._u_pair"},
    ("relations-group", "matrix-count"):
        _N_CHECK | {"exactla.IntegerMatrix.__init__", "exactla.IntegerMatrix.to_lists"},
    ("laplacian-group", "closed-count"): _N_CHECK,
    ("laplacian-group", "matrix-count"): _N_CHECK | _PRE_PASS | _C4XCN | {"graph.sparse_laplacian"},
    ("closed-count", "matrix-count"): _N_CHECK,
}


def _package_functions() -> dict:
    """module.qualname of the code of every function, method and property
    the package's modules define, keyed by the code object."""
    names = {}
    for module in (critgroup, exactla, graph, seq, treecount):
        short = module.__name__.rsplit(".", 1)[1]
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in vars(obj).values() if inspect.isclass(obj) else (obj,):
                for f in (getattr(member, "__func__", member), getattr(member, "fget", None)):
                    if inspect.isfunction(f):
                        names[f.__code__] = f"{short}.{f.__qualname__}"
    return names


def _called(route, names: dict) -> set:
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            seen.add(names[frame.f_code])

    sys.setprofile(hook)
    try:
        route()
    finally:
        sys.setprofile(None)
    return seen


def test_routes_share_only_the_recorded_functions():
    names = _package_functions()
    called = {route: _called(run, names) for route, run in _ROUTES.items()}
    assert all(called.values())
    shared = {(a, b): called[a] & called[b] for a, b in itertools.combinations(_ROUTES, 2)}
    assert shared == _SHARED
