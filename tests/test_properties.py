"""Property tests: the sparse +-1 pre-pass reads dict rows in any entry
order, with or without explicit zeros, and returns what the dense entry
point (an IntegerMatrix, converted at the snf / det boundary) returns;
its pivots are those of a brute-force rescan of every row.  The critical
group and the tree count of a connected multigraph do not depend on how
its vertices are numbered, which changes the pivot order, and the group's
order is the Bareiss determinant of the reduced Laplacian.  The Smith
diagonal does not change under drawn unimodular transforms, which move
the +-1 pivots, and the dense transform path agrees with it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from critgraph.critgroup import group_of_graph  # noqa: E402
from critgraph.exactla import (  # noqa: E402
    IntegerMatrix,
    SparseMatrix,
    _eliminate_units,
    det,
    det_bareiss,
    snf,
)
from critgraph.graph import Multigraph, laplacian, sparse_laplacian  # noqa: E402
from critgraph.treecount import tree_count_matrix  # noqa: E402
from test_exactla import _reference_prepass  # noqa: E402

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.integers(-6, 6),
    st.integers(-(10**30), 10**30),
)


@st.composite
def _sparse_and_dense(draw):
    """A dense matrix and the same matrix as dict rows whose entries come
    in a drawn order, with some explicit zeros kept."""
    nr = draw(st.integers(1, 10))
    nc = draw(st.integers(1, 10))
    dense = [[draw(_entries) for _ in range(nc)] for _ in range(nr)]
    rows = []
    for row in dense:
        order = draw(st.permutations(range(nc)))
        keep_zero = draw(st.lists(st.booleans(), min_size=nc, max_size=nc))
        rows.append({j: row[j] for j in order if row[j] or keep_zero[j]})
    return IntegerMatrix(dense), rows


@st.composite
def _multigraph(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 4))) if pairs else {}
    return Multigraph(n, edges)


@_SETTINGS
@given(_sparse_and_dense())
def test_prepass_on_dict_rows_matches_dense_entry(case):
    a, rows = case
    before = [dict(r) for r in rows]
    s = SparseMatrix(rows, a.col_count)
    result = _eliminate_units(s)
    assert rows == before  # the input rows are only read
    assert result == _eliminate_units(SparseMatrix.from_dense(a))
    units, sign, core, peak = result
    assert peak >= max(abs(x) for r in a.to_lists() for x in r).bit_length()
    assert units + len(core) == a.row_count
    assert snf(s) == snf(a)
    if a.is_square:
        assert det(s) == det(a) == det_bareiss(a)
        assert det(a) == sign * (det_bareiss(IntegerMatrix(core)) if core else 1)
    assert rows == before


@_SETTINGS
@given(_multigraph())
def test_sparse_laplacian_prepass_matches_dense_laplacian(g):
    for reduced in (False, True) if g.vertex_count > 1 else (False,):
        s = sparse_laplacian(g, reduced=reduced)
        before = [dict(r) for r in s.rows]
        dense = laplacian(g) if not reduced else laplacian(g).delete_row_col(0, 0)
        assert _eliminate_units(s) == _eliminate_units(SparseMatrix.from_dense(dense))
        assert s.rows == before
        assert snf(s) == snf(dense)
        assert det(s) == det_bareiss(dense)


@_SETTINGS
@given(_sparse_and_dense())
def test_prepass_matches_brute_force_reference(case):
    a, rows = case
    s = SparseMatrix(rows, a.col_count)
    assert _eliminate_units(s) == _reference_prepass(s)


@st.composite
def _relabelled_multigraph(draw):
    """A connected multigraph of 2-14 vertices (a drawn spanning tree, then
    drawn extra edges) and the same graph with its vertices permuted."""
    n = draw(st.integers(2, 14))
    edges = {(draw(st.integers(0, v - 1)), v): draw(st.integers(1, 3)) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 3), max_size=2 * n))
    for key, mult in extra.items():
        edges[key] = edges.get(key, 0) + mult
    perm = draw(st.permutations(range(n)))
    relabelled = {(perm[u], perm[v]): mult for (u, v), mult in edges.items()}
    return Multigraph(n, edges), Multigraph(n, relabelled)


@_SETTINGS
@given(_relabelled_multigraph())
def test_group_and_tree_count_ignore_vertex_labels(case):
    g, h = case
    group = group_of_graph(g)
    assert group_of_graph(h) == group
    assert tree_count_matrix(h) == tree_count_matrix(g) == group.order
    assert group.order == det_bareiss(laplacian(g).delete_row_col(0, 0))


@st.composite
def _unimodular(draw, n):
    """An n x n product of drawn row swaps, negations and row additions."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        kind, i, j = draw(st.integers(0, 2)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == 0:
            m[i], m[j] = m[j], m[i]
        elif kind == 1:
            m[i] = [-x for x in m[i]]
        elif i != j:
            k = draw(st.integers(-2, 2))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return IntegerMatrix(m)


@st.composite
def _unit_heavy_and_transforms(draw):
    """A unit-heavy matrix of up to 10 x 10 with small entries, and a
    unimodular P and Q to multiply it by on either side."""
    nr = draw(st.integers(1, 10))
    nc = draw(st.integers(1, 10))
    entry = st.one_of(st.sampled_from([0, 0, 1, -1, 1, -1]), st.integers(-4, 4))
    a = IntegerMatrix([[draw(entry) for _ in range(nc)] for _ in range(nr)])
    return draw(_unimodular(nr)), a, draw(_unimodular(nc))


@_SETTINGS
@given(_unit_heavy_and_transforms())
def test_snf_is_invariant_under_unimodular_transforms(case):
    p, a, q = case
    assert snf(p @ a @ q).diagonal == snf(a).diagonal == snf(a, want_transforms=True).diagonal
