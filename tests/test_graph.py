import random

import pytest

from critgraph.exactla import IntegerMatrix, det_bareiss
from critgraph.graph import (
    Multigraph,
    c4xcn,
    cartesian_product,
    cycle,
    laplacian,
    parse_edge_list,
    sparse_laplacian,
)


def test_cycle_basics():
    for n in (3, 4, 5):
        g = cycle(n)
        assert g.vertex_count == n
        assert sum(g.edge_multiplicities.values()) == n
        lap = laplacian(g)
        assert all(lap[v, v] == 2 for v in range(n))
        assert g.edge_multiplicities[(0, 1)] == 1
    with pytest.raises(ValueError):
        cycle(2)


def test_multigraph_validation():
    with pytest.raises(ValueError):
        Multigraph(0)
    with pytest.raises(ValueError):
        Multigraph(3, {(1, 1): 1})
    with pytest.raises(ValueError):
        Multigraph(3, {(0, 3): 1})
    with pytest.raises(ValueError):
        Multigraph(3, {(0, 1): 0})
    g = Multigraph(2, {(1, 0): 2})
    assert g.edge_multiplicities[(0, 1)] == 2


def test_multigraph_is_a_value():
    # the same pairs, given in another order and orientation
    a, b = Multigraph(3, {(0, 1): 2, (1, 2): 1}), Multigraph(3, {(2, 1): 1, (1, 0): 2})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Multigraph(3, {(0, 1): 1, (1, 2): 1})
    assert (Multigraph(1) == [[1]]) is False
    assert repr(a) == "Multigraph(vertex_count=3, edges=2 pairs)"


@pytest.mark.parametrize(
    "count, edges",
    [
        (3.0, {(0, 1): 1}),
        (3, {(0, 1): 1.5, (1, 2): 1}),
        (3, {(0.5, 1): 1, (1, 2): 1}),
    ],
)
def test_multigraph_rejects_non_integers(count, edges):
    # each fails here, not later as a truncated edge or a bad list index
    with pytest.raises(TypeError):
        Multigraph(count, edges)


def test_cartesian_product_with_single_vertex():
    k1 = Multigraph(1)
    g = cycle(5)
    assert cartesian_product(k1, g) == g
    assert cartesian_product(g, k1) == g


def test_cartesian_product_edge_count():
    g = cartesian_product(cycle(3), cycle(3))
    assert g.vertex_count == 9
    assert sum(g.edge_multiplicities.values()) == 18  # |V1||E2| + |V2||E1|
    lap = laplacian(g)
    assert all(lap[v, v] == 4 for v in range(9))


def test_cartesian_product_edge_count_formula():
    for g1, g2 in [(cycle(3), cycle(5)), (cycle(4), cycle(4))]:
        e1, e2, e = (sum(h.edge_multiplicities.values()) for h in (g1, g2, cartesian_product(g1, g2)))
        assert e == g1.vertex_count * e2 + g2.vertex_count * e1


def _product_by_definition(g1, g2):
    """Every pair of product vertices joined by the definition, summed."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    m1, m2 = g1.edge_multiplicities, g2.edge_multiplicities
    edges = {}
    for a in range(n1 * n2):
        for b in range(a + 1, n1 * n2):
            (u1, v1), (u2, v2) = divmod(a, n1)[::-1], divmod(b, n1)[::-1]
            # a < b, so v1 < v2 when u1 == u2, and u1 < u2 when v1 == v2: both keys are ordered
            mult = m2.get((v1, v2), 0) if u1 == u2 else m1.get((u1, u2), 0) if v1 == v2 else 0
            if mult:
                edges[(a, b)] = mult
    return Multigraph(n1 * n2, edges)


def test_cartesian_product_matches_its_definition(random_multigraph):
    rng = random.Random(7)
    for _ in range(40):
        g1 = random_multigraph(rng, rng.randint(1, 6), rng.randint(0, 6), 3)
        g2 = random_multigraph(rng, rng.randint(1, 6), rng.randint(0, 6), 3)
        assert cartesian_product(g1, g2) == _product_by_definition(g1, g2)


def test_prism_family_structure():
    g = c4xcn(3)
    assert g.vertex_count == 12
    assert sum(g.edge_multiplicities.values()) == 24
    lap = laplacian(g)
    assert all(lap[v, v] == 4 for v in range(12))
    g = c4xcn(4)
    assert g.vertex_count == 16
    assert sum(g.edge_multiplicities.values()) == 32
    with pytest.raises(ValueError):
        c4xcn(2)


def test_prism_equals_cartesian_product():
    for n in range(3, 51):
        assert c4xcn(n) == cartesian_product(cycle(4), cycle(n))
        # the layered encoding, written out: ring edges inside layer i and
        # rungs to layer i + 1
        edges = {}
        for i in range(n):
            for j in range(4):
                edges[(4 * i + j, 4 * i + (j + 1) % 4)] = 1
                edges[(4 * i + j, 4 * ((i + 1) % n) + j)] = 1
        assert c4xcn(n) == Multigraph(4 * n, edges)


def test_laplacian_examples():
    assert laplacian(cycle(3)) == IntegerMatrix(
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    )
    lap = laplacian(c4xcn(3))
    assert all(lap[i, i] == 4 for i in range(12))
    double = Multigraph(2, {(0, 1): 2})
    assert laplacian(double) == IntegerMatrix([[2, -2], [-2, 2]])


def test_laplacian_symmetric_zero_sums():
    for g in (cycle(7), c4xcn(5), Multigraph(3, {(0, 1): 3, (1, 2): 1})):
        lap = laplacian(g)
        n = g.vertex_count
        assert all(lap[i, j] == lap[j, i] for i in range(n) for j in range(n))
        assert all(sum(lap[i, j] for j in range(n)) == 0 for i in range(n))
        assert all(sum(lap[i, j] for i in range(n)) == 0 for j in range(n))


def test_prism_laplacian_has_corank_one():
    # nonzero reduced determinant == rank 4n-1 over the rationals
    for n in range(3, 21):
        reduced = laplacian(c4xcn(n)).delete_row_col(0, 0)
        assert det_bareiss(reduced) != 0


def test_reduced_laplacian_is_the_laplacian_minor(random_multigraph):
    rng = random.Random(41)
    graphs = [
        cycle(7),
        c4xcn(5),
        Multigraph(2, {(0, 1): 3}),
        Multigraph(3, {(1, 2): 2}),  # vertex 0 isolated
        Multigraph(4, {(0, 3): 2, (0, 1): 1, (2, 3): 1}),
    ]
    graphs += [random_multigraph(rng, v, v, 1 + v % 3) for v in range(2, 41, 3)]
    for g in graphs:
        assert sparse_laplacian(g, reduced=True).to_dense() == laplacian(g).delete_row_col(0, 0), g


def test_sparse_laplacian_matches_definition(random_multigraph):
    # entry (i, j) is minus the multiplicity, the diagonal the degree, and
    # a row holds its nonzero entries only
    rng = random.Random(43)
    graphs = [cycle(5), c4xcn(4), Multigraph(1), Multigraph(3, {(1, 2): 2})]
    graphs += [random_multigraph(rng, v, 2 * v, 1 + v % 3) for v in range(2, 30, 4)]
    for g in graphs:
        n = g.vertex_count
        edges = g.edge_multiplicities
        for first in ((0, 1) if n > 1 else (0,)):
            lap = sparse_laplacian(g, reduced=bool(first))
            assert lap.row_count == lap.col_count == n - first
            for i, row in enumerate(lap.rows):
                u = i + first
                expected = {v - first: -edges.get((min(u, v), max(u, v)), 0) for v in range(first, n)}
                expected[i] = sum(m for pair, m in edges.items() if u in pair)
                assert row == {j: x for j, x in expected.items() if x}, (g, u)
    with pytest.raises(ValueError):
        sparse_laplacian(Multigraph(1), reduced=True)


def test_parse_edge_list_basic():
    g = parse_edge_list("0 1\n1 2\n2 0\n")
    assert g == cycle(3)


def test_parse_edge_list_header_comments_multiplicity():
    text = """
    # a path with an extra isolated vertex and a double edge
    vertices 4
    0 1 2
    1 2   # trailing comment
    """
    g = parse_edge_list(text)
    assert g.vertex_count == 4
    assert g.edge_multiplicities[(0, 1)] == 2
    assert g.edge_multiplicities[(1, 2)] == 1
    assert laplacian(g)[3, 3] == 0


def test_parse_edge_list_accumulates_repeats():
    g = parse_edge_list("0 1\n1 0\n")
    assert g.edge_multiplicities[(0, 1)] == 2


def test_parse_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("0 0\n")
    with pytest.raises(ValueError):
        parse_edge_list("0 one\n")
    with pytest.raises(ValueError):
        parse_edge_list("vertices 2\n0 5\n")
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2 3\n")
    with pytest.raises(ValueError):
        parse_edge_list("-1 0\n")
    with pytest.raises(ValueError, match=r"^line 2: duplicate 'vertices' header"):
        parse_edge_list("vertices 3\nvertices 3\n0 1\n")


def test_parse_edge_list_names_the_line_of_a_self_loop():
    # one pass: the self-loop on line 2 is reported before the bad field on line 3
    with pytest.raises(ValueError, match=r"^line 2: self-loop at vertex 1 is not allowed$"):
        parse_edge_list("0 1\n1 1\n1 two\n")
    with pytest.raises(ValueError, match=r"^line 3: not an integer: 'two'$"):
        parse_edge_list("vertices 3\n0 1\n1 two\n")
    with pytest.raises(ValueError, match=r"^vertex id 5 is out of range for 'vertices 2'$"):
        parse_edge_list("vertices 2\n0 5\n")


@pytest.mark.parametrize(
    "header", ["vertices x", "vertices 2.5", "vertices 0", "vertices -3", "vertices 3 4"]
)
def test_parse_edge_list_bad_vertex_header_names_line(header):
    with pytest.raises(ValueError, match=r"^line 2: "):
        parse_edge_list(f"# comment\n{header}\n0 1\n")
