import itertools
import math
import random

import pytest

from critgraph.critgroup import (
    _FIXTURES,
    _L1,
    _L2,
    _L3,
    _L4,
    _R1,
    _R2,
    _R3,
    _R4,
    _U,
    _descale_even_stage,
    AbelianGroup,
    PipelineReport,
    closed_form_group,
    closed_form_raw_factors,
    coeffs,
    factorwise_subgroup,
    group_of_graph,
    group_via_relations,
    relations_matrix,
    subgroup_check,
    verify_reduction_pipeline,
)
from critgraph import critgroup, exactla, graph, treecount
from critgraph.cli import MAX_GRAPH_VERTICES
from critgraph.exactla import (
    IntegerMatrix,
    SparseMatrix,
    _clip,
    canonical_chain,
    det_bareiss,
    is_unimodular,
    snf,
)
from critgraph.graph import Multigraph, c4xcn, cycle, laplacian, sparse_laplacian
from critgraph.seq import SeqKind, _start, _walk, derived_seq, parity_split
from critgraph.treecount import tree_count_closed, tree_count_matrix
import golden.regen


# -- AbelianGroup ----------------------------------------------------------

def test_group_validation():
    g = AbelianGroup((2, 4, 8))
    assert g.order == 64
    assert AbelianGroup(()).order == 1
    with pytest.raises(ValueError):
        AbelianGroup((4, 2))
    with pytest.raises(ValueError):
        AbelianGroup((1, 2))
    assert str(AbelianGroup((2, 6))) == "Z2 x Z6"
    assert str(AbelianGroup(())) == "trivial"


def test_group_converts_its_factors():
    # a list is stored as the tuple, so the frozen group hashes
    listed = AbelianGroup([2, 4])
    assert listed == AbelianGroup((2, 4)) and listed.invariant_factors == (2, 4)
    assert hash(listed) == hash(AbelianGroup((2, 4)))
    with pytest.raises(TypeError):
        AbelianGroup((2.0, 4.0))


def test_group_validation_names_positions_not_values():
    # the values have more digits than str() converts, or than fit a message
    for big in (10**5000, 10**4000 + 1):
        with pytest.raises(ValueError) as info:
            AbelianGroup((3, big))
        assert str(info.value) == "invariant factor 1 does not divide invariant factor 2"
    with pytest.raises(ValueError) as info:
        AbelianGroup((2, 4, 1))
    assert str(info.value) == "invariant factors must be >= 2, but factor 3 is not"


# -- coefficients ----------------------------------------------------------

def test_coeffs_examples():
    assert coeffs(0) == (0, 0, 0)
    assert coeffs(1) == (1, 0, 0)
    assert coeffs(2) == (4, -1, 0)
    assert coeffs(4) == (80, -50, 24)
    with pytest.raises(ValueError):
        coeffs(-1)


# -- relations matrix ------------------------------------------------------

def test_relations_matrix_structure():
    m = relations_matrix(3)
    a, b, c = coeffs(4)
    # top-left block is the circulant of coeffs(4) minus the identity
    assert m[0, 0] == a - 1
    assert m[0, 1] == b and m[0, 3] == b
    assert m[0, 2] == c
    assert m[1, 2] == b and m[1, 3] == c
    with pytest.raises(ValueError):
        relations_matrix(2)


def test_relations_matrix_recorded_value():
    assert relations_matrix(5).to_lists() == [
        [2123, -1731, 1344, -1731, -403, 296, -194, 296],
        [-1731, 2123, -1731, 1344, 296, -403, 296, -194],
        [1344, -1731, 2123, -1731, -194, 296, -403, 296],
        [-1731, 1344, -1731, 2123, 296, -194, 296, -403],
        [403, -296, 194, -296, -81, 50, -24, 50],
        [-296, 403, -296, 194, 50, -81, 50, -24],
        [194, -296, 403, -296, -24, 50, -81, 50],
        [-296, 194, -296, 403, 50, -24, 50, -81],
    ]


def _circulant(abc):
    a, b, c = abc
    return [[a, b, c, b], [b, a, b, c], [c, b, a, b], [b, c, b, a]]


def test_relations_matrix_blocks_are_the_coeffs_circulants():
    for n in range(3, 301):
        top, mid, bot = (_circulant(coeffs(i)) for i in (n + 1, n, n - 1))
        expected = [
            [x - (r == j) for j, x in enumerate(top[r])] + [-x for x in mid[r]] for r in range(4)
        ]
        expected += [mid[r] + [-x - (r == j) for j, x in enumerate(bot[r])] for r in range(4)]
        assert relations_matrix(n).to_lists() == expected, n


def _refuse(*args):
    raise AssertionError("called")


def test_relations_matrix_reads_each_sequence_once(monkeypatch):
    expected = {n: relations_matrix(n) for n in (3, 4, 5, 40, 41)}
    real, calls = critgroup._u_pair, []

    def counted(m, p):
        calls.append((m, p))
        return real(m, p)

    monkeypatch.setattr(critgroup, "coeffs", _refuse)
    monkeypatch.setattr(critgroup, "u_seq", _refuse)
    monkeypatch.setattr(critgroup, "_u_pair", counted)
    for n, m in expected.items():
        calls.clear()
        assert relations_matrix(n) == m
        assert calls == [(2, n - 1), (4, n - 1)]


def test_relations_matrix_negated_line_sums_vanish():
    for n in (3, 4, 5, 9, 12):
        rows = relations_matrix(n).to_lists()
        for i in range(4, 8):
            rows[i] = [-x for x in rows[i]]
        assert all(sum(row) == 0 for row in rows)
        assert all(sum(rows[i][j] for i in range(8)) == 0 for j in range(8))


# -- the three group routes ------------------------------------------------

def test_group_via_relations_examples():
    assert group_via_relations(5).invariant_factors == (19, 19, 779, 15580)
    assert group_via_relations(4).invariant_factors == (2, 2, 8, 24, 24, 24, 96)
    assert group_via_relations(3).invariant_factors == (5, 5, 35, 420)


def test_group_of_graph_examples():
    assert group_of_graph(cycle(3)).invariant_factors == (3,)
    assert group_of_graph(cycle(3)).order == 3
    assert group_of_graph(c4xcn(6)).invariant_factors == (5, 15, 15, 60, 1260, 5040)
    k2 = Multigraph(2, {(0, 1): 1})
    assert group_of_graph(k2) == AbelianGroup(())


def test_group_of_graph_known_families():
    # K(K_n) = Z_n^(n-2) and K(C_n) = Z_n (Lorenzini 1991; Biggs 1999);
    # every tree has exactly one spanning tree, so its group is trivial
    for n in range(3, 9):
        complete = Multigraph(n, {(i, j): 1 for i in range(n) for j in range(i + 1, n)})
        assert group_of_graph(complete).invariant_factors == (n,) * (n - 2), n
    for n in range(3, 13):
        assert group_of_graph(cycle(n)).invariant_factors == (n,), n
    for n in range(1, 10):
        path = Multigraph(n, {(i, i + 1): 1 for i in range(n - 1)})
        star = Multigraph(n, {(0, i): 1 for i in range(1, n)})
        assert group_of_graph(path) == AbelianGroup(()), n
        assert group_of_graph(star) == AbelianGroup(()), n


def test_group_of_graph_on_random_multigraphs(random_multigraph):
    # the group does not depend on the vertex numbering, and its order is
    # the spanning-tree count, also by dense Bareiss alone
    rng = random.Random(4141)
    for trial in range(12):
        vertices = rng.randint(20, 60)
        g = random_multigraph(rng, vertices, rng.randint(vertices // 2, 2 * vertices), 1 + trial % 3)
        relabel = rng.sample(range(vertices), vertices)
        h = Multigraph(vertices, {(relabel[u], relabel[v]): m
                                  for (u, v), m in g.edge_multiplicities.items()})
        group = group_of_graph(g)
        assert group_of_graph(h) == group, trial
        reduced = laplacian(g).delete_row_col(0, 0)
        assert group.order == tree_count_matrix(g) == det_bareiss(reduced), trial


def _sympy_group(g: Multigraph) -> tuple[int, ...]:
    """Invariant factors > 1 of the Laplacian cokernel by sympy's SNF,
    after checking that its diagonal is a chain with one zero."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    n = g.vertex_count
    d = smith_normal_form(sympy.Matrix(laplacian(g).to_lists()), domain=sympy.ZZ)
    diag = [abs(int(d[i, i])) for i in range(n)]
    assert diag.count(0) == 1 and diag[-1] == 0, diag
    assert all(b % a == 0 for a, b in zip(diag, diag[1:-1])), diag
    return tuple(x for x in diag if x > 1)


def test_group_of_graph_matches_sympy_past_the_minor_cap(random_multigraph):
    # 9-48 vertices: too large for the minor-enumeration oracle
    rng = random.Random(4242)
    for trial in range(16):
        vertices = rng.randint(9, 48)
        g = random_multigraph(rng, vertices, rng.randint(1, 2 * vertices), 1 + trial % 3)
        assert group_of_graph(g).invariant_factors == _sympy_group(g), trial


def test_c4xcn_group_matches_sympy():
    for n in range(3, 13):
        assert group_of_graph(c4xcn(n)).invariant_factors == _sympy_group(c4xcn(n)), n


def test_graph_routes_never_build_a_dense_laplacian(monkeypatch, random_multigraph):
    # the group and Matrix-Tree routes read the sparse Laplacian only: no
    # dense builder runs, and no dense matrix of |V| - 1 rows or more exists
    rng = random.Random(4343)
    g = random_multigraph(rng, 40, 50, 2)
    cases = [
        (c4xcn(20), closed_form_group(20), tree_count_closed(20)),
        (g, group_of_graph(g), det_bareiss(laplacian(g).delete_row_col(0, 0))),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("dense Laplacian built")

    for module in (graph, critgroup, treecount):
        if hasattr(module, "laplacian"):
            monkeypatch.setattr(module, "laplacian", refuse)
    monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
    limit = [0]
    real_init = IntegerMatrix.__init__

    def bounded_init(self, rows):
        real_init(self, rows)
        if self.row_count >= limit[0]:
            raise AssertionError(f"dense {self.row_count}-row matrix built")

    monkeypatch.setattr(IntegerMatrix, "__init__", bounded_init)
    for h, group, count in cases:
        limit[0] = h.vertex_count - 1
        assert group_of_graph(h) == group
        assert tree_count_matrix(h) == count == group.order


def test_group_of_graph_rejects_disconnected():
    two_edges = Multigraph(4, {(0, 1): 1, (2, 3): 1})
    with pytest.raises(ValueError):
        group_of_graph(two_edges)
    isolated = Multigraph(2)
    with pytest.raises(ValueError):
        group_of_graph(isolated)


def test_closed_form_examples():
    assert closed_form_group(5).invariant_factors == (19, 19, 779, 15580)
    assert closed_form_group(6).invariant_factors == (5, 15, 15, 60, 1260, 5040)
    assert closed_form_group(4).invariant_factors == (2, 2, 8, 24, 24, 24, 96)
    with pytest.raises(ValueError):
        closed_form_group(2)


def test_raw_factors_multiply_to_group_order():
    for n in range(3, 60):
        raw = closed_form_raw_factors(n)
        assert len(raw) == 7
        prod = 1
        for f in raw:
            prod *= f
        assert prod == closed_form_group(n).order


def test_raw_factors_equal_the_three_term_gcd_expression():
    # the oracle takes gcd(kx, ky, xy) of three products, as the paper writes it
    gcd = math.gcd
    for n in range(3, 3001):
        s, x, y = parity_split(n)
        if n % 2:
            k, (c3, c4, c5, c6, c7) = n, (1, 1, 1, 1, 4)
        else:
            k, (c3, c4, c5, c6, c7) = s, (1, 1, 4, 12, 48) if s % 2 else (4, 6, 6, 2, 8)
        kx, xy, kxy = gcd(k, x), gcd(x, y), gcd(k, x, y)
        triple = gcd(k * x, k * y, x * y)
        oracle = (
            kxy,
            xy,
            c3 * kx * xy // kxy,
            c4 * x,
            c5 * x * triple // (kx * xy),
            c6 * x * y // xy,
            c7 * k * x * y // triple,
        )
        assert closed_form_raw_factors(n) == oracle, n


def test_raw_factors_form_a_divisibility_chain():
    for n in [*range(3, 3001), 4096, 5184, 10368, 20000]:
        raw = closed_form_raw_factors(n)
        assert all(b % a == 0 for a, b in zip(raw, raw[1:])), n


def test_closed_form_group_takes_the_chain_as_it_is(monkeypatch):
    expected = {
        n: tuple(f for f in canonical_chain(closed_form_raw_factors(n)) if f > 1)
        for n in range(3, 100)
    }
    monkeypatch.setattr(exactla, "canonical_chain", _refuse)
    for n, factors in expected.items():
        assert closed_form_group(n).invariant_factors == factors, n


# -- subgroup criterion ----------------------------------------------------

def test_subgroup_examples():
    assert subgroup_check(3, 6)
    assert not subgroup_check(3, 4)
    for n in (3, 4, 5, 10):
        assert subgroup_check(n, n)


def test_factorwise_subgroup_matches_the_padded_rule():
    rng = random.Random(4)

    def chain():
        factors = [rng.randint(2, 6)]
        for _ in range(rng.randrange(6)):
            factors.append(factors[-1] * rng.randint(1, 4))
        return factors[: rng.randrange(len(factors) + 1)]

    for _ in range(2000):
        f1, f2 = chain(), chain()
        width = max(len(f1), len(f2))
        p1, p2 = [1] * (width - len(f1)) + f1, [1] * (width - len(f2)) + f2
        padded = all(b % a == 0 for a, b in zip(p1, p2))
        assert factorwise_subgroup(AbelianGroup(tuple(f1)), AbelianGroup(tuple(f2))) == padded


def test_subgroup_on_divisor_pairs():
    for n1 in range(3, 16):
        for n2 in range(n1 + n1, 31, n1):
            assert subgroup_check(n1, n2), (n1, n2)
    # and only on them: all 79,003 pairs 3 <= n1 < n2 <= 400
    groups = {n: closed_form_group(n) for n in range(3, 401)}
    for n1, n2 in itertools.combinations(groups, 2):
        assert factorwise_subgroup(groups[n1], groups[n2]) == (n2 % n1 == 0), (n1, n2)


# -- layer lemma ------------------------------------------------------------
#
# The cokernel relation of layer i of C4 x Cn reads x_{i+1} = X x_i - x_{i-1},
# X the diagonal block of the Laplacian, -I its neighbour blocks.  From
# x_0 = [I | 0] and x_1 = [0 | I] on the eight generators, layer i is
# [-U_{i-1}(X) | U_i(X)], with U_0 = 0, U_1 = I, U_{k+1} = X U_k - U_{k-1}.
# On an eigenvector of X with eigenvalue P, U_i(X) is the scalar u_i of
# the Lucas recurrence with that P.  The rotation eigenvectors below are a
# basis, so a block that matches u_i on each of them is U_i(X).

_ROTATION_BASIS = ((1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1), (1, -1, 1, -1))


def _assert_circulant_with_eigenvalues(block, eigenvalues):
    sympy = pytest.importorskip("sympy")
    assert all(block[r][k] == block[0][(k - r) % 4] for r in range(4) for k in range(4)), block
    for v, lam in zip(_ROTATION_BASIS, eigenvalues):
        image = sympy.Matrix(block) * sympy.Matrix(v) - lam * sympy.Matrix(v)
        assert image.expand() == sympy.zeros(4, 1), (v, lam, block)


def test_layer_lemma_for_every_i(monkeypatch):
    sympy = pytest.importorskip("sympy")
    # 1. the layer blocks of the Laplacian: X = 4I - R - R^-1 on the diagonal,
    # -I for the two neighbour layers (n = 5 keeps them apart), 0 elsewhere
    lap = sparse_laplacian(c4xcn(5)).to_dense().to_lists()
    eye = sympy.eye(4)
    rotation = sympy.Matrix(4, 4, lambda r, k: int(k == (r + 1) % 4))
    x = 4 * eye - rotation - rotation.T
    for p, q in itertools.product(range(5), repeat=2):
        block = sympy.Matrix([row[4 * q:4 * q + 4] for row in lap[4 * p:4 * p + 4]])
        assert block == (x if p == q else -eye if (q - p) % 5 in (1, 4) else 0 * eye), (p, q)

    # 2. X has the eigenvalues 2, 4, 4, 6 on the rotation basis; at P = 2 the
    # recurrence from 0, 1 gives i, and e and f are its P = 4 and 6 from 0, 1
    assert sympy.Matrix(_ROTATION_BASIS).det() != 0
    _assert_circulant_with_eigenvalues(x.tolist(), (2, 4, 4, 6))
    i, e, f = sympy.symbols("i e f")
    assert sympy.expand(2 * i - (i - 1)) == i + 1
    assert [(m + 2, x0, x1) for m, x0, x1 in map(_start, "ef")] == [(4, 0, 1), (6, 0, 1)]

    # 3. the block for symbolic i, e_i, f_i, with the divisions rational
    with monkeypatch.context() as patch:
        patch.setattr(critgroup, "_exact_div", lambda num, den: num / den)
        block = critgroup._circulant_block(i, e, f)
    _assert_circulant_with_eigenvalues(block, (i, e, e, f))

    # 4. the divisions by 4 read (i, e_i, f_i) mod 4.  The state (i, e_i,
    # e_{i+1}, f_i, f_{i+1}) mod 4 fixes the next one and repeats at i = 4,
    # so i = 0..3 through the real _exact_div covers every i.  The real
    # blocks for i = 0..7 also meet steps 2-3.
    es, fs = (list(_walk(*_start(kind), 6, 4)) for kind in "ef")
    states = [(k % 4, es[k], es[k + 1], fs[k], fs[k + 1]) for k in range(5)]
    assert states[4] == states[0]
    for k in range(8):
        e_k, f_k = derived_seq(SeqKind.E, k), derived_seq(SeqKind.F, k)
        _assert_circulant_with_eigenvalues(critgroup._circulant_block(k, e_k, f_k), (k, e_k, e_k, f_k))


# -- staged reduction fixtures and pipeline --------------------------------

def test_all_fixtures_unimodular():
    assert len(_FIXTURES) == 9
    for name, mat in _FIXTURES.items():
        assert is_unimodular(mat), name


def test_stage_one_recorded_product():
    # transcription checksum for the first-stage multipliers
    m1 = relations_matrix(5).delete_row_col(0, 0)
    assert (_L1 @ m1 @ _R1).to_lists() == [
        [0, 0, 0, 5, 5, 0, 0],
        [0, 779, 209, 0, 0, 0, 0],
        [0, 209, 57, 0, 0, 0, 0],
        [4059, 3854, 699, -1731, -296, 0, 0],
        [697, 699, 131, -296, -50, 0, 0],
        [0, 0, 0, 392, 107, 779, 209],
        [0, 0, 0, 107, 31, 209, 57],
    ]


def test_odd_branch_recorded_product():
    # transcription checksum for U, L2, R2; upper-left 3x3 block is the
    # (h, g) = (19, 41) instance of the odd split
    m1 = relations_matrix(5).delete_row_col(0, 0)
    m2 = _L1 @ m1 @ _R1
    product = _L2 @ (_U ** 3) @ m2 @ _R2
    assert product.to_lists() == [
        [0, 38, 0, 0, 0, 0, 0],
        [19, 0, 38, 0, 0, 0, 0],
        [41, 19, 0, 0, 0, 0, 0],
        [0, 0, 0, 5, 0, 0, 0],
        [0, 0, 0, 0, 19, 0, 0],
        [0, 0, 0, 12, 0, 19, 0],
        [0, 0, 0, -9, 30, 0, 41],
    ]


def test_even_branch_recorded_products():
    # transcription checksums for L3, R3, L4, R4
    m1 = relations_matrix(4).delete_row_col(0, 0)
    m2 = _L1 @ m1 @ _R1
    stage = _L3 @ (_U ** 3) @ m2 @ _R3
    assert stage.to_lists() == [
        [4, 0, 0, 0, 0, 0, 0],
        [0, 8, 0, 0, 0, 0, 0],
        [12, 0, 24, 0, 0, 0, 0],
        [-10, 28, 0, 48, 0, 0, 0],
        [0, 0, 0, 0, 24, 0, 0],
        [2, 0, 0, 0, 0, 4, 0],
        [4, 6, 0, 0, 12, 6, 12],
    ]
    split = _L4 @ _descale_even_stage(stage) @ _R4
    assert split.to_lists() == [
        [2, 0, 0, 0, 0, 0, 0],
        [4, 6, 0, 0, 0, 0, 0],
        [0, 0, 4, 0, 0, 0, 0],
        [0, 0, 0, 12, 0, 0, 0],
        [0, 0, 0, 0, 6, 0, 0],
        [0, 0, 0, 0, 0, 4, 0],
        [0, 0, 0, 0, 0, 0, 12],
    ]


def test_descale_requires_exact_divisions():
    with pytest.raises(ArithmeticError):
        _descale_even_stage(IntegerMatrix.identity(7))


def test_pipeline_reports():
    odd = verify_reduction_pipeline(5)
    assert odd.all_passed
    assert isinstance(odd.stage_checks, tuple) and odd.failures() == []
    assert PipelineReport(n=3).stage_checks == ()
    names = [name for name, _, _ in odd.stage_checks]
    assert names == [
        "fixture-unimodularity",
        "rank-one-split",
        "seven-term-template",
        "odd-block-split",
        "final-snf-closed-form",
    ]
    even = verify_reduction_pipeline(4)
    assert even.all_passed
    names = [name for name, _, _ in even.stage_checks]
    assert names == [
        "fixture-unimodularity",
        "rank-one-split",
        "seven-term-template",
        "even-stage-template",
        "even-descale-exact",
        "even-block-split",
        "final-snf-closed-form",
    ]
    assert even.failures() == []
    with pytest.raises(ValueError):
        verify_reduction_pipeline(1)


def test_rank_one_split_matches_snf():
    # the SNF-level fact that the pipeline's line-sum certificate implies
    for n in range(3, 41):
        full = snf(relations_matrix(n)).diagonal
        inner = snf(relations_matrix(n).delete_row_col(0, 0)).diagonal
        assert full == inner + (0,)


def test_pipeline_runs_one_snf_and_checks_fixtures_once(monkeypatch):
    calls = {"snf": 0, "is_unimodular": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(critgroup, "snf", counted("snf", critgroup.snf))
    monkeypatch.setattr(critgroup, "is_unimodular", counted("is_unimodular", is_unimodular))
    critgroup._non_unimodular_fixtures.cache_clear()
    try:
        for n in (7, 8):
            before = calls["snf"]
            assert verify_reduction_pipeline(n).all_passed
            assert calls["snf"] - before == 1, n
    finally:
        critgroup._non_unimodular_fixtures.cache_clear()
    assert calls["is_unimodular"] <= 9


def test_u_power_takes_its_squares_from_a_tower_built_once():
    def bits(a):
        return max(abs(x).bit_length() for row in a.to_lists() for x in row)

    try:
        for k in range(1, 301):
            critgroup._u_square.cache_clear()
            power = critgroup._u_power(k)
            assert power == _U ** k, k
            # one square per bit of k, each built once and no larger than U^k
            info = critgroup._u_square.cache_info()
            assert (info.currsize, info.misses) == (k.bit_length(), k.bit_length()), k
            assert all(bits(critgroup._u_square(i)) <= bits(power) for i in range(k.bit_length())), k
        # verify --pipeline stops at n = MAX_GRAPH_VERTICES // 4, k = s + 1
        critgroup._u_square.cache_clear()
        top = parity_split(MAX_GRAPH_VERTICES // 4)[0] + 1
        critgroup._u_power(top)
        tower = [critgroup._u_square(i) for i in range(critgroup._u_square.cache_info().currsize)]
        assert len(tower) == top.bit_length()
        assert max(map(bits, tower)) < 170
    finally:
        critgroup._u_square.cache_clear()


def test_pipeline_records_a_wrong_stage_one_multiplier(monkeypatch):
    # the identity is unimodular, so the final SNF still matches
    monkeypatch.setattr(critgroup, "_R1", IntegerMatrix.identity(7))
    failed = [name for name, _, _ in verify_reduction_pipeline(5).failures()]
    assert failed == ["seven-term-template", "odd-block-split"]


_TEMPLATES = {
    "seven-term-template": "folded-sequence template",
    "odd-block-split": "3+4 block-diagonal template",
    "even-stage-template": "scaled triangular template",
    "even-block-split": "4+3 block-diagonal template",
}


@pytest.mark.parametrize("fixture, ns, failed", [
    ("_R2", (5, 7, 9), ["odd-block-split"]),
    ("_L2", (5, 7, 9), ["odd-block-split"]),
    ("_R4", (4, 6, 8), ["even-block-split"]),
    ("_L4", (4, 6, 8), ["even-block-split"]),
    ("_R3", (4, 6, 8), ["even-stage-template", "even-descale-exact"]),
])
def test_pipeline_localizes_a_wrong_multiplier_to_its_stage(monkeypatch, fixture, ns, failed):
    # the identity is unimodular, so every other stage still passes
    monkeypatch.setattr(critgroup, fixture, IntegerMatrix.identity(7))
    for n in ns:
        failures = verify_reduction_pipeline(n).failures()
        assert [name for name, _, _ in failures] == failed, n
        for name, _, detail in failures:
            if name == "even-descale-exact":
                assert detail == f"inexact division {n // 2} / 8"
            else:
                assert detail == f"product differs from the {_TEMPLATES[name]}"


def test_pipeline_names_the_template_of_each_passing_stage():
    for n in (5, 6):
        for name, passed, detail in verify_reduction_pipeline(n).stage_checks:
            assert passed
            if name in _TEMPLATES:
                assert detail == f"product equals the {_TEMPLATES[name]}"


def test_pipeline_records_an_inexact_descale(monkeypatch):
    def inexact(stage):
        raise ArithmeticError("inexact division 3 / 2")

    # an operand str() refuses is named by its bit length, and still recorded
    limit = golden.regen.digit_limit()
    big = 10 ** (limit + 1)

    def inexact_big(stage):
        return critgroup._exact_div(big + 1, 2)

    for descale, detail in ((inexact, "inexact division 3 / 2"),
                            (inexact_big, f"inexact division {_clip(big + 1)} / 2")):
        monkeypatch.setattr(critgroup, "_descale_even_stage", descale)
        report = verify_reduction_pipeline(6)
        assert ("even-descale-exact", False, detail) in report.stage_checks
        assert [name for name, _, _ in report.failures()] == ["even-descale-exact"]
        assert len(detail) <= 200


def test_pipeline_rank_one_split_names_the_first_nonzero_line_sum(monkeypatch):
    real = critgroup.relations_matrix

    def corner_off_by_one(n):
        rows = real(n).to_lists()
        rows[0][0] += 1
        return IntegerMatrix(rows)

    monkeypatch.setattr(critgroup, "relations_matrix", corner_off_by_one)
    report = verify_reduction_pipeline(5)
    assert report.failures() == [
        ("rank-one-split", False, "with rows 4-7 negated, row 0 sums to 1")
    ]


def test_pipeline_records_a_non_unimodular_fixture(monkeypatch):
    rows = IntegerMatrix.identity(7).to_lists()
    rows[0][0] = 2
    monkeypatch.setitem(critgroup._FIXTURES, "U", IntegerMatrix(rows))
    critgroup._non_unimodular_fixtures.cache_clear()
    try:
        report = verify_reduction_pipeline(5)
    finally:
        critgroup._non_unimodular_fixtures.cache_clear()
    assert report.failures() == [
        ("fixture-unimodularity", False, "non-unimodular fixtures: U")
    ]
