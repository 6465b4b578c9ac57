import heapq
import itertools
import random

import pytest

from critgraph.critgroup import relations_matrix
from critgraph.exactla import (
    IntegerMatrix,
    SparseMatrix,
    _eliminate_units,
    _ext_gcd,
    _read_int,
    canonical_chain,
    det,
    det_bareiss,
    determinantal_divisor,
    invariant_factors_from_divisors,
    is_unimodular,
    parse_matrix,
    snf,
)
from critgraph.graph import c4xcn, cycle, laplacian, sparse_laplacian


def _det_cofactor(m: IntegerMatrix) -> int:
    """Independent determinant oracle: recursive cofactor expansion."""
    n = m.row_count
    if n == 1:
        return m[0, 0]
    total = 0
    rest_rows = list(range(1, n))
    sign = 1
    for j in range(n):
        if m[0, j]:
            cols = [c for c in range(n) if c != j]
            total += sign * m[0, j] * _det_cofactor(m.submatrix(rest_rows, cols))
        sign = -sign
    return total


def _rect_diag(diagonal, rows, cols) -> IntegerMatrix:
    out = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diagonal):
        out[i][i] = d
    return IntegerMatrix(out)


def test_matrix_construction_and_validation():
    m = IntegerMatrix([[1, 2], [3, 4]])
    assert m.row_count == 2 and m.col_count == 2
    assert m[1, 0] == 3
    with pytest.raises(ValueError):
        IntegerMatrix([])
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])


@pytest.mark.parametrize("rows", [[[2.5, 1], [1, 3.7]], [[2.0]]])
def test_matrix_rejects_non_integer_entries(rows):
    # a float would otherwise be truncated: snf([[2.5, 1], [1, 3.7]]) read (1, 5)
    with pytest.raises(TypeError):
        IntegerMatrix(rows)


def test_matrix_algebra():
    a = IntegerMatrix([[1, 2], [3, 4]])
    b = IntegerMatrix([[0, 1], [1, 0]])
    assert a @ b == IntegerMatrix([[2, 1], [4, 3]])
    assert b ** 2 == IntegerMatrix.identity(2)
    assert a.delete_row_col(0, 1) == IntegerMatrix([[3]])
    with pytest.raises(ValueError):
        a @ IntegerMatrix([[1, 2, 3]])


def test_matrix_is_a_value():
    a, b = IntegerMatrix([[1, 2], [3, 4]]), IntegerMatrix([[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # a list of rows is not a matrix: __eq__ defers, and list equality is False
    assert (IntegerMatrix([[1]]) == [[1]]) is False
    assert repr(a) == "IntegerMatrix([[1, 2], [3, 4]])"


def test_matrix_power_matches_repeated_product():
    rng = random.Random(7)
    a = IntegerMatrix([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
    expected = IntegerMatrix.identity(4)
    for e in range(13):
        assert a ** e == expected, e
        expected = expected @ a
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2]]) ** 2


def test_det_bareiss_examples():
    assert det_bareiss(IntegerMatrix([[2, -1], [-1, 2]])) == 3
    for n in (1, 3, 6):
        assert det_bareiss(IntegerMatrix.identity(n)) == 1
    reduced = laplacian(c4xcn(3)).delete_row_col(0, 0)
    assert det_bareiss(reduced) == 367500
    with pytest.raises(ValueError):
        det_bareiss(IntegerMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_bareiss_against_cofactor_oracle():
    rng = random.Random(20240311)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert det_bareiss(m) == _det_cofactor(m)


def test_snf_examples():
    assert snf(IntegerMatrix([[4, 0], [0, 6]])).diagonal == (2, 12)
    assert snf(laplacian(cycle(3))).diagonal == (1, 3, 0)
    # 20-vertex prism: fifteen 1s, the four nontrivial factors, one zero
    diag = snf(laplacian(c4xcn(5))).diagonal
    assert diag == (1,) * 15 + (19, 19, 779, 15580, 0)


def test_snf_rectangular_and_zero():
    assert snf(IntegerMatrix([[0, 2], [3, 0]])).diagonal == (1, 6)
    assert snf(IntegerMatrix([[2, 4, 6]])).diagonal == (2,)
    assert snf(IntegerMatrix([[0, 0], [0, 0], [0, 0]])).diagonal == (0, 0)


def test_snf_nonzero_diagonal_drops_the_zeros():
    assert snf(laplacian(cycle(3))).nonzero_diagonal() == (1, 3)
    assert snf(IntegerMatrix([[0, 0], [0, 0]])).nonzero_diagonal() == ()


def test_determinantal_divisor_examples():
    lap3 = laplacian(cycle(3))
    assert determinantal_divisor(lap3, 2) == 3
    # every 2x2 minor of the triangle Laplacian has |det| = 3
    for rows in itertools.combinations(range(3), 2):
        for cols in itertools.combinations(range(3), 2):
            assert abs(det_bareiss(lap3.submatrix(rows, cols))) == 3
    assert determinantal_divisor(IntegerMatrix.identity(4), 3) == 1
    assert determinantal_divisor(IntegerMatrix([[0, 0, 0]] * 3), 1) == 0
    with pytest.raises(ValueError):
        determinantal_divisor(lap3, 4)
    with pytest.raises(ValueError):
        determinantal_divisor(IntegerMatrix.identity(9), 2)


def test_invariant_factors_from_divisors_examples():
    assert invariant_factors_from_divisors(IntegerMatrix([[2, 0], [0, 6]])) == (2, 6)
    assert invariant_factors_from_divisors(laplacian(cycle(4))) == (1, 1, 4, 0)
    assert invariant_factors_from_divisors(IntegerMatrix([[0, 2], [3, 0]])) == (1, 6)


def test_is_unimodular():
    assert is_unimodular(IntegerMatrix.identity(5))
    assert not is_unimodular(IntegerMatrix([[2, 0], [0, 1]]))
    assert is_unimodular(IntegerMatrix([[2, 1], [1, 1]]))
    with pytest.raises(ValueError):
        is_unimodular(IntegerMatrix([[1, 2]]))


def test_canonical_chain():
    assert canonical_chain([4, 6]) == (2, 12)
    assert canonical_chain([2, 3]) == (1, 6)
    assert canonical_chain([19, 779, 19, 15580]) == (19, 19, 779, 15580)
    assert canonical_chain([1]) == (1,)
    with pytest.raises(ValueError):
        canonical_chain([0, 2])


def test_canonical_chain_preserves_product_and_orders():
    rng = random.Random(7)
    for _ in range(200):
        xs = [rng.randint(1, 60) for _ in range(rng.randint(1, 6))]
        chain = canonical_chain(xs)
        prod = 1
        for x in xs:
            prod *= x
        prod_chain = 1
        for x in chain:
            prod_chain *= x
        assert prod == prod_chain
        assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))


def _random_matrix(rng, max_dim=6, span=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntegerMatrix(
        [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
    )


def test_snf_diag_product_is_rank_divisor():
    rng = random.Random(102)
    for _ in range(150):
        a = _random_matrix(rng)
        nz = [d for d in snf(a).diagonal if d]
        if not nz:
            continue
        prod = 1
        for d in nz:
            prod *= d
        assert prod == determinantal_divisor(a, len(nz))


def _unit_heavy_matrix(rng, rows, cols):
    """Entries mostly 0 and +-1, with some zero rows and columns and, in
    some draws, rows that are sums of others (rank deficiency)."""
    m = [
        [rng.choice((0, 0, 0, 1, -1, 1, -1, rng.randint(-9, 9))) for _ in range(cols)]
        for _ in range(rows)
    ]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    if rows > 2 and rng.random() < 0.4:
        i, j, k = rng.sample(range(rows), 3)
        m[i] = [x + y for x, y in zip(m[j], m[k])]
    return IntegerMatrix(m)


def test_snf_prepass_matches_dense_engine():
    rng = random.Random(2001)
    for trial in range(400):
        a = _unit_heavy_matrix(rng, rng.randint(1, 16), rng.randint(1, 16))
        assert snf(a).diagonal == snf(a, want_transforms=True).diagonal, a


def test_snf_transforms_reconstruct_rectangular_past_6x6():
    # the pivot row is cleared on the transpose of the bordered matrix,
    # which swaps the roles of the two borders; they differ only when the
    # matrix is not square
    rng = random.Random(2006)
    shapes = [(1, 12), (12, 1), (2, 11), (11, 2)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)]
    for rows, cols in shapes:
        spread = IntegerMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        for a in (spread, _unit_heavy_matrix(rng, rows, cols)):
            res = snf(a, want_transforms=True)
            assert res.left_transform @ a @ res.right_transform == _rect_diag(res.diagonal, rows, cols), a
            assert det_bareiss(res.left_transform) in (1, -1)
            assert det_bareiss(res.right_transform) in (1, -1)
            assert res.diagonal == snf(a).diagonal, a
            if min(rows, cols) <= 8:
                assert res.diagonal == invariant_factors_from_divisors(a), a


def test_snf_prepass_matches_divisor_oracle():
    rng = random.Random(2002)
    for trial in range(300):
        a = _unit_heavy_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert snf(a).diagonal == invariant_factors_from_divisors(a), a
    for trial in range(10):
        a = _unit_heavy_matrix(rng, 8, 8)
        assert snf(a).diagonal == invariant_factors_from_divisors(a), a


def test_det_matches_bareiss():
    rng = random.Random(2003)
    singular = 0
    for trial in range(400):
        n = rng.randint(1, 12)
        a = _unit_heavy_matrix(rng, n, n)
        d = det(a)
        assert d == det_bareiss(a), a
        singular += d == 0
    for trial in range(100):
        # unimodular: upper unit-triangular, rows and columns shuffled
        n = rng.randint(1, 10)
        m = [[0] * i + [rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(n - i - 1)]
             for i in range(n)]
        rng.shuffle(m)
        cols = rng.sample(range(n), n)
        a = IntegerMatrix([[row[j] for j in cols] for row in m])
        assert _eliminate_units(SparseMatrix.from_dense(a))[2] == []  # no core left
        assert det(a) == det_bareiss(a) in (1, -1), a
    assert singular > 20
    for x in (-3, -1, 0, 1, 7):
        assert det(IntegerMatrix([[x]])) == x
    with pytest.raises(ValueError):
        det(IntegerMatrix([[1, 2]]))


def test_sparse_matrix_round_trip_and_entry_points():
    rng = random.Random(2004)
    for trial in range(200):
        a = _unit_heavy_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
        s = SparseMatrix.from_dense(a)
        assert (s.row_count, s.col_count, s.is_square) == (a.row_count, a.col_count, a.is_square)
        assert all(s.rows[i] == {j: x for j, x in enumerate(row) if x}
                   for i, row in enumerate(a.to_lists()))
        assert s.to_dense() == a
        assert snf(s) == snf(a), a
        assert snf(s, want_transforms=True) == snf(a, want_transforms=True), a
        if a.is_square:
            assert det(s) == det(a) == det_bareiss(a), a
    for rows, cols in (([], 1), ([{}], 0)):
        with pytest.raises(ValueError):
            SparseMatrix(rows, cols)
    with pytest.raises(ValueError):
        det(SparseMatrix([{0: 1, 1: 2}], 2))


def test_sparse_matrix_rejects_what_integer_matrix_rejects():
    # a key outside the columns, or an entry that is not an integer, raises
    # at construction: unchecked, key -1 indexes the last column, and the
    # SNF of [{-1: 2}, {0: 3}] read (3, 0) and det 0, where the dense
    # [[0, 2], [3, 0]] gives (1, 6) and -6
    for key in (-1, 5, 10**5000):
        rows = [{key: 2}, {0: 3}]
        with pytest.raises(ValueError, match=r"^row 0 has column .*, outside 0\.\.1$") as raised:
            SparseMatrix(rows, 2)
        assert len(str(raised.value)) < 120
    for rows in ([{0: 2.0}, {1: 3}], [{0.0: 2}, {1: 3}], [{0: 1}, {1: "3"}]):
        with pytest.raises(TypeError):
            SparseMatrix(rows, 2)
    rows = [{0: 1, 1: -1}, {1: 2}]
    assert SparseMatrix(rows, 2).rows is rows  # shared, not copied


def test_unit_elimination_reads_without_writing():
    # explicit zeros are dropped, and the input dicts stay as they were
    rows = [{0: 2, 1: -1, 2: 0}, {0: -1, 1: 2, 2: -1}, {1: -1, 2: 1}]
    before = [dict(r) for r in rows]
    units, sign, core, peak = _eliminate_units(SparseMatrix(rows, 3))
    assert rows == before
    dense = IntegerMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert (units, sign, core, peak) == _eliminate_units(SparseMatrix.from_dense(dense))
    assert units == 3 and core == [] and sign == det_bareiss(dense) == 1


def _reference_prepass(a: SparseMatrix, touched=None):
    """Brute-force +-1 pre-pass, the oracle of ``_eliminate_units``: every
    step rescans every row for the least (row length, row) among the rows
    holding a +-1 entry, then that row's +-1 entry of least (column count,
    column), with dict rows and no heap.  Returns the same
    ``(units, sign, core, peak)``; a ``touched`` list gets one entry per
    row an update leaves nonempty."""
    rows = {i: {j: x for j, x in r.items() if x} for i, r in enumerate(a.rows)}
    rows = {i: r for i, r in rows.items() if r}
    peak = max((abs(x).bit_length() for r in rows.values() for x in r.values()), default=0)
    row_order, col_order, sign = [], [], 1
    while True:
        candidates = [(len(r), i) for i, r in rows.items() if any(abs(x) == 1 for x in r.values())]
        if not candidates:
            break
        _, i = min(candidates)
        counts = {}
        for r in rows.values():
            for j in r:
                counts[j] = counts.get(j, 0) + 1
        _, j = min((counts[j], j) for j, x in rows[i].items() if abs(x) == 1)
        pivot_row = rows.pop(i)
        pivot = pivot_row.pop(j)
        sign *= pivot
        for t in [t for t, r in rows.items() if j in r]:
            r = rows[t]
            factor = r.pop(j) * pivot
            for k, y in pivot_row.items():
                x = r.get(k, 0) - factor * y
                if x:
                    r[k] = x
                    peak = max(peak, abs(x).bit_length())
                else:
                    r.pop(k, None)
            if not r:
                del rows[t]
            elif touched is not None:
                touched.append(t)
        row_order.append(i)
        col_order.append(j)
    rest_rows = [i for i in range(a.row_count) if i not in row_order]
    rest_cols = [j for j in range(a.col_count) if j not in col_order]
    for order in (row_order + rest_rows, col_order + rest_cols):
        inversions = sum(x > y for x, y in itertools.combinations(order, 2))
        sign *= (-1) ** inversions
    core = [[rows.get(i, {}).get(j, 0) for j in rest_cols] for i in rest_rows]
    return len(row_order), sign, core, peak


def _cancelling_matrix(rng, rows, cols):
    """Unit-heavy entries in {-2..2}, so that updates often cancel an
    entry to 0 and write new +-1 entries."""
    return IntegerMatrix(
        [[rng.choice((0, 0, 1, -1, 1, -1, 2, -2)) for _ in range(cols)] for _ in range(rows)]
    )


def test_prepass_pivots_match_brute_force_reference(random_multigraph):
    cases = []
    for n in range(3, 31):
        g = c4xcn(n)
        cases += [sparse_laplacian(g), sparse_laplacian(g, reduced=True)]
    rng = random.Random(2005)
    for trial in range(40):
        vertices = rng.randint(2, 40)
        g = random_multigraph(rng, vertices, rng.randint(0, 2 * vertices), 1 + trial % 3)
        cases += [sparse_laplacian(g), sparse_laplacian(g, reduced=True)]
    for trial in range(300):
        shape = rng.randint(1, 14), rng.randint(1, 14)
        make = _cancelling_matrix if trial % 2 else _unit_heavy_matrix
        cases.append(SparseMatrix.from_dense(make(rng, *shape)))
    for a in cases:
        assert _eliminate_units(a) == _reference_prepass(a), a.to_dense()


def test_prepass_queue_pushes_only_what_can_fall(monkeypatch):
    # a row's length changes only when an update touches it, so each
    # touched row is pushed once and no other item is ever pushed
    pushes = 0
    heappush = heapq.heappush

    def counting_push(queue, item):
        nonlocal pushes
        pushes += 1
        heappush(queue, item)

    a = sparse_laplacian(c4xcn(64))
    touched = []
    _reference_prepass(a, touched)
    monkeypatch.setattr(heapq, "heappush", counting_push)
    units, _, core, _ = _eliminate_units(a)
    assert (units, len(core)) == (248, 8)
    assert len(touched) == 1648
    assert 0 < pushes <= len(touched)


def test_prepass_pivots_on_the_shortest_row_not_the_least_markowitz_cost():
    # row 0 is the shortest row holding a unit, and its unit (0, 1) costs
    # (2-1)(4-1) = 3; the unit (3, 0) costs (3-1)(2-1) = 2.  Pivoting on
    # (3, 0) instead would leave the core [[4, 0, 9], [2, 0, 0], [2, 0, 0]]
    # with sign +1 and peak 4.
    a = SparseMatrix.from_dense(
        IntegerMatrix([[3, 1, 0, 0], [0, 2, 0, 0], [0, 2, 0, 0], [-1, 1, 0, 3]])
    )
    core = [[-6, 0, 0], [-6, 0, 0], [-4, 0, 3]]
    assert _eliminate_units(a) == _reference_prepass(a) == (1, -1, core, 3)


def test_unit_elimination_leaves_eight_generators():
    # C4 x Cn needs eight generators; the +-1 pre-pass should find them
    # rather than fall back to a large dense core
    for n in range(3, 61):
        units, _, core, _ = _eliminate_units(sparse_laplacian(c4xcn(n)))
        assert len(core) <= 8, (n, len(core))
        assert units == 4 * n - len(core)


def test_peak_bit_length_reported():
    res = snf(laplacian(c4xcn(6)))
    assert res.peak_bit_length >= 3  # at least the input entries
    # pinned: the traced benchmark's exactla.snf.peak_bits reads this counter
    for n, peak in ((5, 140), (12, 392), (40, 2469)):
        assert snf(relations_matrix(n)).peak_bit_length == peak, n
        assert snf(relations_matrix(n), want_transforms=True).peak_bit_length == peak, n
    for n, peak in ((6, 84), (20, 793), (64, 3475)):
        assert snf(laplacian(c4xcn(n))).peak_bit_length == peak, n
    assert snf(laplacian(c4xcn(6)), want_transforms=True).peak_bit_length == 141


def _bezout_pairs():
    """(a, b) with b nonzero: every a, b in +-1..150 with b % a != 0, and
    seeded pairs of up to 4000 bits with mixed signs, half of them with a
    common factor of up to 2000 bits."""
    small = [s * k for k in range(1, 151) for s in (1, -1)]
    pairs = [(a, b) for a in small for b in small if b % a]
    rng = random.Random(4000)

    def signed(bits):
        return rng.choice((1, -1)) * rng.randrange(1, 1 << rng.randint(1, bits))

    for _ in range(3000):
        common = abs(signed(2000)) if rng.random() < 0.5 else 1
        pairs.append((common * signed(2000), common * signed(2000)))
    return pairs


def test_ext_gcd_returns_the_least_bezout_pair():
    # the three checks pin the pair: g divides a and b and is a positive
    # combination of them, so it is their gcd; x is then fixed modulo
    # |b/g|, and its least |x| is unique apart from the tie at |b/g| = 2
    for a, b in _bezout_pairs():
        g, x, y = _ext_gcd(a, b)
        assert g > 0 and a % g == 0 and b % g == 0 and x * a + y * b == g, (a, b)
        m = abs(b // g)
        assert 2 * abs(x) <= m, (a, b)
        if 2 * abs(x) == m:
            assert (x > 0) == (b > 0), (a, b)


# pinned: a different Bezout pair in _clear_column changes these
# transforms even where the diagonal and the pinned peaks stay the same
PINNED_TRANSFORMS = [
    (
        IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]),
        [
            [1, 0, 0],
            [-32, 1, 7],
            [-1221, 38, 267],
        ],
        [
            [1, -44, 90],
            [0, -1, 2],
            [0, 23, -47],
        ],
    ),
    (
        relations_matrix(5),
        [
            [0, -151, -3, 0, -1812, 0, 0, 0],
            [0, 3521, 1384, 0, 20186, 0, 0, 0],
            [0, 582443891864, 681824552856, 582443891865, 2917978715959, 4, 0, 0],
            [-131053179049265801, -52935185978477519, -35889322968834524, -52935185978477564,
             356253491364131902, -167, 0, 0],
            [413321564693837826, 166938411070782867, 113176500990939326, 166938411070782990,
             -1123623920668732100, 451, 0, 0],
            [1890946158474308055172, 763743230648831617019, 517782492033547416786, 763743230648832179744,
             -5140579437059449360821, 2063325, -4, 0],
            [-7543118555662540329391, -3046626002041787324726, -2065471143084642700841, -3046626002041789569476,
             20506136552204360838295, -8230750, 5, 0],
            [-1, -1, -1, -1, 1, 1, 1, 1],
        ],
        [
            [0, 0, 0, 0, 25, -82, -410, 1],
            [0, 0, 0, 0, -18779203782245018, -76802728685541, -1228843658968105, 1],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, -6, -19, 18779203782255626, 76802728685402, 1228843658967885, 1],
            [0, 0, 0, 0, 0, -73, -366, 1],
            [0, 1, 5722984264427074654, 18122783504019192386,
             5676253171651236475, -286264889231887, -4580238227709541, 1],
            [1, 30635, 175323139260712368360594, 555189940992259590463207,
             176035833651224559608150, -5306650965341, -84906415448016, 1],
            [0, 0, -7776956154383, -24627027822213,
             69987405527771320, 286264716009641, 4580235456158269, 1],
        ],
    ),
]


@pytest.mark.parametrize("a, left, right", PINNED_TRANSFORMS, ids=["demo-03", "relations-5"])
def test_snf_transforms_are_pinned(a, left, right):
    res = snf(a, want_transforms=True)
    assert res.left_transform.to_lists() == left
    assert res.right_transform.to_lists() == right
    assert res.left_transform @ a @ res.right_transform == _rect_diag(res.diagonal, a.row_count, a.col_count)


def test_parse_matrix_examples():
    m = IntegerMatrix([[4, 0], [0, 6]])
    assert parse_matrix("2 2\n4 0\n0 6\n") == m
    assert parse_matrix("2 2\n4 0 0 6") == m


def test_matrix_text_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2 3")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2 3 x")
    with pytest.raises(ValueError):
        parse_matrix("0 2\n")
    with pytest.raises(ValueError, match="^bad matrix header: not an integer: 'x'$"):
        parse_matrix("x 2\n1 2\n")
    with pytest.raises(ValueError, match="^row 2, column 1: not an integer: 'y'$"):
        parse_matrix("2 2\n1 0\ny 1\n")


def test_read_int_names_where_and_clips_the_token():
    def never():
        raise AssertionError("position built for a token that converts")

    assert _read_int("-17", never) == -17
    assert _read_int(" 8 ") == 8
    with pytest.raises(ValueError, match="^line 4: not an integer: '1.5'$"):
        _read_int("1.5", "line 4")
    with pytest.raises(ValueError, match="^row 1: not an integer: 'x{77}\\.\\.\\.'$"):
        _read_int("x" * 5000, lambda: "row 1")
    with pytest.raises(ValueError, match="^not an integer: ''$"):
        _read_int("")
