"""Acceptance suite: every criterion as one test, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import io
import json
import random
import time
from contextlib import contextmanager

from critgraph.cli import run
from critgraph.critgroup import (
    closed_form_group,
    group_of_graph,
    group_via_relations,
    subgroup_check,
    verify_reduction_pipeline,
)
from critgraph.exactla import (
    IntegerMatrix,
    det_bareiss,
    invariant_factors_from_divisors,
    snf,
)
from critgraph.graph import c4xcn
from critgraph.seq import (
    SeqKind,
    derived_seq,
    observed_valuation,
    predicted_valuation,
    u_prefix,
    v_partial_sum,
    v_prefix,
)
from critgraph.treecount import tree_count_closed, tree_count_matrix, trig_product_check

EXAMPLE_GROUPS = {
    4: (2, 2, 8, 24, 24, 24, 96),
    5: (19, 19, 779, 15580),
    6: (5, 15, 15, 60, 1260, 5040),
}


@contextmanager
def _criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    print(f"criterion {num:2d} PASS  {description}  [{time.perf_counter() - start:.1f}s]")


def _run_cli_json(args):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(args)
    return code, json.loads(buffer.getvalue())


def test_criterion_1_example_reproduction():
    with _criterion(1, "known-case reproduction by all three methods, < 1 s each"):
        for n, expected in EXAMPLE_GROUPS.items():
            for method in ("closed", "relations", "snf"):
                start = time.perf_counter()
                code, payload = _run_cli_json(["group", str(n), "--method", method, "--json"])
                elapsed = time.perf_counter() - start
                assert code == 0
                assert payload["invariant_factors"] == [str(f) for f in expected], (n, method)
                assert elapsed < 1.0, (n, method, elapsed)


def test_criterion_2_three_way_agreement():
    with _criterion(2, "closed = relations = full Laplacian SNF for 3 <= n <= 80"):
        start = time.perf_counter()
        for n in range(3, 81):
            a = closed_form_group(n)
            assert a == group_via_relations(n), n
            assert a == group_of_graph(c4xcn(n)), n
        assert time.perf_counter() - start < 300.0


def test_criterion_3_closed_vs_relations_extended():
    with _criterion(3, "closed = relations for 3 <= n <= 500"):
        start = time.perf_counter()
        for n in range(3, 501):
            assert closed_form_group(n) == group_via_relations(n), n
        assert time.perf_counter() - start < 120.0


def test_criterion_4_tree_count_triple_check():
    with _criterion(4, "tree counts: matrix-tree to n=60, group order to n=500"):
        for n in range(3, 61):
            assert tree_count_closed(n) == tree_count_matrix(c4xcn(n)), n
        for n in range(3, 501):
            assert tree_count_closed(n) == closed_form_group(n).order, n


def test_criterion_5_trig_identity():
    with _criterion(5, "eigenvalue-product identity at 1e-9 for 3 <= n <= 200"):
        start = time.perf_counter()
        for n in range(3, 201):
            report = trig_product_check(n, 1e-9)
            assert report.trig_passed, (n, report.trig_log_residual)
        assert time.perf_counter() - start < 10.0


def test_criterion_6_valuations():
    with _criterion(6, "2-/3-adic valuations of e_n, f_n for 2 <= n <= 1000"):
        start = time.perf_counter()
        checked = 0
        es = u_prefix(2, 1001)
        fs = u_prefix(4, 1001)
        for n in range(2, 1001):
            for kind, value in ((SeqKind.E, es[n]), (SeqKind.F, fs[n])):
                for prime in (2, 3):
                    predicted = predicted_valuation(kind, prime, n)
                    assert observed_valuation(value, prime) == predicted, (kind, prime, n)
                    checked += 1
        assert checked == 3996
        assert time.perf_counter() - start < 30.0


def test_criterion_7_subgroup_divisibility():
    with _criterion(7, "subgroup criterion on all divisor pairs up to 60"):
        pairs = 0
        for n1 in range(3, 61):
            for n2 in range(2 * n1, 61, n1):
                assert subgroup_check(n1, n2), (n1, n2)
                pairs += 1
        assert pairs > 0


def test_criterion_8_reduction_pipeline():
    with _criterion(8, "staged-reduction pipeline fidelity for 3 <= n <= 40"):
        for n in range(3, 41):
            report = verify_reduction_pipeline(n)
            assert report.all_passed, (n, report.failures())


def test_criterion_9_snf_engine_soundness():
    with _criterion(9, "SNF vs divisor oracle + transforms on 1000 random matrices"):
        rng = random.Random(0xC4C)
        for trial in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            a = IntegerMatrix(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            result = snf(a, want_transforms=True)
            assert result.diagonal == invariant_factors_from_divisors(a), a

            p, q = result.left_transform, result.right_transform
            assert det_bareiss(p) in (1, -1)
            assert det_bareiss(q) in (1, -1)
            expected = [[0] * cols for _ in range(rows)]
            for i, d in enumerate(result.diagonal):
                expected[i][i] = d
            assert p @ a @ q == IntegerMatrix(expected), a

            u = _random_unimodular(rng, rows)
            v = _random_unimodular(rng, cols)
            assert snf(u @ a @ v).diagonal == result.diagonal, a


def _random_unimodular(rng, n, ops=20):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        if n == 1:
            if kind == 1:
                m[0] = [-x for x in m[0]]
            continue
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            m[i], m[j] = m[j], m[i]
        elif kind == 1:
            m[i] = [-x for x in m[i]]
        else:
            k = rng.randint(-3, 3)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return IntegerMatrix(m)


def test_criterion_10_sequence_identities():
    with _criterion(10, "recurrence identities over the full parameter grids"):
        # congruences u_p = p, v_p = 2 (mod m) for p <= 2000
        for m in (2, 3, 4, 5):
            us = u_prefix(m, 2001)
            vs = v_prefix(m, 2001)
            for p in range(2001):
                assert us[p] % m == p % m, (m, p)
                assert vs[p] % m == 2 % m, (m, p)
        # doubling v_{2p} = m(m+4)u_p^2 + 2 for p <= 1000
        for m in (2, 4):
            us = u_prefix(m, 1001)
            vs = v_prefix(m, 2001)
            for p in range(1001):
                assert vs[2 * p] == m * (m + 4) * us[p] ** 2 + 2, (m, p)
        # partial-sum factorization and composition for p*q <= 512
        for m in range(1, 7):
            us = u_prefix(m, 513)
            vs = v_prefix(m, 513)
            for p in range(1, 513):
                for q in range(1, 512 // p + 1):
                    assert us[p * q] == v_partial_sum(m, p, q) * us[p], (m, p, q)
                    if q >= 2:
                        assert us[p * q] == vs[p * (q - 1)] * us[p] + us[p * (q - 2)], (m, p, q)
