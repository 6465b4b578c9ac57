import decimal
import math
import random

import pytest

from critgraph.graph import Multigraph, c4xcn, cycle
from critgraph.seq import SeqKind, observed_valuation, predicted_valuation
from critgraph.treecount import (
    tree_count_closed,
    tree_count_matrix,
    trig_product_check,
)


def test_closed_form_examples():
    assert tree_count_closed(3) == 367500  # 4*3 * 5^4 * 7^2
    assert tree_count_closed(4) == 42467328
    # product of the n=5 invariant factors
    assert tree_count_closed(5) == 19 * 19 * 779 * 15580 == 4381392020
    assert tree_count_closed(5) == 4 * 5 * 19**4 * 41**2
    with pytest.raises(ValueError):
        tree_count_closed(2)


def test_matrix_tree_examples():
    assert tree_count_matrix(cycle(4)) == 4
    assert tree_count_matrix(c4xcn(3)) == 367500
    assert tree_count_matrix(Multigraph(2)) == 0  # two disjoint vertices
    assert tree_count_matrix(Multigraph(1)) == 1
    assert tree_count_matrix(Multigraph(2, {(0, 1): 3})) == 3


def test_matrix_tree_zero_on_disconnected_random_multigraphs(random_multigraph):
    # two components with their vertex numbers interleaved: no spanning tree
    rng = random.Random(4242)
    for trial in range(12):
        vertices = rng.randint(20, 60)
        split = rng.randint(1, vertices - 1)
        a = random_multigraph(rng, split, split, 1 + trial % 3)
        b = random_multigraph(rng, vertices - split, vertices - split, 1 + trial % 3)
        relabel = rng.sample(range(vertices), vertices)
        edges = {(relabel[u], relabel[v]): m for (u, v), m in a.edge_multiplicities.items()}
        edges.update({(relabel[split + u], relabel[split + v]): m
                      for (u, v), m in b.edge_multiplicities.items()})
        assert tree_count_matrix(Multigraph(vertices, edges)) == 0, trial
    assert tree_count_matrix(Multigraph(1)) == 1


def test_count_divisible_by_4n():
    for n in range(3, 101):
        assert tree_count_closed(n) % (4 * n) == 0, n


def test_trig_product_small_cases():
    for n in (3, 4, 40):
        report = trig_product_check(n, 1e-9)
        assert report.trig_passed, (n, report.trig_log_residual)
        assert report.closed_form == tree_count_closed(n)
    with pytest.raises(ValueError):
        trig_product_check(5, 0.0)
    with pytest.raises(ValueError):
        trig_product_check(5, -1e-9)
    # 2**1024 is the least int that float() refuses
    for bad in (math.nan, math.inf, -math.inf, 2**1024, -(2**1024)):
        with pytest.raises(ValueError, match="positive and finite"):
            trig_product_check(5, bad)
    assert trig_product_check(5, 2**1023).trig_passed


@pytest.mark.parametrize("n", [2, 0, -3])
def test_trig_product_checks_n_with_a_given_count(n):
    # a count from the caller does not skip the check on n
    with pytest.raises(ValueError, match=r"^C4 x Cn needs n >= 3, got " + str(n) + "$"):
        trig_product_check(n, count=5)
    with pytest.raises(ValueError, match=r"^C4 x Cn needs n >= 3"):
        trig_product_check(n)


@pytest.mark.parametrize("n", [1000, 2000])
def test_trig_product_passes_past_the_float_range(n):
    # counts of 6352 and 12696 bits: float(count) would overflow
    count = tree_count_closed(n)
    assert count.bit_length() > 1024
    report = trig_product_check(n, 1e-12, count=count)
    assert report.trig_passed, report.trig_log_residual


def test_log_of_the_count_is_float_precise_at_any_size():
    # the check's target ln(count) - ln(4n), from math.log of the exact
    # count, against a 60-digit decimal logarithm.  Observed worst 2.43e-16
    # relative (n = 294); math.log of a count past 2^1024 adds the rounded
    # e * ln 2 to log of its mantissa, so the bound is two units of 2^-52
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for n in range(3, 401):
            count = tree_count_closed(n)
            target = math.log(count) - math.log(4 * n)
            exact = decimal.Decimal(count).ln() - decimal.Decimal(4 * n).ln()
            assert abs(decimal.Decimal(target) - exact) <= abs(exact) * decimal.Decimal(2) ** -51, n


def test_trig_product_direct_value():
    # for n=3 the eigenvalue product is count/(4n) = 30625 exactly
    product = 1.0
    for j in range(1, 3):
        c = 2.0 * math.cos(2.0 * math.pi * j / 3)
        product *= (4.0 - c) ** 2 * (6.0 - c)
    assert abs(product - 30625.0) / 30625.0 < 1e-9


def test_even_count_two_adic_valuation():
    # v2(count) = 8 + v2(s) + 4 v2(e_s) + 2 v2(f_s) for n = 2s, with the
    # e/f valuations supplied by the index-only predictions
    for s in range(2, 80):
        n = 2 * s
        expected = (
            8
            + observed_valuation(s, 2)
            + 4 * predicted_valuation(SeqKind.E, 2, s)
            + 2 * predicted_valuation(SeqKind.F, 2, s)
        )
        assert observed_valuation(tree_count_closed(n), 2) == expected, n


def test_report_optional_fields():
    report = trig_product_check(6)
    assert report.trig_tolerance == 1e-9
