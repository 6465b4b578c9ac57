import tracemalloc

import pytest

from critgraph import seq
from critgraph.seq import (
    SeqKind,
    derived_seq,
    first_valuation_mismatch,
    observed_valuation,
    parity_split,
    predicted_valuation,
    u_prefix,
    u_seq,
    v_partial_sum,
    v_prefix,
    v_seq,
)


def test_u_initial_and_known_values():
    assert u_seq(2, 0) == 0
    assert u_seq(2, 1) == 1
    assert u_seq(2, 4) == 56
    assert u_seq(4, 6) == 6930
    assert u_prefix(2, 7) == [0, 1, 4, 15, 56, 209, 780]
    assert u_prefix(4, 7) == [0, 1, 6, 35, 204, 1189, 6930]


def test_v_initial_and_known_values():
    assert v_seq(2, 0) == 2
    assert v_seq(2, 2) == 14
    assert v_seq(4, 2) == 34  # two recurrence steps: 6*6 - 2
    assert v_prefix(2, 6) == [2, 4, 14, 52, 194, 724]


def test_rejects_degenerate_parameter():
    with pytest.raises(ValueError):
        u_seq(0, 3)
    with pytest.raises(ValueError):
        v_seq(0, 3)
    with pytest.raises(ValueError):
        u_seq(2, -1)
    # a float m would walk the recurrence in floats
    with pytest.raises(TypeError):
        u_seq(2.0, 3)
    with pytest.raises(TypeError):
        u_prefix(2.0, 3)
    with pytest.raises(ValueError):
        u_prefix(2, -1)


def test_derived_sequences():
    assert derived_seq(SeqKind.E, 3) == 15
    assert derived_seq(SeqKind.H, 2) == 19  # e_2 + e_3 = 4 + 15
    assert derived_seq(SeqKind.G, 0) == 1  # f_0 + f_1
    assert derived_seq(SeqKind.F, 5) == 1189
    with pytest.raises(ValueError):
        derived_seq("e", 3)


def test_kind_fixes_parameter():
    assert SeqKind.E.m == 2 and SeqKind.H.m == 2
    assert SeqKind.F.m == 4 and SeqKind.G.m == 4


def test_partial_sum_base_cases():
    for m in (1, 2, 3, 4):
        for p in (0, 1, 2, 5):
            assert v_partial_sum(m, p, 1) == 1
    assert v_partial_sum(2, 1, 3) == 15  # v_2(2) + v_0(2) - 1
    assert v_partial_sum(2, 1, 2) == 4  # v_1(2)
    with pytest.raises(ValueError):
        v_partial_sum(2, 1, 0)


def test_partial_sum_is_the_direct_sum_of_single_terms():
    # p = 0 included, with both parities of q
    for m in range(1, 7):
        for p in range(13):
            for q in range(1, 16):
                direct = sum(v_seq(m, p * (q + 1 - 2 * i)) for i in range(1, (q + 1) // 2 + 1))
                assert v_partial_sum(m, p, q) == direct - q % 2, (m, p, q)


def test_partial_sum_holds_no_table():
    # the p(q-1)+1 = 59,701 terms v_0..v_59700(1) together take hundreds of MB
    tracemalloc.start()
    try:
        w = v_partial_sum(1, 300, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert w * u_seq(1, 300) == u_seq(1, 60000)


def test_composition_identity():
    # u_{pq} = v_{p(q-1)} u_p + u_{p(q-2)} for q >= 2
    for m in range(1, 7):
        us = u_prefix(m, 65)
        vs = v_prefix(m, 65)
        for p in range(0, 33):
            for q in range(2, (64 // p if p else 32) + 1):
                assert us[p * q] == vs[p * (q - 1)] * us[p] + us[p * (q - 2)]


def test_strict_growth():
    for m in range(1, 7):
        us = u_prefix(m, 52)
        for p in range(1, 51):
            assert us[p + 1] > us[p]


def test_observed_valuation():
    assert observed_valuation(8, 2) == 3
    assert observed_valuation(1, 3) == 0
    assert observed_valuation(6930, 3) == 2
    assert observed_valuation(-24, 2) == 3
    with pytest.raises(ValueError):
        observed_valuation(0, 2)
    with pytest.raises(ValueError):
        observed_valuation(8, 1)
    with pytest.raises(TypeError):
        observed_valuation(12.0, 2)
    with pytest.raises(TypeError):
        observed_valuation(12, 2.0)


def test_predicted_valuation_cases():
    for n in (3, 5, 7, 9, 999):
        assert predicted_valuation(SeqKind.E, 2, n) == 0
    # e_4 = 56 = 2^3 * 7
    assert predicted_valuation(SeqKind.E, 2, 4) == 3
    # f_6 = 6930 = 2 * 3^2 * 5 * 7 * 11
    assert predicted_valuation(SeqKind.F, 3, 6) == 2
    assert predicted_valuation(SeqKind.F, 2, 6) == 1
    assert predicted_valuation(SeqKind.E, 3, 9) == 2


def test_predicted_valuation_rejections():
    with pytest.raises(ValueError):
        predicted_valuation(SeqKind.H, 2, 4)
    with pytest.raises(ValueError):
        predicted_valuation(SeqKind.E, 5, 4)
    with pytest.raises(ValueError):
        predicted_valuation(SeqKind.E, 2, 0)
    with pytest.raises(TypeError):
        predicted_valuation(SeqKind.E, 2.0, 4)
    with pytest.raises(TypeError):
        predicted_valuation(SeqKind.E, 2, 4.0)


def test_predicted_matches_observed_small_sweep():
    for n in range(2, 200):
        for kind in (SeqKind.E, SeqKind.F):
            x = derived_seq(kind, n)
            for prime in (2, 3):
                assert (
                    observed_valuation(x, prime)
                    == predicted_valuation(kind, prime, n)
                ), (kind, prime, n)


def test_predictions_hold_at_index_one():
    # e_1 = f_1 = 1: every valuation is 0, matching the formulas at n=1.
    for kind in (SeqKind.E, SeqKind.F):
        for prime in (2, 3):
            assert predicted_valuation(kind, prime, 1) == 0


_FAMILIES = [(SeqKind.E, 2), (SeqKind.F, 2), (SeqKind.E, 3), (SeqKind.F, 3)]

# a family's modulus prime**top, top = upto.bit_length() + 1, is tightest for
# p = 2 at n = upto = 2**j, where v2(e_n) = j + 1 and the residue must
# decide whether 2**(j+2) divides the term; 2**j - 1 sits just below it,
# and 2 * 3**j puts a high power of 3 at n = upto
_TIGHT_UPTOS = sorted(
    {2**j - 1 for j in range(2, 12)} | {2**j for j in range(1, 12)} | {2 * 3**j for j in range(7)}
)


def _brute_first_mismatch(kind, prime, terms):
    """The first (n, predicted, observed) over the exact terms[1:], or None."""
    for n in range(1, len(terms)):
        predicted, observed = predicted_valuation(kind, prime, n), observed_valuation(terms[n], prime)
        if predicted != observed:
            return n, predicted, observed
    return None


@pytest.mark.parametrize("kind, prime", _FAMILIES)
def test_first_valuation_mismatch_equals_the_brute_force(monkeypatch, kind, prime):
    real_walk, real_u_seq = seq._walk, seq.u_seq
    # two more factors of ``prime`` in the term at n = 18, one more at the tight
    # n = upto, and one more on either side of the first window's end and in
    # the last, part-filled window of an upto that is not a multiple of it
    tight = [2**j for j in range(1, 12)] + [2 * 3**j for j in range(7)]
    w = seq._WINDOW
    edges = [(at, 2 * w + 7, prime) for at in (w - 1, w, w + 1, 2 * w + 6)]
    for at, upto, factor in [(18, 40, prime**2)] + [(n, n, prime) for n in tight] + edges:
        terms = u_prefix(kind.m, upto + 1)
        terms[at] *= factor
        expected = _brute_first_mismatch(kind, prime, terms)
        assert expected is not None

        def scale(m, n, term):
            return term * factor if (m, n) == (kind.m, at) else term

        def scaled_walk(m, a, b, count, modulus=None):
            for n, term in enumerate(real_walk(m, a, b, count, modulus)):
                yield scale(m, n, term)

        with monkeypatch.context() as patch:
            patch.setattr(seq, "_walk", scaled_walk)
            patch.setattr(seq, "u_seq", lambda m, n: scale(m, n, real_u_seq(m, n)))
            assert first_valuation_mismatch(kind, prime, upto) == expected, (at, upto)


@pytest.mark.parametrize("upto", _TIGHT_UPTOS)
def test_first_valuation_mismatch_finds_none_at_the_tightest_modulus(upto):
    for kind, prime in _FAMILIES:
        assert first_valuation_mismatch(kind, prime, upto) is None, (kind, prime)


def test_first_valuation_mismatch_rejections():
    with pytest.raises(ValueError, match="kinds E and F only"):
        first_valuation_mismatch(SeqKind.H, 2, 10)
    with pytest.raises(ValueError, match="primes 2 and 3"):
        first_valuation_mismatch(SeqKind.E, 5, 10)
    with pytest.raises(ValueError):
        first_valuation_mismatch(SeqKind.E, 2, -1)
    with pytest.raises(TypeError):
        first_valuation_mismatch(SeqKind.E, 2, 10.0)


def _linear(m, first, second, count):
    """Terms of x_k = (m+2) x_{k-1} - x_{k-2}, walked one step at a time."""
    terms = [first, second]
    while len(terms) < count:
        terms.append((m + 2) * terms[-1] - terms[-2])
    return terms[:count]


def test_point_values_match_linear_recurrence():
    for m in range(1, 7):
        us = _linear(m, 0, 1, 601)
        vs = _linear(m, 2, m + 2, 601)
        for p in range(601):
            assert u_seq(m, p) == us[p], (m, p)
            assert v_seq(m, p) == vs[p], (m, p)


def test_derived_values_match_linear_recurrence():
    for kind in SeqKind:
        us = _linear(kind.m, 0, 1, 602)
        for n in range(601):
            expected = us[n] + us[n + 1] if kind in (SeqKind.H, SeqKind.G) else us[n]
            assert derived_seq(kind, n) == expected, (kind, n)


def test_large_index_doubling_identity():
    # u_{2p} = u_p v_p, far beyond the range of the table walks above
    p = 10**5
    for m in (2, 4):
        assert u_seq(m, 2 * p) == u_seq(m, p) * v_seq(m, p)


def test_parity_split():
    assert parity_split(7) == (3, derived_seq(SeqKind.H, 3), derived_seq(SeqKind.G, 3))
    assert parity_split(8) == (4, derived_seq(SeqKind.E, 4), derived_seq(SeqKind.F, 4))
    assert parity_split(5) == (2, 19, 41)
