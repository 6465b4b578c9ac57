"""Integer sequences from the second-order recurrence x_k = (m+2)x_{k-1} - x_{k-2}.

Two companion sequences are tracked for each parameter m >= 1:

    u_0(m) = 0, u_1(m) = 1        (the "first kind")
    v_0(m) = 2, v_1(m) = m + 2    (the "second kind")

The four derived sequences used by the C4 x Cn critical-group formulas are

    e_n = u_n(2),  f_n = u_n(4),  h_n = e_n + e_{n+1},  g_n = f_n + f_{n+1}.

u_n(m) is the Lucas sequence U_n(P = m+2, Q = 1) and v_n(m) its companion
V_n.  Each sequence is defined once, by its seeds (m, x_0, x_1): a single
term is read off them by one fast-doubling pass over the bits of the index
(O(log n) big-integer products), and a table walks the recurrence from them.
The walk runs over ints, over exact decimals for printing (the string of a
decimal takes time linear in its digits, that of an int quadratic time), or
over residues for the valuations.

Everything here is exact; no floating point, no closed-form surds.  The
module also predicts the exact 2-adic and 3-adic valuations of e_n and
f_n from the factorization of the index alone, which is what makes the
even-cycle Smith-normal-form case analysis effective.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from typing import Iterator, Optional

from .exactla import _clip


class SeqKind(Enum):
    """Tags for the four derived sequences; the tag fixes the recurrence
    parameter m (E, H use m=2; F, G use m=4)."""

    E = "e"
    F = "f"
    H = "h"
    G = "g"

    @property
    def m(self) -> int:
        return _start(self.value)[0]


def _check_m(m: int) -> None:
    # as in AbelianGroup: a float raises TypeError rather than walk as one
    if operator.index(m) < 1:
        raise ValueError(f"recurrence parameter m must be >= 1, got {_clip(m)}")


def _check_index(p: int) -> None:
    if p < 0:
        raise ValueError(f"index must be >= 0, got {_clip(p)}")


def _check_kind(kind: SeqKind) -> None:
    if not isinstance(kind, SeqKind):
        text = kind if isinstance(kind, int) else repr(kind)
        raise ValueError(f"unknown sequence kind: {_clip(text)}")


def _u_pair(m: int, p: int) -> tuple[int, int]:
    """(u_p(m), u_{p+1}(m)) by fast doubling over the bits of p, with
    P = m + 2:  u_2k = u_k (2 u_{k+1} - P u_k),  u_{2k+1} = u_{k+1}^2 - u_k^2."""
    big_p = m + 2
    a, b = 0, 1
    for bit in bin(p)[2:]:
        a, b = a * (2 * b - big_p * a), b * b - a * a
        if bit == "1":
            a, b = b, big_p * b - a
    return a, b


def _walk(m, a, b, count: int, modulus: Optional[int] = None) -> Iterator:
    """The first ``count`` terms of the recurrence started at (a, b), one
    at a time, so that a caller that needs only the current term holds
    only it.  The terms have the type of m, a and b (int or an exact
    ``decimal.Decimal``); with a ``modulus``, they are the residues of the
    terms modulo it, given reduced seeds."""
    if count < 0:
        raise ValueError("count must be >= 0")
    big_p = m + 2
    for _ in range(count):
        yield a
        a, b = b, big_p * b - a
        if modulus:
            b %= modulus


_DERIVED_SEEDS = {"e": (2, 0, 1), "f": (4, 0, 1), "h": (2, 1, 5), "g": (4, 1, 7)}


def _start(kind: str, m: Optional[int] = None) -> tuple[int, int, int]:
    """(m, x_0, x_1) of table ``kind``, the one definition of each sequence:
    'u' or 'v' with the parameter m, or 'e', 'f', 'h' or 'g' with the kind's
    own m.  e and f are u at m = 2 and 4; h and g obey their recurrence from
    x_0 = u_0 + u_1 = 1 and x_1 = u_1 + u_2 = m + 3."""
    if kind in ("u", "v"):
        _check_m(m)
        return (m, 0, 1) if kind == "u" else (m, 2, m + 2)
    return _DERIVED_SEEDS[kind]


def _term(m: int, x0: int, x1: int, p: int) -> int:
    """Term p of the walk from the seeds (m, x_0, x_1) by one fast-doubling
    pass: x_p = x_1 u_p - x_0 u_{p-1}, and u_{p-1} = (m+2)u_p - u_{p+1}."""
    _check_index(p)
    u, u_next = _u_pair(m, p)
    return (x1 - (m + 2) * x0) * u + x0 * u_next


def u_seq(m: int, p: int) -> int:
    """p-th term of the first-kind sequence: u_0=0, u_1=1,
    u_p = (m+2)u_{p-1} - u_{p-2}."""
    return _term(*_start("u", m), p)


def v_seq(m: int, p: int) -> int:
    """p-th term of the second-kind sequence: v_0=2, v_1=m+2, same
    recurrence as :func:`u_seq`."""
    return _term(*_start("v", m), p)


def u_prefix(m: int, count: int) -> list[int]:
    """[u_0(m), ..., u_{count-1}(m)] in one pass."""
    return list(_walk(*_start("u", m), count))


def v_prefix(m: int, count: int) -> list[int]:
    """[v_0(m), ..., v_{count-1}(m)] in one pass."""
    return list(_walk(*_start("v", m), count))


def derived_seq(kind: SeqKind, n: int) -> int:
    """e_n, f_n, h_n, or g_n."""
    _check_kind(kind)
    return _term(*_start(kind.value), n)


def table_texts(kind: str, m: Optional[int], count: int) -> list[str]:
    """The decimal strings of the first ``count`` terms of table ``kind``
    ('u' or 'v' with the parameter m, or 'e', 'f', 'h' or 'g' with m None).

    The walk runs over exact decimals: every rounding is trapped, so it
    raises rather than print a wrong digit.  The digit limit of str(int)
    does not apply, so the caller bounds the table (``cli.MAX_SEQ_BITS``).
    """
    import decimal  # here, so that importing the package does not pay for it

    m, a, b = _start(kind, m)
    exact = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
               decimal.Inexact, decimal.Rounded],
    )
    with decimal.localcontext(exact):
        return [str(term) for term in _walk(*map(decimal.Decimal, (m, a, b)), count)]


def parity_split(n: int) -> tuple[int, int, int]:
    """The half index and the two sequence terms of the C4 x Cn formulas:
    (s, h_s, g_s) for odd n = 2s+1 and (s, e_s, f_s) for even n = 2s."""
    s, odd = divmod(n, 2)
    if odd:
        return s, derived_seq(SeqKind.H, s), derived_seq(SeqKind.G, s)
    return s, derived_seq(SeqKind.E, s), derived_seq(SeqKind.F, s)


def v_partial_sum(m: int, p: int, q: int) -> int:
    """The multiplier W with u_{p*q}(m) = W * u_p(m).

    For even q this is the sum of v_{p(q+1-2i)}(m) over 0 < 2i <= q; for
    odd q the sum runs over 0 < 2i <= q+1 (its last term is v_0 = 2) and
    1 is subtracted.  The summed indices step by 2p, so by Lucas's addition law
    v_{j+2p} = v_{2p} v_j - v_{j-2p} their terms are one walk with parameter v_{2p} - 2.
    """
    _check_m(m)
    _check_index(p)
    if q < 1:
        raise ValueError(f"factor q must be >= 1, got {_clip(q)}")
    r = 1 - q % 2  # the least summed index is r * p
    terms = _walk(v_seq(m, 2 * p) - 2, v_seq(m, r * p), v_seq(m, (r + 2) * p), (q + 1) // 2)
    return sum(terms) - q % 2


def _exponent(x: int, p: int) -> int:
    """Largest k with p**k dividing the nonzero x."""
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def observed_valuation(x: int, prime: int) -> int:
    """Largest k with prime**k dividing |x|.  x = 0 is rejected (the
    valuation would be infinite)."""
    x, prime = operator.index(x), operator.index(prime)
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if prime < 2:
        raise ValueError(f"prime must be >= 2, got {_clip(prime)}")
    return _exponent(x, prime)


def _valuation_prime(kind: SeqKind, prime: int) -> int:
    if kind not in (SeqKind.E, SeqKind.F):
        raise ValueError("valuation predictions cover kinds E and F only")
    if operator.index(prime) not in (2, 3):
        raise ValueError(f"valuation predictions cover primes 2 and 3, got {_clip(prime)}")
    return operator.index(prime)


def predicted_valuation(kind: SeqKind, prime: int, n: int) -> int:
    """The exponent of ``prime`` in e_n (kind E) or f_n (kind F) for
    p in {2, 3}, read off the exponent t of p in n and the parity of n.

        v2(e_n) = 0 for odd n, t + 1 for even n
        v2(f_n) = t
        v3(e_n) = t
        v3(f_n) = 0 for odd n, t + 1 for even n
    """
    prime, n = _valuation_prime(kind, prime), operator.index(n)
    if n < 1:
        raise ValueError(f"index must be >= 1, got {_clip(n)}")
    t = _exponent(n, prime)
    if _valuation_by_parity(kind, prime):
        return 0 if n % 2 else t + 1
    return t


def _valuation_by_parity(kind: SeqKind, prime: int) -> bool:
    """Whether the rule is "0 for odd n, t + 1 for even n" (E at 2, F at 3)
    rather than "t"."""
    return (kind is SeqKind.E) == (prime == 2)


# The n that first_valuation_mismatch decides at once: their residues and
# their predicted powers are each held in lists this long.
_WINDOW = 4096


def _predicted_powers(prime: int, by_parity: bool, lo: int, count: int) -> tuple[list[int], list[int]]:
    """The lists of P = prime**k(n) and of prime * P for n = lo .. lo+count-1,
    k(n) the valuation rule, by slice-assigned sieves: with q = prime**t
    running up, every multiple of q (of lcm(2, q) under the parity rule,
    which adds one factor) gets P = q (q * prime), so each n keeps the P of
    its largest t."""
    powers, higher = [1] * count, [prime] * count
    q = 1 if by_parity else prime
    hi = lo + count - 1
    while True:
        step, power = (math.lcm(2, q), q * prime) if by_parity else (q, q)
        if step > hi:
            return powers, higher
        start = -lo % step
        size = len(range(start, count, step))
        powers[start::step] = [power] * size
        higher[start::step] = [power * prime] * size
        q *= prime


def first_valuation_mismatch(kind: SeqKind, prime: int, upto: int) -> Optional[tuple[int, int, int]]:
    """(n, predicted, observed) at the least n in 1..upto where the exponent of
    ``prime`` in e_n (kind E) or f_n (kind F) is not :func:`predicted_valuation`,
    or None.  One walk of the residues modulo prime**(upto.bit_length() + 1)
    decides each n: p**t | n <= upto gives t < upto.bit_length(), and k <= t + 1,
    so p**(k+1) divides the modulus.  The walk is taken ``_WINDOW`` terms at a
    time, and a window passes when gcd(residue, prime * P) = P for each of its
    predicted powers P = prime**k, a test made by ``map`` with no Python step
    per n.  Only a failing window is scanned term by term, and only a mismatch
    takes the whole term.
    """
    prime = _valuation_prime(kind, prime)
    _check_index(operator.index(upto))
    by_parity = _valuation_by_parity(kind, prime)
    modulus = prime**(upto.bit_length() + 1)
    residues = _walk(*_start(kind.value), upto + 1, modulus)
    next(residues)  # n = 0: the term is 0, of no finite valuation
    for lo in range(1, upto + 1, _WINDOW):
        window = list(itertools.islice(residues, _WINDOW))
        powers, higher = _predicted_powers(prime, by_parity, lo, len(window))
        found = list(map(math.gcd, window, higher))
        if found == powers:
            continue
        i = next(i for i, (got, power) in enumerate(zip(found, powers)) if got != power)
        return lo + i, _exponent(powers[i], prime), observed_valuation(u_seq(kind.m, lo + i), prime)
    return None
