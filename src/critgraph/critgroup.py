"""Critical groups (sandpile groups) of multigraphs, exactly.

Three routes are provided for the four-cycle prism family C4 x Cn and
cross-check each other; tests/test_routes.py pins the code they share:

  * :func:`group_of_graph` -- Smith normal form of the full 4n x 4n
    Laplacian (works for any connected multigraph);
  * :func:`group_via_relations` -- SNF of an 8 x 8 relations matrix by the
    same SNF engine: the cokernel relation propagates every layer onto the
    first two, so eight generators suffice;
  * :func:`closed_form_group` -- a seven-term gcd formula in the sequences
    e, f, h, g, split by the parity of n and of n/2, reading e and f by
    the relations matrix's fast doubling.

:func:`verify_reduction_pipeline` replays the chain of unimodular
transformations that turns the 8 x 8 relations matrix into block-diagonal
form.  Each template stage is one exact identity P @ M @ Q == template,
the rank-one split is certified by vanishing line sums, and every
constant multiplier is checked for det = +-1.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .exactla import IntegerMatrix, _clip, is_unimodular, snf
from .graph import Multigraph, _require_c4xcn_n, sparse_laplacian
from .seq import SeqKind, _u_pair, _walk, parity_split, u_seq

_E_M, _F_M = SeqKind.E.m, SeqKind.F.m  # e and f are u at these m


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group as its invariant-factor chain.

    ``invariant_factors`` are the cyclic orders >= 2 in divisibility
    order (trivial factors stripped); the empty tuple is the trivial
    group.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        # as in IntegerMatrix: a float raises TypeError, a list becomes a tuple
        fs = tuple(map(operator.index, self.invariant_factors))
        object.__setattr__(self, "invariant_factors", fs)
        # the errors name positions (1-based), not values: a factor may
        # have more digits than the interpreter converts to a string
        low = next((i for i, f in enumerate(fs, 1) if f < 2), None)
        if low:
            raise ValueError(f"invariant factors must be >= 2, but factor {low} is not")
        bad = next((i for i in range(1, len(fs)) if fs[i] % fs[i - 1]), None)
        if bad:
            raise ValueError(f"invariant factor {bad} does not divide invariant factor {bad + 1}")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def __str__(self) -> str:
        return format_group(self.invariant_factors)


def format_group(factors: Sequence[object]) -> str:
    """``Z{f1} x Z{f2} x ...`` over the invariant factors, or ``trivial``
    when there are none.  The factors may be ints or their decimal
    strings, so a caller that prints the strings elsewhere converts each
    integer once."""
    if not factors:
        return "trivial"
    return " x ".join(f"Z{f}" for f in factors)


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of :func:`verify_reduction_pipeline`: one (name, passed,
    detail) triple per stage."""

    n: int
    stage_checks: tuple[tuple[str, bool, str], ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(passed for _, passed, _ in self.stage_checks)

    def failures(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.stage_checks if not c[1]]


def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact division {_clip(num)} / {_clip(den)}")
    return quot


def _circulant_block(i: int, e: int, f: int) -> list[list[int]]:
    """Layer i's symmetric 4x4 circulant (a, b, c, b), from e = e_i and
    f = f_i.  Closed forms (all divisions exact):

        a = (i + f_i + 2 e_i) / 4,  b = (i - f_i) / 4,  c = (i + f_i - 2 e_i) / 4
    """
    a = _exact_div(i + f + 2 * e, 4)
    b = _exact_div(i - f, 4)
    c = _exact_div(i + f - 2 * e, 4)
    return [[a, b, c, b], [b, a, b, c], [c, b, a, b], [b, c, b, a]]


def coeffs(i: int) -> tuple[int, int, int]:
    """Layer-expansion coefficients (a, b, c) at index i >= 0, which carry
    ring layer i of C4 x Cn onto the first two layers: the first three
    entries of the first row of :func:`_circulant_block`.

    They satisfy a + 2b + c = i and the coupled recurrences
    a' = 4a - 2b - a_prev, b' = 4b - (a + c) - b_prev, c' = 4c - 2b - c_prev.
    """
    a, b, c, _ = _circulant_block(i, u_seq(_E_M, i), u_seq(_F_M, i))[0]
    return a, b, c


def _terms_around(n: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(e_{n-1}, e_n, e_{n+1}) and (f_{n-1}, f_n, f_{n+1}): three terms of the
    walk of u at e's and at f's m, seeded by one fast-doubling pass each."""
    return tuple(tuple(_walk(m, *_u_pair(m, n - 1), 3)) for m in (_E_M, _F_M))


def relations_matrix(n: int) -> IntegerMatrix:
    """8x8 relations matrix whose cokernel (plus one free rank) is the
    critical group of C4 x Cn.

    Blocks: [[A_{n+1} - I, -A_n], [A_n, -A_{n-1} - I]] with A_i the
    circulant (a, b, c, b) of (a, b, c) = coeffs(i).  After negating the
    last four rows every row and column sums to zero, which is what lets
    the first row and column be split off as a rank-one zero block.
    """
    _require_c4xcn_n(n)
    bot, mid, top = map(_circulant_block, (n - 1, n, n + 1), *_terms_around(n))
    rows = [top[r] + [-x for x in mid[r]] for r in range(4)]
    rows += [mid[r] + [-x for x in bot[r]] for r in range(4)]
    return IntegerMatrix(
        [[rows[i][j] - (1 if i == j else 0) for j in range(8)] for i in range(8)]
    )


def _group_from_snf_diag(diagonal) -> AbelianGroup:
    zeros = sum(1 for d in diagonal if d == 0)
    if zeros != 1:
        raise ValueError(
            f"expected exactly 1 zero invariant factor(s), found {zeros}"
            " (disconnected graph?)"
        )
    return AbelianGroup(tuple(d for d in diagonal if d > 1))


def group_of_graph(g: Multigraph) -> AbelianGroup:
    """Critical group of a connected multigraph via the Laplacian SNF.

    The SNF diagonal must contain exactly one zero (the free rank of the
    cokernel); more than one means the graph is disconnected.
    """
    return _group_from_snf_diag(snf(sparse_laplacian(g)).diagonal)


def group_via_relations(n: int) -> AbelianGroup:
    """Critical group of C4 x Cn via the 8x8 relations matrix."""
    return _group_from_snf_diag(snf(relations_matrix(n)).diagonal)


def closed_form_raw_factors(n: int) -> tuple[int, ...]:
    """The seven cyclic orders of K(C4 x Cn) in divisibility order: the
    invariant factors, 1s included.

    One tuple in k, x, y and five scales c3..c7 that depend on the case:

        ( (k,x,y), (x,y), c3 (k,x)(x,y)/(k,x,y), c4 x,
          c5 x(kx,ky,xy)/((k,x)(x,y)), c6 xy/(x,y), c7 kxy/(kx,ky,xy) )

        case              k   x    y     c3  c4  c5  c6  c7
        n = 2s+1          n   h_s  g_s    1   1   1   1   4
        n = 2s, s odd     s   e_s  f_s    1   1   4  12  48
        n = 2s, s even    s   e_s  f_s    4   6   6   2   8

    All divisions are checked exact at runtime.  Each step t_i | t_{i+1}
    divides gcds into gcds and c_i into c_{i+1}, except t3 | t4 and t5 | t6
    for n = 2s with s even (4 does not divide 6, nor 6 divide 2); these hold
    because v2(e_s) = v2(s) + 1, v2(f_s) = v2(s), v3(e_s) = v3(s) and
    v3(f_s) = v3(s) + 1 (:func:`critgraph.seq.predicted_valuation`).
    """
    _require_c4xcn_n(n)
    gcd = math.gcd
    s, x, y = parity_split(n)
    if n % 2:
        k, (c3, c4, c5, c6, c7) = n, (1, 1, 1, 1, 4)
    else:
        k, (c3, c4, c5, c6, c7) = s, (1, 1, 4, 12, 48) if s % 2 else (4, 6, 6, 2, 8)
    kx, xy, kxy = gcd(k, x), gcd(x, y), gcd(k, x, y)
    x_times_y = x * y
    triple = gcd(k * xy, x_times_y)  # gcd(kx, ky, xy) = gcd(k gcd(x, y), xy)
    return (
        kxy,
        xy,
        _exact_div(c3 * kx * xy, kxy),
        c4 * x,
        _exact_div(c5 * x * triple, kx * xy),
        _exact_div(c6 * x_times_y, xy),
        _exact_div(c7 * k * x_times_y, triple),
    )


def closed_form_group(n: int) -> AbelianGroup:
    """Critical group of C4 x Cn by the closed-form seven-term chain,
    trivial factors stripped."""
    return AbelianGroup(tuple(f for f in closed_form_raw_factors(n) if f > 1))


def subgroup_check(n1: int, n2: int) -> bool:
    """True iff K(C4 x Cn1) embeds into K(C4 x Cn2), by the factorwise
    criterion: right-align both invariant-factor chains (padding the
    shorter with 1s at the small end) and require each factor of the
    first to divide the matching factor of the second.

    For invariant-factor chains the criterion is necessary as well as
    sufficient: a finite abelian group embeds into another iff, for each
    prime, its exponents are dominated by the other's once both are
    sorted, and the exponents of a chain are sorted in the chain's own
    order.  So False is a true negative.  The answer is True whenever n1
    divides n2, and only then: checked for every 3 <= n1 < n2 <= 400,
    conjectured beyond.
    """
    return factorwise_subgroup(closed_form_group(n1), closed_form_group(n2))


def factorwise_subgroup(g1: AbelianGroup, g2: AbelianGroup) -> bool:
    """The factorwise criterion of :func:`subgroup_check`, applied to two
    groups the caller already has."""
    f1, f2 = g1.invariant_factors, g2.invariant_factors
    return len(f1) <= len(f2) and all(b % a == 0 for a, b in zip(reversed(f1), reversed(f2)))


# --- staged-reduction fixtures -------------------------------------------
#
# Constant unimodular multipliers of the staged reduction.  _L3[6][4] and
# _R3[4][4] are forced by requiring the stage identity to hold for every
# even n together with det = +-1 (see tests for the recorded products).

_L1 = IntegerMatrix([
    [0, 0, 0, 1, 1, 1, 1],
    [1, 2, 1, -1, -1, -1, -1],
    [0, 0, 0, -1, 0, 1, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0],
])
_R1 = IntegerMatrix([
    [-1, -1, 0, 1, 0, 1, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, -1, 0],
    [-1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, -1, 0, -1],
    [-1, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
])
_U = IntegerMatrix([
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, -1, 4, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0],
    [-1, 0, -1, -1, 6, 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [-1, 0, 0, 0, 0, -1, 4],
])
_L2 = IntegerMatrix([
    [0, -1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, -1],
    [0, 0, 0, -1, 1, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0],
])
_R2 = IntegerMatrix([
    [0, 0, 0, 0, 0, 0, 1],
    [0, -1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [1, -2, 0, 1, 0, 0, -2],
    [-1, 2, 0, 0, 0, 0, 2],
    [0, 1, 1, 0, 0, 1, 1],
    [0, -1, -1, 0, 0, 0, -1],
])
_L3 = IntegerMatrix([
    [1, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, -1, -1],
    [-1, -4, 1, 7, -1, 0, 0],
    [0, 5, -4, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 2, -2, 1, 0, 0, 0],
])
_R3 = IntegerMatrix([
    [0, -2, 0, 1, -2, 0, 0],
    [0, 6, 0, 0, 5, 0, 0],
    [0, -1, 0, 0, -1, 0, 0],
    [2, 6, 0, -4, 6, 1, 2],
    [-1, -6, 0, 4, -6, -1, -2],
    [0, -3, 2, 2, -3, 1, -1],
    [0, 3, -1, -2, 3, 0, 1],
])
_L4 = IntegerMatrix([
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 1],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [-1, -1, 0, 1, 0, 0, 0],
    [-1, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1, 0, 0],
])
_R4 = IntegerMatrix([
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 1, 0, 0, 0],
    [2, 0, -4, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 1, -1, 0, 0, -1, 0],
])

_FIXTURES = {
    "L1": _L1, "R1": _R1, "U": _U, "L2": _L2, "R2": _R2,
    "L3": _L3, "R3": _R3, "L4": _L4, "R4": _R4,
}


@functools.cache
def _non_unimodular_fixtures() -> tuple[str, ...]:
    """Names of the constant multipliers whose determinant is not +-1.
    They do not depend on n, so they are checked once per process."""
    return tuple(name for name, mat in _FIXTURES.items() if not is_unimodular(mat))


def _seven_template(n: int) -> IntegerMatrix:
    """The 7x7 matrix that the first stage lands on, written in the
     'folded' sequences p_i = e_i + e_{n-i} and q_i = f_i + f_{n-i}."""
    # e_{-1}, e_0, e_1 = -1, 0, 1: p_{-1}, p_0, p_1 = e_{n+1} - 1, e_n, e_{n-1} + 1 (q alike in f)
    (e_before, e_n, e_after), (f_before, f_n, f_after) = _terms_around(n)
    p = {-1: e_after - 1, 0: e_n, 1: e_before + 1}
    q = {-1: f_after - 1, 0: f_n, 1: f_before + 1}
    return IntegerMatrix([
        [0, 0, 0, n, n, 0, 0],
        [0, p[-1], p[0], 0, 0, 0, 0],
        [0, p[0], p[1], 0, 0, 0, 0],
        [_exact_div(q[-1] + q[0], 2), _exact_div(p[-1] + q[-1], 2),
         _exact_div(p[0] + q[0], 2), _exact_div(n - q[-1], 4),
         _exact_div(n - q[0], 4), 0, 0],
        [_exact_div(q[0] + q[1], 2), _exact_div(p[0] + q[0], 2),
         _exact_div(p[1] + q[1], 2), _exact_div(n - q[0], 4),
         _exact_div(n - q[1], 4), 0, 0],
        [0, 0, 0, _exact_div(n + p[-1], 2), _exact_div(n + p[0], 2), p[-1], p[0]],
        [0, 0, 0, _exact_div(n + p[0], 2), _exact_div(n + p[1], 2), p[0], p[1]],
    ])


def _block_diag(upper: list[list[int]], lower: list[list[int]]) -> IntegerMatrix:
    k = len(upper)
    width = len(lower[0])
    rows = [row + [0] * width for row in upper]
    rows += [[0] * k + row for row in lower]
    return IntegerMatrix(rows)


def _odd_split_template(n: int, h: int, g: int) -> IntegerMatrix:
    """Block-diagonal 3+4 target of the odd-n branch, in h = h_s, g = g_s."""
    x = [[0, 2 * h, 0], [h, 0, 2 * h], [g, h, 0]]
    y = [
        [n, 0, 0, 0],
        [0, h, 0, 0],
        [_exact_div(n + h, 2), 0, h, 0],
        [_exact_div(n - g, 4), _exact_div(h + g, 2), 0, g],
    ]
    return _block_diag(x, y)


def _even_stage_template(s: int, e: int, f: int) -> IntegerMatrix:
    """Lower-triangular-shaped 7x7 target of the even-n branch, in
    e = e_s, f = f_s, s = n/2."""
    return IntegerMatrix([
        [2 * s, 0, 0, 0, 0, 0, 0],
        [0, 2 * e, 0, 0, 0, 0, 0],
        [3 * e, 0, 6 * e, 0, 0, 0, 0],
        [s - 2 * f, e + 4 * f, 0, 8 * f, 0, 0, 0],
        [0, 0, 0, 0, 6 * e, 0, 0],
        [s, 0, 0, 0, 0, e, 0],
        [_exact_div(f + s, 2), f, 0, 0, 3 * e, f, 2 * f],
    ])


def _even_split_template(s: int, e: int, f: int) -> IntegerMatrix:
    """Block-diagonal 4+3 target after rescaling, same parameters."""
    upper = [
        [s, 0, 0, 0],
        [_exact_div(s + f, 2), f, 0, 0],
        [0, 0, e, 0],
        [0, 0, 0, 3 * e],
    ]
    lower = [[f, 0, 0], [0, e, 0], [0, 0, 3 * e]]
    return _block_diag(upper, lower)


def _descale_even_stage(m3: IntegerMatrix) -> IntegerMatrix:
    """Undo the integral scaling of the even-branch stage matrix: divide
    rows 0, 1, 4 by 2, columns 2, 6 by 2, and column 3 by 8 (0-based).
    Raises ArithmeticError if any division is inexact."""
    rows = m3.to_lists()
    for i in (0, 1, 4):
        rows[i] = [_exact_div(x, 2) for x in rows[i]]
    for row in rows:
        row[2] = _exact_div(row[2], 2)
        row[6] = _exact_div(row[6], 2)
        row[3] = _exact_div(row[3], 8)
    return IntegerMatrix(rows)


def verify_reduction_pipeline(n: int) -> PipelineReport:
    """Replay the staged reduction of the 8x8 relations matrix for one n
    and report each stage.  Failures are recorded, never raised.

    Every stage is an exact identity; the one SNF is the final stage's.
    The rank-one split is certified by vanishing line sums: with rows 4-7
    negated, adding every row to row 0 and then every column to column 0
    is unimodular and turns M into 0 (+) its 7x7 deletion M1 (rows 4-7
    still negated), so SNF(M) = SNF(M1) + (0,).  The nine constant
    multipliers are checked for det = +-1 once per process."""
    _require_c4xcn_n(n)
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, good: str, bad: str) -> None:
        checks.append((name, passed, good if passed else bad))

    def stage(name: str, product: IntegerMatrix, template: IntegerMatrix,
              what: str) -> IntegerMatrix:
        """Record the exact identity ``product == template``, where ``what``
        names the template, and return the product for the next stage."""
        record(name, product == template,
               f"product equals the {what}", f"product differs from the {what}")
        return product

    bad = _non_unimodular_fixtures()
    record(
        "fixture-unimodularity",
        not bad,
        "all nine constant multipliers have det = +-1",
        f"non-unimodular fixtures: {', '.join(bad)}",
    )

    m_minus_i = relations_matrix(n)
    signed = m_minus_i.to_lists()
    signed[4:] = [[-x for x in row] for row in signed[4:]]
    sums = [("row", k, sum(line)) for k, line in enumerate(signed)]
    sums += [("column", k, sum(line)) for k, line in enumerate(zip(*signed))]
    bad_sum = next((f"{kind} {k} sums to {_clip(total)}" for kind, k, total in sums if total), None)
    record(
        "rank-one-split",
        bad_sum is None,
        "with rows 4-7 negated every row and column sums to zero, so the"
        " 8x8 SNF is the 7x7 deletion's plus one zero",
        f"with rows 4-7 negated, {bad_sum}",
    )

    m2 = stage("seven-term-template", _L1 @ m_minus_i.delete_row_col(0, 0) @ _R1,
               _seven_template(n), "folded-sequence template")
    s, x, y = parity_split(n)
    shifted = (_U ** (s + 1)) @ m2
    if n % 2:
        final = stage("odd-block-split", _L2 @ shifted @ _R2,
                      _odd_split_template(n, x, y), "3+4 block-diagonal template")
    else:
        final = stage("even-stage-template", _L3 @ shifted @ _R3,
                      _even_stage_template(s, x, y), "scaled triangular template")
        try:
            descaled = _descale_even_stage(final)
        except ArithmeticError as exc:
            checks.append(("even-descale-exact", False, str(exc)))
        else:
            checks.append(("even-descale-exact", True, "row/column rescaling divides out exactly"))
            stage("even-block-split", _L4 @ descaled @ _R4,
                  _even_split_template(s, x, y), "4+3 block-diagonal template")

    expected = closed_form_group(n)
    got = AbelianGroup(tuple(d for d in snf(final).diagonal if d > 1))
    # a factor can pass the digit limit of str(): only a failure names them
    if got == expected:
        checks.append(("final-snf-closed-form", True, "SNF of the final stage equals the closed form"))
    else:
        got_text, expected_text = (
            format_group([_clip(f) for f in g.invariant_factors]) for g in (got, expected)
        )
        checks.append(("final-snf-closed-form", False,
                       f"final-stage SNF {got_text} != closed form {expected_text}"))

    return PipelineReport(n=n, stage_checks=tuple(checks))
