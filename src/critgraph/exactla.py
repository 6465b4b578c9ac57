"""Exact integer linear algebra over Python's arbitrary-precision integers.

The central routine is :func:`snf`, a Smith-normal-form engine driven by
unimodular row/column operations (swaps, negations, integer-multiple
additions, and extended-gcd 2x2 combinations, each a product of the
elementary operations).  The dense engine writes both kinds through one
routine, :func:`_clear_column`, which clears a column by row operations:
a column operation is a row operation on the transpose.  The engine is
cross-checkable against :func:`invariant_factors_from_divisors`, a
brute-force oracle that computes determinantal divisors by enumerating
all k x k minors.  The oracle is combinatorially expensive and is capped
at matrices whose smaller dimension is at most 8.

Without transforms, :func:`snf` and :func:`det` first run a sparse
pre-pass, :func:`_eliminate_units`, that takes the +-1 pivots from the
shortest row that holds one, in the column with the fewest entries; each
is a unit invariant factor and a factor +-1 of the determinant.  Its heap
holds (row length, row) items: a row's length changes only when an
update touches it, so each touched row is pushed once, and a popped item
whose length is out of date is dropped.  The pre-pass reads a
:class:`SparseMatrix`, dict rows of the nonzero entries; both entry
points take one as it is and convert an ``IntegerMatrix`` once.  Graph
Laplacians, built sparse from their edges (``graph.sparse_laplacian``),
mostly eliminate this way (C4 x Cn down to an 8 x 8 core), and only the
core goes to the dense engine or to the Bareiss fraction-free
elimination, which stays in the integers throughout.  The dense engine
with transforms, and :func:`det_bareiss` on the whole matrix, are the
oracles the pre-pass is tested against.

``SnfResult.peak_bit_length`` is the largest bit length of an entry the
SNF held: with transforms, what the dense pivot scans saw (the input and
every remaining submatrix); without, the input's entries, the entries
the pre-pass wrote, and what the dense scans of the core saw.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

_ORACLE_DIM_CAP = 8


class IntegerMatrix:
    """Dense, immutable matrix of arbitrary-precision integers."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        # operator.index rejects floats and the like instead of truncating them
        data = [list(map(operator.index, row)) for row in rows]
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("all rows must have the same length")
        self._rows = data

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def col_count(self) -> int:
        return len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.row_count == self.col_count

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self._rows[i][j]

    def to_lists(self) -> list[list[int]]:
        """Deep copy of the entries as plain lists."""
        return [row[:] for row in self._rows]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "IntegerMatrix":
        return IntegerMatrix([[self._rows[i][j] for j in cols] for i in rows])

    def delete_row_col(self, i: int, j: int) -> "IntegerMatrix":
        rows = [r for r in range(self.row_count) if r != i]
        cols = [c for c in range(self.col_count) if c != j]
        return self.submatrix(rows, cols)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.col_count != other.row_count:
            raise ValueError(
                f"dimension mismatch: {self.row_count}x{self.col_count} @ "
                f"{other.row_count}x{other.col_count}"
            )
        bt = list(zip(*other._rows))
        return IntegerMatrix(
            [[sum(map(operator.mul, row, col)) for col in bt] for row in self._rows]
        )

    def __pow__(self, exponent: int) -> "IntegerMatrix":
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        if exponent < 0:
            raise ValueError("negative matrix powers are not supported")
        result = IntegerMatrix.identity(self.row_count)
        base = self
        while exponent:
            if exponent & 1:
                result = result @ base
            exponent >>= 1
            if exponent:
                base = base @ base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(tuple(tuple(row) for row in self._rows))

    def __repr__(self) -> str:
        return f"IntegerMatrix({self._rows!r})"

    def __str__(self) -> str:
        widths = [
            max(len(str(self._rows[i][j])) for i in range(self.row_count))
            for j in range(self.col_count)
        ]
        lines = [
            " ".join(str(x).rjust(w) for x, w in zip(row, widths))
            for row in self._rows
        ]
        return "\n".join(lines)


class SparseMatrix:
    """Integer matrix held as one dict per row, column -> entry, of its
    nonzero entries; the input :func:`snf` and :func:`det` read without
    transforms.  The dicts are shared, not copied, and never written."""

    __slots__ = ("rows", "col_count")

    def __init__(self, rows: list[dict[int, int]], col_count: int):
        if not rows or col_count < 1:
            raise ValueError("matrix must have at least one row and one column")
        # as in IntegerMatrix: a float raises TypeError, and a key outside
        # the columns ValueError, rather than give a wrong SNF later
        for i, entries in enumerate(rows):
            for j, x in entries.items():
                operator.index(x)
                if not 0 <= operator.index(j) < col_count:
                    raise ValueError(
                        f"row {i} has column {_clip(j)}, outside 0..{_clip(col_count - 1)}"
                    )
        self.rows = rows
        self.col_count = col_count

    @classmethod
    def from_dense(cls, a: IntegerMatrix) -> "SparseMatrix":
        return cls([{j: x for j, x in enumerate(row) if x} for row in a._rows], a.col_count)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def is_square(self) -> bool:
        return self.row_count == self.col_count

    def to_dense(self) -> IntegerMatrix:
        dense = []
        for entries in self.rows:
            row = [0] * self.col_count
            for j, x in entries.items():
                row[j] = x
            dense.append(row)
        return IntegerMatrix(dense)


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form: diagonal divisibility chain plus optional transforms.

    When transforms were requested, ``left_transform @ a @ right_transform``
    equals ``diag(diagonal)`` and both transforms are unimodular.
    """

    diagonal: tuple[int, ...]
    left_transform: Optional[IntegerMatrix] = None
    right_transform: Optional[IntegerMatrix] = None
    peak_bit_length: int = 0

    def nonzero_diagonal(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0, for b nonzero.  x is
    the inverse of a/g modulo m = |b/g| of least |x| (x = 0 when m = 1);
    the one tie, x = +-1 at m = 2, takes the sign of b."""
    g = math.gcd(a, b)
    m = abs(b // g)
    x = pow(a // g, -1, m)
    if 2 * x > m or (2 * x == m and b < 0):
        x -= m
    return g, x, (g - x * a) // b


def _min_abs_pivot(
    m: list[list[int]], t: int, nr: int, nc: int
) -> tuple[Optional[tuple[int, int]], int]:
    """Position of the first (row-major) minimal-|value| nonzero entry in
    m[t:nr, t:nc], and the largest bit length seen in that submatrix."""
    best: Optional[tuple[int, int]] = None
    best_abs = 0
    top = 0
    for i in range(t, nr):
        row = m[i]
        for j in range(t, nc):
            x = row[j]
            if x:
                ax = -x if x < 0 else x
                if ax > top:
                    top = ax
                if best is None or ax < best_abs:
                    best, best_abs = (i, j), ax
    return best, top.bit_length()


def _clear_column(m: list[list[int]], t: int, c: int, rows: int) -> None:
    """Zero ``m[t+1:rows][c]`` by row operations against row t, whose
    entry ``m[t][c]`` is the pivot: subtract a multiple of row t when the
    pivot divides the entry, else apply the extended-gcd 2x2 combination
    of the two rows, which makes the pivot their gcd."""
    for i in range(t + 1, rows):
        v = m[i][c]
        if not v:
            continue
        pivot = m[t][c]
        mt, mi = m[t], m[i]
        if v % pivot == 0:
            f = v // pivot
            m[i] = [y - f * x for x, y in zip(mt, mi)]
        else:
            g, aa, bb = _ext_gcd(pivot, v)
            cc, dd = v // g, -(pivot // g)
            m[t] = [aa * x + bb * y for x, y in zip(mt, mi)]
            m[i] = [cc * x + dd * y for x, y in zip(mt, mi)]


def _dense_snf(m: list[list[int]], want_transforms: bool) -> SnfResult:
    """Dense Smith normal form of ``m``, a nonempty list of equal-length
    rows, which it overwrites when no transforms are wanted.

    Each stage moves the nonzero entry of minimal absolute value in the
    remaining submatrix to the pivot position and clears the pivot column
    with :func:`_clear_column`.  The pivot row is cleared by the same
    routine, as the pivot column of the transpose of rows t on (a column
    operation is a row operation on the transpose, as in Kannan & Bachem,
    SIAM J. Comput. 1979); rows above t are zero from column t on, so
    column operations leave them as they are.  Non-divisible entries are
    handled with an extended-gcd 2x2 block combination (the pivot becomes
    the gcd in one step), which keeps intermediate entries from the
    explosive growth that a naive swap-and-reduce cascade produces.  Once
    the cross is clear, the pivot is forced to divide the remaining
    submatrix by the usual add-a-row fix-up.  Diagonal entries come out
    nonnegative, with zeros (rank deficiency) at the tail.

    With transforms, the loop runs on the bordered matrix
    ``[[m, I], [I, 0]]`` and reads and reduces only its first nr rows and
    nc columns: each row operation carries the right border into the left
    transform, and each column operation the lower border into the right
    transform.  The transpose of a bordered matrix is bordered the same
    way, so the lower border goes through the transposition as rows do.
    """
    nr, nc = len(m), len(m[0])
    if want_transforms:
        m = [row + [int(i == k) for k in range(nr)] for i, row in enumerate(m)] + [
            [int(j == k) for k in range(nc)] + [0] * nr for j in range(nc)
        ]
    peak = 0

    for t in range(min(nr, nc)):
        pos, sub_peak = _min_abs_pivot(m, t, nr, nc)
        if sub_peak > peak:
            peak = sub_peak
        if pos is None:
            break
        i, j = pos
        m[i], m[t] = m[t], m[i]
        for row in m[t:]:
            row[j], row[t] = row[t], row[j]

        while True:
            # a gcd step on the row can refill the column, and one on the
            # column the row: the cross is clear when the row is clear
            # after the column
            _clear_column(m, t, t, nr)
            if any(m[t][t + 1 : nc]):
                cols = list(map(list, zip(*m[t:])))
                _clear_column(cols, t, 0, nc)
                m[t:] = map(list, zip(*cols))
                continue
            # Pivot must divide every remaining entry; if not, pull the
            # offending row up and keep reducing (this shrinks the pivot).
            pivot = m[t][t]
            offender = next((row for row in m[t + 1 : nr] for x in row[t + 1 : nc] if x % pivot), None)
            if offender is None:
                break
            m[t] = [x + y for x, y in zip(m[t], offender)]

        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]

    diag = tuple(m[i][i] for i in range(min(nr, nc)))
    return SnfResult(
        diagonal=diag,
        left_transform=IntegerMatrix(row[nc:] for row in m[:nr]) if want_transforms else None,
        right_transform=IntegerMatrix(row[:nc] for row in m[nr:]) if want_transforms else None,
        peak_bit_length=peak,
    )


def _permutation_sign(order: list[int]) -> int:
    """Sign (+1 or -1) of ``order``, a permutation of range(len(order))."""
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        if seen[start]:
            continue
        seen[start] = True
        j = order[start]
        while j != start:  # a cycle of length L flips the sign L - 1 times
            seen[j] = True
            j = order[j]
            sign = -sign
    return sign


def _eliminate_units(a: SparseMatrix) -> tuple[int, int, list[list[int]], int]:
    """Sparse elimination of the +-1 pivots of ``a`` (only read), ahead
    of a dense engine that then runs on the small core that is left.

    The rows are copied (zero entries dropped), and an index from each
    column to the rows that have an entry there is built.  While a
    remaining row holds a +-1 entry, the shortest such row is the pivot
    row, and its +-1 entry in the column with the fewest entries is the
    pivot (the row-count form of Markowitz ordering: Tinney & Walker,
    Proc. IEEE 1967).  A multiple of the pivot row is subtracted from
    every other row with an entry in the pivot column, then the pivot row
    and column are dropped, since column operations clear the rest of the
    pivot row without touching any other row.  Each pivot is one unit
    invariant factor.  Laplacian off-diagonal entries are units, so a
    graph Laplacian mostly eliminates this way with no gcd step (Dumas,
    Saunders & Villard, JSC 2001).

    The queue holds items (row length, row).  A row changes only when an
    update touches it, so each touched row is pushed once, at its new
    length, and every row holding a +-1 entry keeps an item at its
    current length.  A popped item whose row is gone or whose length is
    out of date is dropped, and so is a row with no +-1 entry; it is
    pushed again when an update next writes to it.  The first item that
    survives is the least (length, row) of the rows holding a +-1 entry.

    Ties go to the lowest row, then column, index.  The vertices of
    C4 x Cn are numbered layer by layer, so this sweeps along the cycle
    and leaves an 8 x 8 core (6 x 6 at n = 3), the paper's eight
    generators.

    Returns ``(units, sign, core, peak)``: the number of pivots; a sign
    such that det(a) = sign * det(core) when a is square (the pivots and
    the parity of their positions); the remaining rows and columns as
    dense rows in their original order, with no +-1 entry (``[]`` when
    no row remains); and the largest bit length of an input entry or of
    an entry the elimination wrote.
    """
    nr, nc = a.row_count, a.col_count
    rows: dict[int, dict[int, int]] = {}
    cols: list[set[int]] = [set() for _ in range(nc)]
    queue = []
    # the largest and the smallest entry held, for the peak bit length
    hi = lo = 0
    for i, row in enumerate(a.rows):
        entries = {j: x for j, x in row.items() if x}
        if entries:
            rows[i] = entries
            queue.append((len(entries), i))
            for j, x in entries.items():
                cols[j].add(i)
                if x > hi:
                    hi = x
                elif x < lo:
                    lo = x
    heapq.heapify(queue)
    push, pop = heapq.heappush, heapq.heappop
    row_order: list[int] = []
    col_order: list[int] = []
    sign = 1
    while queue:
        length, i = pop(queue)
        pivot_row = rows.get(i)
        if pivot_row is None or len(pivot_row) != length:
            continue
        units = [(len(cols[k]), k) for k, x in pivot_row.items() if x == 1 or x == -1]
        if not units:
            continue
        j = min(units)[1]
        del rows[i]
        pivot = pivot_row.pop(j)
        sign *= pivot
        for k in pivot_row:
            cols[k].discard(i)
        column = cols[j]
        cols[j] = set()
        column.discard(i)
        for t in column:
            entries = rows[t]
            factor = entries.pop(j) * pivot  # entry / pivot, as pivot is +-1
            for k, y in pivot_row.items():
                x = entries.get(k)
                if x is None:
                    x = -factor * y
                    cols[k].add(t)
                else:
                    x -= factor * y
                    if not x:
                        del entries[k]
                        cols[k].discard(t)
                        continue
                entries[k] = x
                if x > hi:
                    hi = x
                elif x < lo:
                    lo = x
            if entries:
                push(queue, (len(entries), t))
            else:
                del rows[t]
        row_order.append(i)
        col_order.append(j)
    pivot_rows, pivot_cols = set(row_order), set(col_order)
    rest_rows = [i for i in range(nr) if i not in pivot_rows]
    rest_cols = [j for j in range(nc) if j not in pivot_cols]
    sign *= _permutation_sign(row_order + rest_rows) * _permutation_sign(col_order + rest_cols)
    core = []
    for i in rest_rows:
        entries = rows.get(i, {})
        core.append([entries.get(j, 0) for j in rest_cols])
    return len(row_order), sign, core, max(hi.bit_length(), lo.bit_length())


def _sparse(a: IntegerMatrix | SparseMatrix) -> SparseMatrix:
    return a if isinstance(a, SparseMatrix) else SparseMatrix.from_dense(a)


def snf(a: IntegerMatrix | SparseMatrix, want_transforms: bool = False) -> SnfResult:
    """Smith normal form of an arbitrary rectangular integer matrix,
    dense or sparse.

    Without transforms, :func:`_eliminate_units` first takes every +-1
    pivot by sparse elimination; each is a unit invariant factor.  The
    dense engine then runs on the core that is left only: the diagonal is
    the units, then the core's diagonal (zeros, for rank deficiency, at
    the tail).  A matrix with no +-1 entry, such as the 8 x 8 relations
    matrix for n >= 4, goes to the dense engine whole.  With transforms,
    the dense engine runs on the whole matrix, and ``left_transform @ a @
    right_transform`` is the diagonal; that path is also the oracle the
    pre-pass is tested against.

    ``peak_bit_length`` is the largest bit length of any entry the
    computation held: on the transform path, what the dense pivot scans
    saw; without transforms, the larger of the input's and the pre-pass's
    entries and what the dense scans of the core saw.
    """
    if want_transforms:
        if isinstance(a, SparseMatrix):
            a = a.to_dense()
        return _dense_snf(a.to_lists(), True)
    units, _, core, peak = _eliminate_units(_sparse(a))
    diagonal = (1,) * units
    if core and core[0]:
        dense = _dense_snf(core, False)
        diagonal += dense.diagonal
        peak = max(peak, dense.peak_bit_length)
    return SnfResult(diagonal=diagonal, peak_bit_length=peak)


def det(a: IntegerMatrix | SparseMatrix) -> int:
    """Exact determinant of a dense or sparse matrix: the +-1 pivots of
    :func:`_eliminate_units`, then :func:`det_bareiss` on the core that
    is left."""
    if not a.is_square:
        raise ValueError("determinant requires a square matrix")
    _, sign, core, _ = _eliminate_units(_sparse(a))
    return sign * det_bareiss(IntegerMatrix(core)) if core else sign


def det_bareiss(a: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise ValueError("determinant requires a square matrix")
    n = a.row_count
    m = a.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            m[i] = [
                (pivot * m[i][j] - mik * m[k][j]) // prev if j > k else 0
                for j in range(n)
            ]
        prev = pivot
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntegerMatrix) -> bool:
    """True iff the (square) matrix has determinant +1 or -1."""
    if not a.is_square:
        raise ValueError("unimodularity requires a square matrix")
    return det_bareiss(a) in (1, -1)


def determinantal_divisor(a: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors, by exhaustive enumeration.

    This is the independent oracle for the SNF engine; the enumeration is
    capped at min(rows, cols) <= 8.
    """
    nr, nc = a.row_count, a.col_count
    if min(nr, nc) > _ORACLE_DIM_CAP:
        raise ValueError(
            f"minor enumeration is capped at min dimension {_ORACLE_DIM_CAP}"
        )
    if not 1 <= k <= min(nr, nc):
        raise ValueError(f"minor order {_clip(k)} out of range for {nr}x{nc} matrix")
    g = 0
    for rows in itertools.combinations(range(nr), k):
        for cols in itertools.combinations(range(nc), k):
            g = math.gcd(g, det_bareiss(a.submatrix(rows, cols)))
            if g == 1:
                return 1
    return g


def invariant_factors_from_divisors(a: IntegerMatrix) -> tuple[int, ...]:
    """Invariant factors as successive quotients of determinantal divisors.

    Returns the full diagonal (length min(rows, cols)): after the first
    vanishing divisor every remaining factor is 0.  Agrees with
    ``snf(a).diagonal`` and serves as its oracle.
    """
    n = min(a.row_count, a.col_count)
    factors: list[int] = []
    prev = 1
    for k in range(1, n + 1):
        d = determinantal_divisor(a, k)
        if d == 0:
            factors.extend([0] * (n - len(factors)))
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


def canonical_chain(factors: Sequence[int]) -> tuple[int, ...]:
    """Reorder/merge positive integers into the unique divisibility chain.

    Repeatedly replaces adjacent pairs (a, b) with (gcd(a, b), lcm(a, b))
    until every entry divides the next; no factorization is performed.
    """
    chain = [int(x) for x in factors]
    if any(x < 1 for x in chain):
        raise ValueError("canonical_chain requires positive entries")
    changed = True
    while changed:
        changed = False
        for i in range(len(chain) - 1):
            x, y = chain[i], chain[i + 1]
            if y % x:
                g = math.gcd(x, y)
                chain[i], chain[i + 1] = g, x * y // g
                changed = True
    return tuple(chain)


def _clip(value: str | int | float, width: int = 80) -> str:
    """``value`` as message text cut to ``width`` characters, the one way an
    error or a report names input or a number.  A number is written by
    ``str()``, or, for an int whose digits ``str()`` refuses under the
    interpreter's limit, by its sign and bit length: ``-<16610-bit integer>``."""
    if isinstance(value, (int, float)):
        try:
            value = str(value)
        except ValueError:
            value = f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return value if len(value) <= width else value[: width - 3] + "..."


def _read_int(token: str, where: str | Callable[[], str] | None = None) -> int:
    """``int(token)`` for text from outside the program: command-line
    arguments, edge lists and matrix files all convert here.  A failure
    is a ValueError that starts with ``where`` (a string, or a function
    called only on failure) and names the cause in a bounded message:
    the interpreter's cap on the digits of a decimal string
    (``sys.get_int_max_str_digits()``, which bounds the quadratic-time
    conversion of untrusted input and is left as it is), or a token that
    is not an integer, clipped to 80 characters."""
    try:
        return int(token)
    except ValueError:
        pass
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = token.strip().lstrip("+-").replace("_", "")
    if limit and len(digits) > limit and digits.isdecimal():
        cause = f"integer field has {len(digits)} digits; input integers are limited to {limit} digits"
    else:
        cause = f"not an integer: {_clip(token)!r}"
    if where is None:
        raise ValueError(cause) from None
    raise ValueError(f"{where() if callable(where) else where}: {cause}") from None


def parse_matrix(text: str) -> IntegerMatrix:
    """Parse the matrix text format: first line ``rows cols``, then
    row-major whitespace-separated integers (line breaks are free)."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix file must start with 'rows cols'")
    nr, nc = (_read_int(tok, "bad matrix header") for tok in tokens[:2])
    if nr < 1 or nc < 1:
        raise ValueError("matrix dimensions must be positive")
    body = tokens[2:]
    if len(body) != nr * nc:
        # the product is compared, never printed: its digits can pass the limit
        header = f"{_clip(tokens[0])} {_clip(tokens[1])}"
        raise ValueError(f"matrix header '{header}' does not match the {len(body)} entries that follow")
    # the position is formatted only for an entry that fails to convert
    values = [
        _read_int(tok, lambda: f"row {k // nc + 1}, column {k % nc + 1}") for k, tok in enumerate(body)
    ]
    return IntegerMatrix([values[i * nc : (i + 1) * nc] for i in range(nr)])
