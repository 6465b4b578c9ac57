"""Spanning-tree counts of C4 x Cn, three independent ways.

  * closed form:  4n h_s^4 g_s^2 for odd n = 2s+1, and
                  2^8 3^2 s e_s^4 f_s^2 for even n = 2s
                  (the two cases agree with the single expression
                  2^7 3^2 n e_{n/2}^4 f_{n/2}^2 without ever needing
                  half-integer indices);
  * matrix-tree:  exact determinant of the Laplacian with one row and
                  column deleted (any connected multigraph), by unit-pivot
                  elimination and Bareiss on the core that is left;
  * eigenvalues:  the count equals 4n times the product over j of
                  (4 - 2cos(2 pi j / n))^2 (6 - 2cos(2 pi j / n)),
                  checked in log space against the exact integer, whose
                  log ``math.log`` takes at any size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .exactla import _clip, det
from .graph import Multigraph, _require_c4xcn_n, sparse_laplacian
from .seq import parity_split


@dataclass(frozen=True)
class TreeCountReport:
    """Results of the spanning-tree cross-checks for one n."""

    n: int
    closed_form: int
    trig_log_residual: float
    trig_tolerance: float

    @property
    def trig_passed(self) -> bool:
        return abs(self.trig_log_residual) <= self.trig_tolerance


def tree_count_closed(n: int) -> int:
    """Spanning-tree count of C4 x Cn in closed form."""
    _require_c4xcn_n(n)
    s, x, y = parity_split(n)
    return (4 * n if n % 2 else 2**8 * 3**2 * s) * x**4 * y**2


def tree_count_matrix(g: Multigraph) -> int:
    """Spanning-tree count of any multigraph: determinant of the
    Laplacian with row 0 and column 0 deleted.  Returns 0 exactly when
    the graph is disconnected."""
    if g.vertex_count == 1:
        return 1
    return det(sparse_laplacian(g, reduced=True))


def _require_tolerance(rel_tolerance: float) -> None:
    # compared, not converted: float() of an int past the float range raises
    if not 0 < rel_tolerance <= sys.float_info.max:
        raise ValueError(f"relative tolerance must be positive and finite, got {_clip(rel_tolerance)}")


def trig_product_check(
    n: int, rel_tolerance: float = 1e-9, *, count: Optional[int] = None
) -> TreeCountReport:
    """Compare the closed-form count against the Laplacian-eigenvalue
    product, in log space.  ``count`` is the closed-form count when the
    caller has it already; it is computed otherwise.

    The floating-point sum of 2*ln(4 - 2cos(2 pi j/n)) + ln(6 - 2cos(2
    pi j/n)) over 1 <= j < n is compared to ln(count) - ln(4n); the
    report carries the relative residual and passes iff it is within
    ``rel_tolerance``.
    """
    _require_c4xcn_n(n)
    _require_tolerance(rel_tolerance)
    if count is None:
        count = tree_count_closed(n)
    total = 0.0
    for j in range(1, n):
        c = 2.0 * math.cos(2.0 * math.pi * j / n)
        total += 2.0 * math.log(4.0 - c) + math.log(6.0 - c)
    target = math.log(count) - math.log(4 * n)
    residual = (total - target) / target
    return TreeCountReport(
        n=n,
        closed_form=count,
        trig_log_residual=residual,
        trig_tolerance=rel_tolerance,
    )
