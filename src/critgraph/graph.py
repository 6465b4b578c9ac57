"""Multigraphs (no self-loops, multi-edges allowed) and exact Laplacians.

Construction helpers cover cycles, Cartesian products, and the four-cycle
prism family C4 x Cn.  The C4 x Cn vertex (layer i, ring position j) is
encoded as ``4*i + j`` so each C4 layer occupies a contiguous index block.
"""

from __future__ import annotations

import operator
from typing import Mapping

from .exactla import IntegerMatrix, SparseMatrix, _clip, _read_int


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Multigraph:
    """Immutable undirected multigraph: a vertex count and a multiplicity
    map over unordered vertex pairs."""

    __slots__ = ("_n", "_edges")

    def __init__(self, vertex_count: int, edges: Mapping[tuple[int, int], int] | None = None):
        # operator.index rejects floats and the like instead of truncating them
        vertex_count = operator.index(vertex_count)
        if vertex_count < 1:
            raise ValueError(f"vertex count must be >= 1, got {_clip(vertex_count)}")
        self._n = vertex_count
        cleaned: dict[tuple[int, int], int] = {}
        for (u, v), mult in (edges or {}).items():
            u, v, mult = operator.index(u), operator.index(v), operator.index(mult)
            if u == v:
                raise ValueError(f"self-loop at vertex {_clip(u)} is not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({_clip(u)}, {_clip(v)}) out of range for "
                                 f"{_clip(vertex_count)} vertices")
            if mult < 1:
                raise ValueError(f"edge ({_clip(u)}, {_clip(v)}) has non-positive multiplicity "
                                 f"{_clip(mult)}")
            key = _edge_key(u, v)
            cleaned[key] = cleaned.get(key, 0) + mult
        self._edges = cleaned

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        return dict(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, tuple(sorted(self._edges.items()))))

    def __repr__(self) -> str:
        return f"Multigraph(vertex_count={self._n}, edges={len(self._edges)} pairs)"


def cycle(n: int) -> Multigraph:
    """Simple cycle on n >= 3 vertices; vertex i is adjacent to i +- 1 mod n."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {_clip(n)}")
    edges = {(i, (i + 1) % n): 1 for i in range(n)}
    return Multigraph(n, edges)


def cartesian_product(g1: Multigraph, g2: Multigraph) -> Multigraph:
    """Cartesian product; vertex (u, v) is encoded as u + v * |V1|.

    (u1, v1) ~ (u2, v2) iff u1 = u2 and v1 ~ v2, or u1 ~ u2 and v1 = v2;
    multiplicities are inherited from the contributing edge.
    """
    n1, n2 = g1.vertex_count, g2.vertex_count
    # both factors' keys are ordered pairs, and so are the product's: a
    # layer edge and a ring edge never join the same pair, so no key repeats
    edges = {
        (u1 + v * n1, u2 + v * n1): mult for v in range(n2) for (u1, u2), mult in g1._edges.items()
    }
    edges.update({
        (u + v1 * n1, u + v2 * n1): mult for u in range(n1) for (v1, v2), mult in g2._edges.items()
    })
    # the edges come from two checked factors, so Multigraph's checks are not re-run
    product = Multigraph(n1 * n2)
    product._edges = edges
    return product


def _require_c4xcn_n(n: int) -> None:
    """Reject n < 3, for which C4 x Cn is not defined; every function of
    the C4 x Cn family checks its n here."""
    if n < 3:
        raise ValueError(f"C4 x Cn needs n >= 3, got {_clip(n)}")


def c4xcn(n: int) -> Multigraph:
    """The prism-of-cycles C4 x Cn: n four-cycle layers, layer vertex
    (i, j) encoded as 4*i + j, joined ring-to-ring between consecutive
    layers.  4-regular with 8n edges; this is ``cartesian_product(cycle(4),
    cycle(n))``, whose vertex (j, i) is encoded as the same j + 4*i."""
    _require_c4xcn_n(n)
    return cartesian_product(cycle(4), cycle(n))


def sparse_laplacian(g: Multigraph, *, reduced: bool = False) -> SparseMatrix:
    """Laplacian as dict rows of its nonzero entries, built straight from
    the edge map in O(|V| + |E|): degree on the diagonal, minus edge
    multiplicity off the diagonal.  ``reduced`` deletes row 0 and column 0,
    the minor of the Matrix-Tree theorem (needs at least two vertices)."""
    first = 1 if reduced else 0
    rows: list[dict[int, int]] = [{} for _ in range(g.vertex_count - first)]
    for (u, v), mult in g._edges.items():
        # edge keys have u < v, so only u can fall before ``first``
        u -= first
        v -= first
        if u >= 0:
            rows[u][v] = -mult
            rows[v][u] = -mult
            rows[u][u] = rows[u].get(u, 0) + mult
        rows[v][v] = rows[v].get(v, 0) + mult
    return SparseMatrix(rows, len(rows))


def laplacian(g: Multigraph) -> IntegerMatrix:
    """Dense view of :func:`sparse_laplacian`.  Symmetric with zero row
    sums."""
    return sparse_laplacian(g).to_dense()


def parse_edge_list(text: str) -> Multigraph:
    """Parse the edge-list text format.

    One edge per line: ``u v [multiplicity]`` with 0-based vertex ids.
    ``#`` starts a comment; blank lines are skipped.  An optional header
    line ``vertices N`` fixes the vertex count, otherwise it is one plus
    the largest id seen.  Repeated pairs accumulate multiplicity.
    """
    vertex_count: int | None = None
    edges: dict[tuple[int, int], int] = {}
    max_id = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        where = f"line {lineno}"
        if parts[0] == "vertices":
            if len(parts) != 2:
                raise ValueError(f"{where}: header must be 'vertices N'")
            if vertex_count is not None:
                raise ValueError(f"{where}: duplicate 'vertices' header")
            vertex_count = _read_int(parts[1], where)
            if vertex_count < 1:
                raise ValueError(f"{where}: vertex count must be >= 1, got {_clip(vertex_count)}")
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"{where}: expected 'u v [multiplicity]', got {_clip(body)!r}")
        u, v = _read_int(parts[0], where), _read_int(parts[1], where)
        mult = _read_int(parts[2], where) if len(parts) == 3 else 1
        if u < 0 or v < 0:
            raise ValueError(f"{where}: vertex ids must be >= 0")
        if mult < 1:
            raise ValueError(f"{where}: multiplicity must be >= 1, got {_clip(parts[2])}")
        if u == v:
            raise ValueError(f"{where}: self-loop at vertex {_clip(parts[0])} is not allowed")
        key = _edge_key(u, v)
        edges[key] = edges.get(key, 0) + mult
        max_id = max(max_id, key[1])
    if vertex_count is None:
        if max_id < 0:
            raise ValueError("edge list is empty and has no 'vertices' header")
        vertex_count = max_id + 1
    elif max_id >= vertex_count:
        raise ValueError(f"vertex id {_clip(max_id)} is out of range for 'vertices {_clip(vertex_count)}'")
    return Multigraph(vertex_count, edges)
