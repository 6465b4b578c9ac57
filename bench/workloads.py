"""Seeded inputs for the three critgraph workloads, and the reference checks
that their outputs are held to.

Each workload is a seeded list of ops of fixed length (``LIST_OPS``) that
the timed loop walks in order, starting it again when it ends.  Every op
kind has a fixed share of the list, in shuffled blocks, and the sizes of
each kind are stratified: one size at the middle of each of equal slices of
the kind's range, with the slices in a seeded order that spreads every
prefix of the list over the whole range.  Lists of different seeds hold the
same sizes in different orders, and any part of a list holds an even mix.
The seed also draws the random multigraphs of ``laplacian`` and the
``subgroup`` multiples of ``closed-form``.

The reference checks run after the timed phase.  Each one recomputes the
expected answer by a route other than the one the op exercised.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

WORKLOADS = ("laplacian", "relations", "closed-form")

# Ops in one pass of each workload's list.  A pass takes 15-25 s on a
# 2-CPU x86-64 machine at the seed commit, so a 54 s run finishes it and
# starts it again.  Each count is a multiple of the workload's op kinds, so
# every kind has a fixed share of the list.
LIST_OPS = {"laplacian": 160, "relations": 300, "closed-form": 420}
GRAPH_POOL = 20

# Text of the error CPython raises when an int has more decimal digits than
# sys.get_int_max_str_digits() allows.
GUARD_TEXT = "for integer string conversion"

Graph = tuple[int, dict[tuple[int, int], int]]  # (vertices, multiplicities)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``argv`` for ``critgraph.cli.run``, or None
    for the library call ``verify_reduction_pipeline(params[0])``."""

    kind: str
    params: tuple[int, ...]
    argv: Optional[tuple[str, ...]]


@dataclass(frozen=True)
class Inputs:
    ops: list[Op]
    graphs: list[Graph]


def _grid(rng: random.Random, count: int, lo: int, hi: int, log: bool = False) -> list[int]:
    """``count`` integers from [lo, hi], one at the middle of each of
    ``count`` equal strata (equal in log size when ``log``), in an order set
    by the seed.  Lists of every seed hold the same sizes: the p50 of a
    workload whose sizes are small integers moves by a whole step when one
    size near the middle is drawn differently.  The strata come in the order
    of a golden-ratio sequence with a seeded start, so that every prefix
    covers the range evenly too: a run that ends part way through its second
    pass repeats an even share of small and large ops."""
    a, b = (math.log(lo), math.log(hi + 1)) if log else (float(lo), float(hi + 1))
    values = []
    for i in range(count):
        x = a + (b - a) * (i + 0.5) / count
        values.append(min(hi, int(math.exp(x) if log else x)))
    start = rng.random()
    points = [(start + j * _GOLDEN) % 1.0 for j in range(count)]
    strata = sorted(range(count), key=points.__getitem__)  # strata[s]: position of stratum s
    ordered = [0] * count
    for stratum, position in enumerate(strata):
        ordered[position] = values[stratum]
    return ordered


_GOLDEN = (math.sqrt(5) - 1) / 2


def _blocks(rng: random.Random, items: list) -> Iterator:
    """Endless sequence of ``items`` in shuffled blocks of len(items)."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def _random_multigraph(rng: random.Random, vertices: int, mean_degree: float,
                       max_mult: int) -> dict[tuple[int, int], int]:
    """Connected multigraph: a random recursive tree of simple edges, then
    extra multiplicity (new pairs or thicker old ones, each pair at most
    ``max_mult``) until the degree sum reaches ``mean_degree * vertices``."""
    order = list(range(vertices))
    rng.shuffle(order)
    edges: dict[tuple[int, int], int] = {}
    for i in range(1, vertices):
        u, v = order[i], order[rng.randrange(i)]
        edges[(min(u, v), max(u, v))] = 1
    total = vertices - 1
    target = round(mean_degree * vertices / 2)
    while total < target:
        u, v = rng.sample(range(vertices), 2)
        key = (min(u, v), max(u, v))
        have = edges.get(key, 0)
        if have >= max_mult:
            continue
        add = min(rng.randint(1, max_mult), max_mult - have, target - total)
        edges[key] = have + add
        total += add
    return edges


def _edge_list_text(vertices: int, edges: dict[tuple[int, int], int]) -> str:
    lines = [f"vertices {vertices}"]
    lines.extend(f"{u} {v} {m}" for (u, v), m in sorted(edges.items()))
    return "\n".join(lines) + "\n"


def _laplacian_ops(rng: random.Random, input_dir: Path) -> tuple[list[Op], list[Graph]]:
    input_dir.mkdir(parents=True, exist_ok=True)
    graphs: list[Graph] = []
    paths = []
    # Shuffled, so that sizes, degrees and multiplicities pair at random.
    sizes = _grid(rng, GRAPH_POOL, 24, 48)
    degrees = _grid(rng, GRAPH_POOL, 300, 600)
    rng.shuffle(sizes)
    rng.shuffle(degrees)
    for i, (vertices, degree) in enumerate(zip(sizes, degrees)):
        edges = _random_multigraph(rng, vertices, degree / 100, 1 + i % 3)
        graphs.append((vertices, edges))
        path = input_dir / f"graph{i:02d}.txt"
        path.write_text(_edge_list_text(vertices, edges), encoding="utf-8")
        paths.append(str(path))
    kinds = ["group-snf", "treecount-matrix", "verify-pipeline", "graph-group"]
    per_kind = LIST_OPS["laplacian"] // len(kinds)
    snf_n = iter(_grid(rng, per_kind, 16, 64))
    tree_n = iter(_grid(rng, per_kind, 16, 48))
    verify_a = iter(_grid(rng, per_kind, 3, 36))
    graph_i = _blocks(rng, list(range(GRAPH_POOL)))
    ops = []
    for kind in itertools.islice(_blocks(rng, kinds), LIST_OPS["laplacian"]):
        if kind == "group-snf":
            n = next(snf_n)
            ops.append(Op(kind, (n,), ("group", str(n), "--method", "snf", "--json")))
        elif kind == "treecount-matrix":
            n = next(tree_n)
            ops.append(Op(kind, (n,), ("treecount", str(n), "--check", "matrix", "--json")))
        elif kind == "verify-pipeline":
            a = next(verify_a)
            ops.append(Op(kind, (a,), ("verify", "--range", f"{a}..{a + 4}", "--pipeline")))
        else:
            i = next(graph_i)
            ops.append(Op(kind, (i,), ("graph-group", "--edges", paths[i], "--json")))
    return ops, graphs


def _relations_ops(rng: random.Random) -> list[Op]:
    kinds = ["group-relations", "pipeline"]
    per_kind = LIST_OPS["relations"] // len(kinds)
    group_n = iter(_grid(rng, per_kind, 3, 1500))
    pipe_n = iter(_grid(rng, per_kind, 3, 400))
    ops = []
    for kind in itertools.islice(_blocks(rng, kinds), LIST_OPS["relations"]):
        if kind == "group-relations":
            n = next(group_n)
            ops.append(Op(kind, (n,), ("group", str(n), "--method", "relations", "--json")))
        else:
            ops.append(Op(kind, (next(pipe_n),), None))
    return ops


_TABLE_KINDS = ["seq-e", "seq-f", "seq-h", "seq-g", "valuations"]
_SINGLE_KINDS = ["group", "treecount-trig", "subgroup"]


def _closed_form_ops(rng: random.Random) -> list[Op]:
    half = LIST_OPS["closed-form"] // 2
    per_table, per_single = half // len(_TABLE_KINDS), half // len(_SINGLE_KINDS)
    table_k = {kind: iter(_grid(rng, per_table, 200, 1500, log=True)) for kind in _TABLE_KINDS}
    single_n = {kind: iter(_grid(rng, per_single, 1000, 20000, log=True))
                for kind in _SINGLE_KINDS}
    multiples = _grid(rng, per_single, 0, 999)
    rng.shuffle(multiples)  # so that N1 and the multiple pair at random
    subgroup_k = iter(multiples)
    tables = _blocks(rng, _TABLE_KINDS)
    singles = _blocks(rng, _SINGLE_KINDS)
    ops = []
    for part in itertools.islice(_blocks(rng, ["table", "single"]), LIST_OPS["closed-form"]):
        if part == "table":
            kind = next(tables)
            k = next(table_k[kind])
            if kind == "valuations":
                argv = ("valuations", "--upto", str(k))
            else:
                argv = ("seq", kind[-1], "--upto", str(k))
            ops.append(Op(kind, (k,), argv))
            continue
        kind = next(singles)
        n = next(single_n[kind])
        if kind == "group":
            ops.append(Op(kind, (n,), ("group", str(n), "--json")))
        elif kind == "treecount-trig":
            ops.append(Op(kind, (n,), ("treecount", str(n), "--check", "trig", "--json")))
        else:
            n2 = n * (1 + next(subgroup_k) * (20000 // n) // 1000)
            ops.append(Op(kind, (n, n2), ("subgroup", str(n), str(n2), "--json")))
    return ops


def build(workload: str, seed: int, input_dir: Path) -> Inputs:
    """The op list of ``workload`` for ``seed``; writes the edge-list files
    of the laplacian workload under ``input_dir``."""
    rng = random.Random(f"critgraph-bench:{workload}:{seed}")
    graphs: list[Graph] = []
    if workload == "laplacian":
        ops, graphs = _laplacian_ops(rng, input_dir)
    elif workload == "relations":
        ops = _relations_ops(rng)
    elif workload == "closed-form":
        ops = _closed_form_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(ops=ops, graphs=graphs)


# --- reference checks -----------------------------------------------------


def _u_table(m: int, count: int) -> list[int]:
    """u_0(m) .. u_{count-1}(m) of x_k = (m+2) x_{k-1} - x_{k-2}, u_0 = 0, u_1 = 1."""
    out = [0, 1]
    while len(out) < count:
        out.append((m + 2) * out[-1] - out[-2])
    return out[:count]


def _valuation(x: int, p: int) -> int:
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def _valuation_rule(of_e: bool, prime: int, n: int) -> int:
    """Exponent of ``prime`` in e_n (``of_e``) or f_n, from the index n alone."""
    t2, t3 = _valuation(n, 2), _valuation(n, 3)
    if of_e:
        return t3 if prime == 3 else (t2 + 1 if t2 else 0)
    return t2 if prime == 2 else (t3 + 1 if t2 else 0)


class Reference:
    """Expected answers, each by a route other than the op's own, cached
    per input.  Uses critgraph only through its public functions."""

    def __init__(self, critgraph, graphs):
        self._cg = critgraph
        self._graphs = graphs
        self._cache: dict[tuple, object] = {}
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        self._too_big = 10 ** limit if limit else None

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def fits(self, x: int) -> bool:
        """True when str(x) is allowed under the interpreter's digit limit."""
        return self._too_big is None or abs(x) < self._too_big

    def group_factors(self, n: int) -> tuple[int, ...]:
        return self._memo(("group", n), lambda: self._cg.closed_form_group(n).invariant_factors)

    def tree_closed(self, n: int) -> int:
        return self._memo(("tree", n), lambda: self._cg.tree_count_closed(n))

    def tree_of_graph(self, i: int) -> int:
        def compute():
            vertices, edges = self._graphs[i]
            return self._cg.tree_count_matrix(self._cg.Multigraph(vertices, edges))
        return self._memo(("graph", i), compute)

    def table(self, kind: str, upto: int) -> list[int]:
        m = 2 if kind in ("e", "h") else 4
        u = _u_table(m, upto + 2)
        if kind in ("e", "f"):
            return u[: upto + 1]
        return [u[i] + u[i + 1] for i in range(upto + 1)]

    def valuation_flags(self, upto: int) -> dict[str, bool]:
        """Whether the index-only 2-/3-adic valuation rule holds for e_n, f_n, n = 2..upto."""
        e, f = _u_table(2, upto + 1), _u_table(4, upto + 1)
        return {
            label: all(_valuation(seq[n], prime) == _valuation_rule(seq is e, prime, n)
                       for n in range(2, upto + 1))
            for label, seq, prime in (("T2(e)", e, 2), ("T2(f)", f, 2), ("T3(e)", e, 3), ("T3(f)", f, 3))
        }


def _prod(values) -> int:
    return math.prod(int(v) for v in values)


def check(op: Op, rc: Optional[int], out: str, err: str, ref: Reference) -> tuple[bool, Optional[str]]:
    """(succeeded, problem).  The op succeeded when it exited 0 with output
    that matches the reference.  ``problem`` is None when the outcome is
    right: a success, or a failure by the interpreter's int-to-str digit
    limit on a value the reference confirms is over it.  Any other outcome,
    a mismatch included, is described in ``problem`` and counts as failed."""
    try:
        problem = _check_output(op, out, ref) if rc == 0 else _check_failure(op, rc, err, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problem = f"unreadable output: {exc!r}"
    return rc == 0 and problem is None, problem


def _check_failure(op: Op, rc: Optional[int], err: str, ref: Reference) -> Optional[str]:
    if rc != 2 or GUARD_TEXT not in err:
        return f"exit status {rc}: {err.strip()[-300:]}"
    if op.kind == "group":
        printed = [ref.tree_closed(op.params[0])]
    elif op.kind == "treecount-trig":
        printed = [ref.tree_closed(op.params[0])]
    elif op.kind == "subgroup":
        printed = list(ref.group_factors(op.params[0])) + list(ref.group_factors(op.params[1]))
    else:
        printed = []
    if all(ref.fits(x) for x in printed):
        return "failed on the digit limit, but every value it prints is under the limit"
    return None


def _check_output(op: Op, out: str, ref: Reference) -> Optional[str]:
    kind, p = op.kind, op.params
    if kind == "pipeline":
        data = json.loads(out)
        return None if data["all_passed"] else f"pipeline stages failed: {data['failed']}"
    if kind == "verify-pipeline":
        lines = out.splitlines()
        want = [f"n={n} ok" for n in range(p[0], p[0] + 5)]
        if len(lines) != 5 or any(not line.startswith(w) or "pipeline" not in line
                                  for line, w in zip(lines, want)):
            return f"verify output {lines!r}"
        return None
    if kind.startswith("seq-"):
        rows = [line.split() for line in out.splitlines()]
        if [int(r[0]) for r in rows] != list(range(p[0] + 1)):
            return "table indices are not 0..upto"
        if [int(r[1]) for r in rows] != ref.table(kind[-1], p[0]):
            return "table values differ from the reference recurrence"
        return None
    if kind == "valuations":
        got = {line.split(":")[0]: line.split(":")[1].split()[0] == "ok" for line in out.splitlines()}
        want = ref.valuation_flags(p[0])
        return None if got == want else f"valuation flags {got} != {want}"
    data = json.loads(out)
    if kind in ("group-snf", "group-relations"):
        got = tuple(int(x) for x in data["invariant_factors"])
        want = ref.group_factors(p[0])
        return None if got == want else f"factors {got} != closed form {want}"
    if kind == "group":
        order = int(data["order"])
        if order != _prod(data["invariant_factors"]) or order != ref.tree_closed(p[0]):
            return "group order differs from the closed-form tree count"
        return None
    if kind in ("treecount-matrix", "treecount-trig"):
        if int(data["count"]) != _prod(ref.group_factors(p[0])):
            return "tree count differs from the closed-form group order"
        if not all(c["pass"] for c in data["checks"]) or len(data["checks"]) != 1:
            return f"checks {data['checks']!r}"
        return None
    if kind == "graph-group":
        order = int(data["order"])
        if order != _prod(data["invariant_factors"]) or order != ref.tree_of_graph(p[0]):
            return "group order differs from the matrix-tree count"
        return None
    if kind == "subgroup":
        if data["is_subgroup"] is not True:
            return "n1 divides n2, yet not reported as a subgroup"
        if (_prod(data["factors1"]) != ref.tree_closed(p[0])
                or _prod(data["factors2"]) != ref.tree_closed(p[1])):
            return "factor products differ from the closed-form tree counts"
        return None
    return f"no check for op kind {kind!r}"
