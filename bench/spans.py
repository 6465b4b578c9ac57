"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each critgraph module, plus the
``IntegerMatrix`` ``@`` and ``**`` operators, from outside the package: a
wrapper replaces the function in its defining module and in every module
that imported it by name (``critgroup.snf``, ``cli.snf``, ...), so every
call site sees it.  ``uninstall`` puts the originals back.

Each call leaves a span: name, start, end, parent span and op id, kept in
flat in-memory arrays and written out once the run ends.  Per-layer busy
and self times are derived from the spans afterwards.  Counters (matrix
cells, scalar multiplications, recurrence steps, ...) are taken from the
arguments and results by small hooks; a hook runs after its span has
ended and its time is charged to the benchmark, not to any layer.
"""

from __future__ import annotations

import functools
import gzip
import math
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("cli", "critgroup", "exactla", "graph", "seq", "treecount")

# A hook gets (counters, args, result) and returns True when the call, although
# it returned, failed (cli.run returning a nonzero exit status).
Hook = Callable[[dict, tuple, object], Optional[bool]]


def _add(counters: dict, key: str, value: int) -> None:
    counters[key] = counters.get(key, 0) + value


def _maximum(counters: dict, key: str, value) -> None:
    if value > counters.get(key, 0):
        counters[key] = value


def _cli_run(c, args, rc):
    return rc != 0


def _snf(c, args, result):
    a = args[0]
    _add(c, "exactla.snf.cells", a.row_count * a.col_count)
    _maximum(c, "exactla.snf.peak_bits", result.peak_bit_length)
    det_bits = math.prod(result.nonzero_diagonal()).bit_length()
    _maximum(c, "exactla.snf.peak_over_det_bits", result.peak_bit_length / max(1, det_bits))


def _matmul(c, args, result):
    a, b = args
    _add(c, "exactla.matmul.scalar_mults", a.row_count * a.col_count * b.col_count)


def _matpow(c, args, result):
    _add(c, "exactla.matpow.exponent_sum", args[1])


def _seq_steps(c, args, result):
    # second argument of u_seq/v_seq (index) and u_prefix/v_prefix (count):
    # the number of recurrence-loop steps the call takes
    _add(c, "seq.index_sum", args[1])


def _laplacian(c, args, result):
    _add(c, "graph.laplacian.cells", args[0].vertex_count ** 2)


# (layer, function, hook) for every public function the trace covers.
FUNCTIONS: list[tuple[str, str, Optional[Hook]]] = [
    ("cli", "run", _cli_run),
    ("critgroup", "closed_form_group", None),
    ("critgroup", "closed_form_raw_factors", None),
    ("critgroup", "group_via_relations", None),
    ("critgroup", "group_of_graph", None),
    ("critgroup", "relations_matrix", None),
    ("critgroup", "coeffs", None),
    ("critgroup", "subgroup_check", None),
    ("critgroup", "verify_reduction_pipeline", None),
    ("exactla", "snf", _snf),
    ("exactla", "det_bareiss", None),
    ("exactla", "is_unimodular", None),
    ("exactla", "canonical_chain", None),
    ("graph", "c4xcn", None),
    ("graph", "laplacian", _laplacian),
    ("graph", "parse_edge_list", None),
    ("seq", "u_seq", _seq_steps),
    ("seq", "v_seq", _seq_steps),
    ("seq", "u_prefix", _seq_steps),
    ("seq", "v_prefix", _seq_steps),
    ("seq", "derived_seq", None),
    ("seq", "observed_valuation", None),
    ("seq", "predicted_valuation", None),
    ("treecount", "tree_count_closed", None),
    ("treecount", "tree_count_matrix", None),
    ("treecount", "trig_product_check", None),
]
# (span name, IntegerMatrix attribute, hook)
OPERATORS: list[tuple[str, str, Hook]] = [
    ("exactla.matmul", "__matmul__", _matmul),
    ("exactla.matpow", "__pow__", _matpow),
]


class Recorder:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.hook_ns = array("q")
        self.failed = array("b")
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, hook_ns, failed = self.start, self.end, self.hook_ns, self.failed
        stack, counters, clock = self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0)
            hook_ns.append(0)
            failed.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                failed[idx] = 1
                raise
            end[idx] = t = clock()
            stack.pop()
            if hook is not None:
                if hook(counters, args, result):
                    failed[idx] = 1
                hook_ns[idx] = clock() - t
            return result

        return traced

    def install(self, package, modules: dict) -> None:
        """Wrap every entry of FUNCTIONS wherever ``package`` or one of
        ``modules`` (layer name -> module) binds it, and the OPERATORS."""
        everywhere = [package, *modules.values()]
        for layer, attr, hook in FUNCTIONS:
            original = getattr(modules[layer], attr)
            wrapped = self._wrap(f"{layer}.{attr}", original, hook)
            for module in everywhere:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))
        matrix = modules["exactla"].IntegerMatrix
        for name, attr, hook in OPERATORS:
            original = matrix.__dict__[attr]
            setattr(matrix, attr, self._wrap(name, original, hook))
            self._undo.append((matrix, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: span, parent, op, name, start_ns, end_ns
        (times relative to the first span)."""
        t0 = self.start[0] if self.start else 0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{i}\t{p}\t{o}\t{names[n]}\t{s - t0}\t{e - t0}\n"
                for i, (p, o, n, s, e) in enumerate(
                    zip(self.parent, self.op_id, self.name_id, self.start, self.end))
            )

    def summarize(self, op_time_ns: int) -> dict[str, float]:
        """Per-layer metrics from the spans.  ``op_time_ns`` is the summed
        wall time of the traced ops as the benchmark timed them.

        L.busy_s and L.calls cover the outermost calls into layer L (calls
        made from outside L); L.self_s is the time of all L spans minus
        their child spans; L.errors counts outermost calls into L that
        raised (for cli: also returned a nonzero exit status).  A named
        function's busy_s covers its outermost calls, its calls all of
        them.  bench.self_s is op time outside every span plus hook time,
        so the layers' self_s plus bench.self_s add up to trace.op_s.
        """
        n = len(self.start)
        layer_of = [LAYERS.index(name.split(".")[0]) for name in self.names]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i] + self.hook_ns[i]
        busy = [0] * len(LAYERS)
        selft = [0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        errors = [0] * len(LAYERS)
        fbusy = [0] * len(self.names)
        fcalls = [0] * len(self.names)
        # bit masks of the layers / names of each span's ancestors; parents
        # precede their children in recording order
        lmask = [0] * n
        nmask = [0] * n
        root_ns = nested_hook_ns = 0
        for i in range(n):
            p, nid = self.parent[i], self.name_id[i]
            layer = layer_of[nid]
            if p >= 0:
                pn = self.name_id[p]
                lmask[i] = lmask[p] | (1 << layer_of[pn])
                nmask[i] = nmask[p] | (1 << pn)
                nested_hook_ns += self.hook_ns[i]
            else:
                root_ns += dur[i]
            selft[layer] += dur[i] - child[i]
            fcalls[nid] += 1
            if not (lmask[i] >> layer) & 1:
                busy[layer] += dur[i]
                calls[layer] += 1
                errors[layer] += self.failed[i]
            if not (nmask[i] >> nid) & 1:
                fbusy[nid] += dur[i]

        out: dict[str, float] = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.busy_s"] = busy[k] / 1e9
            out[f"{layer}.self_s"] = selft[k] / 1e9
            out[f"{layer}.calls"] = calls[k]
            out[f"{layer}.errors"] = errors[k]
        by_name = {name: i for i, name in enumerate(self.names)}

        def busy_of(name: str) -> float:
            return fbusy[by_name[name]] / 1e9

        def calls_of(name: str) -> int:
            return fcalls[by_name[name]]

        c = self.counters
        out.update({
            "exactla.snf.busy_s": busy_of("exactla.snf"),
            "exactla.snf.calls": calls_of("exactla.snf"),
            "exactla.snf.cells": c.get("exactla.snf.cells", 0),
            "exactla.snf.peak_bits": c.get("exactla.snf.peak_bits", 0),
            "exactla.snf.peak_over_det_bits": c.get("exactla.snf.peak_over_det_bits", 0),
            "exactla.det_bareiss.busy_s": busy_of("exactla.det_bareiss"),
            "exactla.det_bareiss.calls": calls_of("exactla.det_bareiss"),
            "exactla.matmul.busy_s": busy_of("exactla.matmul"),
            "exactla.matmul.calls": calls_of("exactla.matmul"),
            "exactla.matmul.scalar_mults": c.get("exactla.matmul.scalar_mults", 0),
            "exactla.matpow.busy_s": busy_of("exactla.matpow"),
            "exactla.matpow.exponent_sum": c.get("exactla.matpow.exponent_sum", 0),
            "exactla.canonical_chain.busy_s": busy_of("exactla.canonical_chain"),
            "seq.index_sum": c.get("seq.index_sum", 0),
            "graph.laplacian.busy_s": busy_of("graph.laplacian"),
            "graph.laplacian.cells": c.get("graph.laplacian.cells", 0),
            "graph.parse_edge_list.busy_s": busy_of("graph.parse_edge_list"),
            "critgroup.relations_matrix.busy_s": busy_of("critgroup.relations_matrix"),
            "critgroup.closed_form_raw_factors.busy_s": busy_of("critgroup.closed_form_raw_factors"),
            "critgroup.verify_reduction_pipeline.busy_s":
                busy_of("critgroup.verify_reduction_pipeline"),
            "treecount.trig_product_check.busy_s": busy_of("treecount.trig_product_check"),
            "bench.self_s": (op_time_ns - root_ns + nested_hook_ns) / 1e9,
            "trace.op_s": op_time_ns / 1e9,
            "trace.spans": n,
        })
        return out
