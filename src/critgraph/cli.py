"""Command-line interface.

Subcommands, one per capability:

  group N          invariant factors of K(C4 x Cn) (closed form,
                   relations matrix, or full Laplacian SNF)
  treecount N      spanning-tree count with optional cross-checks
  seq KIND         sequence table (e, f, h, g, or raw u/v with --m) whose
                   --upto times the bit length of m + 2 is <= MAX_SEQ_BITS
  valuations       predicted vs observed 2- and 3-adic valuations of
                   e_n and f_n for 2 <= n <= --upto (at most 200000)
  subgroup N1 N2   factorwise subgroup test between two critical groups
  snf              Smith normal form of a matrix file
  graph-group      critical group of a graph given as an edge list
  verify           per-n three-way agreement sweep (optionally the full
                   staged-reduction pipeline)

Exit status: 0 success/verified, 1 a verification check failed,
2 usage or input error; the console script ends by SIGPIPE (141 in a
shell) when its stdout pipe closes early, as ``... | head`` does.
``--json`` switches to a machine-readable format in which every integer
is a decimal string.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import signal
import sys
import time
from collections.abc import Iterable

from .critgroup import (
    closed_form_group,
    factorwise_subgroup,
    format_group,
    group_of_graph,
    group_via_relations,
    verify_reduction_pipeline,
)
from .exactla import _clip, _read_int, parse_matrix, snf
from .graph import _require_c4xcn_n, c4xcn, parse_edge_list
from .seq import SeqKind, _start, first_valuation_mismatch, table_texts
from .treecount import _require_tolerance, tree_count_closed, tree_count_matrix, trig_product_check

# Largest vertex count the full-Laplacian route accepts: ``graph-group``,
# and ``group N --method snf``, ``treecount N --check matrix|all`` and
# ``verify --range A..B`` on the 4N-vertex C4 x CN (so N <= 250).  The route
# builds the Laplacian sparse, in O(|V| + |E|); the cap bounds the time of
# the +-1 pre-pass and of the dense SNF of the core it leaves, whose
# entries grow with |V|, and is checked before the Laplacian is built.
MAX_GRAPH_VERTICES = 1000

# Largest n of ``group N --method relations``.  The route's time is that of
# the 8x8 SNF, whose entries grow with n and whose time is not monotone in
# n; the cap is set from a timed sweep of n below it, and is checked before
# the matrix is built.
MAX_RELATIONS_N = 3500

# Largest n of the closed-form routes: ``group N --method closed``,
# ``treecount N`` (with ``--check trig``, which sums n logarithms) and
# ``subgroup N1 N2`` (on the larger n).  Their time is that of the
# big-integer terms of index about n/2; the cap is set from a timed sweep,
# and is checked before any work.
MAX_CLOSED_FORM_N = 400_000

# Largest --upto times the bit length of m + 2 of a ``seq`` table, checked
# before the walk: it bounds the bits of the last term, as u_k(m) <= (m + 2)^k.
MAX_SEQ_BITS = 24_576

# Largest ``valuations --upto``: the run walks every n up to it, in time
# linear in it, and is checked before the walk.
MAX_VALUATIONS_UPTO = 200_000

# Largest input file of ``snf --matrix`` and ``graph-group --edges``, in
# characters; one more is read, so a larger file or /dev/zero stops there.
# The complete graph on MAX_GRAPH_VERTICES vertices is a 3.7 MiB edge list.
# At the cap, one-digit tokens peak at 166 MiB in parse_matrix and 120 MiB
# in parse_edge_list (tracemalloc).
MAX_INPUT_CHARS = 8 * 2**20


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose own usage errors (an unknown subcommand,
    option or extra argument) echo each token clipped to 80 characters,
    inside its quotes if it has them, and the whole message clipped to
    240; the subparsers are of this class too."""

    def error(self, message: str):
        super().error(_clip(re.sub(r"[^\s']{81,}", lambda token: _clip(token[0]), message), 240))


def _emit(payload: dict, args: argparse.Namespace, text_lines: Iterable[str]) -> None:
    """Write the JSON document or the text lines as they are rendered.  Every conversion
    that can fail (str() past the digit limit) runs before the call: a failed run prints nothing."""
    if args.json:
        json.dump(payload, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(f"{line}\n" for line in text_lines)


def _emit_group(args: argparse.Namespace, group, **fields: str) -> int:
    factors = [str(f) for f in group.invariant_factors]
    order = str(group.order)
    payload = {
        "command": args.command,
        "invariant_factors": factors,
        "order": order,
        **fields,
    }
    head = "invariant factors: " + " ".join(factors) if factors else "trivial group"
    _emit(payload, args, [head, f"order: {order}"])
    return 0


def _int_argument(text: str) -> int:
    """argparse ``type`` of every integer argument: the shared reader, whose
    bounded cause argparse prints as ``argument n: <cause>``."""
    try:
        return _read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _float_argument(text: str) -> float:
    """argparse ``type`` of ``--tolerance``: echoes a bad token clipped."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {_clip(text)!r}") from None


def _require_laplacian_size(n: int) -> None:
    # 4n is not printed: its digits can pass the limit of str()
    if 4 * n > MAX_GRAPH_VERTICES:
        raise ValueError(
            f"n = {_clip(n)}: C4 x Cn has 4n vertices; the full-Laplacian route handles "
            f"at most {MAX_GRAPH_VERTICES} vertices (n <= {MAX_GRAPH_VERTICES // 4})"
        )


def _require_n_at_most(n: int, cap: int, route: str, cost: str) -> None:
    if n > cap:
        raise ValueError(f"n = {_clip(n)}: the {route} route handles n <= {cap} ({cost})")


def _require_closed_form_size(n: int) -> None:
    _require_n_at_most(n, MAX_CLOSED_FORM_N, "closed-form", "big-integer time")


def _cmd_group(args: argparse.Namespace) -> int:
    n = args.n
    if args.method == "closed":
        _require_closed_form_size(n)
        group = closed_form_group(n)
    elif args.method == "relations":
        _require_n_at_most(n, MAX_RELATIONS_N, "relations", "8x8 SNF time")
        group = group_via_relations(n)
    else:
        _require_laplacian_size(n)
        group = group_of_graph(c4xcn(n))
    return _emit_group(args, group, n=str(n), method=args.method)


def _cmd_treecount(args: argparse.Namespace) -> int:
    n = args.n
    if args.tolerance is not None:
        if args.check not in ("trig", "all"):
            raise ValueError("--tolerance only applies to --check trig and all")
        _require_tolerance(args.tolerance)  # before the count, which can take long
    if args.check in ("matrix", "all"):
        _require_laplacian_size(n)
    _require_closed_form_size(n)
    count = tree_count_closed(n)
    count_text = str(count)
    checks: list[dict] = []
    lines = [f"spanning trees: {count_text}"]
    status = 0
    if args.check in ("matrix", "all"):
        by_matrix = tree_count_matrix(c4xcn(n))
        by_matrix_text = str(by_matrix)
        ok = by_matrix == count
        checks.append({
            "name": "matrix-tree",
            "pass": ok,
            "detail": f"reduced-Laplacian determinant {by_matrix_text}",
        })
        lines.append(f"matrix-tree check: {'ok' if ok else 'MISMATCH'} ({by_matrix_text})")
        status |= 0 if ok else 1
    if args.check in ("trig", "all"):
        tolerance = () if args.tolerance is None else (args.tolerance,)
        report = trig_product_check(n, *tolerance, count=count)
        ok = report.trig_passed
        checks.append({
            "name": "trig-product",
            "pass": ok,
            "detail": f"relative log residual {report.trig_log_residual:.3e}",
        })
        lines.append(
            f"eigenvalue-product check: {'ok' if ok else 'FAIL'} "
            f"(residual {report.trig_log_residual:.3e}, tolerance {report.trig_tolerance:g})"
        )
        status |= 0 if ok else 1
    payload = {"command": "treecount", "n": str(n), "count": count_text}
    if checks:
        payload["checks"] = checks
    _emit(payload, args, lines)
    return status


def _cmd_seq(args: argparse.Namespace) -> int:
    kind, upto, m = args.kind, args.upto, args.m
    if upto < 0:
        raise ValueError(f"--upto must be >= 0, got {_clip(upto)}")
    if kind in ("u", "v"):
        if m is None:
            raise ValueError(f"sequence kind '{kind}' requires --m")
    elif m is not None:
        raise ValueError("--m only applies to kinds 'u' and 'v'")
    walk_m = _start(kind, m)[0]  # checks m
    if upto * (walk_m + 2).bit_length() > MAX_SEQ_BITS:
        raise ValueError(f"--upto {_clip(upto)} with m = {_clip(walk_m)}: seq prints tables whose --upto"
                         f" times the bit length of m + 2 is at most {MAX_SEQ_BITS}")
    texts = table_texts(kind, m, upto + 1)
    payload = {
        "command": "seq",
        "kind": kind,
        "upto": str(upto),
        "values": texts,
    }
    if m is not None:
        payload["m"] = str(m)
    _emit(payload, args, (f"{i} {text}" for i, text in enumerate(texts)))
    return 0


def _cmd_valuations(args: argparse.Namespace) -> int:
    upto = args.upto
    if upto < 2:
        raise ValueError(f"--upto must be >= 2, got {_clip(upto)}")
    if upto > MAX_VALUATIONS_UPTO:
        raise ValueError(f"--upto must be <= {MAX_VALUATIONS_UPTO}, got {_clip(upto)}")
    families = [("T2(e)", SeqKind.E, 2), ("T2(f)", SeqKind.F, 2),
                ("T3(e)", SeqKind.E, 3), ("T3(f)", SeqKind.F, 3)]
    checks = []
    for label, kind, prime in families:
        bad = first_valuation_mismatch(kind, prime, upto)
        detail = (
            f"n=2..{upto} all match"
            if bad is None
            else f"first mismatch at n={bad[0]}: predicted {bad[1]}, observed {bad[2]}"
        )
        checks.append({"name": label, "pass": bad is None, "detail": detail})
    payload = {"command": "valuations", "upto": str(upto), "checks": checks}
    _emit(payload, args, (f"{c['name']}: {'ok' if c['pass'] else 'FAIL'} ({c['detail']})" for c in checks))
    return 0 if all(c["pass"] for c in checks) else 1


def _cmd_subgroup(args: argparse.Namespace) -> int:
    n1, n2 = args.n1, args.n2
    _require_c4xcn_n(min(n1, n2))  # before the work on n1
    _require_closed_form_size(max(n1, n2))
    g1 = closed_form_group(n1)
    g2 = g1 if n2 == n1 else closed_form_group(n2)
    ok = factorwise_subgroup(g1, g2)
    factors1 = [str(f) for f in g1.invariant_factors]
    factors2 = factors1 if g2 is g1 else [str(f) for f in g2.invariant_factors]
    payload = {
        "command": "subgroup",
        "n1": str(n1),
        "n2": str(n2),
        "is_subgroup": ok,
        "factors1": factors1,
        "factors2": factors2,
    }
    lines = [
        f"K(C4 x C{n1}) = {format_group(factors1)}",
        f"K(C4 x C{n2}) = {format_group(factors2)}",
        f"factorwise subgroup: {'yes' if ok else 'no'}",
    ]
    _emit(payload, args, lines)
    return 0 if ok else 1


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            # 64 KiB at a time: one read of the cap would allocate a buffer its size
            chunks, left = [], MAX_INPUT_CHARS + 1
            while left and (chunk := handle.read(min(left, 2**16))):
                chunks.append(chunk)
                left -= len(chunk)
    except OSError as exc:
        # str(exc) repeats the path; the cause alone is named
        raise ValueError(f"cannot read {_clip(path)}: {exc.strerror or type(exc).__name__}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {_clip(path)}: not UTF-8 text") from exc
    if not left:
        raise ValueError(f"cannot read {_clip(path)}: more than {MAX_INPUT_CHARS} characters")
    return "".join(chunks)


def _cmd_snf(args: argparse.Namespace) -> int:
    diagonal = [str(d) for d in snf(parse_matrix(_read_file(args.matrix))).diagonal]
    _emit({"command": "snf", "diagonal": diagonal}, args, ["diagonal: " + " ".join(diagonal)])
    return 0


def _cmd_graph_group(args: argparse.Namespace) -> int:
    graph = parse_edge_list(_read_file(args.edges))
    if graph.vertex_count > MAX_GRAPH_VERTICES:
        # the count is not printed: it can pass the digit limit of str()
        raise ValueError(
            f"graph has more than {MAX_GRAPH_VERTICES} vertices; graph-group handles at most "
            f"{MAX_GRAPH_VERTICES} (core SNF time)"
        )
    return _emit_group(args, group_of_graph(graph))


def _verify_single(n: int, pipeline: bool) -> tuple[int, bool, str]:
    """One sweep item; module-level so process pools can pickle it."""
    closed = closed_form_group(n)
    relations = group_via_relations(n)
    full = group_of_graph(c4xcn(n))
    ok = closed == relations == full
    if not ok:
        return n, False, (
            f"disagreement: closed {closed.invariant_factors}, "
            f"relations {relations.invariant_factors}, laplacian {full.invariant_factors}"
        )
    detail = f"closed = relations = laplacian: {closed}"
    if pipeline:
        report = verify_reduction_pipeline(n)
        if not report.all_passed:
            names = ", ".join(name for name, _, _ in report.failures())
            return n, False, f"pipeline stages failed: {names}"
        detail += f"; pipeline {len(report.stage_checks)} stages ok"
    return n, True, detail


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.parallelism < 0:
        raise ValueError(f"--parallelism must be >= 0, got {_clip(args.parallelism)}")
    lo, hi = _parse_range(args.range)
    _require_laplacian_size(hi)
    ns = list(range(lo, hi + 1))
    # a pool may start all its workers at once, so there are never more
    # than the CPUs this process may run on or the values of n
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(args.parallelism or cpus, cpus, len(ns))
    start = time.monotonic()
    if workers == 1:
        results = [_verify_single(n, args.pipeline) for n in ns]
    else:
        # imported here, so that the other commands do not pay its import time
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_single, ns, [args.pipeline] * len(ns)))
    elapsed = time.monotonic() - start
    payload = {
        "command": "verify",
        "range": f"{lo}..{hi}",
        "checks": [
            {"name": f"n={n}", "pass": ok, "detail": detail}
            for n, ok, detail in results
        ],
    }
    _emit(payload, args, (f"n={n} {'ok' if ok else 'FAIL'} ({detail})" for n, ok, detail in results))
    passed = sum(1 for _, ok, _ in results if ok)
    print(
        f"verified {lo}..{hi}: {passed}/{len(ns)} ok in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0 if passed == len(ns) else 1


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"range must look like A..B, got {_clip(text)!r}")
    lo, hi = _read_int(parts[0], "range lower bound"), _read_int(parts[1], "range upper bound")
    _require_c4xcn_n(lo)
    if hi < lo:
        raise ValueError(f"empty range {_clip(text)!r}")
    return lo, hi


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and kept for the
    process; ``parse_args`` fills a fresh namespace on every call."""
    parser = _Parser(
        prog="critgraph",
        description="Exact critical groups and spanning-tree counts of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", help="critical group of C4 x Cn")
    sp.set_defaults(handler=_cmd_group)
    sp.add_argument("n", type=_int_argument)
    # argparse checks a choice after ``type``, so a bad choice is echoed clipped
    sp.add_argument("--method", type=_clip, choices=("closed", "relations", "snf"), default="closed")

    sp = sub.add_parser("treecount", help="spanning-tree count of C4 x Cn")
    sp.set_defaults(handler=_cmd_treecount)
    sp.add_argument("n", type=_int_argument)
    sp.add_argument("--check", type=_clip, choices=("matrix", "trig", "all"))
    sp.add_argument("--tolerance", type=_float_argument)

    sp = sub.add_parser("seq", help="print a sequence table")
    sp.set_defaults(handler=_cmd_seq)
    sp.add_argument("kind", type=_clip, choices=("e", "f", "h", "g", "u", "v"))
    sp.add_argument("--upto", type=_int_argument, required=True)
    sp.add_argument("--m", type=_int_argument)

    sp = sub.add_parser("valuations", help="predicted vs observed 2-/3-adic valuations")
    sp.set_defaults(handler=_cmd_valuations)
    sp.add_argument("--upto", type=_int_argument, required=True)

    sp = sub.add_parser("subgroup", help="factorwise subgroup test")
    sp.set_defaults(handler=_cmd_subgroup)
    sp.add_argument("n1", type=_int_argument)
    sp.add_argument("n2", type=_int_argument)

    sp = sub.add_parser("snf", help="Smith normal form of a matrix file")
    sp.set_defaults(handler=_cmd_snf)
    sp.add_argument("--matrix", required=True, metavar="FILE")

    sp = sub.add_parser("graph-group", help="critical group of an edge-list graph")
    sp.set_defaults(handler=_cmd_graph_group)
    sp.add_argument("--edges", required=True, metavar="FILE")

    sp = sub.add_parser("verify", help="three-way agreement sweep over a range of n")
    sp.set_defaults(handler=_cmd_verify)
    sp.add_argument("--range", required=True, metavar="A..B")
    sp.add_argument("--pipeline", action="store_true")
    sp.add_argument("--parallelism", type=_int_argument, default=1,
                    help="worker processes, at most one per CPU and per n; 0 = one per CPU")

    # added last, so that --json closes every subcommand's usage line
    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true")
    return parser


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"critgraph: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # a closed stdout pipe ends the console script as it ends other filters,
    # with no traceback; run, which callers use in process, keeps the signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
