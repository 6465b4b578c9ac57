"""critgraph benchmark: one workload as a seeded closed loop in one process.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

W is laplacian, relations or closed-form.  One client in one thread sends
each op through a public entry point (mostly ``critgraph.cli.run`` with
stdout and stderr captured) and starts the next only when it returns.

The seed fixes a list of ops of fixed length.  --trace 0 walks the list,
starting again at its end, for S seconds (and at least once through) with
no instrumentation and reports the end-to-end metrics.  --trace 1 walks the
list once with every public function wrapped by the span recorder, once
more untraced to measure the tracing overhead, and reports per-layer
metrics.  The first run of each op is checked against a reference answer
after the timed phase, and every repeat must print the same; a wrong output
makes the exit status 1.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where "attempted" counts the
ops of the list and "failed" those that failed.  ``--workload all``
runs the three workloads untraced, each in its own process, and prints
their end-to-end metrics.  bench/README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
WARM_UP_S = 2.0

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".peak_bits"):
        return "bits"
    if name.endswith(".peak_over_det_bits"):
        return "ratio"
    if name.endswith(".output_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    return "count"


# --- environment ------------------------------------------------------------


def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "critgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpus": cpus,
        "seed": seed,
        "int_max_str_digits": (sys.get_int_max_str_digits()
                               if hasattr(sys, "get_int_max_str_digits") else None),
    }


# --- set-up -----------------------------------------------------------------


def _measure_setup(workload: str, seed: int, input_dir: Path) -> float:
    """Median over fresh interpreters of import time plus input-build time."""
    totals = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(input_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        totals.append(probe["import_s"] + probe["inputs_s"])
    return statistics.median(totals)


# --- ops --------------------------------------------------------------------


class Client:
    """Executes ops through critgraph's public entry points.  Looks the
    entry points up on every call, so the span recorder's wrappers are
    used while installed."""

    def __init__(self, cli_module, critgroup_module):
        self._cli = cli_module
        self._critgroup = critgroup_module

    def execute(self, op: workloads.Op) -> tuple[Optional[int], str, str, int]:
        """(exit status or None if it raised, stdout, stderr, wall ns)."""
        out, err = io.StringIO(), io.StringIO()
        report = None
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op.argv is None:
                    report = self._critgroup.verify_reduction_pipeline(op.params[0])
                    rc = 0
                else:
                    rc = self._cli.run(list(op.argv))
        except Exception:  # the op failed; record it and go on with the next
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter_ns() - t0
        if report is not None:
            out.write(json.dumps({"all_passed": report.all_passed,
                                  "failed": [name for name, _, _ in report.failures()]}))
        return rc, out.getvalue(), err.getvalue(), elapsed


def _warm_up(client: Client, ops: list[workloads.Op]) -> None:
    """Walk the list for WARM_UP_S, untimed and unchecked, so that timing
    starts with the code loaded and the processor busy already."""
    deadline = time.perf_counter() + WARM_UP_S
    for op in ops:
        client.execute(op)
        if time.perf_counter() >= deadline:
            return


def _spool_write(spool, index: int, rc, out: str, err: str) -> None:
    spool.write(json.dumps({"i": index, "rc": rc, "out": out, "err": err}) + "\n")


# The summary line of ``verify`` ends with its elapsed time.
_ELAPSED = re.compile(r" in \d+\.\d+s$", re.MULTILINE)


def _digest(rc, out: str, err: str) -> bytes:
    """Digest of an op's outcome, without the elapsed time ``verify`` prints."""
    text = _ELAPSED.sub("", f"{rc}\0{out}\0{err}")
    return hashlib.sha256(text.encode()).digest()


def _check_spool(spool, ops, ref) -> tuple[list[bool], list[str]]:
    """Check the spooled first run of every op: per-op success flags and
    the problems."""
    spool.seek(0)
    succeeded, problems = [], []
    for line in spool:
        rec = json.loads(line)
        op = ops[rec["i"] % len(ops)]
        ok, problem = workloads.check(op, rec["rc"], rec["out"], rec["err"], ref)
        succeeded.append(ok)
        if problem is not None:
            problems.append(f"op {rec['i']} {' '.join(op.argv or (op.kind, str(op.params[0])))}: "
                            f"{problem}")
    return succeeded, problems


def _percentile_ms(latencies_ns: list[float], q: float, failed_ms: float) -> float:
    """Nearest-rank percentile; failed ops count as infinitely slow, and a
    percentile that lands on one reads ``failed_ms``."""
    ranked = sorted(latencies_ns)
    value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return failed_ms if math.isinf(value) else value / 1e6


def _check_repeats(digests: list[bytes], count: int) -> tuple[list[bool], list[str]]:
    """Whether run i printed what the first run of the same op printed."""
    same, problems = [], []
    for i, digest in enumerate(digests):
        same.append(digest == digests[i % count])
        if not same[-1]:
            problems.append(f"op {i}: output differs from the first run of op {i % count}")
    return same, problems


def _run_untraced(client, ops, seconds, spool) -> tuple[list[int], list[bytes], int]:
    """Walk the list, round and round, until ``seconds`` have passed and
    every op has run.  Spools each op's first outcome for the reference
    check and keeps a digest of every outcome."""
    latencies, digests = [], []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while i < len(ops) or time.perf_counter_ns() < deadline:
        rc, out, err, elapsed = client.execute(ops[i % len(ops)])
        latencies.append(elapsed)
        digests.append(_digest(rc, out, err))
        if i < len(ops):
            _spool_write(spool, i, rc, out, err)
        i += 1
    return latencies, digests, time.perf_counter_ns() - start


def _run_traced(client, ops, spool, critgraph, modules, spans_path):
    recorder = spans.Recorder()
    traced_ns = 0
    output_bytes = 0
    recorder.install(critgraph, modules)
    try:
        for i, op in enumerate(ops):
            recorder.op = i
            rc, out, err, elapsed = client.execute(op)
            traced_ns += elapsed
            if op.argv is not None:
                output_bytes += len(out.encode())
            _spool_write(spool, i, rc, out, err)
    finally:
        recorder.uninstall()
    untraced_ns = sum(client.execute(op)[3] for op in ops)
    metrics = recorder.summarize(traced_ns)
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_frac"] = traced_ns / untraced_ns - 1
    recorder.write(spans_path)
    return metrics


# --- driver -----------------------------------------------------------------


def _run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    input_dir = OUT / "inputs" / f"{args.workload}-seed{args.seed}"
    setup_s = None if args.trace else _measure_setup(args.workload, args.seed, input_dir)

    import critgraph
    import critgraph.cli
    modules = {layer: sys.modules[f"critgraph.{layer}"] for layer in spans.LAYERS}
    env = _environment(args.seed)
    inputs = workloads.build(args.workload, args.seed, input_dir)
    client = Client(critgraph.cli, modules["critgroup"])
    _warm_up(client, inputs.ops)

    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=OUT) as spool:
        if args.trace:
            metrics = _run_traced(client, inputs.ops, spool, critgraph, modules,
                                  OUT / f"spans-{tag}.tsv.gz")
            units = {name: _layer_unit(name) for name in metrics}
        else:
            latencies, digests, wall_ns = _run_untraced(client, inputs.ops, args.seconds, spool)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        reference = workloads.Reference(critgraph, inputs.graphs)
        succeeded, problems = _check_spool(spool, inputs.ops, reference)

    attempted = len(succeeded)
    failed = attempted - sum(succeeded)
    if not args.trace:
        same, repeat_problems = _check_repeats(digests, attempted)
        problems += repeat_problems
        run_ok = [ok and succeeded[i % attempted] for i, ok in enumerate(same)]
        wall_ms = wall_ns / 1e6
        ranked = [lat if ok else math.inf for lat, ok in zip(latencies, run_ok)]
        metrics = {
            "ops_per_s": sum(run_ok) / (wall_ns / 1e9),
            "latency_p50_ms": _percentile_ms(ranked, 0.50, wall_ms),
            "latency_p90_ms": _percentile_ms(ranked, 0.90, wall_ms),
            "success_rate": sum(succeeded) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS

    print(f"# critgraph bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"# {len(latencies)} timed runs of the {attempted} ops in {wall_ms / 1e3:.1f} s")
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:45s} {value:.6g} {units[name]}")
    print(f"{args.workload:12s} {'error_rate':45s} {failed / attempted:.6g} frac")
    for problem in problems[:10]:
        print(f"# WRONG {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "env": env, "problems": problems}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


def _run_all(args) -> int:
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            status = 1
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            continue
        for name, metric in result["metrics"].items():
            print(f"{workload:12s} {name:16s} {metric['value']:14.6g} {metric['unit']}")
        print(f"{workload:12s} {'error_rate':16s} {result['failed'] / result['attempted']:14.6g} frac")
        print(f"{workload:12s} {'ops':16s} {result['attempted']:14d} attempted, "
              f"{result['failed']} failed, correct={result['correct']}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "critgraph" / "__init__.py").is_file():
        print(f"bench: no critgraph sources at {SRC / 'critgraph'}", file=sys.stderr)
        return 2
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
