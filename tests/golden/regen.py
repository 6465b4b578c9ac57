"""Record golden transcripts of the ``critgraph`` command.

    python tests/golden/regen.py ARGV...

runs ``critgraph ARGV...`` in process, on the ``src`` of this checkout and
in ``inputs/``, where the file arguments are, and writes its exit status,
stdout and stderr into ``cli.json``: it replaces the entry with the same
argv, or appends one.  No other entry is rewritten.
``tests/test_cli.py::test_cli_transcript`` replays every entry through
:func:`record` and compares.

    python tests/golden/regen.py --check COMMAND...

replays every entry through ``COMMAND... ARGV...`` as a subprocess in
``inputs/``, for example the installed console script (``--check
critgraph``), and exits 1 naming each entry that differs, with the exit
status and the first line of the stderr of its replay.  Relative entries
of ``PYTHONPATH`` are made absolute first, so ``PYTHONPATH=src python
tests/golden/regen.py --check python -m critgraph.cli`` replays this
checkout from its root.

An entry keeps stdout in full up to ``STDOUT_INLINE_BYTES`` and its
SHA-256 and length above that.  The elapsed time of ``verify`` is masked
in stderr.  A usage error that argparse writes itself keeps only the
prefix of its stderr, as its wording differs across Python versions.
Outputs past the digit limit of ``str(int)`` depend on that limit, so
entries are recorded and replayed at the interpreter's default only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLI_JSON = HERE / "cli.json"
INPUTS = HERE / "inputs"
DIGIT_LIMIT = 4300
STDOUT_INLINE_BYTES = 2048
_USAGE_PREFIX = "usage: "


def digit_limit() -> int:
    """The interpreter's digit limit of ``str(int)``; 0 where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def record(argv: list[str]) -> dict:
    """Run ``critgraph argv`` through ``cli.run`` in ``INPUTS`` and return its entry."""
    from critgraph import cli  # here, after main has put this checkout's src on the path

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(argv)
    finally:
        os.chdir(cwd)
    return to_entry(argv, status, out.getvalue(), err.getvalue())


def to_entry(argv: list[str], status: int, stdout: str, stderr: str) -> dict:
    """The ``cli.json`` entry of one run: stdout inlined or hashed, stderr masked."""
    entry: dict = {"argv": argv, "status": status}
    raw = stdout.encode()
    if len(raw) <= STDOUT_INLINE_BYTES:
        entry["stdout"] = stdout
    else:
        entry["stdout_sha256"] = hashlib.sha256(raw).hexdigest()
        entry["stdout_bytes"] = len(raw)
    if status == 2 and stderr.startswith(_USAGE_PREFIX):
        entry["stderr_prefix"] = _USAGE_PREFIX
    else:
        entry["stderr"] = re.sub(r"^(verified .*) in \d+\.\d+s$", r"\1 in <elapsed>s", stderr, flags=re.M)
    return entry


def check(command: list[str]) -> int:
    """Replay every entry through ``command`` as a subprocess; 1 if any differs.
    Each differing entry is named with the replay's exit status and the first
    line of its stderr."""
    entries = json.loads(CLI_JSON.read_text())
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        # the replays run in INPUTS: a relative entry must still name this checkout's src
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))
    failed = 0
    for old in entries:
        proc = subprocess.run([*command, *old["argv"]], cwd=INPUTS, env=env, capture_output=True)
        stderr = proc.stderr.decode()
        if to_entry(old["argv"], proc.returncode, proc.stdout.decode(), stderr) != old:
            first = (stderr.splitlines() or [""])[0]
            print("differs:", shlex.join(old["argv"]), f"(exit {proc.returncode}: {first})", file=sys.stderr)
            failed += 1
    print(f"{len(entries) - failed} of {len(entries)} entries match", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if not argv or argv == ["--check"]:
        print("usage: python tests/golden/regen.py ARGV... | --check COMMAND...", file=sys.stderr)
        return 2
    if digit_limit() != DIGIT_LIMIT:
        print(f"record at the default digit limit {DIGIT_LIMIT}, not {digit_limit()}", file=sys.stderr)
        return 2
    if argv[0] == "--check":
        return check(argv[1:])
    entries = json.loads(CLI_JSON.read_text()) if CLI_JSON.exists() else []
    entry = record(argv)
    for i, old in enumerate(entries):
        if old["argv"] == argv:
            print("unchanged" if old == entry else "changed", file=sys.stderr)
            entries[i] = entry
            break
    else:
        print("added", file=sys.stderr)
        entries.append(entry)
    # one entry per line, so that an entry recorded again is one changed line
    CLI_JSON.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
