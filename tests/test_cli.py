import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import critgraph
from critgraph import cli, critgroup, seq, treecount
from critgraph.cli import (
    MAX_CLOSED_FORM_N, MAX_GRAPH_VERTICES, MAX_RELATIONS_N, MAX_SEQ_BITS, MAX_VALUATIONS_UPTO, run,
)
from critgraph.critgroup import closed_form_group
from critgraph.exactla import _clip
from critgraph.seq import (
    SeqKind, derived_seq, observed_valuation, predicted_valuation, u_prefix, u_seq, v_seq,
)
import golden.regen
from test_seq import _TIGHT_UPTOS


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out), out


def test_group_methods_agree(capsys):
    outputs = []
    for method in ("closed", "relations", "snf"):
        assert run(["group", "6", "--method", method, "--json"]) == 0
        payload, _ = _json_out(capsys)
        outputs.append((payload["invariant_factors"], payload["order"]))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", [
    ["group", "5", "--method", "closed"],
    ["group", "5", "--method", "relations"],
    ["group", "5", "--method", "snf"],
    ["treecount", "5", "--check", "all"],
    ["seq", "u", "--m", "3", "--upto", "12"],
    ["valuations", "--upto", "50"],
    ["subgroup", "3", "6"],
    ["snf", "--matrix", "{path}"],
    ["graph-group", "--edges", "{path}"],
    ["verify", "--range", "3..5", "--pipeline"],
], ids=["group-closed", "group-relations", "group-snf", "treecount-all", "seq", "valuations", "subgroup",
        "snf", "graph-group", "verify"])
def test_json_round_trip_is_idempotent(tmp_path, capsys, argv):
    # the document is written in chunks as it is rendered; they add up to the one canonical dump
    path = tmp_path / "input.txt"
    path.write_text("2 2\n2 4\n6 0\n" if argv[0] == "snf" else "0 1\n1 2\n2 3\n3 0\n")
    assert run([a.format(path=path) for a in argv] + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_treecount_checks(capsys):
    assert run(["treecount", "5", "--check", "all", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["count"] == "4381392020"
    names = {c["name"] for c in payload["checks"]}
    assert names == {"matrix-tree", "trig-product"}
    assert all(c["pass"] for c in payload["checks"])


def test_treecount_bad_tolerance(capsys):
    assert run(["treecount", "5", "--check", "trig", "--tolerance", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_treecount_non_finite_tolerance_is_usage_error(capsys, tolerance, mode):
    # nan would fail every residual and inf would pass every one; the
    # ``=`` form keeps argparse from reading -inf as an option
    for check in ("trig", "all"):
        argv = ["treecount", "5", "--check", check, f"--tolerance={tolerance}", *mode]
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"relative tolerance must be positive and finite, got {tolerance}" in captured.err


def test_treecount_computes_closed_form_once(capsys, monkeypatch):
    original = treecount.tree_count_closed
    calls = []

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(cli, "tree_count_closed", counted)
    monkeypatch.setattr(treecount, "tree_count_closed", counted)
    assert run(["treecount", "30", "--check", "all", "--json"]) == 0
    assert calls == [30]
    payload, _ = _json_out(capsys)
    assert payload["count"] == str(original(30))
    assert [c["pass"] for c in payload["checks"]] == [True, True]


def test_seq_u_requires_m(capsys):
    assert run(["seq", "u", "--upto", "4"]) == 2
    capsys.readouterr()
    assert run(["seq", "u", "--upto", "4", "--m", "4", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["values"] == ["0", "1", "6", "35", "204"]
    assert run(["seq", "e", "--upto", "4", "--m", "2"]) == 2
    capsys.readouterr()


def _scale_terms(monkeypatch, changes):
    """Make the recurrence walks of ``seq._walk``, and the whole terms of
    ``seq.u_seq`` that a mismatch reports, give term n of ``kind``
    multiplied by ``factor``, for each (kind, n, factor) in ``changes``;
    the walk of e or f is the one with the kind's parameter m."""
    real_walk, real_u_seq = seq._walk, seq.u_seq

    def scale(m, n, term):
        for k, at, factor in changes:
            if k.m == m and at == n:
                term *= factor
        return term

    def scaled_walk(m, a, b, count, modulus=None):
        for n, term in enumerate(real_walk(m, a, b, count, modulus)):
            yield scale(m, n, term)

    monkeypatch.setattr(seq, "_walk", scaled_walk)
    monkeypatch.setattr(seq, "u_seq", lambda m, n: scale(m, n, real_u_seq(m, n)))


_FAMILIES = [
    ("T2(e)", SeqKind.E, 2),
    ("T2(f)", SeqKind.F, 2),
    ("T3(e)", SeqKind.E, 3),
    ("T3(f)", SeqKind.F, 3),
]


def _valuation_details(capsys, upto):
    """(exit status, {label: line}) of the text run and (exit status,
    checks) of the --json run of ``valuations --upto upto``."""
    rc_text = run(["valuations", "--upto", str(upto)])
    lines = capsys.readouterr().out.splitlines()
    rc_json = run(["valuations", "--upto", str(upto), "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return (rc_text, {line.split(":")[0]: line for line in lines}), (rc_json, checks)


@pytest.mark.parametrize("label, kind, prime", _FAMILIES)
def test_valuations_reports_the_failing_family_only(capsys, monkeypatch, label, kind, prime):
    # one more factor of ``prime`` in the term at n = 18 breaks exactly one family
    _scale_terms(monkeypatch, [(kind, 18, prime)])
    predicted = predicted_valuation(kind, prime, 18)
    bad = f"first mismatch at n=18: predicted {predicted}, observed {predicted + 1}"
    (rc_text, lines), (rc_json, checks) = _valuation_details(capsys, 40)
    assert rc_text == rc_json == 1
    assert [c["name"] for c in checks] == [name for name, _, _ in _FAMILIES]
    for (name, _, _), check in zip(_FAMILIES, checks):
        if name == label:
            assert lines[name] == f"{name}: FAIL ({bad})"
            assert check == {"name": name, "pass": False, "detail": bad}
        else:
            assert lines[name] == f"{name}: ok (n=2..40 all match)"
            assert check == {"name": name, "pass": True, "detail": "n=2..40 all match"}


def test_valuations_first_mismatch_per_family(capsys, monkeypatch):
    # each family reports its own first bad n, although another family
    # failed at a smaller n
    _scale_terms(monkeypatch, [
        (SeqKind.E, 30, 2), (SeqKind.E, 12, 2),
        (SeqKind.F, 7, 2),
        (SeqKind.E, 50, 3),
        (SeqKind.F, 40, 3),
    ])
    first = {"T2(e)": 12, "T2(f)": 7, "T3(e)": 50, "T3(f)": 40}
    (rc_text, lines), (rc_json, checks) = _valuation_details(capsys, 60)
    assert rc_text == rc_json == 1
    for label, kind, prime in _FAMILIES:
        n = first[label]
        p = predicted_valuation(kind, prime, n)
        detail = f"first mismatch at n={n}: predicted {p}, observed {p + 1}"
        assert lines[label] == f"{label}: FAIL ({detail})"
        assert {"name": label, "pass": False, "detail": detail} in checks


def _count_u_seq(monkeypatch):
    """Record in the returned list the (m, n) of every ``seq.u_seq`` call."""
    calls = []
    real = seq.u_seq

    def counted(m, n):
        calls.append((m, n))
        return real(m, n)

    monkeypatch.setattr(seq, "u_seq", counted)
    return calls


def test_valuations_takes_no_valuation_when_nothing_fails(capsys, monkeypatch):
    # the residues decide every n: no whole term is built, and no term or
    # index goes through the public observed_valuation, from seq or from
    # the cli had it imported the function
    terms = _count_u_seq(monkeypatch)
    valuations = []
    real = seq.observed_valuation

    def counted(x, prime):
        valuations.append((x, prime))
        return real(x, prime)

    for module in (seq, cli):
        monkeypatch.setattr(module, "observed_valuation", counted, raising=False)
    assert run(["valuations", "--upto", "3000"]) == 0
    assert terms == [] and valuations == []
    capsys.readouterr()


def test_valuations_builds_a_whole_term_only_for_a_mismatch(capsys, monkeypatch):
    with monkeypatch.context() as patch:
        calls = _count_u_seq(patch)
        assert run(["valuations", "--upto", "3000"]) == 0
        assert calls == []
    capsys.readouterr()
    # T2(e) fails at 12 (the scaled e_30 comes after it), T2(f) at 7 and
    # T3(e) at 50; T3(f) passes
    _scale_terms(monkeypatch, [
        (SeqKind.E, 30, 2), (SeqKind.E, 12, 2),
        (SeqKind.F, 7, 2),
        (SeqKind.E, 50, 3),
    ])
    calls = _count_u_seq(monkeypatch)
    assert run(["valuations", "--upto", "60"]) == 1
    assert calls == [(SeqKind.E.m, 12), (SeqKind.F.m, 7), (SeqKind.E.m, 50)]
    capsys.readouterr()


@pytest.mark.parametrize("upto", _TIGHT_UPTOS)
def test_valuations_at_the_tightest_modulus(capsys, upto):
    # the oracle: exact valuations of the whole terms, walked as ints
    terms = {kind: u_prefix(kind.m, upto + 1) for kind in (SeqKind.E, SeqKind.F)}
    exact = {
        label: all(
            observed_valuation(terms[kind][n], prime)
            == predicted_valuation(kind, prime, n)
            for n in range(2, upto + 1)
        )
        for label, kind, prime in _FAMILIES
    }
    assert run(["valuations", "--upto", str(upto), "--json"]) == (0 if all(exact.values()) else 1)
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {check["name"]: check["pass"] for check in checks} == exact


def test_valuations_upto_is_capped(capsys):
    start = time.monotonic()
    assert run(["valuations", "--upto", str(MAX_VALUATIONS_UPTO)]) == 0
    assert time.monotonic() - start < 60
    assert capsys.readouterr().out.splitlines()[0] == f"T2(e): ok (n=2..{MAX_VALUATIONS_UPTO} all match)"
    over = str(MAX_VALUATIONS_UPTO + 1)
    for upto, got in ((over, over), (_at_digit_limit(), "9" * 77 + "...")):
        for json_flag in ([], ["--json"]):
            assert run(["valuations", "--upto", upto, *json_flag]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"critgraph: error: --upto must be <= {MAX_VALUATIONS_UPTO}, got {got}\n"
            assert len(err) < 200


def test_subgroup_builds_each_group_once(capsys, monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return closed_form_group(n)

    monkeypatch.setattr(cli, "closed_form_group", counted)
    assert run(["subgroup", "3", "6"]) == 0
    assert sorted(calls) == [3, 6]
    assert capsys.readouterr().out.splitlines() == [
        f"K(C4 x C3) = {closed_form_group(3)}",
        f"K(C4 x C6) = {closed_form_group(6)}",
        "factorwise subgroup: yes",
    ]
    calls.clear()
    assert run(["subgroup", "5", "5", "--json"]) == 0
    assert calls == [5]
    payload, _ = _json_out(capsys)
    assert payload["factors1"] == payload["factors2"] == ["19", "19", "779", "15580"]


def test_subgroup_exit_codes(capsys):
    assert run(["subgroup", "3", "6"]) == 0
    assert "yes" in capsys.readouterr().out
    assert run(["subgroup", "3", "4"]) == 1
    assert "no" in capsys.readouterr().out


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command, option", [("snf", "--matrix"), ("graph-group", "--edges")])
def test_input_file_that_is_not_utf8_is_named(tmp_path, capsys, json_flag, command, option):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\n")
    assert run([command, option, str(path), *json_flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"critgraph: error: cannot read {_clip(str(path))}: not UTF-8 text\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command, option, text", [
    ("snf", "--matrix", "2 2\n4 0\n0 6\n"),
    ("graph-group", "--edges", "0 1\n1 2\n2 3\n3 0\n"),
], ids=["snf", "graph-group"])
def test_input_file_with_a_byte_order_mark_parses(tmp_path, capsys, json_flag, command, option, text):
    # some editors, Windows Notepad among them, start UTF-8 files with EF BB BF
    outputs = []
    for name, data in (("plain.txt", text.encode()), ("bom.txt", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / name
        path.write_bytes(data)
        outputs.append((run([command, option, str(path), *json_flag]), capsys.readouterr()))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command, option, text", [
    ("snf", "--matrix", "2 2\n4 0\n0 6\n"),
    ("graph-group", "--edges", "0 1\n1 2\n2 3\n3 0\n"),
    # files are read 64 KiB at a time: spaces pad these to two chunks exactly and past three
    ("snf", "--matrix", "2 2\n4 0\n0 6\n".ljust(2**17)),
    ("graph-group", "--edges", "0 1\n1 2\n2 3\n3 0\n".ljust(2**17 + 3)),
], ids=["snf", "graph-group", "snf-two-chunks", "graph-group-three-chunks"])
def test_input_file_over_the_size_cap_exits_2(tmp_path, capsys, monkeypatch, json_flag, command, option, text):
    # the file is read up to the cap plus one character, so /dev/zero ends there too
    monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(text))
    path = tmp_path / "at-cap.txt"
    path.write_text(text)
    assert run([command, option, str(path), *json_flag]) == 0
    capsys.readouterr()
    path.write_text(text + "\n")
    assert run([command, option, str(path), *json_flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"critgraph: error: cannot read {_clip(str(path))}: more than {len(text)} characters\n"


def test_small_input_file_is_read_without_a_cap_sized_buffer(tmp_path, capsys):
    # one read of MAX_INPUT_CHARS + 1 characters allocated an 8 MiB buffer for any file
    path = tmp_path / "triangle.edges"
    path.write_text("0 1\n1 2\n2 0\n")
    tracemalloc.start()
    try:
        assert run(["graph-group", "--edges", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert capsys.readouterr().out == "invariant factors: 3\norder: 3\n"


def test_graph_group_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    lines = []
    n = 5
    for i in range(n):
        for j in range(4):
            lines.append(f"{4 * i + j} {4 * i + (j + 1) % 4}")
            lines.append(f"{4 * i + j} {4 * ((i + 1) % n) + j}")
    path.write_text("\n".join(lines) + "\n")
    assert run(["graph-group", "--edges", str(path), "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["invariant_factors"] == ["19", "19", "779", "15580"]


def test_graph_group_tree_is_trivial(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n1 3\n")
    assert run(["graph-group", "--edges", str(path)]) == 0
    assert capsys.readouterr().out == "trivial group\norder: 1\n"


def test_graph_group_disconnected(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n2 3\n")
    assert run(["graph-group", "--edges", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_graph_group_bad_vertex_header(tmp_path, capsys):
    path = tmp_path / "g.txt"
    for header in ("vertices many", "vertices 0"):
        path.write_text(f"{header}\n0 1\n")
        assert run(["graph-group", "--edges", str(path)]) == 2
        assert "error: line 1: " in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "text, line, got",
    [("0 1 3\n0 1 -1\n1 2\n", 2, "-1"), ("0 1 3\n0 1 -3\n1 2\n", 2, "-3"), ("1 2\n0 1 0\n", 2, "0")],
    ids=["negative", "total-zero", "zero"],
)
def test_graph_group_rejects_a_line_of_multiplicity_below_one(tmp_path, capsys, json_flag, text, line, got):
    # no line may thin out an edge given earlier, whatever the pair's total
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert run(["graph-group", "--edges", str(path), *json_flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"critgraph: error: line {line}: multiplicity must be >= 1, got {got}\n"


def _over_digit_limit():
    limit = golden.regen.digit_limit()
    if not limit:
        pytest.skip("the interpreter has no digit limit on integer strings")
    return limit, "7" * (limit + 700)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "command, text, where",
    [
        ("snf", "2 2\n1 0\n0 {big}\n", "row 2, column 2"),
        ("graph-group", "vertices 3\n0 1\n1 2 {big}\n", "line 3"),
        ("graph-group", "# header\nvertices {big}\n0 1\n", "line 2"),
    ],
    ids=["matrix-entry", "multiplicity", "vertex-count"],
)
def test_input_integer_over_the_digit_limit_names_the_cap(tmp_path, capsys, json_flag, command, text, where):
    limit, big = _over_digit_limit()
    path = tmp_path / "input.txt"
    path.write_text(text.format(big=big))
    option = "--matrix" if command == "snf" else "--edges"
    assert run([command, option, str(path), *json_flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"critgraph: error: {where}: integer field has {len(big)} digits; "
        f"input integers are limited to {limit} digits\n"
    )


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_matrix_header_whose_product_passes_the_digit_limit(tmp_path, capsys, json_flag):
    # each dimension is under the limit, their product's digits are not
    limit, _ = _over_digit_limit()
    side = "9" * (limit * 2 // 3)
    path = tmp_path / "m.txt"
    path.write_text(f"{side} {side}\n1 2 3\n")
    assert run(["snf", "--matrix", str(path), *json_flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    header = f"{side[:77]}... {side[:77]}..."
    assert err == f"critgraph: error: matrix header '{header}' does not match the 3 entries that follow\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, where",
    [
        (["group", "{big}"], "critgraph group: error: argument n"),
        (["subgroup", "5", "{big}"], "critgraph subgroup: error: argument n2"),
        (["seq", "e", "--upto", "{big}"], "critgraph seq: error: argument --upto"),
        (["seq", "u", "--upto", "3", "--m", "{big}"], "critgraph seq: error: argument --m"),
        (["verify", "--range", "3..4", "--parallelism", "{big}"], "critgraph verify: error: argument --parallelism"),
        (["verify", "--range", "{big}..5"], "critgraph: error: range lower bound"),
        (["verify", "--range", "3..{big}"], "critgraph: error: range upper bound"),
    ],
    ids=["n", "n2", "upto", "m", "parallelism", "range-lo", "range-hi"],
)
def test_argument_over_the_digit_limit_names_the_cap(capsys, json_flag, argv, where):
    limit, big = _over_digit_limit()
    assert run([a.format(big=big) for a in argv] + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # argparse prints its usage line first; the error itself is the last line
    assert err.splitlines()[-1] == (
        f"{where}: integer field has {len(big)} digits; input integers are limited to {limit} digits"
    )


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["group", "5x"], "critgraph group: error: argument n: not an integer: '5x'"),
        (["verify", "--range", "3..b"], "critgraph: error: range upper bound: not an integer: 'b'"),
        (["verify", "--range", "x" * 5000], f"critgraph: error: range must look like A..B, got '{'x' * 77}...'"),
    ],
    ids=["n", "range-hi", "range-shape"],
)
def test_bad_integer_argument_is_named_and_clipped(capsys, json_flag, argv, message):
    assert run(argv + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == message


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["treecount", "5", "--check", "trig", "--tolerance", "{big}"],
         "critgraph treecount: error: argument --tolerance: not a number: '{clipped}'"),
        (["group", "5", "--method", "{big}"], "critgraph group: error: argument --method: invalid choice: '{clipped}'"),
        (["treecount", "5", "--check", "{big}"],
         "critgraph treecount: error: argument --check: invalid choice: '{clipped}'"),
        (["seq", "{big}", "--upto", "3"], "critgraph seq: error: argument kind: invalid choice: '{clipped}'"),
        (["snf", "--matrix", "/nonexistent/{big}"], "critgraph: error: cannot read {clipped_path}: "),
        (["graph-group", "--edges", "/nonexistent/{big}"], "critgraph: error: cannot read {clipped_path}: "),
        (["seq", "u", "--m", "-" + "7" * 100, "--upto", "3"],
         "critgraph: error: recurrence parameter m must be >= 1, got -" + "7" * 76 + "..."),
    ],
    ids=["tolerance", "method", "check", "seq-kind", "matrix-path", "edges-path", "seq-m"],
)
def test_bad_token_is_echoed_clipped(capsys, json_flag, argv, prefix):
    big = "x" * 5000
    clipped_path = ("/nonexistent/" + big)[:77] + "..."
    assert run([a.format(big=big) for a in argv] + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # argparse prints its usage line first; the error itself is the last line
    line = err.splitlines()[-1]
    assert line.startswith(prefix.format(clipped="x" * 77 + "...", clipped_path=clipped_path)), line
    assert len(line) < 200, line


def _at_digit_limit():
    # the longest integer the reader accepts; 4n, or one plus an id, has one digit more
    limit = golden.regen.digit_limit()
    return "9" * (limit or 4300)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [["group", "{n}"], ["treecount", "{n}", "--check", "trig"], ["subgroup", "3", "{n}"]],
    ids=["group", "treecount-trig", "subgroup"],
)
def test_output_over_the_digit_limit_prints_nothing(capsys, json_flag, argv):
    # every str() that can fail runs before the first write: at n = 2 * limit
    # the largest invariant factor has about 4/3 of the limit's digits, the
    # order and the count about 3.8 times the limit
    limit, _ = _over_digit_limit()
    assert run([a.format(n=2 * limit) for a in argv] + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("critgraph: error: ") and "for integer string conversion" in err, err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, edges, cap",
    [
        (["graph-group", "--edges", "{path}"], "vertices {big}\n0 1\n", f"at most {MAX_GRAPH_VERTICES}"),
        (["graph-group", "--edges", "{path}"], "0 {big}\n", f"at most {MAX_GRAPH_VERTICES}"),
        (["graph-group", "--edges", "{path}"], "vertices 3\n0 {big}\n", "is out of range for 'vertices 3'"),
        (["group", "{big}", "--method", "snf"], None, "at most 1000 vertices (n <= 250)"),
        (["group", "{big}", "--method", "relations"], None, f"n <= {MAX_RELATIONS_N}"),
        (["treecount", "{big}", "--check", "matrix"], None, "at most 1000 vertices (n <= 250)"),
        (["verify", "--range", "3..{big}"], None, "at most 1000 vertices (n <= 250)"),
        (["group", "{big}"], None, f"n <= {MAX_CLOSED_FORM_N}"),
        (["treecount", "{big}", "--check", "trig"], None, f"n <= {MAX_CLOSED_FORM_N}"),
        (["subgroup", "3", "{big}"], None, f"n <= {MAX_CLOSED_FORM_N}"),
        (["seq", "e", "--upto", "{big}"], None, f"at most {MAX_SEQ_BITS}"),
    ],
    ids=["vertex-header", "vertex-id", "id-over-header", "group-snf", "group-relations",
         "treecount-matrix", "verify", "group-closed", "treecount-trig", "subgroup", "seq"],
)
def test_size_errors_do_not_print_the_whole_size(tmp_path, capsys, json_flag, argv, edges, cap):
    big = _at_digit_limit()
    path = tmp_path / "g.txt"
    if edges is not None:
        path.write_text(edges.format(big=big))
    assert run([a.format(big=big, path=path) for a in argv] + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("critgraph: error: ") and err.count("\n") == 1 and len(err) < 200, err
    assert cap in err


def test_edge_list_errors_clip_the_echoed_line(tmp_path, capsys):
    path = tmp_path / "g.txt"
    for text in ("0 1 " + "x" * 5000, "0 1 2 " + "3" * 5000):
        path.write_text(text + "\n")
        assert run(["graph-group", "--edges", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("critgraph: error: line 1: ") and len(err) < 160, err


def test_graph_group_rejects_graph_over_vertex_cap(tmp_path, capsys, monkeypatch):
    # the cap is checked before the Laplacian is built
    def no_laplacian(graph, **kwargs):
        raise AssertionError("Laplacian built for an over-cap graph")

    monkeypatch.setattr(critgroup, "sparse_laplacian", no_laplacian)
    path = tmp_path / "g.txt"
    for text in ("0 100000000\n", f"vertices {MAX_GRAPH_VERTICES + 1}\n0 1\n"):
        path.write_text(text)
        assert run(["graph-group", "--edges", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"at most {MAX_GRAPH_VERTICES}" in err


class _Built(Exception):
    pass


def test_laplacian_routes_reject_n_over_cap(capsys, monkeypatch):
    # C4 x CN has 4N vertices: N <= 250 passes the cap, N = 251 exits 2
    # before C4 x CN or its Laplacian is built
    def no_build(arg, **kwargs):
        raise _Built(arg)

    for module, name in ((cli, "c4xcn"), (critgroup, "sparse_laplacian"), (treecount, "sparse_laplacian")):
        monkeypatch.setattr(module, name, no_build)
    cap = MAX_GRAPH_VERTICES // 4
    for argv in (
        ["group", "{}", "--method", "snf"],
        ["treecount", "{}", "--check", "matrix"],
        ["treecount", "{}", "--check", "all", "--json"],
        ["verify", "--range", "3..{}"],
        ["verify", "--range", "{}..{}", "--parallelism", "2"],
    ):
        assert run([a.format(cap + 1, cap + 1) for a in argv]) == 2, argv
        err = capsys.readouterr().err
        assert f"at most {MAX_GRAPH_VERTICES} vertices (n <= {cap})" in err, err
        with pytest.raises(_Built):
            run([a.format(cap, cap) for a in argv])
        capsys.readouterr()
    assert run(["treecount", str(cap + 1), "--check", "trig"]) == 0
    assert run(["group", str(cap + 1), "--method", "relations"]) == 0
    capsys.readouterr()


def test_relations_route_rejects_n_over_cap(capsys, monkeypatch):
    # N = cap + 1 exits 2 before the relations matrix is built; N = cap
    # enters the route, whose 8x8 SNF is stubbed so that the test stays fast
    def no_build(n):
        raise _Built(n)

    monkeypatch.setattr(cli, "group_via_relations", no_build)
    for json_flag in ([], ["--json"]):
        assert run(["group", str(MAX_RELATIONS_N + 1), "--method", "relations", *json_flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"critgraph: error: n = {MAX_RELATIONS_N + 1}: the relations route handles"
            f" n <= {MAX_RELATIONS_N} (8x8 SNF time)\n"
        )
        with pytest.raises(_Built):
            run(["group", str(MAX_RELATIONS_N), "--method", "relations", *json_flag])


def test_closed_form_routes_reject_n_over_cap(capsys, monkeypatch):
    # N = cap + 1, the larger n for subgroup, exits 2 before any work; N = cap
    # enters the route, whose closed form is stubbed so that the test stays fast
    def no_work(n):
        raise _Built(n)

    monkeypatch.setattr(cli, "closed_form_group", no_work)
    monkeypatch.setattr(cli, "tree_count_closed", no_work)
    for argv in (
        ["group", "{}"],
        ["group", "{}", "--method", "closed"],
        ["treecount", "{}"],
        ["treecount", "{}", "--check", "trig"],
        ["subgroup", "3", "{}"],
        ["subgroup", "{}", "3"],
    ):
        for json_flag in ([], ["--json"]):
            assert run([a.format(MAX_CLOSED_FORM_N + 1) for a in argv] + json_flag) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                f"critgraph: error: n = {MAX_CLOSED_FORM_N + 1}: the closed-form route handles"
                f" n <= {MAX_CLOSED_FORM_N} (big-integer time)\n"
            )
            with pytest.raises(_Built):
                run([a.format(MAX_CLOSED_FORM_N) for a in argv] + json_flag)


def test_verify_sweep(capsys):
    assert run(["verify", "--range", "3..6"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["n=3", "n=4", "n=5", "n=6"]
    assert all(" ok " in line for line in lines)
    assert "verified 3..6: 4/4 ok" in captured.err


def test_verify_pipeline_flag(capsys):
    assert run(["verify", "--range", "3..4", "--pipeline", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert all(c["pass"] for c in payload["checks"])
    assert "pipeline" in payload["checks"][0]["detail"]


def test_verify_parallelism_identical_output(capsys):
    assert run(["verify", "--range", "3..8"]) == 0
    serial = capsys.readouterr().out
    assert run(["verify", "--range", "3..8", "--parallelism", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_verify_parallelism_is_clamped_to_cpus_and_range(capsys, monkeypatch):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        """Records max_workers and maps in this process: no worker starts."""

        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert run(["verify", "--range", "3..8"]) == 0
    serial = capsys.readouterr().out
    for parallelism, range_text, workers in (
        ("100000", "3..4", 2),  # one per n
        ("100000", "3..8", 3),  # one per CPU
        ("0", "3..8", 3),
        ("2", "3..8", 2),
    ):
        assert run(["verify", "--range", range_text, "--parallelism", parallelism]) == 0
        out = capsys.readouterr().out
        assert sizes.pop() == workers
        if range_text == "3..8":
            assert out == serial
    # affinity allows one CPU of the host's eight: no pool at all
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert run(["verify", "--range", "3..8", "--parallelism", "0"]) == 0
    assert capsys.readouterr().out == serial
    assert sizes == []
    # one CPU: no pool at all, where os has no affinity and cpu_count() knows nothing
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(["verify", "--range", "3..8", "--parallelism", "4"]) == 0
    assert capsys.readouterr().out == serial
    assert sizes == []


def test_verify_bad_ranges(capsys):
    for bad in ("5", "8..3", "2..5", "a..b"):
        assert run(["verify", "--range", bad]) == 2
        capsys.readouterr()


def test_verify_reports_failed_pipeline_stages(capsys, monkeypatch):
    monkeypatch.setattr(critgroup, "_R1", critgroup.IntegerMatrix.identity(7))
    assert run(["verify", "--range", "5..5", "--pipeline"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "n=5 FAIL (pipeline stages failed: seven-term-template, odd-block-split)\n"
    )
    assert "verified 5..5: 0/1 ok" in captured.err


def test_verify_reports_a_three_way_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(cli, "group_via_relations", lambda n: critgroup.AbelianGroup((2,)))
    assert run(["verify", "--range", "5..5"]) == 1
    assert capsys.readouterr().out == (
        "n=5 FAIL (disagreement: closed (19, 19, 779, 15580), relations (2,), "
        "laplacian (19, 19, 779, 15580))\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["seq", "e", "--upto", "-1"], "--upto must be >= 0, got -1"),
    (["valuations", "--upto", "1"], "--upto must be >= 2, got 1"),
    (["subgroup", "2", "6"], "C4 x Cn needs n >= 3, got 2"),
    (["verify", "--range", "3..4", "--parallelism", "-1"], "--parallelism must be >= 0, got -1"),
])
def test_out_of_range_arguments_exit_two(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"critgraph: error: {message}\n"


_NEGATIVE = "-" + _at_digit_limit()


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv, got", [
    (["group", "2"], "2"),
    (["group", "2", "--method", "snf"], "2"),
    (["treecount", "2", "--check", "matrix"], "2"),
    (["subgroup", "2", "6"], "2"),
    (["subgroup", "6", "2"], "2"),
    (["verify", "--range", "2..5"], "2"),
    (["group", _NEGATIVE], _NEGATIVE[:77] + "..."),
    # the ``=`` form keeps argparse from reading the range as an option
    (["verify", f"--range={_NEGATIVE}..5"], _NEGATIVE[:77] + "..."),
], ids=["group", "group-snf", "treecount-matrix", "subgroup-n1", "subgroup-n2", "verify",
        "negative-n", "negative-range"])
def test_n_below_three_is_one_bounded_line(capsys, json_flag, argv, got):
    assert run(argv + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"critgraph: error: C4 x Cn needs n >= 3, got {got}\n"
    assert len(err) < 200


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", [
    ["treecount", "5", "--tolerance", "-1"],
    ["treecount", "5", "--tolerance", "nan"],
    ["treecount", "5", "--tolerance", "1e-3"],
    ["treecount", "5", "--check", "matrix", "--tolerance", "1e-3"],
])
def test_tolerance_without_the_trig_check_is_rejected(capsys, json_flag, argv):
    assert run(argv + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "critgraph: error: --tolerance only applies to --check trig and all\n"


def test_trig_check_prints_the_library_default_tolerance(capsys):
    assert run(["treecount", "5", "--check", "trig"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(", tolerance 1e-09)")


def test_valuations_holds_only_the_current_terms(capsys):
    # two 20001-term tables of e and f held about 120 MB at this size, and a
    # list of every residue of one family 1.1 MB; the windowed walk 0.6 MB
    tracemalloc.start()
    try:
        assert run(["valuations", "--upto", "20000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert capsys.readouterr().out.splitlines() == [
        f"{label}: ok (n=2..20000 all match)" for label in ("T2(e)", "T2(f)", "T3(e)", "T3(f)")
    ]


_LONG = "x" * 5000


@pytest.mark.parametrize("argv, echoed", [
    ([_LONG], "invalid choice: '" + _LONG[:77] + "...' (choose from "),
    (["group", "5", _LONG], "unrecognized arguments: " + _LONG[:77] + "..."),
    (["group", "5", "--" + _LONG], "unrecognized arguments: --" + _LONG[:75] + "..."),
    (["group", "5", *["y"] * 3000], "unrecognized arguments: y y y"),
], ids=["subcommand", "positional", "option", "many-tokens"])
def test_argparse_errors_echo_clipped_tokens(capsys, argv, echoed):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("critgraph: error: ")
    assert echoed in err
    assert len(err) < 400


def test_unknown_flag_exits_two(capsys):
    assert run(["group", "5", "--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_reused_parser_resets_defaults(capsys):
    assert run(["group", "5", "--method", "relations", "--json"]) == 0
    assert _json_out(capsys)[0]["method"] == "relations"
    assert run(["group", "5", "--json"]) == 0
    assert _json_out(capsys)[0]["method"] == "closed"


def test_reused_parser_forgets_earlier_options(capsys):
    assert run(["seq", "u", "--upto", "3", "--m", "3"]) == 0
    capsys.readouterr()
    assert run(["seq", "e", "--upto", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 0", "1 1", "2 4", "3 15"]


def test_parser_built_once_survives_usage_error_and_help(capsys):
    cli._parser.cache_clear()
    assert run(["group", "5"]) == 0
    first = capsys.readouterr()
    assert run(["group", "5", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(["--help"]) == 0
    assert "usage: critgraph" in capsys.readouterr().out
    assert run(["group", "5"]) == 0
    assert capsys.readouterr() == first
    assert cli._parser.cache_info().misses == 1


def _package_env():
    """The environment of a fresh interpreter that imports this critgraph."""
    src = str(Path(critgraph.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _loaded_by_import(module):
    """Whether ``import critgraph.cli`` in a fresh interpreter loads ``module``."""
    code = (
        f"import sys; before = {module!r} in sys.modules; import critgraph.cli; "
        f"print({module!r} in sys.modules and not before)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_package_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.strip() == "True"


def test_import_leaves_concurrent_futures_unloaded():
    # the process pool is imported only by verify --parallelism
    assert not _loaded_by_import("concurrent.futures")


def test_import_leaves_decimal_unloaded():
    # decimal is imported only by the seq tables
    assert not _loaded_by_import("decimal")


def _strings(values):
    """str() of each int, with the interpreter's digit limit lifted for the
    call and restored after it."""
    limit = golden.regen.digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _table(kind, m, count):
    # fast doubling, so that the reference shares no walk with seq.table_texts
    if kind in ("u", "v"):
        term = u_seq if kind == "u" else v_seq
        return _strings(term(m, i) for i in range(count))
    return _strings(derived_seq(SeqKind(kind), i) for i in range(count))


# the interpreter's limit on the digits of str(int), or its default where it has none
_DIGIT_LIMIT = golden.regen.digit_limit() or 4300


def _over_the_seq_bound(upto, m):
    return (
        f"critgraph: error: --upto {_clip(upto)} with m = {_clip(m)}: seq prints tables whose"
        f" --upto times the bit length of m + 2 is at most {MAX_SEQ_BITS}\n"
    )


@pytest.mark.parametrize(
    "kind, m",
    [(kind, None) for kind in "efhg"] + [(kind, m) for kind in "uv" for m in (1, 2, 3, 7, 10**50)],
    ids=lambda value: "10**50" if value == 10**50 else None,
)
def test_seq_table_equals_the_int_table(capsys, kind, m):
    # a table over the bound is refused before its walk, and its reference is not built
    m_flag = [] if m is None else ["--m", str(m)]
    walk_m = SeqKind(kind).m if m is None else m
    for upto in (0, 1, 2, 1500):
        over = upto * (walk_m + 2).bit_length() > MAX_SEQ_BITS
        texts = None if over else _table(kind, m, upto + 1)
        for json_flag in ([], ["--json"]):
            rc = run(["seq", kind, "--upto", str(upto), *m_flag, *json_flag])
            out, err = capsys.readouterr()
            if over:
                assert (rc, out, err) == (2, "", _over_the_seq_bound(upto, walk_m))
            elif json_flag:
                assert (rc, json.loads(out)["values"], err) == (0, texts, "")
            else:
                lines = [f"{i} {text}" for i, text in enumerate(texts)]
                assert (rc, out.splitlines(), err) == (0, lines, "")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_seq_table_prints_past_the_digit_limit(capsys, json_flag):
    # f_n has about 0.77 n digits, so the last terms pass the limit of str()
    upto = _DIGIT_LIMIT * 6000 // 4300
    texts = _table("f", None, upto + 1)
    assert len(texts[-1]) > _DIGIT_LIMIT
    assert run(["seq", "f", "--upto", str(upto), *json_flag]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if json_flag:
        assert json.loads(out)["values"] == texts
    else:
        assert out == "".join(f"{i} {text}\n" for i, text in enumerate(texts))


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("kind, m_digits", [("e", None), ("u", 4000)], ids=["e", "u-m-4000-digits"])
def test_seq_table_over_the_bound_exits_before_the_walk(capsys, monkeypatch, json_flag, kind, m_digits):
    # bound + 1 exits 2 before the walk; at the bound the walk, stubbed, is entered
    def no_walk(*args):
        raise _Built(args)

    monkeypatch.setattr(cli, "table_texts", no_walk)
    m_flag = [] if m_digits is None else ["--m", "9" * (_DIGIT_LIMIT * m_digits // 4300)]
    walk_m = SeqKind(kind).m if m_digits is None else int(m_flag[1])
    at_bound = MAX_SEQ_BITS // (walk_m + 2).bit_length()
    assert run(["seq", kind, "--upto", str(at_bound + 1), *m_flag, *json_flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _over_the_seq_bound(at_bound + 1, walk_m) and len(err) < 250
    with pytest.raises(_Built):
        run(["seq", kind, "--upto", str(at_bound), *m_flag, *json_flag])


def test_seq_table_bytes_do_not_depend_on_the_digit_limit():
    # g_1000 has 766 digits, over the smallest limit the interpreter allows
    outputs = [
        subprocess.run(
            [sys.executable, *flag, "-m", "critgraph.cli", "seq", "g", "--upto", "1000"],
            env=_package_env(), capture_output=True, check=True, timeout=60,
        )
        for flag in (["-X", "int_max_str_digits=640"], [], ["-X", "int_max_str_digits=0"])
    ]
    assert len(outputs[0].stdout.splitlines()[-1]) > 640
    assert [(done.stdout, done.stderr) for done in outputs] == [(outputs[0].stdout, b"")] * 3


class _Sink(io.TextIOBase):
    """A stdout that counts what is written to it and keeps none of it."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_printed_table_is_held_once(json_flag):
    # the table is held once, as its texts: a second copy (its lines, or the
    # whole --json document) would take the peak past twice what is printed;
    # the sink stands for /dev/null, as capsys keeps a copy tracemalloc counts
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert run(["seq", "u", "--m", "1", "--upto", "6144", *json_flag]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written > 7_800_000
    assert peak < 1.25 * sink.written, (peak, sink.written)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the OS has no SIGPIPE")
def test_closed_stdout_pipe_ends_the_console_script_quietly():
    # as ``critgraph seq e --upto 3000 | head -n 1``: the 2.6 MB table overfills
    # the pipe, whose reader closes it after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "critgraph.cli", "seq", "e", "--upto", "3000"],
        env=_package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"0 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (-signal.SIGPIPE, b"")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("check", ["trig", "all"])
@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_bad_tolerance_is_rejected_before_the_count(
    capsys, monkeypatch, json_flag, check, tolerance
):
    # the count of n = 300000 takes long, and its string is over the digit limit
    def no_count(n):
        raise AssertionError("counted before the tolerance was checked")

    monkeypatch.setattr(cli, "tree_count_closed", no_count)
    argv = ["treecount", "300000", "--check", check, f"--tolerance={tolerance}", *json_flag]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"critgraph: error: relative tolerance must be positive and finite, got {float(tolerance)}\n"
    )


_TRANSCRIPTS = json.loads(golden.regen.CLI_JSON.read_text())


@pytest.mark.parametrize("entry", _TRANSCRIPTS, ids=[" ".join(e["argv"]) for e in _TRANSCRIPTS])
def test_cli_transcript(entry):
    # output unchanged from the recording; an intended change is recorded again
    # with tests/golden/regen.py ARGV..., and named in CHANGES.md with the reason
    limit = golden.regen.digit_limit()
    if limit != golden.regen.DIGIT_LIMIT:
        pytest.skip(f"recorded at the digit limit {golden.regen.DIGIT_LIMIT}, this run has {limit}")
    assert golden.regen.record(entry["argv"]) == entry


def test_transcript_check_replays_from_a_relative_path_and_names_the_cause(tmp_path, monkeypatch, capsys):
    one = tmp_path / "cli.json"
    one.write_text(json.dumps([next(e for e in _TRANSCRIPTS if e["argv"] == ["group", "4"])]))
    monkeypatch.setattr(golden.regen, "CLI_JSON", one)
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", "src")
    assert golden.regen.check([sys.executable, "-m", "critgraph.cli"]) == 0
    assert capsys.readouterr().err == "1 of 1 entries match\n"
    boom = "import sys; sys.stderr.write('boom\\nmore\\n'); sys.exit(3)"
    assert golden.regen.check([sys.executable, "-c", boom]) == 1
    assert capsys.readouterr().err == "differs: group 4 (exit 3: boom)\n0 of 1 entries match\n"
