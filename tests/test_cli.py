import json

import pytest

from critgraph import cli, critgroup, treecount
from critgraph.cli import MAX_GRAPH_VERTICES, run


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out), out


def test_group_json(capsys):
    assert run(["group", "5", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["command"] == "group"
    assert payload["n"] == "5"
    assert payload["invariant_factors"] == ["19", "19", "779", "15580"]
    assert payload["order"] == "4381392020"


def test_group_methods_agree(capsys):
    outputs = []
    for method in ("closed", "relations", "snf"):
        assert run(["group", "6", "--method", method, "--json"]) == 0
        payload, _ = _json_out(capsys)
        outputs.append((payload["invariant_factors"], payload["order"]))
    assert outputs[0] == outputs[1] == outputs[2]


def test_group_text(capsys):
    assert run(["group", "4"]) == 0
    out = capsys.readouterr().out
    assert "invariant factors: 2 2 8 24 24 24 96" in out
    assert "order: 42467328" in out


def test_group_rejects_small_n(capsys):
    assert run(["group", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_json_round_trip_is_idempotent(capsys):
    assert run(["group", "5", "--json"]) == 0
    _, out = _json_out(capsys)
    reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2)
    assert reparsed == out.strip()


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


def test_seq_table(capsys):
    assert run(["seq", "e", "--upto", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0 0", "1 1", "2 4", "3 15", "4 56", "5 209", "6 780"]


def test_seq_u_requires_m(capsys):
    assert run(["seq", "u", "--upto", "4"]) == 2
    capsys.readouterr()
    assert run(["seq", "u", "--upto", "4", "--m", "4", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["values"] == ["0", "1", "6", "35", "204"]
    assert run(["seq", "e", "--upto", "4", "--m", "2"]) == 2
    capsys.readouterr()


def test_valuations(capsys):
    assert run(["valuations", "--upto", "60", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert len(payload["checks"]) == 4
    assert all(c["pass"] for c in payload["checks"])


def test_subgroup_exit_codes(capsys):
    assert run(["subgroup", "3", "6"]) == 0
    assert "yes" in capsys.readouterr().out
    assert run(["subgroup", "3", "4"]) == 1
    assert "no" in capsys.readouterr().out


def test_snf_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n4 0\n0 6\n")
    assert run(["snf", "--matrix", str(path)]) == 0
    assert "diagonal: 2 12" in capsys.readouterr().out


def test_snf_missing_file(capsys):
    assert run(["snf", "--matrix", "/nonexistent/m.txt"]) == 2
    assert "error" in capsys.readouterr().err


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


def test_graph_group_rejects_graph_over_vertex_cap(tmp_path, capsys, monkeypatch):
    # the cap is checked before the dense Laplacian is built
    def no_laplacian(graph):
        raise AssertionError("dense Laplacian built for an over-cap graph")

    monkeypatch.setattr(critgroup, "laplacian", no_laplacian)
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
    # before C4 x CN or its dense Laplacian is built
    def no_build(arg):
        raise _Built(arg)

    for module, name in ((cli, "c4xcn"), (critgroup, "laplacian"), (treecount, "laplacian")):
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


def test_verify_bad_ranges(capsys):
    for bad in ("5", "8..3", "2..5", "a..b"):
        assert run(["verify", "--range", bad]) == 2
        capsys.readouterr()


def test_unknown_flag_exits_two(capsys):
    assert run(["group", "5", "--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
