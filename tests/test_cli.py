import json

import pytest

from edgeideals.cli import main, parse_input


def test_parse_input_edge_list():
    g = parse_input("4 4\n0 1\n1 2\n2 3\n0 3\n")
    assert g.n == 4
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_parse_input_comments_and_blanks():
    g = parse_input("# square\n2 1\n\n0 1  # the only edge\n")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_parse_input_family():
    assert parse_input("cycle:5\n").n == 5


def test_parse_input_errors():
    for text in ["", "3\n", "2 2\n0 1\n", "2 1\n0 1 2\n",
                 "cycle:5\n0 1\n", "x y\n"]:
        with pytest.raises(ValueError):
            parse_input(text)


def test_analyze_command(capsys):
    assert main(["analyze", "pendant_cycle:1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reg"] == 1
    assert report["invariants"]["matching"] == 2
    assert report["shellable"] is True


def test_analyze_from_file(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pd"] == 3


def test_analyze_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "path:2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["vertices"] == 3


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    tsv = tmp_path / "report.tsv"
    rc = main(["verify", "--max-n", "3", "--no-families",
               "--out", str(out), "--tsv", str(tsv)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "check" in printed and "0 failures" in printed
    report = json.loads(out.read_text())
    assert report["failures"] == []
    lines = tsv.read_text().splitlines()
    assert lines[0].split("\t") == ["check", "status", "vertices", "edges",
                                    "family", "reason", "data"]
    assert len(lines) == 1 + len(report["results"])


def test_verify_check_subset(capsys):
    rc = main(["verify", "--max-n", "3", "--no-families",
               "--theorems", "reg-le-matching,dual-pd-reg"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "reg-le-matching" in printed
    assert "shelling-quotients" not in printed


def test_betti_command(capsys):
    assert main(["betti", "cycle:5"]) == 0
    printed = capsys.readouterr().out
    assert "total: 1 5 5 1" in printed
    assert "reg = 2, pd = 3" in printed


def test_betti_dual_command(capsys):
    assert main(["betti", "pendant_cycle:1", "--dual"]) == 0
    printed = capsys.readouterr().out
    assert "reg = 2, pd = 2" in printed


def test_generate_count(capsys):
    assert main(["generate", "4", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["generate", "4", "--count", "--no-connected"]) == 0
    assert capsys.readouterr().out.strip() == "11"


def test_generate_blocks_parse_back(capsys):
    assert main(["generate", "3"]) == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        parse_input(block)


def test_bad_input_exits_2(capsys):
    assert main(["analyze", "no_such_family:3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", "/nonexistent/file.txt"]) == 2
    capsys.readouterr()
    assert main(["betti", "cycle:5", "--field", "gf4"]) == 2
    capsys.readouterr()
    assert main(["verify", "--max-n", "2", "--theorems", "bogus"]) == 2


def test_field_option(capsys):
    assert main(["analyze", "complete:3", "--field", "q"]) == 0
    assert json.loads(capsys.readouterr().out)["field"] == "q"


def test_verify_empty_theorem_list_exits_2(capsys):
    assert main(["verify", "--max-n", "6", "--theorems", ","]) == 2
    assert "no checks selected" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["MAX_N", "SEED", "JOBS"])
def test_bad_integer_env_default_is_a_verify_usage_error(name, monkeypatch,
                                                         capsys):
    monkeypatch.setenv(f"EDGEIDEALS_{name}", "abc")
    assert main(["generate", "3", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-families"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_bad_connected_env_default_is_a_verify_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("EDGEIDEALS_CONNECTED", "abc")
    assert main(["generate", "3", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["verify", "--no-families"]) == 2
    assert "EDGEIDEALS_CONNECTED" in capsys.readouterr().err
    assert main(["verify", "--max-n", "2", "--no-families", "--no-connected",
                 "--theorems", "reg-le-matching"]) == 0


@pytest.mark.parametrize("value, connected", [
    ("1", True), ("TRUE", True), ("0", False), ("False", False), ("", False)])
def test_connected_env_default_values(value, connected, monkeypatch, tmp_path,
                                      capsys):
    monkeypatch.setenv("EDGEIDEALS_CONNECTED", value)
    out = tmp_path / "report.json"
    assert main(["verify", "--max-n", "2", "--no-families",
                 "--theorems", "reg-le-matching", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["connected_only"] is connected


def test_generate_refuses_a_negative_vertex_count(capsys):
    assert main(["generate", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err
