import json
import pathlib
import signal
import subprocess
import sys

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


def test_a_readable_file_wins_over_a_family_spec(tmp_path, capsys):
    path = tmp_path / "run:1.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    assert main(["betti", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "reg = 1, pd = 2"


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


def test_betti_dual_refuses_past_the_cap_before_building_the_cover_ideal(capsys):
    # building the 64-vertex path's cover ideal takes minutes or more, so a
    # hang fails here instead of stalling the suite
    def give_up(signum, frame):
        raise TimeoutError("betti path:63 --dual did not refuse within 5 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(5)
    try:
        assert main(["betti", "path:63", "--dual"]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert "subset_homology cap" in capsys.readouterr().err


def test_package_imports_without_site_packages():
    # no runtime dependency: -S leaves site-packages off sys.path, and -I
    # ignores PYTHONPATH, so only the standard library and src are there
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    # fractions, which also loads decimal, is imported only by a rational
    # rank that needs a non-unit pivot, and multiprocessing only by a run
    # with more than one worker
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import edgeideals, edgeideals.cli; "
            "print(any('site-packages' in p for p in sys.path), "
            "'fractions' in sys.modules, 'multiprocessing' in sys.modules)")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False False False"


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


def test_bad_input_exits_2(capsys, tmp_path):
    assert main(["analyze", "no_such_family:3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", "/nonexistent/file.txt"]) == 2
    capsys.readouterr()
    assert main(["betti", "cycle:5", "--field", "gf4"]) == 2
    capsys.readouterr()
    assert main(["verify", "--max-n", "2", "--theorems", "bogus"]) == 2
    capsys.readouterr()
    # an output path that cannot be written is an output error, not a
    # failed check
    assert main(["analyze", "path:3", "--out", str(tmp_path / "missing" / "x.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["verify", "--max-n", "2", "--tsv", str(tmp_path / "missing" / "x.tsv")]) == 2
    assert "error:" in capsys.readouterr().err
    # a malformed input names the part that is wrong
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n1 x\n")
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err == "error: bad edge line: '1 x'\n"
    assert main(["analyze", "dtree:1,2"]) == 2
    assert "dtree takes d,steps,seed" in capsys.readouterr().err
    for spec in ("path:x", "cycle:x", "complete:1.5", "edgeless:y", "pendant_cycle:z"):
        assert main(["analyze", spec]) == 2
        name = spec.partition(":")[0]
        assert capsys.readouterr().err == (
            f"error: bad family arguments in {spec!r}: {name} takes one integer\n")
    assert main(["analyze", "no_such_family:x"]) == 2
    assert capsys.readouterr().err == "error: unknown family 'no_such_family'\n"
    # integers are an optional '-' and ASCII digits: no '+', underscores or
    # other digits
    for spec in ("path:1_0", "cycle: +5", "complete:\u0663"):
        assert main(["analyze", spec]) == 2
        assert "takes one integer" in capsys.readouterr().err
    for text, message in [("\u0663 1\n0 1\n", "header must be two integers: n m"),
                          ("3 1\n1 +2\n", "bad edge line: '1 +2'")]:
        bad.write_text(text)
        assert main(["analyze", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    for field in ("gf+3", "gf\u0663", "gf1_009"):
        assert main(["betti", "cycle:5", "--field", field]) == 2
        assert "bad field" in capsys.readouterr().err
    assert main(["analyze", "path:-1"]) == 2
    assert "path length must be non-negative" in capsys.readouterr().err



def test_family_specs_past_the_bitmask_cap_exit_2(capsys):
    # a spec is refused from its arguments; listing its edges first would
    # exhaust memory or take minutes, so a hang fails here
    def give_up(signum, frame):
        raise TimeoutError("an over-cap family spec did not refuse within 10 s")

    specs = ["path:100000000", "cycle:100000000", "complete:30000",
             "pendant_cycle:100000000", "capped_cycle:100000000",
             "dtree:100000000,1,0", "path:" + "9" * 200]
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        for spec in specs:
            assert main(["analyze", spec]) == 2
            assert "exceed the bitmask cap of 64" in capsys.readouterr().err
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_overlong_names_and_numbers_are_input_errors(tmp_path, capsys):
    # a name too long for the file system is a family spec, not an OSError
    spec = "path:" + "9" * 5000
    assert main(["analyze", spec]) == 2
    assert capsys.readouterr().err == (
        f"error: bad family arguments in {spec!r}: path takes one integer\n")
    # a number past int()'s digit limit gets the reader's own message
    bad = tmp_path / "long.txt"
    bad.write_text("9" * 5000 + " 1\n0 1\n")
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err == "error: header must be two integers: n m\n"
    bad.write_text("2 1\n0 " + "1" * 5000 + "\n")
    assert main(["analyze", str(bad)]) == 2
    assert "error: bad edge line: '0 111" in capsys.readouterr().err

@pytest.mark.parametrize("option", ["--out", "--tsv"])
def test_verify_refuses_an_unwritable_output_before_the_run(option, monkeypatch,
                                                           tmp_path, capsys):
    calls = []
    monkeypatch.setattr("edgeideals.cli.verify_theorems",
                        lambda **kw: calls.append(kw))
    assert main(["verify", "--max-n", "6", option,
                 str(tmp_path / "MISSING" / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_field_option(capsys):
    assert main(["analyze", "complete:3", "--field", "q"]) == 0
    assert json.loads(capsys.readouterr().out)["field"] == "q"


def test_verify_empty_theorem_list_exits_2(capsys):
    assert main(["verify", "--max-n", "6", "--theorems", ","]) == 2
    assert "no checks selected" in capsys.readouterr().err


def test_verify_jobs_below_one_exits_2(capsys):
    assert main(["verify", "--max-n", "3", "--jobs", "0"]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_verify_negative_max_n_exits_2(capsys):
    assert main(["verify", "--max-n", "-1"]) == 2
    assert "max_n must be non-negative" in capsys.readouterr().err


def test_settings_come_from_flags_only(monkeypatch, tmp_path, capsys):
    argv = ["verify", "--max-n", "2", "--no-families",
            "--theorems", "reg-le-matching", "--out"]
    assert main(argv + [str(tmp_path / "plain.json")]) == 0
    assert main(["analyze", "cycle:5"]) == 0
    plain = capsys.readouterr().out
    for name, value in [("MAX_N", "abc"), ("CONNECTED", "abc"), ("FIELD", "gf4"),
                        ("THEOREMS", "nope"), ("SEED", "x"), ("JOBS", "0")]:
        monkeypatch.setenv(f"EDGEIDEALS_{name}", value)
    assert main(argv + [str(tmp_path / "env.json")]) == 0
    assert main(["analyze", "cycle:5"]) == 0
    assert capsys.readouterr().out == plain
    assert (tmp_path / "env.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_generate_refuses_a_negative_vertex_count(capsys):
    assert main(["generate", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err
