"""The command-line interface, driven in-process."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cspasp
from cspasp.cli import main

HALL = "var v1 2 3\nvar v2 { 1 2 4 }\nvar v3 2 3\nvar v4 1 4\nalldifferent v1 v2 v3 v4\n"
TINY = "var x 1 2\nvar y 1 2\nalldifferent x y\n"
UNSAT_TINY = "var x 1 1\nvar y 1 1\nalldifferent x y\n"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- encode ---------------------------------------------------------------------


def test_encode_emits_header_then_program(capsys, tmp_path):
    path = write(tmp_path, "t.csp", TINY)
    code, out, err = run(capsys, "encode", "-e", "direct", path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "% cspasp encoding=direct hall_limit=-"
    assert lines[1:4] == ["% var x 1 2", "% var y 1 2", "% alldifferent x y"]
    assert lines[4] == "% end"
    assert lines[5] == "{e(x,1); e(x,2)}."
    assert lines[-1].endswith(".")


def test_encode_no_header_is_pure_ground_text(capsys, tmp_path):
    path = write(tmp_path, "t.csp", TINY)
    code, out, _ = run(capsys, "encode", "-e", "direct", "--no-header", path)
    assert code == 0
    assert all(not line.startswith("%") for line in out.splitlines())


def test_encode_writes_output_file(capsys, tmp_path):
    src = write(tmp_path, "t.csp", TINY)
    dst = tmp_path / "out.lp"
    code, out, _ = run(capsys, "encode", src, "-o", str(dst))
    assert code == 0 and out == ""
    assert dst.read_text().startswith("% cspasp encoding=support")


def test_encode_hall_limit_recorded_in_header(capsys, tmp_path):
    path = write(tmp_path, "h.csp", HALL)
    code, out, _ = run(capsys, "encode", "-e", "range", "--hall-limit", "2", path)
    assert code == 0
    assert out.splitlines()[0] == "% cspasp encoding=range hall_limit=2"


# -- solve ----------------------------------------------------------------------


def test_solve_satisfiable_instance(capsys, tmp_path):
    path = write(tmp_path, "t.csp", TINY)
    code, out, _ = run(capsys, "solve", path)
    assert code == 10
    assert out.splitlines()[0] == "SAT"
    body = dict(line.split(" = ") for line in out.splitlines()[1:])
    assert set(body) == {"x", "y"} and {body["x"], body["y"]} == {"1", "2"}


def test_solve_unsatisfiable_instance(capsys, tmp_path):
    path = write(tmp_path, "u.csp", UNSAT_TINY)
    code, out, _ = run(capsys, "solve", path)
    assert (code, out) == (20, "UNSAT\n")


def test_solve_stats_line(capsys, tmp_path):
    path = write(tmp_path, "t.csp", TINY)
    code, out, _ = run(capsys, "solve", "--stats", path)
    assert code == 10
    assert out.splitlines()[-1].startswith("decisions=")
    # the store sizes follow the search counters; under bound the four
    # b atoms and four r(v,l,u) atoms are entities, and the only body is
    # the choice rules' empty one
    code, out, _ = run(capsys, "solve", "-e", "bound", "--stats", path)
    assert code == 10
    fields = dict(field.split("=") for field in out.splitlines()[-1].split())
    sizes = {k: int(fields[k]) for k in ("entities", "bodies", "nogoods", "cardinalities")}
    assert sizes == {"entities": 9, "bodies": 1, "nogoods": 19, "cardinalities": 2}


def test_piped_encode_output_solves_identically(capsys, tmp_path, monkeypatch):
    path = write(tmp_path, "h.csp", HALL)
    code, direct_out, _ = run(capsys, "solve", "-e", "range", path)
    assert code == 10

    code, encoded, _ = run(capsys, "encode", "-e", "range", path)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(encoded))
    code, piped_out, _ = run(capsys, "solve", "-")
    assert code == 10
    assert piped_out == direct_out  # byte-for-byte, header carries everything


def test_solve_solves_an_edited_encode_output(capsys, tmp_path):
    path = write(tmp_path, "x.csp", "var x 1 2\n")
    code, encoded, _ = run(capsys, "encode", "-e", "direct", path)
    assert code == 0
    edited = write(tmp_path, "x.lp", encoded + ":- e(x,1).\n:- e(x,2).\n")
    code, out, _ = run(capsys, "solve", edited)
    assert (code, out) == (20, "UNSAT\n")


@pytest.mark.parametrize("flags", [["-e", "support"], ["--hall-limit", "2"]])
def test_solve_rejects_encoding_flags_on_encode_output(capsys, tmp_path, flags):
    path = write(tmp_path, "h.csp", HALL)
    code, encoded, _ = run(capsys, "encode", "-e", "range", path)
    assert code == 0
    encoded_path = write(tmp_path, "h.lp", encoded)
    code, out, err = run(capsys, "solve", *flags, encoded_path)
    assert code == 1 and out == ""
    assert "-e/--hall-limit" in err


def test_solve_reads_raw_ground_programs(capsys, tmp_path):
    path = write(tmp_path, "g.lp", "{a; b}.\n:- a, b.\n:- not a, not b.\n")
    code, out, _ = run(capsys, "solve", path)
    assert code == 10
    assert out in ("SAT\na\n", "SAT\nb\n")  # exactly one atom survives


@pytest.mark.parametrize(
    "body, count", [("a.\n", 0), ("e(x,1).\ne(x,2).\n", 2)], ids=["no-value", "two-values"]
)
def test_solve_reports_a_body_that_does_not_match_its_header(capsys, tmp_path, body, count):
    path = write(tmp_path, "x.csp", "var x 1 2\n")
    code, encoded, _ = run(capsys, "encode", "-e", "direct", path)
    assert code == 0
    header = encoded[: encoded.index("% end\n") + len("% end\n")]
    mismatched = write(tmp_path, "x.lp", header + body)
    code, out, err = run(capsys, "solve", mismatched)
    assert code == 1 and out == ""
    assert "does not match its header" in err
    assert f"determines {count} values for variable x" in err


@pytest.mark.parametrize("flags", [["-e", "range"], ["--hall-limit", "3"]])
def test_solve_rejects_encoding_flags_on_a_ground_program(capsys, tmp_path, flags):
    path = write(tmp_path, "g.lp", "{a; b}.\n:- a, b.\n")
    code, out, err = run(capsys, "solve", *flags, path)
    assert code == 1 and out == ""
    assert "-e/--hall-limit" in err


def test_solve_enumerate_lists_models(capsys, tmp_path):
    path = write(tmp_path, "t.csp", TINY)
    code, out, _ = run(capsys, "solve", "--enumerate", "0", path)
    assert code == 10
    assert out.startswith("MODEL 1\n")
    assert out.splitlines()[-1] == "models = 2"
    assert "x = 1" in out and "x = 2" in out


def test_solve_enumerate_reports_zero_models(capsys, tmp_path):
    path = write(tmp_path, "u.csp", UNSAT_TINY)
    code, out, _ = run(capsys, "solve", "--enumerate", "0", path)
    assert (code, out) == (20, "models = 0\n")


def test_solve_timeout_gives_unknown(capsys, tmp_path, monkeypatch):
    code, gen_out, _ = run(capsys, "gen", "php", "--n", "8")
    monkeypatch.setattr("sys.stdin", io.StringIO(gen_out))
    code, out, _ = run(capsys, "solve", "--timeout", "0", "-")
    assert (code, out) == (2, "UNKNOWN\n")


def test_solve_emit_nogoods(capsys, tmp_path):
    src = write(tmp_path, "one.csp", "var x 1 2\n")
    dump = tmp_path / "ng.txt"
    code, _, _ = run(capsys, "solve", "--emit-nogoods", str(dump), src)
    assert code == 10
    text = dump.read_text()
    assert "e(x,1)" in text and "\n" in text


def test_solve_keeps_cardinality_rules_as_counting_constraints(capsys, tmp_path):
    src = write(tmp_path, "tiny.csp", TINY)
    dump = tmp_path / "ng.txt"
    code, out, _ = run(capsys, "solve", "-e", "support", "--emit-nogoods", str(dump), src)
    assert code == 10 and out.startswith("SAT")
    counted = [line for line in dump.read_text().splitlines() if line.startswith(":- 2 {")]
    # the at-most-one rules (one per variable, one per value), with no ladder
    assert len(counted) == 4
    assert "_cnt" not in dump.read_text()


# -- errors ----------------------------------------------------------------------


def test_malformed_instance_reports_position(capsys, tmp_path):
    path = write(tmp_path, "b.csp", "vr x 1 2\n")
    code, out, err = run(capsys, "solve", path)
    assert code == 1 and out == ""
    assert "line 1, col 1" in err


def test_input_that_neither_parser_reads_names_both_errors(capsys, tmp_path):
    path = write(tmp_path, "b.csp", "vr x 1 2\n")
    code, out, err = run(capsys, "solve", path)
    assert code == 1 and out == ""
    assert "not a CSP instance (line 1, col 1" in err
    assert "nor a ground program (line 1, col 4" in err


def test_head_in_its_own_negative_body_is_unsat(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a :- not a.\n"))
    code, out, err = run(capsys, "solve", "-")
    assert code == 20 and err == ""
    assert out.splitlines()[0] == "UNSAT"


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.csp"))
    assert code == 1
    assert "nope.csp" in err


def test_hall_limit_rejected_for_value_encodings(capsys, tmp_path):
    path = write(tmp_path, "t.csp", TINY)
    code, _, err = run(capsys, "solve", "--hall-limit", "2", "-e", "direct", path)
    assert code == 1
    assert "--hall-limit" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--nope"])
    assert exc.value.code == 1
    # cardinality rules have one treatment, so no subcommand selects one
    for argv in (["solve", "x.csp"], ["check"], ["bench", "--spec", "php:n=4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--method", "counter"])
        assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# -- check -----------------------------------------------------------------------


def test_check_reports_agreement(capsys):
    code, out, _ = run(
        capsys, "check", "--encoding", "support", "--level", "ac",
        "--seed", "7", "--trials", "25",
    )
    assert code == 0
    assert out == "agree 25/25\n"


def test_check_default_level_follows_encoding(capsys):
    code, out, _ = run(capsys, "check", "--encoding", "range", "--trials", "10")
    assert code == 0
    assert out == "agree 10/10\n"


# -- gen -------------------------------------------------------------------------


def test_gen_php_round_trips_through_solve(capsys, monkeypatch):
    code, text, _ = run(capsys, "gen", "php", "--n", "4")
    assert code == 0
    assert text.splitlines()[0] == "var p1 1 3"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "solve", "-")
    assert (code, out) == (20, "UNSAT\n")


def test_gen_qcp_is_seed_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "qcp", "--order", "5", "--fill", "40", "--seed", "3")
    _, second, _ = run(capsys, "gen", "qcp", "--order", "5", "--fill", "40", "--seed", "3")
    _, third, _ = run(capsys, "gen", "qcp", "--order", "5", "--fill", "40", "--seed", "4")
    assert first == second != third


def test_gen_qep_and_ggp(capsys):
    code, out, _ = run(capsys, "gen", "qep", "--axiom", "QG5", "--order", "4")
    assert code == 0 and "assign m_1_1 1" in out
    code, out, _ = run(capsys, "gen", "ggp", "--n", "3")
    assert code == 0 and "permutation" in out


# -- bench -----------------------------------------------------------------------


def test_bench_text_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "bench", "--spec", "php:n=4", "-e", "bound", "-e", "range",
        "--csv", str(csv_path),
    )
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["family", "params", "encoding"]
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("family,params,")
    assert len(rows) == 3
    assert rows[1].startswith("php,n=4,bound,")


def test_bench_rejects_unknown_family_or_param(capsys):
    code, _, err = run(capsys, "bench", "--spec", "sudoku:n=4")
    assert code == 1 and "sudoku" in err
    code, _, err = run(capsys, "bench", "--spec", "php:m=4")
    assert code == 1


def test_bench_hall_limit_wider_than_an_instance_keeps_every_row(capsys):
    # php n=3 has proper intervals of width 1 only: a limit of 2 caps nothing
    code, out, _ = run(
        capsys, "bench", "--spec", "php:n=3", "--spec", "php:n=5",
        "-e", "bound", "--hall-limit", "2",
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[:5] for row in rows] == [
        ["php", "n=3", "bound", "2", "UNSAT"],
        ["php", "n=5", "bound", "2", "UNSAT"],
    ]


# -- packaging -------------------------------------------------------------------


def test_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(cspasp.__file__).parents[1]))
    check = "import cspasp, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=env, check=True)
