"""The command-line interface, driven in-process."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cspasp
from cspasp.cli import main
from cspasp.program import parse_ground

from .oracles import brute_force_answer_sets

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
    # b atoms and the two r(v,2,2) are entities, each r(v,1,1) is an alias
    # of b(v,1), and there is no body: the choice rules' empty one always
    # holds; the root fixes b(v,2) true, a unit each, and the fold drops
    # the four nogoods with F b(v,2) and strips T b(v,2) from two more
    code, out, _ = run(capsys, "solve", "-e", "bound", "--stats", path)
    assert code == 10
    fields = dict(field.split("=") for field in out.splitlines()[-1].split())
    keys = ("entities", "bodies", "nogoods", "cardinalities", "aliases", "fixed")
    sizes = {k: int(fields[k]) for k in keys}
    assert sizes == {"entities": 6, "bodies": 0, "nogoods": 6, "cardinalities": 2,
                     "aliases": 2, "fixed": 2}


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


def test_solve_accepts_a_cardinality_bound_above_its_literal_count(capsys, monkeypatch):
    # ":- 3 {a; b}" can never fire, so every subset of {a, b} is a model
    text = "{a; b}.\n:- 3 {a; b}.\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "solve", "--enumerate", "0", "-")
    assert (code, err) == (10, "")
    *listed, total = out.splitlines()
    assert total == "models = 4"
    models = []
    for line in listed:
        if line.startswith("MODEL "):
            models.append(set())
        else:
            models[-1].add(line)
    want = brute_force_answer_sets(parse_ground(text))
    assert sorted(map(sorted, models)) == sorted(sorted(map(str, m)) for m in want)


def x_header(capsys, tmp_path, encoding):
    """The ``encode -e <encoding>`` header of ``var x 1 2``."""
    path = write(tmp_path, "x.csp", "var x 1 2\n")
    code, encoded, _ = run(capsys, "encode", "-e", encoding, path)
    assert code == 0
    return encoded[: encoded.index("% end\n") + len("% end\n")]


@pytest.mark.parametrize(
    "body, count",
    [("a.\n", 0), ("e(x,1).\ne(x,2).\n", 2), ("e(x).\n", 0)],
    ids=["no-value", "two-values", "short-atom"],
)
def test_solve_reports_a_body_that_does_not_match_its_header(capsys, tmp_path, body, count):
    mismatched = write(tmp_path, "x.lp", x_header(capsys, tmp_path, "direct") + body)
    code, out, err = run(capsys, "solve", mismatched)
    assert code == 1 and out == ""
    assert err == (
        "cspasp: error: the program body does not match its header: "
        f"assignment determines {count} values for variable x\n"
    )


@pytest.mark.parametrize(
    "encoding, body",
    [
        ("direct", "e(z,1).\n{e(x,1)}.\n:- not e(x,1).\n"),
        ("bound", "b(z,1).\nb(x,1).\nb(x,2).\n"),
    ],
    ids=["direct", "bound"],
)
def test_solve_ignores_value_atoms_of_undeclared_variables(capsys, tmp_path, encoding, body):
    edited = write(tmp_path, "x.lp", x_header(capsys, tmp_path, encoding) + body)
    assert run(capsys, "solve", edited) == (10, "SAT\nx = 1\n", "")


def test_solve_reports_a_body_that_lets_a_non_solution_through(capsys, tmp_path):
    path = write(tmp_path, "t.csp", TINY)
    code, encoded, _ = run(capsys, "encode", "-e", "direct", path)
    assert code == 0
    cut = encoded.replace(":- e(x,1), e(y,1).\n", "").replace(":- e(x,2), e(y,2).\n", "")
    assert len(cut.splitlines()) == len(encoded.splitlines()) - 2
    code, out, err = run(capsys, "solve", write(tmp_path, "t.lp", cut))
    assert (code, out) == (1, "")
    assert err == (
        "cspasp: error: the program body does not match its header: "
        "the model decodes to {'x': 2, 'y': 2}, which is not a solution\n"
    )


@pytest.mark.parametrize(
    "field, message",
    [
        ("hall_limit=x", "bad hall_limit 'x'"),
        ("encoding=foo", "unknown encoding: 'foo'"),
        ("hall_limit=0", "hall_limit only applies to the bound/range encodings"),
    ],
)
def test_solve_names_a_bad_header_field(capsys, tmp_path, field, message):
    path = write(tmp_path, "t.csp", TINY)
    code, encoded, _ = run(capsys, "encode", "-e", "direct", path)
    assert code == 0
    key = field.split("=")[0]
    edited = re.sub(rf"{key}=\S+", field, encoded, count=1)
    code, out, err = run(capsys, "solve", write(tmp_path, "t.lp", edited))
    assert (code, out) == (1, "")
    assert err == f"cspasp: error: encode header: {message}\n"


def test_solve_places_a_header_instance_error_at_its_file_position(capsys, tmp_path):
    # the header's instance starts on file line 2, after "% cspasp ...",
    # and each of its lines after the two characters "% "
    header = x_header(capsys, tmp_path, "direct")
    edited = header.replace("% end\n", "%   var y 1 q\n% end\n")
    assert edited.splitlines()[2] == "%   var y 1 q"
    code, out, err = run(capsys, "solve", write(tmp_path, "x.lp", edited + "e(x,1).\n"))
    assert (code, out) == (1, "")
    assert err == "cspasp: error: line 3, col 13: expected integer, found 'q'\n"


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


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
def test_timeout_must_be_at_least_zero(capsys, tmp_path, command, value):
    args = [write(tmp_path, "t.csp", TINY)] if command == "solve" else ["--spec", "php:n=3"]
    code, out, err = run(capsys, command, "--timeout", value, *args)
    shown = {"nan": "nan", "-1": "-1.0", "-0.5": "-0.5"}[value]
    assert (code, out, err) == (1, "", f"cspasp: error: --timeout must be at least 0, not {shown}\n")


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


def test_emit_nogoods_names_each_substituted_atom(capsys, tmp_path):
    # range defines r(v,2,3) and r(v,3,3) by one literal each: completion
    # substitutes them, and the dump names each on an alias line of its own
    src = write(tmp_path, "two.csp", "var x 1 3\nvar y 1 3\nalldifferent x y\n")
    dump = tmp_path / "ng.txt"
    code, out, _ = run(capsys, "solve", "-e", "range", "--emit-nogoods", str(dump), src)
    assert code == 10 and out.startswith("SAT")
    lines = dump.read_text().splitlines()
    # 10 nogoods (2 of them the root's units), 3 cardinalities, 4 aliases
    assert len(lines) == len(set(lines)) == 17
    aliases = [line for line in lines if " = " in line]
    assert aliases == ["r(x,2,3) = F r(x,1,1)", "r(x,3,3) = F r(x,1,2)",
                       "r(y,2,3) = F r(y,1,1)", "r(y,3,3) = F r(y,1,2)"]
    named = set(re.findall(r"r\([^)]*\)", "\n".join(lines[:-len(aliases)])))
    code, program, _ = run(capsys, "encode", "-e", "range", "--no-header", src)
    atoms = set(re.findall(r"r\([^)]*\)", program))
    assert atoms - named == {line.split(" = ")[0] for line in aliases}


# -- pinned outputs --------------------------------------------------------------

DEMO = "var x 1 3\nvar y 1 3\nvar z 1 3\nalldifferent x y z\nassign x 2\n"
BARE = "{a; b}.\n:- a, b.\n:- not a, not b.\n"
DEMO_ANSWER = "SAT\nx = 2\ny = 3\nz = 1\n"
TINY_NOGOODS = (
    "F e(x,1), F e(x,2)\nF e(y,1), F e(y,2)\n"
    "T e(x,1), T e(y,1)\nT e(x,2), T e(y,2)\n"
    ":- 2 {T e(x,1); T e(x,2)}\n:- 2 {T e(y,1); T e(y,2)}\n"
)
BENCH_TABLE = (
    "family  params                  encoding  hall_limit  status  decisions"
    "  conflicts  propagations  time_ms  atoms  rules\n"
    "php     n=4                     bound                 UNSAT   0          1"
    "          4             T        36     46\n"
    "php     n=4                     support               UNSAT   9          7"
    "          53            T        12     15\n"
    "qcp     order=3,fill=30,seed=1  bound                 SAT     0          0"
    "          54            T        72     112\n"
    "qcp     order=3,fill=30,seed=1  support               SAT     0          0"
    "          21            T        21     41\n"
)
BENCH_CSV = (
    "family,params,encoding,hall_limit,status,decisions,conflicts,"
    "propagations,time_ms,atoms,rules\n"
    "php,n=4,bound,,UNSAT,0,1,4,T,36,46\n"
    "php,n=4,support,,UNSAT,9,7,53,T,12,15\n"
    'qcp,"order=3,fill=30,seed=1",bound,,SAT,0,0,54,T,72,112\n'
    'qcp,"order=3,fill=30,seed=1",support,,SAT,0,0,21,T,21,41\n'
)

# (argv, expected exit code, expected stdout, expected written files)
PINNED = {
    "direct": (["solve", "-e", "direct", "demo.csp"], 10, DEMO_ANSWER, {}),
    "support": (["solve", "-e", "support", "demo.csp"], 10, DEMO_ANSWER, {}),
    "bound": (["solve", "-e", "bound", "demo.csp"], 10, DEMO_ANSWER, {}),
    "range": (["solve", "-e", "range", "demo.csp"], 10, DEMO_ANSWER, {}),
    "piped-encode": (["solve", "demo.lp"], 10, DEMO_ANSWER, {}),
    "bare": (["solve", "bare.lp"], 10, "SAT\nb\n", {}),
    "bare-enumerate-stats": (
        ["solve", "--enumerate", "0", "--stats", "bare.lp"], 10,
        "MODEL 1\nb\nMODEL 2\na\nmodels = 2\n"
        "decisions=1 conflicts=0 propagations=3 restarts=0 learned=0 time_ms=T"
        " entities=2 bodies=0 nogoods=2 cardinalities=0 aliases=0 fixed=0\n",
        {},
    ),
    "enumerate-0": (
        ["solve", "-e", "direct", "--enumerate", "0", "demo.csp"], 10,
        "MODEL 1\nx = 2\ny = 3\nz = 1\nMODEL 2\nx = 2\ny = 1\nz = 3\nmodels = 2\n",
        {},
    ),
    "enumerate-1": (
        ["solve", "--enumerate", "1", "demo.csp"], 10,
        "MODEL 1\nx = 2\ny = 3\nz = 1\nmodels = 1\n", {},
    ),
    "stats": (
        ["solve", "-e", "range", "--stats", "demo.csp"], 10,
        DEMO_ANSWER + "decisions=1 conflicts=0 propagations=11 restarts=0 learned=0"
        " time_ms=T entities=12 bodies=0 nogoods=12 cardinalities=4 aliases=6 fixed=8\n",
        {},
    ),
    "timeout": (["solve", "--timeout", "0", "php8.csp"], 2, "UNKNOWN\n", {}),
    "timeout-enumerate": (
        ["solve", "--timeout", "0", "--enumerate", "0", "--stats", "php8.csp"], 2,
        "models = 0\ndecisions=0 conflicts=0 propagations=0 restarts=0 learned=0"
        " time_ms=T entities=56 bodies=0 nogoods=8 cardinalities=15 aliases=0 fixed=0\n",
        {},
    ),
    "unsat-enumerate": (
        ["solve", "-e", "bound", "--enumerate", "3", "unsat.csp"], 20, "models = 0\n", {},
    ),
    "emit-nogoods": (
        ["solve", "-e", "direct", "--emit-nogoods", "ng.txt", "tiny.csp"], 10,
        "SAT\nx = 2\ny = 1\n", {"ng.txt": TINY_NOGOODS},
    ),
    "emit-nogoods-stdout": (
        ["solve", "-e", "direct", "--emit-nogoods", "-", "tiny.csp"], 10,
        TINY_NOGOODS + "SAT\nx = 2\ny = 1\n", {},
    ),
    "output-file": (
        ["solve", "-e", "support", "-o", "out.txt", "demo.csp"], 10, "",
        {"out.txt": DEMO_ANSWER},
    ),
    "bench-csv": (
        ["bench", "--spec", "php:n=4", "--spec", "qcp:order=3,fill=30,seed=1",
         "-e", "bound", "-e", "support", "--csv", "rows.csv"], 0,
        BENCH_TABLE, {"rows.csv": BENCH_CSV},
    ),
}


def scrub_times(text):
    """Replace every time_ms value by T: in stats lines, bench CSV and bench tables."""
    text = re.sub(r"time_ms=\d+", "time_ms=T", text)
    text = re.sub(r"^(php|qcp)(,.*,)\d+(,\d+,\d+)$", r"\1\2T\3", text, flags=re.M)
    lines = text.splitlines(keepends=True)
    if lines and lines[0].startswith("family  "):
        col = lines[0].index("time_ms")
        width = len("time_ms")
        lines[1:] = [
            line[:col] + "T".ljust(width) + line[col + width:] for line in lines[1:]
        ]
    return "".join(lines)


@pytest.mark.parametrize("case", list(PINNED))
def test_pinned_outputs(capsys, tmp_path, monkeypatch, case):
    argv, want_code, want_out, want_files = PINNED[case]
    monkeypatch.chdir(tmp_path)
    for name, text in [("demo.csp", DEMO), ("tiny.csp", TINY), ("unsat.csp", UNSAT_TINY),
                       ("bare.lp", BARE)]:
        write(tmp_path, name, text)
    assert main(["encode", "-e", "bound", "-o", "demo.lp", "demo.csp"]) == 0
    assert main(["gen", "php", "--n", "8", "-o", "php8.csp"]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, scrub_times(out), err) == (want_code, want_out, "")
    for name, text in want_files.items():
        assert scrub_times((tmp_path / name).read_text()) == text


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
    code, out, err = run(capsys, "bench", "--spec", "php:n=4", "-e", "support", "-e", "direct",
                         "--hall-limit", "1")
    assert code == 1 and out == ""
    assert "--hall-limit" in err
    # beside a value encoding the limit still goes to bound alone
    code, out, _ = run(capsys, "bench", "--spec", "php:n=4", "-e", "support", "-e", "bound",
                       "--hall-limit", "1", "--csv", str(tmp_path / "rows.csv"))
    assert code == 0
    rows = (tmp_path / "rows.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:4] for row in rows] == [["support", ""], ["bound", "1"]]


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--nope"])
    assert exc.value.code == 1
    # cardinality rules have one treatment, so no subcommand selects one
    for argv in (["solve", "x.csp"], ["check"], ["bench", "--spec", "php:n=4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--method", "counter"])
        assert exc.value.code == 1
    # check holds each encoding to its own level, so it takes no --level
    with pytest.raises(SystemExit) as exc:
        main(["check", "--level", "ac"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# -- check -----------------------------------------------------------------------


def test_check_reports_agreement(capsys):
    code, out, _ = run(
        capsys, "check", "--encoding", "support", "--seed", "7", "--trials", "25",
    )
    assert code == 0
    assert out == "agree 25/25\n"


def test_check_default_level_follows_encoding(capsys):
    code, out, _ = run(capsys, "check", "--encoding", "range", "--trials", "10")
    assert code == 0
    assert out == "agree 10/10\n"


@pytest.mark.parametrize("encoding", ["bound", "range"])
def test_check_holds_a_hall_limited_encoding_to_its_level_from_within(capsys, encoding):
    # a Hall limit drops counting rules, so propagation may prune less
    # than the full level; held to equality, seed 1 disagreed on a trial
    code, out, _ = run(
        capsys, "check", "-e", encoding, "--hall-limit", "1", "--trials", "200", "--seed", "1"
    )
    assert (code, out) == (0, "agree 200/200\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-vars", "1"], "--max-vars must be at least 2, not 1"),
        (["--max-dom", "0"], "--max-dom must be at least 1, not 0"),
        (["--trials", "-5"], "--trials must be at least 0, not -5"),
    ],
)
def test_check_rejects_out_of_range_flags(capsys, flags, message):
    code, out, err = run(capsys, "check", *flags)
    assert (code, out, err) == (1, "", f"cspasp: error: {message}\n")


def test_check_accepts_the_smallest_flags(capsys):
    code, out, _ = run(capsys, "check", "--max-vars", "2", "--max-dom", "1", "--trials", "0")
    assert (code, out) == (0, "agree 0/0\n")
    code, out, _ = run(capsys, "check", "--max-vars", "2", "--max-dom", "1", "--trials", "5")
    assert (code, out) == (0, "agree 5/5\n")


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


def test_gen_names_the_fill_flag_in_its_range_error(capsys):
    code, out, err = run(capsys, "gen", "qcp", "--order", "5", "--fill", "200")
    assert (code, out, err) == (1, "", "cspasp: error: fill must be within 0..100, not 200\n")


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
    # a misspelled parameter is named, not run with and echoed back
    code, out, err = run(capsys, "bench", "--spec", "qcp:order=5,fill=30,seed=1,permutaton=true")
    assert (code, out) == (1, "")
    assert err == (
        "cspasp: error: benchmark family 'qcp' takes no parameter 'permutaton' "
        "(it takes order, fill, seed, permutation)\n"
    )


def bench_cells(capsys, spec):
    """The one row of ``bench --spec SPEC -e support``, without its
    params label and time_ms."""
    code, out, err = run(capsys, "bench", "--spec", spec, "-e", "support")
    assert (code, err) == (0, "")
    cells = out.splitlines()[1].split()
    return cells[:1] + cells[2:8] + cells[9:]


def test_bench_defaults_the_qcp_seed_as_gen_does(capsys):
    assert bench_cells(capsys, "qcp:order=5,fill=30") == bench_cells(
        capsys, "qcp:order=5,fill=30,seed=0"
    )
    _, defaulted, _ = run(capsys, "gen", "qcp", "--order", "5", "--fill", "30")
    _, seeded, _ = run(capsys, "gen", "qcp", "--order", "5", "--fill", "30", "--seed", "0")
    assert defaulted == seeded


@pytest.mark.parametrize(
    "spec, message",
    [
        ("php:n=abc", "benchmark parameter 'n' takes an integer, not 'abc'"),
        ("qcp:order=4,fill=30,permutation=no",
         "benchmark parameter 'permutation' takes true or false, not 'no'"),
        ("qcp:order=4,seed=1", "benchmark family 'qcp' needs parameter 'fill'"),
        ("php:n=4,n=5", "spec parameter 'n' repeated in 'php:n=4,n=5'"),
    ],
)
def test_bench_rejects_a_spec_value_of_the_wrong_type(capsys, spec, message):
    code, out, err = run(capsys, "bench", "--spec", spec)
    assert (code, out, err) == (1, "", f"cspasp: error: {message}\n")


def test_bench_reads_permutation_as_true_or_false(capsys):
    rules = {
        value: int(bench_cells(capsys, f"qcp:order=4,fill=30,permutation={value}")[-1])
        for value in ("false", "FALSE", "true", "True")
    }
    assert rules["false"] == rules["FALSE"] < rules["true"] == rules["True"]


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
