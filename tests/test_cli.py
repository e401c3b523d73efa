import json
import os
import subprocess
import sys

import pytest

import crlab
from crlab import cli, fileio
from crlab.families import cr4_bose_bush
from crlab.field import field_create
from crlab.codes import LinearCode
from crlab.matrix import MatGF


def run(args):
    return cli.main(args)


def test_gfc_round_trip(tmp_path):
    code = cr4_bose_bush(4).two_weight_code
    path = tmp_path / "bb4.gfc"
    fileio.write_gfc(path, code, comment="hyperoval code")
    parsed = fileio.read_gfc(path)
    assert parsed.warnings == ()
    assert parsed.code.field == code.field
    assert parsed.code.G == code.G


def test_gfc_noncanonical_modulus_warning(tmp_path):
    path = tmp_path / "alt.gfc"
    path.write_text(
        "field 2 3 poly 1 0 1 1\n"   # the other primitive cubic
        "code 1 3\n"
        "1 2 4\n")
    parsed = fileio.read_gfc(path)
    assert any("non-canonical" in w for w in parsed.warnings)


def test_gfc_rank_warning(tmp_path):
    path = tmp_path / "rank.gfc"
    path.write_text(
        "field 2 1 poly 1 1\n"
        "code 2 4\n"
        "1 1 0 0\n"
        "1 1 0 0\n")
    parsed = fileio.read_gfc(path)
    assert any("rank" in w for w in parsed.warnings)
    assert parsed.code.k == 1


def test_gfc_parse_errors(tmp_path):
    path = tmp_path / "bad.gfc"
    path.write_text("field 2 1 poly 1 1\ncode 1 3\n1 2 0\n")
    with pytest.raises(fileio.GfcParseError, match="out of range"):
        fileio.read_gfc(path)
    path.write_text("code 1 3\n")
    with pytest.raises(fileio.GfcParseError):
        fileio.read_gfc(path)


def test_gfc_range_error_names_the_first_bad_row(tmp_path):
    path = tmp_path / "bad.gfc"
    path.write_text("field 3 1 poly 1 1\n"
                    "# a comment line keeps the line numbers honest\n"
                    "code 3 3\n"
                    "1 0 2\n"
                    "0 3 1\n"
                    "-1 1 1\n")
    with pytest.raises(fileio.GfcParseError) as exc:
        fileio.read_gfc(path)
    assert str(exc.value) == f"{path}:5: entry out of range for GF(3)"


@pytest.mark.parametrize("text,line", [
    ("field 2 1 poly 1 1\ncode a 3\n1 0 1\n", 2),
    ("field 4 1 poly 1 1\ncode 1 3\n1 0 1\n", 1),            # 4 is not prime
    ("field 2 4 poly 1 1 1 1 1\ncode 1 3\n1 0 1\n", 1),      # not primitive
], ids=["code-line", "p-not-prime", "non-primitive-modulus"])
def test_report_malformed_gfc_exits_2(tmp_path, capsys, text, line):
    path = tmp_path / "bad.gfc"
    path.write_text(text)
    assert run(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ")


def test_report_binary_gfc_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.gfc"
    path.write_bytes(b"\xff\xfe field")
    assert run(["report", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not a text file")


@pytest.mark.parametrize("text,message", [
    ("", "empty"),
    ("dm 2 1 1\n0 0 0 0\n0 1 0 x\n0 0 1 1\n0 1 1 0\n", "invalid literal"),
    ("dm 2 1 1\n0 0 0 0\n0 1 0 2\n0 0 1 1\n0 1 1 0\n", "out of range"),
], ids=["empty", "non-integer", "out-of-range"])
def test_read_dm_malformed(tmp_path, text, message):
    path = tmp_path / "bad.dm"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as exc:
        fileio.read_dm(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_construct_and_report(tmp_path, capsys):
    out = tmp_path / "bb4.gfc"
    assert run(["construct", "--family", "bose-bush", "--q", "4",
                "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["report", str(out) + ".dual"]) == 0
    text = capsys.readouterr().out
    assert "rho = 2" in text
    assert "{18,15;1,6}" in text
    assert "CR4" in text


def test_report_json_schema_and_stability(tmp_path, capsys):
    out = tmp_path / "dm.gfc"
    assert run(["construct", "--family", "dm-dual", "--q", "2",
                "--l", "1", "--h", "2", "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["report", str(out), "--json"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    fileio.validate_report_dict(doc)
    assert doc["schema"] == 1
    assert run(["report", str(out), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_construct_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["construct", "--family", "bose-bush", "--q", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "odd" in err and "hyperoval" in err

    with pytest.raises(SystemExit) as exc:
        run(["construct", "--family", "denniston", "--q", "8"])
    assert exc.value.code == 2   # missing --h

    with pytest.raises(SystemExit) as exc:
        run(["construct", "--family", "unknown", "--q", "4"])
    assert exc.value.code == 2


def test_report_budget_refusal_exit_code(tmp_path, capsys):
    """A two-weight side whose syndrome space is astronomically large is
    refused with a message naming the budget variable."""
    from crlab.families import cr6_denniston
    tw = cr6_denniston(16, 8).two_weight_code
    path = tmp_path / "big.gfc"
    fileio.write_gfc(path, tw)
    assert run(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert "CRLAB_SYND_BUDGET" in err


def test_construct_json_predicted_vs_computed(capsys):
    assert run(["construct", "--family", "denniston", "--q", "8", "--h", "4",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["predicted"]["intersection_array"] == \
        doc["computed"]["intersection_array"]
    assert doc["computed"]["rho"] == 2
    assert doc["predicted"]["weights"] == doc["computed"]["weights"]


def test_dm_command(tmp_path, capsys):
    out = tmp_path / "d22.dm"
    assert run(["dm", "--p", "2", "--l", "1", "--h", "1", "--verify",
                "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "difference matrix: OK" in text
    dm, (p, l, h) = fileio.read_dm(out)
    assert (p, l, h) == (2, 1, 1) and dm.side == 4


def test_dm_verify_runs_the_check_once(monkeypatch, capsys):
    """The construction is a theorem and is not re-checked: `--verify`
    runs the exhaustive check exactly once, and without it none runs."""
    from crlab import diffmat
    calls = []
    check = diffmat.is_difference_matrix

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(diffmat, "is_difference_matrix", counting)
    assert run(["dm", "--p", "2", "--l", "2", "--h", "2", "--verify"]) == 0
    assert "difference matrix: OK" in capsys.readouterr().out
    assert len(calls) == 1
    assert run(["dm", "--p", "3", "--l", "1", "--h", "1"]) == 0
    assert "difference matrix" not in capsys.readouterr().out
    assert len(calls) == 1


def test_report_schema_rejects_bad_documents(tmp_path, capsys):
    """The once-compiled validator still rejects a wrong schema number and
    a missing required key, every time it is asked."""
    import jsonschema
    path = tmp_path / "bb4.gfc"
    fileio.write_gfc(path, cr4_bose_bush(4).cr_code)
    assert run(["report", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    fileio.validate_report_dict(doc)
    for _ in range(2):
        with pytest.raises(jsonschema.ValidationError):
            fileio.validate_report_dict(dict(doc, schema=2))
        missing = dict(doc)
        del missing["rho"]
        with pytest.raises(jsonschema.ValidationError, match="'rho'"):
            fileio.validate_report_dict(missing)
    fileio.validate_report_dict(doc)


def test_bounds_command_exit_codes(capsys):
    assert run(["bounds", "--q", "4", "--n", "6", "--d", "4", "--N", "64"]) == 0
    text = capsys.readouterr().out
    assert "equality" in text and "reproduce n: True, d: True" in text
    assert run(["bounds", "--q", "4", "--n", "6", "--d", "4", "--N", "65"]) == 1


def test_search_arcs_command(capsys):
    assert run(["search", "arcs", "--q", "5", "--size", "7"]) == 0
    assert "exists: false" in capsys.readouterr().out
    assert run(["search", "arcs", "--q", "4", "--size", "6"]) == 0
    assert "exists: true" in capsys.readouterr().out


def test_search_classify_command(capsys):
    assert run(["search", "classify", "--q", "2", "--r", "3",
                "--n-max", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(not e["unmatched"] for e in doc["entries"])


def test_dual_command(tmp_path, capsys):
    path = tmp_path / "rep.gfc"
    f = field_create(2, 1)
    fileio.write_gfc(path, LinearCode(f, MatGF(f, [(1, 1, 1, 1)])))
    assert run(["dual", str(path)]) == 0
    parsed = fileio.read_gfc(str(path) + ".dual")
    assert (parsed.code.n, parsed.code.k) == (4, 3)


def test_report_non_cr_code_shows_witness(tmp_path, capsys):
    # duplicated column makes the lengthened code non-regular
    from crlab.families import cr1_extended_hamming
    eh = cr1_extended_hamming(3).cr_code
    f = eh.field
    rows = [[r[0]] + r for r in eh.G.rows.tolist()]
    path = tmp_path / "damaged.gfc"
    fileio.write_gfc(path, LinearCode(f, MatGF(f, rows)))
    assert run(["report", str(path)]) == 0
    text = capsys.readouterr().out
    assert "completely regular: False" in text
    assert "violating coset pair" in text


def test_reports_of_all_family_instances_validate(family_grid):
    """Schema validation plus determinism for every grid instance: the
    completely regular side always, the two-weight side whenever its
    syndrome space is desk-sized."""
    from crlab.report import build_code_report
    for entry in family_grid:
        reports = [build_code_report(entry.cr)]
        if entry.tw.q ** (entry.tw.n - entry.tw.k) <= 1 << 16:
            reports.append(build_code_report(entry.tw))
        for rep in reports:
            doc = fileio.report_to_dict(rep)
            fileio.validate_report_dict(doc)
        again = fileio.report_to_json(build_code_report(entry.cr))
        assert again == fileio.report_to_json(reports[0]), entry.label


def test_complement_command(tmp_path, capsys):
    out = tmp_path / "bb4.gfc"
    run(["construct", "--family", "bose-bush", "--q", "4", "-o", str(out)])
    capsys.readouterr()
    assert run(["complement", str(out), "--s", "1"]) == 0
    parsed = fileio.read_gfc(str(out) + ".comp")
    assert (parsed.code.n, parsed.code.k) == (15, 3)
    # s smaller than the maximum column multiplicity: check failure -> 1
    f = field_create(2, 1)
    twice = tmp_path / "twice.gfc"
    fileio.write_gfc(twice, LinearCode(f, MatGF(f, [(1, 1, 0), (0, 0, 1)])))
    assert run(["complement", str(twice), "--s", "1"]) == 1


def test_complement_zero_column_fails_once(tmp_path, capsys):
    """No s completes a code with a zero column: one failure line, no
    minimal-s line, exit 1.  A too-small s still names the minimal one."""
    path = tmp_path / "zero.gfc"
    path.write_text("field 3 1 poly 1 1\ncode 2 4\n1 0 1 0\n0 1 1 0\n")
    assert run(["complement", str(path), "--s", "1"]) == 1
    assert capsys.readouterr().err == \
        "complement failed: generator column 3 is zero\n"
    f = field_create(2, 1)
    twice = tmp_path / "twice.gfc"
    fileio.write_gfc(twice, LinearCode(f, MatGF(f, [(1, 1, 0), (0, 0, 1)])))
    assert run(["complement", str(twice), "--s", "1"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "(minimal feasible s is 2)"


@pytest.mark.parametrize("argv,name", [
    (["classify", "--q", "3", "--r", "0", "--n-max", "4"], "r"),
    (["classify", "--q", "3", "--r", "-1", "--n-max", "4"], "r"),
    (["classify", "--q", "3", "--r", "3", "--n-max", "-1"], "n_max"),
    (["arcs", "--q", "5", "--size", "-1"], "size"),
])
def test_search_argument_errors_exit_2(argv, name, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["search"] + argv)
    assert exc.value.code == 2
    assert f"error: {name} must be >= " in capsys.readouterr().err


def _first_in_fresh_process(argv, cwd) -> tuple:
    """(exit code, stdout, stderr) of argv as the first crlab call of a
    new interpreter, as the console script makes it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(crlab.__file__)))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from crlab.cli import main; sys.exit(main())", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_this_process(argv, capsys) -> tuple:
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("calls", [
    [["construct", "--family", "bose-bush", "--q", "4", "--json"],
     ["construct", "--family", "bose-bush", "--q", "4"]],
    [["report", "bb4.gfc", "--json"], ["report", "bb4.gfc"]],
    [["construct", "--q", "4"],
     ["construct", "--family", "bose-bush", "--q", "4"]],
], ids=["construct-json-then-plain", "report-json-then-plain",
        "usage-error-then-good-call"])
def test_parser_reuse_leaks_no_state(calls, tmp_path, capsys, monkeypatch):
    """main builds its parser once per process; each call in a sequence
    prints what it prints as the first call of a fresh process."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    fileio.write_gfc(tmp_path / "bb4.gfc",
                     cr4_bose_bush(4).cr_code, comment="hyperoval dual")
    assert cli._build_parser() is cli._build_parser()
    results = [_in_this_process(argv, capsys) for argv in calls]
    assert results[-1][0] == 0
    for argv, result in zip(calls, results):
        assert result == _first_in_fresh_process(argv, tmp_path), argv
