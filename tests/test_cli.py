import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import crlab
from conftest import (CONSTRUCT_SPEC, GRID_SPEC, RANDOM_CODE_SHAPES,
                      build_instance)
from crlab import budgets, cli, fileio
from crlab.families import cr4_bose_bush, random_multiweight_code
from crlab.field import field_create
from crlab.codes import LinearCode
from crlab.diffmat import DifferenceMatrix
from crlab.matrix import MatGF
from crlab.report import build_code_report


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


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_report_zero_code_exits_2(tmp_path, capsys, as_json):
    """A .gfc whose rows are all zero parses (rank 0, with a warning) but
    has no minimum distance to report: one error line, exit 2."""
    path = tmp_path / "zero.gfc"
    path.write_text("field 2 1 poly 1 1\ncode 2 3\n0 0 0\n0 0 0\n")
    assert run(["report", str(path)] + ["--json"] * as_json) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: cannot report on the zero code "
                   f"(every generator row is zero)\n")


def read_dm(path):
    """(DifferenceMatrix, (p, l, h)) from a .dm file; ValueError naming
    the path on malformed input."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()
                 and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty dm file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dm":
        raise ValueError(f"{path}: malformed dm header")
    try:
        p, l, h = int(head[1]), int(head[2]), int(head[3])
        field = field_create(p, l)
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    side = p ** (l + h)
    if len(rows) != side or any(len(r) != side for r in rows):
        raise ValueError(f"{path}: expected a {side}x{side} matrix")
    if any(not 0 <= x < field.q for r in rows for x in r):
        raise ValueError(f"{path}: entry out of range for GF({field.q})")
    return (DifferenceMatrix(group_field=field, mu=p ** h,
                             entries=np.array(rows, dtype=np.int64)),
            (p, l, h))


def report_to_json(report) -> str:
    return json.dumps(fileio.report_to_dict(report), sort_keys=True, indent=2)


@pytest.mark.parametrize("text,message", [
    ("", "empty"),
    ("dm 2 1 1\n0 0 0 0\n0 1 0 x\n0 0 1 1\n0 1 1 0\n", "invalid literal"),
    ("dm 2 1 1\n0 0 0 0\n0 1 0 2\n0 0 1 1\n0 1 1 0\n", "out of range"),
], ids=["empty", "non-integer", "out-of-range"])
def test_read_dm_malformed(tmp_path, text, message):
    path = tmp_path / "bad.dm"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as exc:
        read_dm(path)
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


def test_syndrome_budget_covers_profiles_only(tmp_path, capsys, monkeypatch):
    """A side whose rho and array come from Delsarte's closed form builds
    no profile, so a syndrome budget below its q^r does not refuse it;
    a side that needs the profile is still refused."""
    from crlab.families import cr3_mds_dual, cr5_delsarte
    monkeypatch.setenv(budgets.SYND_BUDGET_VAR, "1024")
    cr = cr5_delsarte(16).cr_code
    assert (cr.n, cr.k, cr.q ** (cr.n - cr.k)) == (120, 117, 4096)
    path = tmp_path / "delsarte16.gfc"
    fileio.write_gfc(path, cr)
    assert run(["report", str(path), "--json"]) == 0
    assert '"rho": 2' in capsys.readouterr().out
    fileio.write_gfc(path, cr3_mds_dual(8, 8).two_weight_code)
    assert run(["report", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and budgets.SYND_BUDGET_VAR in captured.err


def test_report_refuses_a_syndrome_space_too_long_to_print(tmp_path, capsys,
                                                          monkeypatch):
    """The [716,1] all-ones code over GF(2^20) has 1048576^715 syndromes,
    a count of more than 4300 digits: the refusal names it as q^r and
    exits 1 instead of failing to print it."""
    monkeypatch.delenv(budgets.SYND_BUDGET_VAR, raising=False)
    f = field_create(2, 20)
    path = tmp_path / "ones716.gfc"
    fileio.write_gfc(path, LinearCode.from_rows(f, [[1] * 716]))
    assert run(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: profile of [716,1]_1048576 code needs 1048576^715 "
        f"syndromes, over the limit {budgets.DEFAULT_SYND_BUDGET} "
        f"(raise {budgets.SYND_BUDGET_VAR} to allow)\n")


def test_report_json_prints_counts_past_the_digit_limit(tmp_path, capsys):
    """The [716,715] dual of that code has subconstituent sizes and
    weight counts of about 4300 to 4800 digits: report --json prints them
    in full, as json.dumps does with the digit limit lifted, and leaves
    the limit as it was."""
    f = field_create(2, 20)
    path = tmp_path / "dual716.gfc"
    fileio.write_gfc(path, LinearCode.from_rows(f, [[1] * 716]).dual())
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert run(["report", str(path), "--json"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    out = capsys.readouterr().out
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        longest = max(len(str(v)) for v in doc["weight_distribution"].values())
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert (doc["n"], doc["k"], doc["rho"]) == (716, 715, 1)
    assert doc["completely_regular"] is True
    assert longest > 4300


@pytest.mark.parametrize("argv,what", [
    (["dm", "--p", "2", "--l", "15000", "--h", "1"],
     "difference matrix D(2^15000,2^1) entries needs 2^30002 items"),
    (["construct", "--family", "dm-dual", "--q", "2", "--l", "15000",
      "--h", "15000"],
     "CR.2 dual generator for D(2^15000,2^15000) entries needs at least "
     "2^59999 items"),
])
def test_difference_matrix_too_long_to_print_is_refused(argv, what, capsys,
                                                        monkeypatch):
    """p^l past 4300 digits is named as a power in the enumeration
    refusal, which exits 1 at once instead of failing to print it."""
    monkeypatch.delenv(budgets.ENUM_BUDGET_VAR, raising=False)
    start = time.monotonic()
    assert run(argv) == 1
    assert time.monotonic() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {what}, over the limit {budgets.DEFAULT_ENUM_BUDGET} "
        f"(raise {budgets.ENUM_BUDGET_VAR} to allow)\n")


def _record_rref(monkeypatch) -> list:
    """The (rows, columns) of every elimination from here on."""
    from crlab import matrix
    shapes = []
    rref = matrix._rref

    def recorded(f, rows, ncols):
        shapes.append(np.shape(rows))
        return rref(f, rows, ncols)

    monkeypatch.setattr(matrix, "_rref", recorded)
    return shapes


def test_report_on_completely_regular_sides_eliminates_no_k_rows(
        family_grid, tmp_path, monkeypatch, capsys):
    """A completely regular grid side with k > n - k is systematic: its
    rank is certified from its unit columns, and its dual comes from one
    elimination of the (n - k)-row [-A^t | I], so `report` never
    eliminates a matrix with k rows."""
    shapes = _record_rref(monkeypatch)
    path = tmp_path / "cr.gfc"
    checked = 0
    for entry in family_grid:
        cr = entry.cr
        if cr.k <= cr.n - cr.k:
            continue
        fileio.write_gfc(path, cr)
        shapes.clear()
        assert run(["report", str(path), "--json"]) == 0, entry.label
        capsys.readouterr()
        assert (cr.n - cr.k, cr.n) in shapes, entry.label
        assert all(rows <= cr.n - cr.k for rows, _ in shapes), \
            (entry.label, shapes)
        checked += 1
    assert checked == 20


def test_rank_deficient_file_takes_the_rref_path(tmp_path, monkeypatch,
                                                 capsys):
    """A file with k > n - k whose rows have no unit column each is
    eliminated in full, and its report warns that it runs on the
    row-space basis."""
    shapes = _record_rref(monkeypatch)
    path = tmp_path / "deficient.gfc"
    path.write_text("field 3 1 poly 1 1\n"
                    "code 3 5\n"
                    "1 0 1 1 1\n"
                    "0 1 1 1 2\n"
                    "1 1 2 2 0\n")
    assert run(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("warning: matrix rank 2 < declared k = 3; "
                          "using the row-space basis\n")
    assert shapes[0] == (3, 5)


def test_construct_json_predicted_vs_computed(capsys):
    assert run(["construct", "--family", "denniston", "--q", "8", "--h", "4",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["predicted"]["intersection_array"] == \
        doc["computed"]["intersection_array"]
    assert doc["computed"]["rho"] == 2
    assert doc["predicted"]["weights"] == doc["computed"]["weights"]


# sha256 of the stdout of `construct --family KIND ARGS --json` for every
# grid and construct-workload family, recorded while each family still
# had an intersection-array formula of its own
CONSTRUCT_JSON_DIGESTS = [
    ("ext-hamming --m 2",
     "b8e7270e2085a42200f8d7808606b5a694bc4ced9458853ad865a3e19c74acae"),
    ("ext-hamming --m 3",
     "b45a8c262edd6fb23f6adc884daf7c2cb106bd94ecdb0106ac0b1fc762a3b8d2"),
    ("ext-hamming --m 4",
     "5904364f5a459e61661e79c9db7c43c399ad95d5f0bc29ad042e8925cc8fe3fa"),
    ("dm-dual --q 2 --l 1 --h 1",
     "83360015daec07f53f15adc3b37466659694a0d7e65676acf77df77f1483f0b1"),
    ("dm-dual --q 2 --l 1 --h 2",
     "7575b9100ec381cf075e581cb2a724dff407568acf080933cae74f52e26b1a9b"),
    ("dm-dual --q 2 --l 2 --h 2",
     "f1df3bd6b4433d4f11d5d9f649184d22a78d5a0d31c65077912882e041048f2f"),
    ("dm-dual --q 3 --l 1 --h 1",
     "9ccbb99f7e281e807c37e5efdda6437ca01d83d14c0cb3075ccd9b9f7bd1a81d"),
    ("mds-dual --q 3 --n 3",
     "b2f3c88c665e6b858c67b0507465cc28262089ebd6347a9e0d92c3a18b0b2f29"),
    ("mds-dual --q 4 --n 3",
     "b82206b229b53e5e360c4be406b6b378ce12cce9c18c4cea328498d917727d4f"),
    ("mds-dual --q 4 --n 4",
     "778ce7356cc769ae1d7cc6dc9493743674df5bda952f68cd9d04f77488b8f91a"),
    ("mds-dual --q 5 --n 3",
     "61ca95aa1900269d0871fe3024da7008eeeb97859a444b1805833ce05254fdf9"),
    ("mds-dual --q 5 --n 4",
     "3a37a17b0071e5dc37eb49cc3c02cb0d6aab0a72efb9e6951ab84458185ee7c8"),
    ("mds-dual --q 5 --n 5",
     "9a040591062b8d229aaad53e3a25c036761492a31c9fcafa4ce07e0ace3ee2d7"),
    ("mds-dual --q 7 --n 3",
     "30eece64eee8d445c9b2f52c09ccba3e376bed37556bab500f563646755649d5"),
    ("mds-dual --q 7 --n 4",
     "beb15746b5bd0d2c0342d311db2b2a74787f054123b80151160bd5e722ccb362"),
    ("mds-dual --q 7 --n 5",
     "22d3271198630fbd085fa9984e15eac764d5d137c0366b2dc09fb95037d697ea"),
    ("mds-dual --q 7 --n 6",
     "d6275eeae82947ed35abdc990b33bf0947540d9bcd436f1d55d390bdd11bffe3"),
    ("mds-dual --q 7 --n 7",
     "94bde53a0da6d499586d2d8e43934d6113cee1d64b3774baaa2c5b6779e08aa7"),
    ("mds-dual --q 8 --n 3",
     "4b6757bb857f19fd7fd17f4e4cfca3a31fc8cfc9b1b59d54e0b23a082b970ca6"),
    ("mds-dual --q 8 --n 4",
     "0506c10c137035ffd37531556b2ac78e938313d07b6324669c069afbeae33db3"),
    ("mds-dual --q 8 --n 5",
     "76532560a03071ca6a4fdf812327e27c92d293bc5a6f2752d4eda09ebe7a2212"),
    ("mds-dual --q 8 --n 6",
     "36ecf774e2261aec389f45ac28fa6b1b8683da244e687cc5e46d457bb65e83df"),
    ("mds-dual --q 8 --n 7",
     "d2ce44ff0270fb14906ecb98e4d59db2815b6771ffb154659feb6cc8c02b9773"),
    ("mds-dual --q 8 --n 8",
     "1609edcf9712b52e5136b46ee46fbfb7112c8ad14dc99b56e79b914d493f6964"),
    ("bose-bush --q 4",
     "bc3a5452d6e49be6b21f8953593f7f43f3fe882082bc2f62815c1e6d15bc295d"),
    ("bose-bush --q 8",
     "0911e7348dc44e0763cae7e3b866ae9f90d75cb0e73cbe01ce28f9da6b9e5728"),
    ("bose-bush --q 16",
     "c1163808e470358c5dcf07c65bc8f53f3953a00d263c51859616133f706ee622"),
    ("delsarte --q 8",
     "d16c9e7c7ed0da3ae1acaee9e9ba92e5d0077116b6adaa700d48201539b11504"),
    ("delsarte --q 16",
     "be88e3a36946bdd79fccc97b675789b4e7a95c775bae9656d7ddd6ab99ce94a8"),
    ("denniston --q 8 --h 2",
     "598ccc027508d255e3c460a2cfe9c04235b5402f0aa77007e625531d8d6d401c"),
    ("denniston --q 8 --h 4",
     "a0c3d234b518dbe06a5366ed87aefca9bff160301a2115aeafecb4832d37404a"),
    ("denniston --q 16 --h 2",
     "0b614efd6b42ca6a106300ae2f59672298beed7a38f304f06e232b1f37b2c115"),
    ("denniston --q 16 --h 4",
     "b8893a5ea20e1f645b1886132c6274012c86a0ea70d1a15f5bd84f83b8dbdc8e"),
    ("denniston --q 16 --h 8",
     "b549cbc7fa0e7cbfa93fde464f7e8cbff42f4affb1cccdec55e94a0bf8d75fd6"),
    ("bose-bush --q 32",
     "35ee22cef0e6604f7d997dd4263794aebc6fa5362ee686da7bfe80ca10992e1e"),
    ("denniston --q 32 --h 2",
     "1de141b54a1561f5efe4c301ba85b31c99b06c4aeda9d4674ddbb7daa9ace31e"),
    ("denniston --q 32 --h 4",
     "151542b460339ed35bc9133b4e8f45f91df11c10d1ea538c4b561d90c74037c4"),
    ("denniston --q 32 --h 8",
     "c5513276327a3a2b7ede1aa1e5c277d85829081525ebf7540343fce4da679c73"),
    ("delsarte --q 16",
     "be88e3a36946bdd79fccc97b675789b4e7a95c775bae9656d7ddd6ab99ce94a8"),
    ("ext-hamming --m 8",
     "073448132ff5afe17d5c8e70d25a51d97b0c4f9c191dfdf12fc72b2b67fd1153"),
    ("mds-dual --q 25 --n 25",
     "bfaf7f9613d26fc730616ef281d747329e4694d11b248ee8135a1e70fef6860f"),
    ("mds-dual --q 27 --n 27",
     "3723a733513664700dacc227a395afeff0de6dc4127d50cc7d01b5d95f2771b9"),
    ("dm-dual --q 2 --l 2 --h 4",
     "b10420555b476a539ba30c9169e08df8644ed9f3af95a5f01a6df49238a34ee3"),
    ("dm-dual --q 2 --l 3 --h 3",
     "4cd304f48c98eafd1b437dd338347a721a3499bfa49b881ee99698f05a9ac6e0"),
    ("dm-dual --q 3 --l 1 --h 2",
     "8e5f385aa432900b18427df7624080a1cbb30d259c0eeb5293be2f4573c465d4"),
    ("dm-dual --q 5 --l 1 --h 1",
     "184a7d74e1b414ec6baca08446f9f1c3a3b28117ae8292618736f777575ef50a"),
    # recorded while the point weights still came from a field matmul
    ("delsarte --q 64",
     "6f0a8c435264da0b136c07c6abcac249168ce5b2f1f7a12c31781a15ac52c017"),
    ("denniston --q 64 --h 8",
     "2b179bfff9949b8908164566b41b498d12242f209320883ce303300409adeb50"),
]


@pytest.mark.parametrize("args,digest", CONSTRUCT_JSON_DIGESTS)
def test_construct_json_pinned(args, digest, capsys):
    """The construct JSON, predicted and computed arrays included, is
    byte-stable."""
    kind, *rest = args.split()
    assert run(["construct", "--family", kind, *rest, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _construct_argv(kind, params) -> list:
    if kind == "dm-dual":
        params = {"q": params["p"], "l": params["l"], "h": params["h"]}
    argv = ["construct", "--family", kind]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    return argv


def test_construct_json_builds_no_dual_and_no_profile(monkeypatch, capsys):
    """Every grid and construct-workload family is a projective two-weight
    code, so `construct --json` takes rho and the array from Delsarte's
    theorem: no null space is eliminated and no syndrome profile built."""
    from crlab.regularity import SyndromeProfile

    def refuse(*args):
        raise AssertionError("construct --json built a dual or a profile")
    monkeypatch.setattr(MatGF, "null_space", refuse)
    monkeypatch.setattr(SyndromeProfile, "__init__", refuse)
    for kind, params in GRID_SPEC + CONSTRUCT_SPEC:
        assert run(_construct_argv(kind, params) + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["computed"]["rho"] == 2, (kind, params)
        assert doc["computed"]["intersection_array"] == \
            doc["predicted"]["intersection_array"], (kind, params)


def test_construct_json_profiles_a_dual_with_repeated_columns(monkeypatch,
                                                              capsys):
    """A two-weight code with a repeated column has a dual with d = 2,
    outside Delsarte's theorem (its closed form does not even split these
    weights), so `computed` comes from the dual's syndrome profile."""
    from crlab import families
    from crlab.regularity import complete_regularity, delsarte_ia
    f = field_create(2, 1)
    frame = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    tw = LinearCode(f, MatGF(f, np.transpose(frame * 2)))
    assert tw.weight_distribution().nonzero_weights == (4, 8)
    with pytest.raises(ValueError):
        delsarte_ia(8, 2, 3, 1, {4, 8})
    want = complete_regularity(LinearCode(f, tw.G).dual())
    inst = families.FamilyInstance(family="CR4", params={"q": 4},
                                   two_weight_code=tw,
                                   predicted_weights=frozenset({4, 8}))
    monkeypatch.setattr(families, "cr4_bose_bush", lambda q: inst)
    # the prediction's closed form cannot split these weights either
    monkeypatch.setattr(families.FamilyInstance, "predicted_ia",
                        property(lambda self: want.ia))
    assert run(["construct", "--family", "bose-bush", "--q", "4",
                "--json"]) == 0
    computed = json.loads(capsys.readouterr().out)["computed"]
    assert computed == {
        "weights": [4, 8], "rho": want.profile.rho,
        "intersection_array": {"b": list(want.ia.b), "c": list(want.ia.c)}}
    assert (want.profile.rho, str(want.ia)) == (2, "{8,6;2,8}")


# sha256 of the two files `construct --family KIND ARGS -o FILE` writes,
# FILE and FILE.dual, recorded while every builder still built its dual
# eagerly and Denniston and Delsarte picked their columns one at a time
CONSTRUCT_OUTPUT_DIGESTS = [
    ("bose-bush --q 16",
     "ca457e6aa1450920c3adac97b45cc0a28099790f3cd286a92d6404aad70b752b",
     "5a9ea4f0980e341c982d37a380160000f8c8ffbfe8dff860d87372de2107a05e"),
    ("denniston --q 16 --h 4",
     "90b767e529fffa7ffa9341c28c6283fe93adb2c78d28ddf3309ac878fdf2cec6",
     "bdddaea493e8b9e08d04626151cd5671ba7a6f1bbf46e7b11c6360a40caa43f4"),
    ("delsarte --q 16",
     "c588667bcd60fbb8901b0fead61e7fa2943aa8d976972623338a802984f1ff4c",
     "8433a5b9a8e43393662a25b53c73d5f588b0ac569813f966d2a303a9da0b5a3f"),
]


@pytest.mark.parametrize("args,tw_digest,dual_digest",
                         CONSTRUCT_OUTPUT_DIGESTS)
def test_construct_output_files_pinned(args, tw_digest, dual_digest,
                                       tmp_path, capsys):
    kind, *rest = args.split()
    out = tmp_path / "code.gfc"
    assert run(["construct", "--family", kind, *rest, "-o", str(out)]) == 0
    for path, digest in ((out, tw_digest), (f"{out}.dual", dual_digest)):
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, path


def test_dm_command(tmp_path, capsys):
    out = tmp_path / "d22.dm"
    assert run(["dm", "--p", "2", "--l", "1", "--h", "1", "--verify",
                "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "difference matrix: OK" in text
    dm, (p, l, h) = read_dm(out)
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


@pytest.mark.parametrize("args,message", [
    (("--q", "6", "--n", "3", "--d", "2", "--N", "4"),
     "--q: 6 is not a prime power"),
    (("--q", "1", "--n", "3", "--d", "2", "--N", "4"),
     "--q: 1 is not a prime power"),
    (("--q", "2", "--n", "0", "--d", "1", "--N", "4"),
     "--n must be >= 1, got 0"),
    (("--q", "2", "--n", "3", "--d", "0", "--N", "4"),
     "--d must lie in [1, n] = [1, 3], got 0"),
    (("--q", "2", "--n", "3", "--d", "4", "--N", "4"),
     "--d must lie in [1, n] = [1, 3], got 4"),
    (("--q", "2", "--n", "3", "--d", "2", "--N", "0"),
     "--N must be >= 1, got 0"),
    (("--q", "2", "--n", "3", "--d", "2", "--N", "-4"),
     "--N must be >= 1, got -4"),
    (("--q", str(1000000007 * 1000000009), "--n", "3", "--d", "2",
      "--N", "4"),
     "--q: 1000000016000000063 is not a prime power"),
    (("--q", str(4 * 10 ** 24), "--n", "3", "--d", "2", "--N", "4"),
     "--q: 4000000000000000000000000 is past the prime-power test's "
     "limit 3317044064679887385961981"),
], ids=["q-6", "q-1", "n-0", "d-0", "d-past-n", "N-0", "N-negative",
        "q-semiprime", "q-past-limit"])
def test_bounds_rejects_bad_arguments(capsys, args, message):
    """No field GF(q), empty length, a distance outside [1, n] or no
    codewords is a usage error, refused before any check runs."""
    with pytest.raises(SystemExit) as exc:
        run(["bounds", *args])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"crlab: error: {message}"


def test_bounds_length_one_has_no_d_reconstruction(capsys):
    """At n = 1 the cardinality bound q^2 d / (dq - (q-1)(n-1)) is q for
    every d, so its equality case cannot give d back: that check is not
    applicable, where its formula divided by N - q = 0."""
    assert run(["bounds", "--q", "2", "--n", "1", "--d", "1", "--N", "2"]) == 1
    out = capsys.readouterr().out
    assert "window_upper_equality_d: not applicable\n" in out
    assert out.endswith("reproduce n: True, d: n/a\n")


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


def test_search_classify_dumps_unmatched_entries(tmp_path, capsys,
                                                 monkeypatch):
    """With family matching switched off, the PG(2, 4) hyperovals are an
    UNMATCHED entry: the command exits 1 and writes its example columns
    as a generator."""
    from crlab import search
    monkeypatch.setattr(search, "family_match", lambda *args: [])
    assert run(["search", "classify", "--q", "4", "--r", "3", "--n-max", "6",
                "--projective", "--dump-dir", str(tmp_path)]) == 1
    path = tmp_path / "unmatched_4_3_0.gfc"
    assert capsys.readouterr().out.splitlines()[-1] == f"dumped {path}"
    code = fileio.read_gfc(str(path)).code
    assert (code.n, code.k, code.q) == (6, 3, 4)
    assert code.weight_distribution().nonzero_weights == (4, 6)


def test_dual_command(tmp_path, capsys):
    path = tmp_path / "rep.gfc"
    f = field_create(2, 1)
    fileio.write_gfc(path, LinearCode(f, MatGF(f, [(1, 1, 1, 1)])))
    assert run(["dual", str(path)]) == 0
    parsed = fileio.read_gfc(str(path) + ".dual")
    assert (parsed.code.n, parsed.code.k) == (4, 3)


@pytest.mark.parametrize("command,owner,name", [
    ("report", cli, "build_code_report"), ("dual", LinearCode, "dual")],
    ids=["report", "dual"])
def test_value_error_under_a_command_is_a_usage_error(command, owner, name,
                                                       tmp_path, capsys,
                                                       monkeypatch):
    """A ValueError from a command's library call reaches main's one
    handler: exit 2 with the usage line and a ``crlab: error:`` line,
    never a traceback."""
    path = tmp_path / "bb4.gfc"
    fileio.write_gfc(path, cr4_bose_bush(4).two_weight_code)

    def refuse(*args, **kwargs):
        raise ValueError("refused by the library")
    monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(SystemExit) as exc:
        run([command, str(path)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.err.startswith("usage: crlab ")
    assert out.err.endswith("\ncrlab: error: refused by the library\n")
    assert "Traceback" not in out.err and not out.out


def damaged_ext_hamming() -> LinearCode:
    """The [8,4]_2 extended Hamming code lengthened by a duplicated
    column, which makes it not completely regular."""
    from crlab.families import cr1_extended_hamming
    eh = cr1_extended_hamming(3).cr_code
    rows = [[r[0]] + r for r in eh.G.rows.tolist()]
    return LinearCode(eh.field, MatGF(eh.field, rows))


def test_report_non_cr_code_shows_witness(tmp_path, capsys):
    path = tmp_path / "damaged.gfc"
    fileio.write_gfc(path, damaged_ext_hamming())
    assert run(["report", str(path)]) == 0
    text = capsys.readouterr().out
    assert "completely regular: False" in text
    assert "violating coset pair" in text


@pytest.fixture
def report_json(tmp_path, monkeypatch, capsys):
    """code (or the text of a .gfc file) -> the stdout of `crlab report
    FILE --json` under the default budgets, or None when they refuse it.
    Each stdout must be json.dumps(doc, sort_keys=True, indent=2) plus a
    line break, byte for byte, where doc is the report_to_dict document
    the command built, and REPORT_SCHEMA must accept it."""
    monkeypatch.delenv(budgets.ENUM_BUDGET_VAR, raising=False)
    monkeypatch.delenv(budgets.SYND_BUDGET_VAR, raising=False)
    built = []
    to_dict = fileio.report_to_dict

    def recorded_to_dict(report):
        built.append(to_dict(report))
        return built[-1]

    monkeypatch.setattr(fileio, "report_to_dict", recorded_to_dict)
    path = tmp_path / "code.gfc"

    def report(code):
        if isinstance(code, str):
            path.write_text(code)
        else:
            fileio.write_gfc(path, code)
        built.clear()
        rc = run(["report", str(path), "--json"])
        out, err = capsys.readouterr()
        if rc == 1:
            assert out == "" and "CRLAB_" in err, err
            return None
        assert rc == 0, err
        (doc,) = built
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        fileio.validate_report_dict(json.loads(out))
        return out

    return report


def test_reports_of_all_family_instances_validate(family_grid, report_json):
    """The schema accepts the report JSON of every grid side the default
    budgets admit: 60 of the 68, every completely regular side among
    them; the same text comes back on a second build."""
    admitted = 0
    for entry in family_grid:
        tw, cr = report_json(entry.tw), report_json(entry.cr)
        assert cr is not None, entry.label
        assert report_to_json(build_code_report(entry.cr)) + "\n" == cr, \
            entry.label
        admitted += 1 + (tw is not None)
    assert (admitted, 2 * len(family_grid)) == (60, 68)


def test_reports_of_construct_sides_validate(report_json):
    """Every completely regular side of the construct workload's families
    reports valid JSON; their two-weight sides are all over the budget."""
    for kind, params in CONSTRUCT_SPEC:
        inst = build_instance(kind, params)
        tw = report_json(inst.two_weight_code)
        cr = report_json(inst.cr_code)
        assert tw is None and cr is not None, (kind, params)


def random_report_code(seed: int, i: int) -> LinearCode:
    """Code i of the report workload's random codes at run seed seed."""
    p, m, n, k = RANDOM_CODE_SHAPES[i]
    return random_multiweight_code(field_create(p, m), n, k,
                                   seed=seed * 100 + i)


def test_reports_of_random_codes_validate(report_json):
    """Both sides of the report workload's random codes at run seeds
    1..5."""
    for seed in range(1, 6):
        for i in range(len(RANDOM_CODE_SHAPES)):
            code = random_report_code(seed, i)
            assert report_json(code) is not None, (seed, i)
            assert report_json(code.dual()) is not None, (seed, i)


# a [5,2]_8 code over the other primitive cubic x^3 + x^2 + 1: its report
# carries the non-canonical modulus warning
NONCANONICAL_GFC = ("field 2 3 poly 1 0 1 1\n"
                    "code 2 5\n"
                    "1 0 1 2 4\n"
                    "0 1 3 5 7\n")

# the .gfc file of each pinned report: a code write_gfc writes, or text
REPORT_PIN_FILES = {
    "ext-hamming m=3 cr": lambda: build_instance(
        "ext-hamming", {"m": 3}).cr_code,
    "bose-bush q=4 tw": lambda: cr4_bose_bush(4).two_weight_code,
    "delsarte q=8 cr": lambda: build_instance("delsarte", {"q": 8}).cr_code,
    "mds-dual q=7 n=7 tw": lambda: build_instance(
        "mds-dual", {"q": 7, "n": 7}).two_weight_code,
    "random seed=1 i=0": lambda: random_report_code(1, 0),
    "random seed=2 i=3 dual": lambda: random_report_code(2, 3).dual(),
    "damaged ext-hamming": lambda: damaged_ext_hamming(),
    "non-canonical modulus": lambda: NONCANONICAL_GFC,
}

# sha256 of the stdout of `report FILE --json` for each pinned file,
# recorded while json.dumps(sort_keys=True, indent=2) still wrote it
REPORT_JSON_DIGESTS = [
    ("ext-hamming m=3 cr",
     "5c098267eea7a639202993cd1399f4bd68bd54b3b36b0ce0d1a3d7c5c8fad50b"),
    ("bose-bush q=4 tw",
     "ac1bb9e311bcd46cd9cd1441e68e511202e93d2c7bf48622fe588cd05e36c908"),
    ("delsarte q=8 cr",
     "8b9ff4f08b4b0a455837fd801e81246488ce0b70b5d09beacd7a89a294dd3ddb"),
    ("mds-dual q=7 n=7 tw",
     "bbbd60c3152abf08e7db52a7124bd2059c8fb10d04c173211b0adb3cbea66442"),
    ("random seed=1 i=0",
     "8ce34da9a5c819ca861b3b0b6102acc468e1b2f470082d6cbe2455bc0095184f"),
    ("random seed=2 i=3 dual",
     "9ca7984e34407b24741d679f59a26979df54a008b95b7a54d77baab21f4053de"),
    ("damaged ext-hamming",
     "101ec5d8664a077dc57a33c3a1f9b64a1f64af3013d5974e2a864e9f31471b4c"),
    ("non-canonical modulus",
     "9fb10d4d70e3cfd44a97ef62fde6126580a5bce867a8663ffc1ccb03772f314e"),
]


@pytest.mark.parametrize("name,digest", REPORT_JSON_DIGESTS)
def test_report_json_pinned(name, digest, report_json):
    out = report_json(REPORT_PIN_FILES[name]())
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_json_warnings_and_violation(report_json):
    """The pinned files cover the optional blocks: warnings and a
    cr_violation witness."""
    doc = json.loads(report_json(NONCANONICAL_GFC))
    assert any("non-canonical modulus" in w for w in doc["warnings"])
    doc = json.loads(report_json(damaged_ext_hamming()))
    assert doc["cr_violation"] is not None and doc["warnings"] == []


def test_report_schema_describes_cr_violation():
    """cr_violation and warnings are required keys; a cr_violation that
    is neither null nor a well-formed witness is rejected."""
    import jsonschema
    doc = json.loads(report_to_json(build_code_report(damaged_ext_hamming())))
    fileio.validate_report_dict(doc)
    witness = doc["cr_violation"]
    assert sorted(witness) == ["counts_a", "counts_b", "level",
                               "syndrome_a", "syndrome_b"]
    for key in ("cr_violation", "warnings"):
        missing = dict(doc)
        del missing[key]
        with pytest.raises(jsonschema.ValidationError, match=key):
            fileio.validate_report_dict(missing)
    bad_witnesses = [
        "none",
        {k: v for k, v in witness.items() if k != "level"},
        dict(witness, syndrome_a="3"),
        dict(witness, counts_b=[1, "2"]),
        dict(witness, counts_a=7),
    ]
    for bad in bad_witnesses:
        with pytest.raises(jsonschema.ValidationError):
            fileio.validate_report_dict(dict(doc, cr_violation=bad))
    fileio.validate_report_dict(dict(doc, cr_violation=None))


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


def test_complement_charges_its_generator_entries(tmp_path, monkeypatch,
                                                  capsys):
    """complement charges the k n_c entries of G_c, n_c = s P - n, before
    it builds them: Bose-Bush 4 ([6,3]_4, P = 21) at s = 2 needs
    3 * 36 = 108 of them, and a budget of 107 refuses it."""
    path = tmp_path / "bb4.gfc"
    fileio.write_gfc(path, cr4_bose_bush(4).two_weight_code)
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, "108")
    assert run(["complement", str(path), "--s", "2"]) == 0
    assert fileio.read_gfc(str(path) + ".comp").code.n == 36
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, "107")
    capsys.readouterr()
    assert run(["complement", str(path), "--s", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: complementary generator entries needs 108 items, over the "
        f"limit 107 (raise {budgets.ENUM_BUDGET_VAR} to allow)\n")


def test_ext_hamming_charges_its_generator_entries(monkeypatch, capsys):
    """ext-hamming charges the (m + 1) 2^m entries of its generator before
    it builds them: 80 at m = 4."""
    argv = ["construct", "--family", "ext-hamming", "--m", "4"]
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, "80")
    assert run(argv) == 0
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, "79")
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(
        "error: CR.1 generator (m = 4) entries needs 80 items, over the "
        "limit 79 ")


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


@pytest.mark.parametrize("q", [10 ** 18 + 3, (10 ** 9 + 7) ** 2])
def test_search_arcs_huge_q_meets_the_desk_bound(q, capsys):
    """A prime or prime square near 10^18 is recognised without trial
    division, so the arc search refuses it by its desk bound at once."""
    with pytest.raises(SystemExit) as exc:
        run(["search", "arcs", "--q", str(q), "--size", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "crlab: error: arc search is desk-bounded to q <= 16"


def _fresh_interpreter(script, argv, cwd, text=True):
    """script run by a new interpreter with argv as sys.argv[1:]."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(crlab.__file__)))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd,
                          env=env, capture_output=True, text=text,
                          timeout=120)


# a code line whose n is past what an array shape holds, over short rows
HUGE_HEADER = ("field 2 1 poly 1 1\ncode 3 1099999999999999999999\n"
               "1 0 1\n1 1 0\n0 1 1\n")


# run argv[1:] as a child and print its exit status, stderr, wall time
# and peak RSS; a new wrapper per command, so that the peak is its own
_PEAK_WRAPPER = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.run(sys.argv[1:], capture_output=True, text=True,
                      timeout=60)
print(json.dumps({
    "status": proc.returncode, "stderr": proc.stderr,
    "seconds": time.perf_counter() - start,
    "peak_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))
"""


@pytest.mark.parametrize("argv, status, message", [
    (["report", "huge.gfc"], 2,
     "huge.gfc:3: expected 1099999999999999999999 entries, got 3"),
    (["dual", "huge.gfc"], 2,
     "huge.gfc:3: expected 1099999999999999999999 entries, got 3"),
    (["complement", "huge.gfc", "--s", "1"], 2,
     "huge.gfc:3: expected 1099999999999999999999 entries, got 3"),
    (["complement", "bb4.gfc", "--s", str(10 ** 20)], 1,
     "complementary generator entries needs 6299999999999999999982 items"),
    (["construct", "--family", "ext-hamming", "--m", "30"], 1,
     "CR.1 generator (m = 30) entries needs 33285996544 items"),
    (["search", "classify", "--q", "2", "--r", "100000000", "--n-max", "3"],
     1, "census incidence table of PG(99999999,2) needs at least "
     "2^199999998 items"),
    (["construct", "--family", "dm-dual", "--q", "2", "--l", "1", "--h",
      "100000000"], 1,
     "CR.2 dual generator for D(2^1,2^100000000) entries needs at least "
     "2^200000001 items"),
    (["dm", "--p", "2", "--l", "1", "--h", "100000000"], 1,
     "difference matrix D(2^1,2^100000000) entries needs 2^200000002 items"),
    (["construct", "--family", "ext-hamming", "--m", "1000000000"], 1,
     "CR.1 generator (m = 1000000000) entries needs at least 2^1000000029 "
     "items"),
], ids=["report-huge-n", "dual-huge-n", "complement-huge-n",
        "complement-huge-s", "ext-hamming-m30", "census-huge-r",
        "dm-dual-huge-h", "dm-huge-h", "ext-hamming-huge-m"])
def test_console_script_refuses_at_once(argv, status, message, tmp_path):
    """Inputs past any feasible size get an error line and their exit
    status from the console script within 10 s, never a traceback, and
    the child peaks below 80 MB.  A count that is a power of a huge
    exponent is refused from the exponent, before any power is formed
    (forming 2^(2 10^8) as a Python int and squaring it took over 60 s,
    or 169 MB).  When the package is not installed, its entry point
    crlab.cli:main runs in a new interpreter instead."""
    (tmp_path / "huge.gfc").write_text(HUGE_HEADER)
    fileio.write_gfc(tmp_path / "bb4.gfc", cr4_bose_bush(4).two_weight_code)
    src = os.path.dirname(os.path.dirname(os.path.abspath(crlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(budgets.ENUM_BUDGET_VAR, None)
    script = shutil.which("crlab")
    command = [script] if script else [
        sys.executable, "-c",
        "import sys; from crlab.cli import main; sys.exit(main())"]
    proc = subprocess.run([sys.executable, "-c", _PEAK_WRAPPER, *command,
                           *argv], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    got = json.loads(proc.stdout)
    assert got["status"] == status, got["stderr"]
    assert got["stderr"].startswith(f"error: {message}"), got["stderr"]
    assert "Traceback" not in got["stderr"]
    assert got["seconds"] < 10
    assert got["peak_mb"] < 80


def _first_in_fresh_process(argv, cwd) -> tuple:
    """(exit code, stdout, stderr) of argv as the first crlab call of a
    new interpreter, as the console script makes it."""
    proc = _fresh_interpreter(
        "import sys; from crlab.cli import main; sys.exit(main())", argv, cwd)
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


def test_report_json_runs_without_jsonschema(tmp_path, capsys):
    """`report --json` neither needs nor imports jsonschema: with the
    module blocked it prints the bytes it prints in this process, and an
    unblocked call leaves it unimported."""
    path = tmp_path / "damaged.gfc"
    fileio.write_gfc(path, damaged_ext_hamming())
    argv = ["report", str(path), "--json"]
    assert run(argv) == 0
    want = capsys.readouterr().out.encode()
    blocked = _fresh_interpreter(
        "import sys; sys.modules['jsonschema'] = None\n"
        "from crlab.cli import main; sys.exit(main())",
        argv, tmp_path, text=False)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == want
    unblocked = _fresh_interpreter(
        "import sys; from crlab.cli import main\n"
        "rc = main(); assert 'jsonschema' not in sys.modules; sys.exit(rc)",
        argv, tmp_path)
    assert unblocked.returncode == 0, unblocked.stderr
