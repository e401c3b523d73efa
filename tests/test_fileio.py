"""The matrix text codec against the per-entry code it replaced: the
``" ".join(map(str, row))`` writers and the ``int()`` row parser are
kept here as oracles, and every file, printed row and parse result or
error must match them exactly.  The JSON writer is checked the same way
against ``json.dumps(sort_keys=True, indent=2)``."""

import collections
import enum
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crlab import cli, diffmat, fileio
from crlab.codes import LinearCode
from crlab.field import field_create
from crlab.matrix import MatGF


def join_rows(rows) -> str:
    """The per-entry writer: one space-joined line per row."""
    return "".join(" ".join(map(str, row.tolist())) + "\n" for row in rows)


def join_write_gfc(path, code, comment=None) -> None:
    """write_gfc as it was before the blocked formatter."""
    f = code.field
    lines = [f"# {ln}" for ln in (comment or "").splitlines()]
    lines.append(f"field {f.p} {f.m} poly " +
                 " ".join(str(c) for c in f.modulus))
    lines.append(f"code {code.k} {code.n}")
    for row in code.G.rows:
        lines.append(" ".join(map(str, row.tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def boundary_matrix(q: int, shape, rng) -> np.ndarray:
    """Random entries in [0, q), half of them on a digit-width boundary
    (0, 9/10, 99/100, ...) below q, shuffled."""
    edges = [0, q - 1] + [v for t in range(1, 8) for v in (10 ** t - 1, 10 ** t)
                          if v < q]
    cells = [rng.choice(edges) if rng.random() < 0.5 else rng.randrange(q)
             for _ in range(shape[0] * shape[1])]
    return np.array(cells, dtype=np.int64).reshape(shape)


@pytest.mark.parametrize("q", [2, 3, 10, 11, 16, 101, 1021 ** 2, 1 << 20])
def test_format_rows_matches_join(q):
    rng = random.Random(q)
    for shape in ((1, 1), (9, 1), (1, 40), (7, 13), (30, 30)):
        a = boundary_matrix(q, shape, rng)
        want = join_rows(a)
        for dtype in (np.int64, np.intp, np.min_scalar_type(q - 1)):
            assert "".join(fileio.format_rows(a.astype(dtype))) == want
    a = np.array([[v for v in (0, 9, 10, 99, 100, 999, 1000, 9999, 10000,
                               99999, 100000, 999999, 1000000) if v < q]])
    assert "".join(fileio.format_rows(a)) == join_rows(a)


def test_format_rows_across_block_boundaries(monkeypatch):
    """Blocks of whole rows, and a row longer than a block, join to the
    same text."""
    rng = random.Random(7)
    a = boundary_matrix(1 << 20, (23, 11), rng)
    want = join_rows(a)
    for cells in (1, 5, 11, 12, 22, 23, 100, 253, 254):
        monkeypatch.setattr(fileio, "_BLOCK_CELLS", cells)
        chunks = list(fileio.format_rows(a))
        assert len(chunks) == -(-23 // max(1, cells // 11))
        assert "".join(chunks) == want
    # one block with a wide entry, the next all single digits
    a = np.array([[1048575, 0], [1, 2], [3, 4]])
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", 2)
    assert "".join(fileio.format_rows(a)) == join_rows(a)


def _code(f, k, n, rng):
    """A [n, k] code over f whose generator holds boundary entries."""
    while True:
        rows = boundary_matrix(f.q, (k, n), rng)
        M = MatGF(f, rows)
        if M.rank == k:
            return LinearCode(f, M)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (11, 1), (2, 4), (101, 1),
                                 (31, 2), (2, 20)])
def test_write_gfc_matches_join_writer(tmp_path, p, m):
    f = field_create(p, m)
    rng = random.Random(p * 100 + m)
    codes = [_code(f, 1, 1, rng), _code(f, 1, 12, rng), _code(f, 5, 9, rng),
             LinearCode(f, MatGF(f, np.zeros((0, 4), dtype=np.intp)))]
    if f.q >= 9:
        codes.append(_code(f, 9, 9, rng))   # n x n, a column per row too
    for code in codes:
        for comment in (None, "line one\nline two"):
            fileio.write_gfc(tmp_path / "new.gfc", code, comment)
            join_write_gfc(tmp_path / "old.gfc", code, comment)
            new = (tmp_path / "new.gfc").read_bytes()
            assert new == (tmp_path / "old.gfc").read_bytes()
        if code.k == 0:   # the header alone: no row line, no blank line
            assert new.endswith(f"code 0 {code.n}\n".encode())


def test_write_gfc_matches_join_writer_across_blocks(tmp_path, monkeypatch):
    f = field_create(2, 4)
    code = _code(f, 6, 10, random.Random(3))
    join_write_gfc(tmp_path / "old.gfc", code)
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", 25)
    fileio.write_gfc(tmp_path / "new.gfc", code)
    assert (tmp_path / "new.gfc").read_bytes() == \
        (tmp_path / "old.gfc").read_bytes()


@pytest.mark.parametrize("p,l,h", [(2, 1, 1), (2, 2, 3), (3, 1, 2), (5, 1, 1),
                                   (7, 2, 1), (11, 1, 1)])
def test_dm_file_and_rows_match_join_writer(tmp_path, capsys, p, l, h):
    """write_dm's file and cmd_dm's printed rows, byte for byte."""
    dm = diffmat.difference_matrix(p, l, h)
    rows = "".join(" ".join(str(int(x)) for x in row) + "\n"
                   for row in dm.entries)
    fileio.write_dm(tmp_path / "d.dm", dm, p, l, h)
    assert (tmp_path / "d.dm").read_text() == f"dm {p} {l} {h}\n" + rows
    assert cli.main(["dm", "--p", str(p), "--l", str(l), "--h", str(h)]) == 0
    head = f"D({dm.q},{dm.mu}): {dm.side}x{dm.side} over GF({dm.q})\n"
    assert capsys.readouterr().out == head + (rows if dm.side <= 32 else "")


# -- parsing ------------------------------------------------------------------

def int_read_gfc(path, monkeypatch):
    """read_gfc with every row converted by the int() loop."""
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "_plain_row", lambda body: False)
        return parse_outcome(path)


def parse_outcome(path):
    """(field, rows, warnings) of a parse, or the text of its error."""
    try:
        parsed = fileio.read_gfc(path)
    except fileio.GfcParseError as exc:
        return str(exc)
    code = parsed.code
    return code.field, code.G.rows.tolist(), parsed.warnings


ROW_BODIES = [
    "1 0 1", "+1 0 1", "007 0 1", "1\t0\t1", "1 \t 0\t\t1", "1_0 0 1",
    "\u0661 0 1", f"{2 ** 70} 0 1", "-0 1 1", "1 0", "1 0 1 1", "1 0 x",
    "1.0 0 1", "0x1 0 1", "1 0 -1", "1\x0b0 1", "1\u00a00 1",
    "0" * 18 + "1 0 1", "0" * 19 + "1 0 1", "9" * 18 + " 0 1",
    "9" * 19 + " 0 1", "1,0,1", "10 0 1", "11 0 1",
]


@pytest.mark.parametrize("body", ROW_BODIES)
def test_parse_matches_int_loop(tmp_path, monkeypatch, body):
    """Every row gives the ParsedCode or the GfcParseError text of the
    int() loop, alone and behind a plain row."""
    for text in (f"field 11 1 poly 9 1\ncode 1 3\n{body}\n",
                 f"field 11 1 poly 9 1\ncode 2 3\n0 1 2\n{body}  # c\n"):
        path = tmp_path / "x.gfc"
        path.write_text(text, encoding="utf-8")
        assert parse_outcome(path) == int_read_gfc(path, monkeypatch), body


# the regular expression the row guard replaced, kept as its oracle
PLAIN_ROW = re.compile(r"[0-9]{1,18}(?:[ \t]+[0-9]{1,18})*")


def test_plain_row_guard():
    """Only ASCII digits, spaces and tabs with at most 18-digit tokens
    reach np.fromstring."""
    plain = ["0", "1 2 3", "1\t2  3", "9" * 18, "0" * 18 + " 5"]
    other = ["+1", "-0", "1_0", "\u0661", "9" * 19, "1\x0b2", "1\u00a02",
             "1,2", "1.0", "1 2 ", " 1"]
    assert all(fileio._plain_row(b) for b in plain)
    assert not any(fileio._plain_row(b) for b in other)


GUARD_ROWS = [
    "", " ", "\t", "0", "00", "1 2 3", "1\t2", "1 \t 2", "1\t\t2",
    "+1 2", "1 -2", "-", "1_000 2", "1__0", "_1",
    "\u0661 2", "1 \u0662", "\uff11", "\u00b2", "1\u00a02", "1\x0b2",
    "1\x0c2", "1\r2", "1\n2", "1\x002", "1\x7f", "\u00e9", "1 x", "1.0",
    "1,2", "0x1", "1e3", "\t1", "1\t", " 1", "1 ",
    "9" * 18, "9" * 19, "1" + "0" * 17, "1" + "0" * 18, "0" * 18,
    "0" * 19, "0" * 18 + "1", "0" * 17 + "1", "0" * 40,
    "1 " + "9" * 18 + " 3", "1 " + "9" * 19 + " 3", "9" * 18 + "\t" + "9" * 18,
    "9" * 18 + "\t" + "9" * 19, "9" * 19 + " 1", "1 " + "9" * 19,
    "007 000 0", "0 0\t0 0",
]


@pytest.mark.parametrize("body", GUARD_ROWS)
def test_plain_row_guard_matches_regex(body):
    """The byte-table guard admits exactly the rows the old regular
    expression admitted: signs, underscores, non-ASCII digits, 18- and
    19-digit tokens, tabs, other whitespace and leading zeros."""
    assert fileio._plain_row(body) == bool(PLAIN_ROW.fullmatch(body))


def test_plain_row_guard_matches_regex_on_random_rows():
    """Seeded random rows, most of them digits, so that runs of 19 and
    more digits occur."""
    rng = random.Random(27)
    alphabet = "0123456789" * 4 + " \t+-_.x\u0661\u00a0\x0b"
    for _ in range(3000):
        body = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 45)))
        assert fileio._plain_row(body) == bool(PLAIN_ROW.fullmatch(body)), \
            repr(body)


def test_parse_round_trip_matches_int_loop(tmp_path, monkeypatch):
    """Written files of wide fields parse to the same code both ways."""
    for p, m in ((2, 20), (31, 2), (3, 2)):
        f = field_create(p, m)
        code = _code(f, 4, 30, random.Random(p + m))
        path = tmp_path / "c.gfc"
        fileio.write_gfc(path, code)
        assert parse_outcome(path) == int_read_gfc(path, monkeypatch)
        assert parse_outcome(path)[1] == code.G.rows.tolist()


@pytest.mark.parametrize("p,m", [(2, 6), (3, 1)])
def test_read_holds_one_copy_of_the_matrix(tmp_path, p, m):
    """The rows fill one array in the field's dtype, one byte an entry
    here, which the generator shares: the read's traced peak stays below
    the text plus two bytes an entry (twice 8 bytes an entry, 4.3 MB,
    when the entries were int64).  The [600,450] generator is
    systematic, so no elimination adds to the peak either."""
    f = field_create(p, m)
    rng = np.random.default_rng(27)
    k, n = 450, 600
    rows = np.concatenate([np.eye(k, dtype=np.intp),
                           rng.integers(0, f.q, size=(k, n - k))], axis=1)
    path = tmp_path / "s.gfc"
    fileio.write_gfc(path, LinearCode.from_rows(f, rows[:, rng.permutation(n)]))
    tracemalloc.start()
    try:
        parsed = fileio.read_gfc(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    G = parsed.code.G
    assert G.rows.dtype == f.dtype and G.rows.itemsize == 1
    assert G.rows.nbytes == k * n * f.dtype.itemsize and G.rank == k
    assert G.rows.base is None and not G.rows.flags.writeable
    bound = path.stat().st_size + 2 * k * n
    assert peak < bound <= 2 * k * n * 8, (peak, bound)


@pytest.mark.parametrize("k,rows", [(1, "1 0 1\n"), (2, "1 0 1\n0 1 1\n"),
                                    (2, "1 x\n0 1 1\n")])
def test_huge_declared_length_is_a_parse_error(tmp_path, k, rows):
    """A code line declaring 10^11 columns over short rows gives the row's
    parse error, as the int() loop does; no array of the declared size
    is allocated first."""
    path = tmp_path / "huge.gfc"
    path.write_text(f"field 2 1 poly 1 1\ncode {k} 100000000000\n{rows}")
    with pytest.raises(fileio.GfcParseError) as exc:
        fileio.read_gfc(path)
    want = ("invalid literal for int() with base 10: 'x'" if "x" in rows
            else "expected 100000000000 entries, got 3")
    assert str(exc.value) == f"{path}:3: {want}"


# -- the JSON writer against json.dumps(sort_keys=True, indent=2) ----------

def stdlib_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


JSON_DOCS = {
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "nested-empty": {"a": {}, "b": [], "c": [[], {}, [[]], {"x": {}}],
                     "d": (), "e": [()]},
    "scalars": [0, -1, 1, True, False, None, "", "s"],
    "top-level-scalars": "x",
    "int-keys": {10: "a", 2: "b", -3: "c", 2 ** 70: "d", 0: "e"},
    "bool-keys": {True: 1, False: 0},
    "none-key": {None: [1]},
    "bool-and-int-keys": {False: "f", 2: "two", -1: "minus one"},
    "non-ascii": ["\u00e9", "\u65e5\u672c", "\U0001f600", "a\"b\\c/d",
                  "\x00\x1f\x7f\x80", "tab\tnl\ncr\r", "\u2028\ufeff"],
    "non-ascii-keys": {"\u00e9": 1, "e": 2, "\n": 3, "\U0001f600": [4]},
    "big-ints": [2 ** 63, 2 ** 63 - 1, -2 ** 63 - 1, 10 ** 40, -(10 ** 40),
                 {"big": 2 ** 64}],
    "tuples": (1, (2, 3), [(4,), ()], {"t": (5, "six", None)}),
    "bools-next-to-ints": [True, 1, False, 0, [True, 2], [0, False],
                           {"a": True, "b": 1, "c": 0, "d": False}],
    "deep": {"a": [{"b": [{"c": [1, [2, [3, []]]]}]}], "z": {"y": {"x": 1}}},
    "subclasses": [Level.HIGH, Name("n"), collections.OrderedDict(b=1, a=2),
                   {Level.LOW: Name("k"), 3: Level.HIGH}],
}


@pytest.mark.parametrize("name", list(JSON_DOCS))
def test_dumps_json_matches_stdlib(name):
    doc = JSON_DOCS[name]
    assert fileio.dumps_json(doc) == stdlib_json(doc)


def _random_doc(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return rng.randrange(-10 ** 6, 10 ** 6) * rng.choice((1, 1, 10 ** 20))
    if kind == 1:
        return rng.choice((True, False, None))
    if kind in (2, 3):
        return "".join(rng.choice("ab\"\\\n\u00e9\u2603") for _ in
                       range(rng.randrange(4)))
    if kind == 4:
        return [rng.randrange(-99, 99) for _ in range(rng.randrange(6))]
    if kind in (5, 6):
        items = [_random_doc(rng, depth - 1) for _ in range(rng.randrange(5))]
        return tuple(items) if kind == 6 else items
    keys = (rng.randrange(-50, 50) if kind == 7
            else "".join(rng.choice("abc\u00e9") for _ in range(3))
            for _ in range(rng.randrange(5)))
    return {k: _random_doc(rng, depth - 1) for k in keys}


def test_dumps_json_matches_stdlib_on_random_documents():
    rng = random.Random(25)
    for _ in range(500):
        doc = _random_doc(rng, 4)
        assert fileio.dumps_json(doc) == stdlib_json(doc), doc


def unlimited_stdlib_json(doc) -> str:
    """stdlib_json with the interpreter's int-to-str digit limit lifted
    for the call alone."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return stdlib_json(doc)
    sys.set_int_max_str_digits(0)
    try:
        return stdlib_json(doc)
    finally:
        sys.set_int_max_str_digits(limit)


def test_dumps_json_writes_ints_past_the_digit_limit():
    """Ints of 16900 digits, as values and as keys, are written as
    json.dumps writes them with the digit limit lifted, and the limit is
    the same afterwards, also when the writer raises."""
    big = 7 ** 20000
    doc = {"big": [big, -big, {"n": big + 1}], "small": 3,
           "keys": {big: "key", -big: [1, big], 0: None}}
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert fileio.dumps_json(doc) == unlimited_stdlib_json(doc)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with pytest.raises(TypeError):
        fileio.dumps_json({"big": big, "float": 0.5})
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if limit is not None:
        with pytest.raises(ValueError, match="4300|limit"):
            str(big)


@pytest.mark.parametrize("doc", [
    1.5, [1, 2.0], {"a": float("nan")}, Fraction(1, 2), [Fraction(3, 1)],
    np.int64(3), {"a": [np.int32(1)]}, np.float64(0.5), np.bool_(True),
    {1: "a", "b": 2}, {None: 1, "a": 2}, {1.5: "x"}, {np.int64(1): "x"},
    {(1, 2): "x"}, {1, 2}, b"bytes", object(),
], ids=["float", "float-in-list", "nan-value", "fraction", "fraction-in-list",
        "numpy-int", "numpy-int-nested", "numpy-float", "numpy-bool",
        "mixed-keys", "none-and-str-keys", "float-key", "numpy-int-key",
        "tuple-key", "set", "bytes", "object"])
def test_dumps_json_refuses_other_types(doc):
    """Floats are refused, as values and as keys, where json.dumps would
    print them; every other refusal is one json.dumps makes too."""
    with pytest.raises(TypeError):
        fileio.dumps_json(doc)
