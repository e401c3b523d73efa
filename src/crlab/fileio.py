"""File formats and JSON serialization.

.gfc code files::

    # optional comments
    field <p> <m> poly <c_0 c_1 ... c_m>
    code <k> <n>
    <k rows of n integers in [0, q)>

The modulus coefficients are little-endian.  A modulus different from the
canonical one for (p, m) is accepted as-is with a warning; a rank-deficient
matrix parses with a warning and reports run on its row-space basis.

.dm difference-matrix files::

    dm <p> <l> <h>
    <q*mu rows of q*mu integers in [0, p^l)>

Matrix rows are written by :func:`format_rows`, byte for byte what
``" ".join(map(str, row))`` gives, one ``\n``-terminated line per row.
It does the decimal digit arithmetic in numpy on blocks of at most
_BLOCK_CELLS entries, so no temporary of a byte per cell spans the whole
matrix, and it builds no table sized by q.  A parsed row made only of
ASCII digits, spaces and tabs, with no token longer than 18 digits, is
converted in C by ``np.fromstring``; any other row goes through ``int()``
token by token, so signs, underscores, non-ASCII digits, integers past
int64 and malformed tokens give what ``int()`` gives, or its error.
The rows fill one array in the field's dtype, the matrix's only copy.

Every ``--json`` document is written by :func:`dumps_json`, byte for
byte what ``json.dumps(doc, sort_keys=True, indent=2)`` gives, without
the pure-Python encoder that ``indent`` forces on the stdlib.  It writes
str, int, bool and None, lists, tuples and dicts, and refuses anything
else with ``TypeError``: floats included, since crlab's numbers are exact.
An int of any length is written in full: Python's limit on the digits
of an int converted to str (4300 by default) is lifted while the
document is written and restored afterwards, also on error.

Report JSON is schema-versioned ({"schema": 1}); all numeric values are
exact integers, rationals appear as "num/den" strings.  REPORT_SCHEMA
describes every key report_to_dict writes.  ``crlab report --json`` does
not validate its own output: the schema is a contract checked by the
tests (every report the family grid admits) and by CI on the installed
console script, so jsonschema is a test dependency and is imported only
by validate_report_dict.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .codes import LinearCode
from .diffmat import DifferenceMatrix
from .field import field_create, field_from_modulus
from .matrix import MatGF
from .report import CodeReport


@dataclass
class ParsedCode:
    code: LinearCode
    warnings: tuple


# entries per formatting block: each holds a few bytes per entry
_BLOCK_CELLS = 1 << 16
# int64 entries per block of parsed rows, whose maxima (plain rows hold no
# sign) are checked before a store in the field's dtype can wrap them
_STAGE_CELLS = 1 << 12


def format_rows(rows):
    """Yield the rows of a 2-d array of nonnegative integers as text,
    one ``" ".join(map(str, row)) + "\n"`` line per row, in blocks of
    whole rows and at most _BLOCK_CELLS entries (one row if it is longer)."""
    rows = np.asarray(rows)
    per_block = max(1, _BLOCK_CELLS // max(1, rows.shape[1]))
    for start in range(0, len(rows), per_block):
        yield _format_block(rows[start:start + per_block])


def _format_block(block) -> str:
    """The text of a block of rows: each entry's decimal digits, right
    aligned in a field as wide as the block's largest entry and followed
    by its separator, with the leading zeros masked out."""
    top = int(block.max())
    width = len(str(top))
    value = block.astype(np.min_scalar_type(top))
    text = np.empty(block.shape + (width + 1,), dtype=np.uint8)
    text[..., width] = ord(" ")
    text[:, -1, width] = ord("\n")
    keep = np.ones(text.shape, dtype=bool)
    for j in range(width - 1, -1, -1):
        text[..., j] = value % 10 + ord("0")
        value //= 10
        if j:  # the digit before position j is kept iff one is left
            keep[..., j - 1] = value > 0
    return text[keep].tobytes().decode("ascii")


def write_gfc(path, code: LinearCode, comment: str | None = None) -> None:
    f = code.field
    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"# {ln}")
    lines.append(f"field {f.p} {f.m} poly " +
                 " ".join(str(c) for c in f.modulus))
    lines.append(f"code {code.k} {code.n}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(format_rows(code.G.rows))


class GfcParseError(ValueError):
    pass


# a row np.fromstring converts exactly: ASCII digits, spaces and tabs, a
# digit at each end, no token past 18 digits (below 2^63); older numpy
# stops silently at text it cannot match, so nothing else may reach it.
# The table maps a digit to "0", a space or tab to " " and any other
# byte to "x", so a token past 18 digits reads as 19 "0"s in a row.
_PLAIN_BYTES = bytes(ord("0") if chr(b) in "0123456789" else ord(" ")
                     if chr(b) in " \t" else ord("x") for b in range(256))
_LONG_TOKEN = b"0" * 19


def _plain_row(body: str) -> bool:
    if not body.isascii():
        return False
    kinds = body.encode("ascii").translate(_PLAIN_BYTES)
    return (kinds[:1] == kinds[-1:] == b"0" and b"x" not in kinds
            and _LONG_TOKEN not in kinds)


def read_gfc(path) -> ParsedCode:
    warnings = []
    lines = []  # (line number, text without comment), for non-empty text
    try:
        with open(path) as fh:
            for idx, ln in enumerate(fh, start=1):
                stripped = ln.split("#", 1)[0].strip()
                if stripped:
                    lines.append((idx, stripped))
    except UnicodeDecodeError as exc:
        raise GfcParseError(f"{path}: not a text file ({exc.reason})") from exc
    if len(lines) < 2:
        raise GfcParseError(f"{path}: needs a field line and a code line")

    lineno, head = lines[0]
    parts = head.split()
    if len(parts) < 5 or parts[0] != "field" or parts[3] != "poly":
        raise GfcParseError(f"{path}:{lineno}: malformed field line")
    try:
        p, m = int(parts[1]), int(parts[2])
        coeffs = [int(x) for x in parts[4:]]
    except ValueError as exc:
        raise GfcParseError(f"{path}:{lineno}: {exc}") from exc
    if len(coeffs) != m + 1:
        raise GfcParseError(
            f"{path}:{lineno}: expected {m + 1} modulus coefficients, "
            f"got {len(coeffs)}")
    try:
        field = field_from_modulus(p, m, coeffs)
    except ValueError as exc:
        raise GfcParseError(f"{path}:{lineno}: {exc}") from exc
    canonical = field_create(p, m).modulus
    if tuple(coeffs) != canonical:
        warnings.append(f"non-canonical modulus {tuple(coeffs)} accepted "
                        f"(canonical is {canonical})")

    lineno, head = lines[1]
    parts = head.split()
    if len(parts) != 3 or parts[0] != "code":
        raise GfcParseError(f"{path}:{lineno}: malformed code line")
    try:
        k, n = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise GfcParseError(f"{path}:{lineno}: {exc}") from exc
    if k < 1 or n < 1:
        raise GfcParseError(f"{path}:{lineno}: need k >= 1 and n >= 1")
    if len(lines) != 2 + k:
        raise GfcParseError(
            f"{path}: expected {k} matrix rows, found {len(lines) - 2}")
    # the rows fill one array, which MatGF shares once it is read-only.  A
    # row of n entries has at least 2n - 1 characters: with less text than
    # k such rows, some row is short and the loop raises at it, so nothing
    # is stored and no array sized by k or n is allocated
    fits = sum(len(body) for _, body in lines[2:]) >= k * (2 * n - 1)
    step = max(1, _STAGE_CELLS // n)
    entries = np.zeros((k, n) if fits else (0, 1), dtype=field.dtype)
    stage = np.empty((step, n) if fits else (0, 1), dtype=np.int64)
    bad = np.zeros(k, dtype=bool)
    for lo in range(0, k, step):
        block = stage[:k - lo]
        for j, (lineno, body) in enumerate(lines[2 + lo:2 + lo + step]):
            if _plain_row(body):
                row = np.fromstring(body, dtype=np.int64, sep=" ")
            else:
                try:
                    row = [int(x) for x in body.split()]
                except ValueError as exc:
                    raise GfcParseError(f"{path}:{lineno}: {exc}") from exc
            if len(row) != n:
                raise GfcParseError(
                    f"{path}:{lineno}: expected {n} entries, got {len(row)}")
            if isinstance(row, list) and not all(0 <= x < field.q
                                                 for x in row):
                row = field.q  # int64 may not hold it; q is refused too
            if fits:
                block[j] = row
        bad[lo:lo + len(block)] = block.max(axis=1) >= field.q
        entries[lo:lo + len(block)] = block
    # once every row has parsed, name the first with an entry past [0, q)
    if bad.any():
        lineno = lines[2 + int(np.argmax(bad))][0]
        raise GfcParseError(
            f"{path}:{lineno}: entry out of range for GF({field.q})")
    entries.flags.writeable = False

    M = MatGF(field, entries)
    if M.rank < k:
        warnings.append(
            f"matrix rank {M.rank} < declared k = {k}; "
            "using the row-space basis")
        M = M.row_basis()
    return ParsedCode(code=LinearCode(field, M), warnings=tuple(warnings))


def write_dm(path, dm: DifferenceMatrix, p: int, l: int, h: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"dm {p} {l} {h}\n")
        fh.writelines(format_rows(dm.entries))


# -- JSON --------------------------------------------------------------------

_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
# how each scalar type is written, looked up by exact type
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
                 bool: _JSON_CONSTANTS.__getitem__,
                 type(None): _JSON_CONSTANTS.__getitem__}


def dumps_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, for a
    document of str, int, bool, None, lists, tuples and dicts; TypeError
    for any other value, a float included, or a key of another type.
    Ints of any length are written exactly: the interpreter's limit on
    the digits of an int converted to str is lifted for the call and
    restored, also on error."""
    pieces = []
    limit = _int_max_str_digits()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _write_json(doc, pieces, "\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return "".join(pieces)


# the digit limit (0 for none) of CPython 3.10.7 and later; older
# interpreters have none
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _write_json(value, out: list, newline: str) -> None:
    """Append the pieces of value, whose lines open with newline (a line
    break and the indent of value's own nesting level)."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        # sorted on the keys as given, as sort_keys does, then stringified
        for key, v in sorted(value.items()):
            head += encode_basestring_ascii(
                key if type(key) is str else _json_key(key)) + ": "
            out.append(head)
            _write_json(v, out, inner)
            head = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if all(type(v) is int for v in value):
            out.append("[" + inner + sep.join(map(int.__repr__, value))
                       + newline + "]")
            return
        head = "[" + inner
        for v in value:
            out.append(head)
            _write_json(v, out, inner)
            head = sep
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A non-str dict key as the stdlib encoder stringifies it."""
    if isinstance(key, str):
        return key
    if key is None or key is True or key is False:
        return _JSON_CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, bool or None, "
                    f"not {type(key).__name__}")


# -- report JSON -------------------------------------------------------------

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "n", "k", "q", "d", "e", "weight_distribution",
                 "dual_weights", "rho", "external_distance",
                 "intersection_array", "completely_regular",
                 "cr_violation", "antipodal_dual", "uniformly_packed",
                 "oa_strength", "family_matches", "conditions", "warnings"],
    "properties": {
        "schema": {"const": 1},
        "n": {"type": "integer"},
        "k": {"type": "integer"},
        "q": {"type": "integer"},
        "d": {"type": "integer"},
        "e": {"type": "integer"},
        "weight_distribution": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "dual_weights": {"type": "array", "items": {"type": "integer"}},
        "rho": {"type": "integer"},
        "external_distance": {"type": "integer"},
        "intersection_array": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["b", "c", "a"],
                    "properties": {
                        "b": {"type": "array", "items": {"type": "integer"}},
                        "c": {"type": "array", "items": {"type": "integer"}},
                        "a": {"type": "array", "items": {"type": "integer"}},
                    },
                },
            ]
        },
        "completely_regular": {"type": "boolean"},
        "cr_violation": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["level", "syndrome_a", "counts_a",
                                 "syndrome_b", "counts_b"],
                    "properties": {
                        "level": {"type": "integer"},
                        "syndrome_a": {"type": "integer"},
                        "counts_a": {"type": "array",
                                     "items": {"type": "integer"}},
                        "syndrome_b": {"type": "integer"},
                        "counts_b": {"type": "array",
                                     "items": {"type": "integer"}},
                    },
                },
            ]
        },
        "antipodal_dual": {"type": "boolean"},
        "uniformly_packed": {"type": "boolean"},
        "oa_strength": {"type": ["integer", "null"]},
        "family_matches": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["family", "params"],
                "properties": {
                    "family": {"type": "string"},
                    "params": {"type": "object"},
                },
            },
        },
        "conditions": {"type": ["object", "null"]},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}


def _jsonable(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {value!r}")


def ia_dict(ia) -> dict | None:
    """An intersection array as its {"b", "c"} object; None for none."""
    return None if ia is None else {"b": list(ia.b), "c": list(ia.c)}


def matches_list(matches) -> list:
    """(family, params) pairs as {"family", "params"} objects."""
    return [{"family": f, "params": p} for f, p in matches]


def checks_list(checks) -> list:
    """ConditionCheck items as {"name", "applicable", ...} objects."""
    return [{"name": ch.name, "applicable": ch.applicable,
             "satisfied": ch.satisfied, "witnesses": _jsonable(ch.witnesses)}
            for ch in checks]


def report_to_dict(report: CodeReport) -> dict:
    ia = ia_dict(report.ia)
    if ia is not None:
        ia["a"] = list(report.ia.a)
    cond = None
    if report.conditions is not None:
        c, t = report.conditions, report.conditions.complement_valuations
        cond = {
            "side": c.side,
            "n": c.n, "k": c.k, "N": c.N, "d": c.d,
            "s_multiplicity": c.s_multiplicity,
            "checks": checks_list(c.checks),
            "complement_valuations": None if t is None else {
                "val_d": t.val_d, "val_delta": t.val_delta,
                "val_dc": t.val_dc, "d_c": t.d_c, "n_c": t.n_c,
                "valuation_equalities": [t.val_eq_d, t.val_eq_c],
                "gcd_equalities": [t.gcd_eq_d, t.gcd_eq_c],
                "checks": checks_list(t.checks),
            },
            "power_decomp": list(c.power_decomp) if c.power_decomp else None,
            "weight_counts": list(c.weight_counts) if c.weight_counts else None,
        }
    v = report.cr_violation
    return {
        "schema": 1,
        "n": report.n, "k": report.k, "q": report.q,
        "d": report.d, "e": report.e,
        "weight_distribution": {str(w): c for w, c
                                in sorted(report.weight_distribution.items())},
        "dual_weights": list(report.dual_weights),
        "rho": report.rho,
        "external_distance": report.external_distance,
        "intersection_array": ia,
        "completely_regular": report.completely_regular,
        "cr_violation": None if v is None else dict(
            asdict(v), counts_a=list(v.counts_a), counts_b=list(v.counts_b)),
        "antipodal_dual": report.antipodal_dual,
        "uniformly_packed": report.uniformly_packed,
        "oa_strength": report.oa_strength,
        "family_matches": matches_list(report.family_matches),
        "conditions": cond,
        "warnings": list(report.warnings),
    }


@functools.cache
def _report_validator():
    """REPORT_SCHEMA, checked and compiled once per process."""
    from jsonschema import Draft202012Validator
    Draft202012Validator.check_schema(REPORT_SCHEMA)
    return Draft202012Validator(REPORT_SCHEMA)


def validate_report_dict(doc: dict) -> None:
    """Raise the best-matching jsonschema.ValidationError, as
    jsonschema.validate does, unless doc is a valid report."""
    from jsonschema.exceptions import best_match
    error = best_match(_report_validator().iter_errors(doc))
    if error is not None:
        raise error
