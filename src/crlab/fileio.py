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

Report JSON is schema-versioned ({"schema": 1}); all numeric values are
exact integers, rationals appear as "num/den" strings.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

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


def write_gfc(path, code: LinearCode, comment: str | None = None) -> None:
    f = code.field
    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"# {ln}")
    lines.append(f"field {f.p} {f.m} poly " +
                 " ".join(str(c) for c in f.modulus))
    lines.append(f"code {code.k} {code.n}")
    for row in code.G.rows:
        lines.append(" ".join(map(str, row.tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class GfcParseError(ValueError):
    pass


def read_gfc(path) -> ParsedCode:
    warnings = []
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except UnicodeDecodeError as exc:
        raise GfcParseError(f"{path}: not a text file ({exc.reason})") from exc
    lines = []
    for idx, ln in enumerate(raw, start=1):
        stripped = ln.split("#", 1)[0].strip()
        if stripped:
            lines.append((idx, stripped))
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
        canonical = field_create(p, m)
        field = (canonical if tuple(coeffs) == canonical.modulus
                 else field_from_modulus(p, m, coeffs))
    except ValueError as exc:
        raise GfcParseError(f"{path}:{lineno}: {exc}") from exc
    if tuple(coeffs) != canonical.modulus:
        warnings.append(
            f"non-canonical modulus {tuple(coeffs)} accepted "
            f"(canonical is {canonical.modulus})")

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
    rows = []
    for lineno, body in lines[2:]:
        try:
            row = [int(x) for x in body.split()]
        except ValueError as exc:
            raise GfcParseError(f"{path}:{lineno}: {exc}") from exc
        if len(row) != n:
            raise GfcParseError(
                f"{path}:{lineno}: expected {n} entries, got {len(row)}")
        rows.append(row)
    # one comparison over the whole matrix (object dtype past int64); an
    # error names the first row with an entry outside [0, q)
    entries = np.array(rows)
    bad = ((entries < 0) | (entries >= field.q)).any(axis=1)
    if bad.any():
        lineno = lines[2 + int(np.argmax(bad))][0]
        raise GfcParseError(
            f"{path}:{lineno}: entry out of range for GF({field.q})")

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
        for row in dm.entries:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def read_dm(path) -> tuple[DifferenceMatrix, tuple[int, int, int]]:
    """Parse a .dm file; ValueError naming the path on malformed input."""
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


# -- report JSON -------------------------------------------------------------

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "n", "k", "q", "d", "e", "weight_distribution",
                 "dual_weights", "rho", "external_distance",
                 "intersection_array", "completely_regular",
                 "antipodal_dual", "uniformly_packed", "oa_strength",
                 "family_matches", "conditions"],
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
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {value!r}")


def report_to_dict(report: CodeReport) -> dict:
    ia = None
    if report.ia is not None:
        ia = {"b": list(report.ia.b), "c": list(report.ia.c),
              "a": list(report.ia.a)}
    cond = None
    if report.conditions is not None:
        c = report.conditions
        cond = {
            "side": c.side,
            "n": c.n, "k": c.k, "N": c.N, "d": c.d,
            "s_multiplicity": c.s_multiplicity,
            "checks": [
                {"name": ch.name, "applicable": ch.applicable,
                 "satisfied": ch.satisfied,
                 "witnesses": _jsonable(ch.witnesses)}
                for ch in c.checks
            ],
            "complement_valuations": None,
            "power_decomp": list(c.power_decomp) if c.power_decomp else None,
            "weight_counts": list(c.weight_counts) if c.weight_counts else None,
        }
        if c.complement_valuations is not None:
            t = c.complement_valuations
            cond["complement_valuations"] = {
                "val_d": t.val_d, "val_delta": t.val_delta,
                "val_dc": t.val_dc, "d_c": t.d_c, "n_c": t.n_c,
                "valuation_equalities": [t.val_eq_d, t.val_eq_c],
                "gcd_equalities": [t.gcd_eq_d, t.gcd_eq_c],
                "checks": [
                    {"name": ch.name, "applicable": ch.applicable,
                     "satisfied": ch.satisfied,
                     "witnesses": _jsonable(ch.witnesses)}
                    for ch in t.checks
                ],
            }
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
        "cr_violation": (None if report.cr_violation is None
                         else {"level": report.cr_violation[0],
                               "syndrome_a": report.cr_violation[1],
                               "counts_a": list(report.cr_violation[2]),
                               "syndrome_b": report.cr_violation[3],
                               "counts_b": list(report.cr_violation[4])}),
        "antipodal_dual": report.antipodal_dual,
        "uniformly_packed": report.uniformly_packed,
        "oa_strength": report.oa_strength,
        "family_matches": [{"family": fam, "params": _jsonable(params)}
                           for fam, params in report.family_matches],
        "conditions": cond,
        "warnings": list(report.warnings),
    }


def report_to_json(report: CodeReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2)


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
