"""The benchmark's workloads: crlab CLI op lists and the exact facts each
op's output is checked against.

Every expected answer is restated here from the family formulas, taken
from an independent oracle during set-up, or recorded from the seed
(census tables), so a check never trusts the code path it times.  Checks
read parsed facts, not output bytes, so a later report schema that adds
fields does not break them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

# crlab's default syndrome budget, restated: a grid side whose syndrome
# space is larger is refused by the seed and is not part of `report`
DEFAULT_SYND_BUDGET = 1 << 24


@dataclass
class Op:
    label: str
    argv: list
    # (exit code, stdout) -> None when correct, else what was wrong
    check: Callable[[int, str], str | None]


# -- restated family facts ----------------------------------------------------

def expected_weights(kind: str, p: dict) -> list:
    """Nonzero weights of the family's two-weight code."""
    if kind == "ext-hamming":
        n = 2 ** p["m"]
        return sorted({n // 2, n})
    if kind == "dm-dual":
        q, mu = p["p"] ** p["l"], p["p"] ** p["h"]
        return sorted({mu * (q - 1), q * mu})
    if kind == "mds-dual":
        return sorted({p["n"] - 1, p["n"]})
    if kind == "bose-bush":
        return sorted({p["q"], p["q"] + 2})
    if kind == "delsarte":
        q = p["q"]
        return sorted({q * (q - 2) // 2, q * (q - 1) // 2})
    if kind == "denniston":
        q, h = p["q"], p["h"]
        return sorted({q * (h - 1), 1 + (q + 1) * (h - 1)})
    raise ValueError(kind)


def expected_ia(kind: str, p: dict) -> tuple:
    """(b, c) of the completely regular dual's intersection array."""
    if kind == "ext-hamming":
        n = 2 ** p["m"]
        return [n, n - 1], [1, n]
    if kind == "dm-dual":
        q = p["p"] ** p["l"]
        n = q * p["p"] ** p["h"]
        return [n * (q - 1), n - 1], [1, n * (q - 1)]
    if kind == "mds-dual":
        q, n = p["q"], p["n"]
        return [n * (q - 1), (q - n + 1) * (n - 1)], [1, n * (n - 1)]
    if kind == "bose-bush":
        q = p["q"]
        return [(q + 2) * (q - 1), q * q - 1], [1, q + 2]
    if kind == "delsarte":
        q = p["q"]
        n = q * (q - 1) // 2
        return ([(q - 1) * n, (q - 2) * (q + 1) * (q + 2) // 4],
                [1, q * (q - 1) * (q - 2) // 4])
    if kind == "denniston":
        q, h = p["q"], p["h"]
        n = 1 + (q + 1) * (h - 1)
        return [(q - 1) * n, (q + 1) * (h - 1) * (q - h + 1)], [1, (h - 1) * n]
    raise ValueError(kind)


def _label(kind: str, p: dict) -> str:
    return kind + "(" + ",".join(f"{k}={v}" for k, v in p.items()) + ")"


def _parse_json(out: str):
    """The first JSON document on stdout; trailing lines are ignored."""
    doc, _ = json.JSONDecoder().raw_decode(out.lstrip())
    return doc


def _ia_problem(ia, b, c) -> str | None:
    if ia is None:
        return f"no intersection array, expected b={b} c={c}"
    if list(ia["b"]) != b or list(ia["c"]) != c:
        return f"intersection array b={ia['b']} c={ia['c']} != b={b} c={c}"
    return None


# -- report ---------------------------------------------------------------------

# The 34-instance family grid, restated from tests/conftest.py::GRID_SPEC.
GRID = (
    [("ext-hamming", {"m": m}) for m in (2, 3, 4)]
    + [("dm-dual", {"p": p, "l": l, "h": h})
       for (p, l, h) in ((2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1))]
    + [("mds-dual", {"q": q, "n": n})
       for q in (3, 4, 5, 7, 8) for n in range(3, q + 1)]
    + [("bose-bush", {"q": q}) for q in (4, 8, 16)]
    + [("delsarte", {"q": q}) for q in (8, 16)]
    + [("denniston", {"q": q, "h": h})
       for (q, h) in ((8, 2), (8, 4), (16, 2), (16, 4), (16, 8))]
)

# Grid sides left out of `report` to keep one pass short enough to repeat
# within a run; each reason gives the op's seconds on the seed.  Denniston
# (8, 2) has the same [10,3]_8 / [10,7]_8 parameters and cost shape as
# Bose-Bush q = 8, which stays in through its [10,7]_8 side (8^7-word
# enumeration, ~10 s).  The p = 2 profile shape stays in `construct`.
REPORT_SKIPPED = {
    ("denniston(q=8,h=2)", "cr"): "same shape as bose-bush(q=8) cr (~9 s)",
    ("denniston(q=8,h=2)", "tw"): "same shape as bose-bush(q=8) tw (~12 s)",
    ("bose-bush(q=8)", "tw"): "2^21-syndrome p=2 profile (~11 s)",
    ("mds-dual(q=8,n=7)", "cr"): "brute-force OA strength (~5 s)",
}

# Seeded random multi-weight codes: (p, m, n, k).  Small enough that the
# full-space oracle over q^n vectors stays a fraction of set-up.
RANDOM_CODES = ((3, 1, 10, 5), (2, 2, 8, 4), (5, 1, 7, 3), (7, 1, 6, 3))


def _build_instance(kind: str, p: dict):
    from crlab import families
    if kind == "ext-hamming":
        return families.cr1_extended_hamming(p["m"])
    if kind == "dm-dual":
        return families.cr2_dm_dual(p["p"], p["l"], p["h"])
    if kind == "mds-dual":
        return families.cr3_mds_dual(p["q"], p["n"])
    if kind == "bose-bush":
        return families.cr4_bose_bush(p["q"])
    if kind == "delsarte":
        return families.cr5_delsarte(p["q"])
    if kind == "denniston":
        return families.cr6_denniston(p["q"], p["h"])
    raise ValueError(kind)


def _check_grid_side(kind, params, side, n, k, q):
    weights = expected_weights(kind, params)
    b, c = expected_ia(kind, params)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        doc = _parse_json(out)
        if (doc["n"], doc["k"], doc["q"]) != (n, k, q):
            return f"[{doc['n']},{doc['k']}]_{doc['q']} != [{n},{k}]_{q}"
        if side == "tw":
            got = sorted(int(w) for w, cnt in doc["weight_distribution"]
                         .items() if int(w) and cnt)
            return None if got == weights else f"weights {got} != {weights}"
        if sorted(doc["dual_weights"]) != weights:
            return f"dual weights {doc['dual_weights']} != {weights}"
        if doc["rho"] != 2:
            return f"rho {doc['rho']} != 2"
        if doc["completely_regular"] is not True:
            return "not completely regular"
        return _ia_problem(doc["intersection_array"], b, c)
    return check


def _check_random(n, k, q, rho, cr, ia):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        doc = _parse_json(out)
        if (doc["n"], doc["k"], doc["q"]) != (n, k, q):
            return f"[{doc['n']},{doc['k']}]_{doc['q']} != [{n},{k}]_{q}"
        if doc["rho"] != rho:
            return f"rho {doc['rho']} != oracle {rho}"
        if doc["completely_regular"] is not cr:
            return f"completely regular {doc['completely_regular']} != {cr}"
        if cr:
            return _ia_problem(doc["intersection_array"], *ia)
        return None
    return check


def report_ops(seed: int) -> list:
    """`crlab report --json` on both sides of the grid codes and of the
    seeded random codes; writes the .gfc inputs into the current
    directory and runs the full-space oracle on the random codes."""
    from crlab import families, fileio
    from crlab.field import field_create
    from crlab.regularity import brute_subconstituents

    ops = []
    for kind, params in GRID:
        label = _label(kind, params)
        inst = _build_instance(kind, params)
        for side, code in (("tw", inst.two_weight_code),
                           ("cr", inst.cr_code)):
            if code.q ** (code.n - code.k) > DEFAULT_SYND_BUDGET:
                continue
            if (label, side) in REPORT_SKIPPED:
                continue
            path = f"{label}.{side}.gfc"
            fileio.write_gfc(path, code)
            ops.append(Op(f"report {label} {side}", ["report", path, "--json"],
                          _check_grid_side(kind, params, side,
                                           code.n, code.k, code.q)))
    for i, (p, m, n, k) in enumerate(RANDOM_CODES):
        code = families.random_multiweight_code(field_create(p, m), n, k,
                                                seed=seed * 100 + i)
        for side, c in (("code", code), ("dual", code.dual())):
            oracle = brute_subconstituents(c)
            ia = (list(oracle.ia.b), list(oracle.ia.c)) if oracle.ia else None
            path = f"random{i}.{side}.gfc"
            fileio.write_gfc(path, c)
            ops.append(Op(f"report random GF({p ** m}) [{n},{k}] {side}",
                          ["report", path, "--json"],
                          _check_random(c.n, c.k, c.q, oracle.rho,
                                        oracle.is_completely_regular, ia)))
    return ops


# -- construct ------------------------------------------------------------------

CONSTRUCT = (
    [("bose-bush", {"q": 32})]
    + [("denniston", {"q": 32, "h": h}) for h in (2, 4, 8)]
    + [("delsarte", {"q": 16}),
       ("ext-hamming", {"m": 8}),
       ("mds-dual", {"q": 25, "n": 25}),
       ("mds-dual", {"q": 27, "n": 27})]
    + [("dm-dual", {"p": p, "l": l, "h": h})
       for (p, l, h) in ((2, 2, 4), (2, 3, 3), (3, 1, 2), (5, 1, 1))]
)


def _construct_argv(kind: str, p: dict) -> list:
    if kind == "dm-dual":
        args = {"q": p["p"], "l": p["l"], "h": p["h"]}
    else:
        args = p
    argv = ["construct", "--family", kind]
    for key, value in args.items():
        argv += [f"--{key}", str(value)]
    return argv


def _check_construct(kind, params):
    weights = expected_weights(kind, params)
    b, c = expected_ia(kind, params)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        computed = _parse_json(out)["computed"]
        if sorted(computed["weights"]) != weights:
            return f"weights {computed['weights']} != {weights}"
        if computed["rho"] != 2:
            return f"rho {computed['rho']} != 2"
        return _ia_problem(computed["intersection_array"], b, c)
    return check


def dm_cases() -> list:
    """Every D(p^l, p^h) with p^(l+h) <= 256, as in acceptance criterion 4."""
    cases = []
    for p in (2, 3, 5, 7, 11, 13):
        u = 2
        while p ** u <= 256:
            cases.extend((p, l, u - l) for l in range(1, u))
            u += 1
    return cases


def _check_dm(p, l, h):
    q, mu = p ** l, p ** h
    head = f"D({q},{mu}): {q * mu}x{q * mu} over GF({q})"

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        if not lines or lines[0] != head:
            return f"header {lines[:1]} != {head!r}"
        if "difference matrix: OK" not in lines:
            return "no 'difference matrix: OK' line"
        return None
    return check


def construct_ops(seed: int) -> list:
    ops = []
    for i, (kind, params) in enumerate(CONSTRUCT):
        argv = _construct_argv(kind, params) + ["--json"]
        if i % 2 == 0:  # half of them also write both sides as .gfc
            argv += ["-o", f"construct{i}.gfc"]
        ops.append(Op(f"construct {_label(kind, params)}", argv,
                      _check_construct(kind, params)))
    for p, l, h in dm_cases():
        ops.append(Op(f"dm {p} {l} {h}",
                      ["dm", "--p", str(p), "--l", str(l), "--h", str(h),
                       "--verify"], _check_dm(p, l, h)))
    return ops


# -- census -----------------------------------------------------------------------

CLASSIFY = ((2, 3, 8, False), (2, 4, 10, False), (3, 3, 9, False),
            (4, 3, 7, False), (4, 3, 6, True), (5, 3, 6, True))
ARCS = ((5, 7, False), (7, 9, False), (16, 18, False), (5, 6, True))
ARC_COUNT_5_6 = 3100

# the facts of a census entry that are compared with the recorded table
CENSUS_KEYS = ("n", "weights", "dual_k", "rho", "completely_regular",
               "intersection_array", "trivial", "trivial_reason",
               "families", "repetition_of", "count", "unmatched")
CENSUS_EXPECTED = os.path.join(HERE, "census_expected.json")


def census_key(q, r, n_max, projective) -> str:
    return f"q={q} r={r} n_max={n_max}" + (" projective" if projective else "")


def census_facts(doc: dict) -> list:
    return [{k: e[k] for k in CENSUS_KEYS} for e in doc["entries"]]


def _check_classify(expected):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        facts = census_facts(_parse_json(out))
        if any(e["unmatched"] for e in facts):
            return "UNMATCHED entries"
        if facts != expected:
            return "entry table differs from the recorded seed table"
        return None
    return check


# GF(16) on crlab's canonical modulus x^4 + x + 1, restated
def _gf16_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0x10:
            a ^= 0x13
    return out


def _det3_gf16(u, v, w) -> int:
    m = _gf16_mul
    return (m(u[0], m(v[1], w[2]) ^ m(v[2], w[1]))
            ^ m(u[1], m(v[0], w[2]) ^ m(v[2], w[0]))
            ^ m(u[2], m(v[0], w[1]) ^ m(v[1], w[0])))


def _parse_witness(out: str) -> list:
    for line in out.splitlines():
        if line.startswith("witness:"):
            body = line[len("witness:"):].replace("(", " ").replace(")", " ")
            nums = [int(x) for x in body.replace(",", " ").split()]
            return [tuple(nums[i:i + 3]) for i in range(0, len(nums), 3)]
    return []


def _check_arcs(q, size, count):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        if count:
            want = f"canonical arcs of size {size}: {ARC_COUNT_5_6}"
            return None if want in lines else f"no line {want!r}"
        if q % 2:
            return None if lines[:1] == ["exists: false"] else \
                f"{lines[:1]} at odd q = {q}"
        if lines[:1] != ["exists: true"]:
            return f"{lines[:1]}, expected a hyperoval at q = {q}"
        pts = _parse_witness(out)
        if len(set(pts)) != size:
            return f"witness has {len(set(pts))} distinct points, not {size}"
        for i in range(size):
            for j in range(i + 1, size):
                for k in range(j + 1, size):
                    if _det3_gf16(pts[i], pts[j], pts[k]) == 0:
                        return f"witness points {i}, {j}, {k} are collinear"
        return None
    return check


def census_ops(seed: int) -> list:
    with open(CENSUS_EXPECTED) as fh:
        expected = json.load(fh)
    ops = []
    for q, r, n_max, projective in CLASSIFY:
        argv = ["search", "classify", "--q", str(q), "--r", str(r),
                "--n-max", str(n_max), "--json"]
        if projective:
            argv.append("--projective")
        key = census_key(q, r, n_max, projective)
        ops.append(Op(f"classify {key}", argv,
                      _check_classify(expected[key])))
    for q, size, count in ARCS:
        argv = ["search", "arcs", "--q", str(q), "--size", str(size)]
        if count:
            argv.append("--count")
        ops.append(Op(f"arcs q={q} size={size}" + (" count" if count else ""),
                      argv, _check_arcs(q, size, count)))
    return ops


BUILDERS = {"report": report_ops, "construct": construct_ops,
            "census": census_ops}
