"""Command-line frontend.

``main`` may be called any number of times in one process (a notebook, a
test suite, a benchmark loop): the argparse tree is built on the first
call and reused, since parsing leaves no state on it.  A one-shot shell
``crlab ...`` still builds it once.

Exit codes: 0 on success, 1 when a requested check or verification came
back negative (a violated bound, an UNMATCHED census entry, an invalid
difference matrix, a failed complement), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import budgets, conditions, diffmat, families, fileio, search
from .codes import LinearCode, complementary_code, max_column_multiplicity
from .field import field_create, prime_power
from .regularity import complete_regularity
from .report import build_code_report

# --family -> (builder in crlab.families, required arguments); builders
# are looked up by name at call time, so wrappers installed on the
# families module see the call
_FAMILIES = {
    "ext-hamming": ("cr1_extended_hamming", ("m",)),
    "dm-dual": ("cr2_dm_dual", ("q", "l", "h")),
    "mds-dual": ("cr3_mds_dual", ("q", "n")),
    "bose-bush": ("cr4_bose_bush", ("q",)),
    "delsarte": ("cr5_delsarte", ("q",)),
    "denniston": ("cr6_denniston", ("q", "h")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except budgets.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (fileio.GfcParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crlab",
        description="Construct, verify and classify completely regular "
                    "codes with covering radius 2 and antipodal dual "
                    "two-weight codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family instance")
    c.add_argument("--family", required=True, choices=list(_FAMILIES))
    c.add_argument("--q", type=int, help="field size (prime p for dm-dual)")
    c.add_argument("--m", type=int, help="extension degree (ext-hamming)")
    c.add_argument("--l", type=int, help="group exponent l (dm-dual)")
    c.add_argument("--h", type=int,
                   help="index exponent h (dm-dual) or arc degree (denniston)")
    c.add_argument("--n", type=int, help="length (mds-dual)")
    c.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the instance with predicted and computed "
                        "parameters as JSON")
    c.add_argument("-o", "--output", help="write the two-weight code here "
                                          "and its dual to FILE.dual")
    c.set_defaults(func=cmd_construct)

    r = sub.add_parser("report", help="full diagnostic report of a .gfc code")
    r.add_argument("file")
    r.add_argument("--json", action="store_true", dest="as_json")
    r.set_defaults(func=cmd_report)

    d = sub.add_parser("dm", help="build a difference matrix D(p^l, p^h)")
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--l", type=int, required=True)
    d.add_argument("--h", type=int, required=True)
    d.add_argument("--verify", action="store_true",
                   help="re-run the exhaustive row-pair verification")
    d.add_argument("-o", "--output")
    d.set_defaults(func=cmd_dm)

    b = sub.add_parser("bounds", help="two-weight bound checks for given "
                                      "(q, n, d, N)")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--N", type=int, required=True)
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("search", help="exhaustive desk-scale searches")
    ssub = s.add_subparsers(dest="search_command", required=True)
    sa = ssub.add_parser("arcs", help="arcs in PG(2, q)")
    sa.add_argument("--q", type=int, required=True)
    sa.add_argument("--size", type=int, required=True)
    sa.add_argument("--count", action="store_true",
                    help="count all canonical arcs instead of early exit")
    sa.set_defaults(func=cmd_search_arcs)
    sc = ssub.add_parser("classify",
                         help="census of antipodal two-weight duals")
    sc.add_argument("--q", type=int, required=True)
    sc.add_argument("--r", type=int, required=True)
    sc.add_argument("--n-max", type=int, required=True)
    sc.add_argument("--projective", action="store_true")
    sc.add_argument("--json", action="store_true", dest="as_json")
    sc.add_argument("--dump-dir", help="write UNMATCHED entries here as .gfc")
    sc.set_defaults(func=cmd_search_classify)

    du = sub.add_parser("dual", help="write the dual of a .gfc code")
    du.add_argument("file")
    du.add_argument("-o", "--output")
    du.set_defaults(func=cmd_dual)

    co = sub.add_parser("complement",
                        help="complementary two-weight code of a .gfc code")
    co.add_argument("file")
    co.add_argument("--s", type=int, required=True,
                    help="target column multiplicity per projective point")
    co.add_argument("-o", "--output")
    co.set_defaults(func=cmd_complement)
    return parser


def cmd_construct(args, parser) -> int:
    builder, required = _FAMILIES[args.family]
    _need(parser, args, *required)
    try:
        inst = getattr(families, builder)(
            *(getattr(args, name) for name in required))
    except ValueError as exc:
        parser.error(str(exc))

    tw, cr = inst.two_weight_code, inst.cr_code
    if args.as_json:
        wd = tw.weight_distribution()
        reg = complete_regularity(cr)
        doc = {
            "family": inst.family,
            "params": inst.params,
            "two_weight_code": {"n": tw.n, "k": tw.k, "q": tw.q},
            "cr_code": {"n": cr.n, "k": cr.k, "q": cr.q},
            "predicted": {
                "weights": sorted(inst.predicted_weights),
                "intersection_array": {"b": list(inst.predicted_ia.b),
                                       "c": list(inst.predicted_ia.c)},
            },
            "computed": {
                "weights": list(wd.nonzero_weights),
                "rho": reg.profile.rho,
                "intersection_array": ({"b": list(reg.ia.b),
                                        "c": list(reg.ia.c)}
                                       if reg.ia else None),
            },
            "notes": list(inst.notes),
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"family {inst.family} {inst.params}")
        print(f"two-weight code: [{tw.n},{tw.k}]_{tw.q}, predicted weights "
              f"{sorted(inst.predicted_weights)}")
        print(f"completely regular dual: [{cr.n},{cr.k}]_{cr.q}, predicted "
              f"intersection array {inst.predicted_ia}")
        for note in inst.notes:
            print(f"note: {note}")
    if args.output:
        fileio.write_gfc(args.output, tw,
                         comment=f"{inst.family} {inst.params} two-weight side")
        fileio.write_gfc(args.output + ".dual", cr,
                         comment=f"{inst.family} {inst.params} dual side")
        print(f"wrote {args.output} and {args.output}.dual")
    return 0


def _need(parser, args, *names):
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"--family {args.family} requires --{name}")


def cmd_report(args, parser) -> int:
    parsed = fileio.read_gfc(args.file)
    report = build_code_report(parsed.code, warnings=parsed.warnings)
    if args.as_json:
        doc = fileio.report_to_dict(report)
        fileio.validate_report_dict(doc)
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"[{report.n},{report.k}]_{report.q}  d={report.d}  e={report.e}")
    if len(report.weight_distribution) <= 24:
        print(f"weight distribution: {report.weight_distribution}")
    else:
        weights = sorted(w for w in report.weight_distribution if w)
        print(f"weight distribution: {len(weights)} distinct nonzero "
              f"weights in [{weights[0]}, {weights[-1]}] "
              "(full map in the JSON report)")
    print(f"dual weights: {list(report.dual_weights)}")
    print(f"covering radius rho = {report.rho}, external distance s = "
          f"{report.external_distance}, uniformly packed (rho = s): "
          f"{report.uniformly_packed}")
    ia = str(report.ia) if report.ia else "none (not completely regular)"
    print(f"completely regular: {report.completely_regular}, "
          f"intersection array: {ia}")
    if report.cr_violation is not None:
        lvl, sa, ca, sb, cb = report.cr_violation
        print(f"  first violating coset pair at level {lvl}: syndrome {sa} "
              f"has (down, up) = {ca} but syndrome {sb} has {cb}")
    print(f"antipodal dual: {report.antipodal_dual}")
    print(f"orthogonal array strength: {report.oa_strength}")
    fams = ", ".join(f"{f} {p}" for f, p in report.family_matches) or "none"
    print(f"family matches: {fams}")
    if report.conditions:
        c = report.conditions
        print(f"two-weight conditions on the {c.side} side "
              f"[n={c.n}, k={c.k}, N={c.N}, d={c.d}, s={c.s_multiplicity}]:")
        for ch in c.checks:
            state = ("n/a" if not ch.applicable
                     else "ok" if ch.satisfied else "VIOLATED")
            print(f"  {ch.name}: {state}")
        if c.complement_valuations:
            cv = c.complement_valuations
            print(f"  p-adic valuations of (d, n-d, d_c) = "
                  f"({cv.val_d}, {cv.val_delta}, {cv.val_dc}); "
                  f"some valuation equality holds: "
                  f"{cv.some_valuation_equality}")
        if c.power_decomp:
            print(f"  power decomposition (u, h) = {c.power_decomp}")
        if c.weight_counts:
            print(f"  predicted weight counts (mu1, mu2) = {c.weight_counts}")
    return 0


def cmd_dm(args, parser) -> int:
    try:
        dm = diffmat.difference_matrix(args.p, args.l, args.h)
    except ValueError as exc:
        parser.error(str(exc))
    side = dm.side
    print(f"D({dm.q},{dm.mu}): {side}x{side} over GF({dm.q})")
    if side <= 32:
        for row in dm.entries:
            print(" ".join(str(int(x)) for x in row))
    if args.verify:
        ok = diffmat.is_difference_matrix(dm.entries, dm.group_field)
        print(f"difference matrix: {'OK' if ok else 'FAILED'}")
        if not ok:
            return 1
    if args.output:
        fileio.write_dm(args.output, dm, args.p, args.l, args.h)
        print(f"wrote {args.output}")
    return 0


def cmd_bounds(args, parser) -> int:
    q, n, d, N = args.q, args.n, args.d, args.N
    checks = conditions.bound_checks(n, N, d, q)
    violated = False
    for ch in checks:
        if not ch.applicable:
            state = "not applicable"
        elif ch.satisfied:
            state = "ok"
            if ch.witnesses.get("equality"):
                state = "ok (equality)"
        else:
            state = "VIOLATED"
            violated = True
        print(f"{ch.name}: {state}")
    right_names = {c.name: c for c in checks}
    if right_names["window_upper"].applicable and \
            right_names["window_upper"].witnesses.get("equality"):
        ok_n = right_names["window_upper_equality_n"].satisfied
        ok_d = right_names["window_upper_equality_d"].satisfied
        print(f"cardinality bound met with equality; equality-case formulas "
              f"reproduce n: {ok_n}, d: {ok_d}")
    return 1 if violated else 0


def cmd_search_arcs(args, parser) -> int:
    try:
        res = search.search_arcs(args.q, args.size, count_all=args.count)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"exists: {str(res.exists).lower()}")
    if args.count:
        print(f"canonical arcs of size {args.size}: {res.count}")
    if res.witness:
        print("witness:", " ".join(str(p) for p in res.witness))
    return 0


def cmd_search_classify(args, parser) -> int:
    try:
        table = search.classify_report(args.q, args.r, args.n_max,
                                       projective=args.projective)
    except ValueError as exc:
        parser.error(str(exc))
    if args.as_json:
        doc = {
            "q": table.q, "r": table.r, "n_max": table.n_max,
            "note": table.header_note,
            "entries": [_census_entry_dict(e) for e in table.entries],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(search.render_table(table))
    unmatched = table.unmatched
    if unmatched and args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
        p, m = prime_power(args.q)
        f = field_create(p, m)
        for i, e in enumerate(unmatched):
            code = LinearCode.from_rows(f, np.transpose(e.example_columns))
            path = f"{args.dump_dir}/unmatched_{args.q}_{args.r}_{i}.gfc"
            fileio.write_gfc(path, code, comment=f"UNMATCHED census entry {e}")
            print(f"dumped {path}")
    return 1 if unmatched else 0


def _census_entry_dict(e) -> dict:
    return {
        "n": e.n, "weights": list(e.weights), "dual_k": e.dual_k,
        "rho": e.rho, "completely_regular": e.completely_regular,
        "intersection_array": ({"b": list(e.ia.b), "c": list(e.ia.c)}
                               if e.ia else None),
        "trivial": e.trivial, "trivial_reason": e.trivial_reason,
        "families": [{"family": f, "params": p} for f, p in e.families],
        "repetition_of": ({"s": e.repetition_of[0],
                           "families": [{"family": f, "params": p}
                                        for f, p in e.repetition_of[1]]}
                          if e.repetition_of else None),
        "count": e.count,
        "unmatched": e.unmatched,
    }


def cmd_dual(args, parser) -> int:
    parsed = fileio.read_gfc(args.file)
    for w in parsed.warnings:
        print(f"warning: {w}")
    dual = parsed.code.dual()
    print(f"dual: [{dual.n},{dual.k}]_{dual.q}")
    out = args.output or (args.file + ".dual")
    fileio.write_gfc(out, dual, comment=f"dual of {args.file}")
    print(f"wrote {out}")
    return 0


def cmd_complement(args, parser) -> int:
    parsed = fileio.read_gfc(args.file)
    for w in parsed.warnings:
        print(f"warning: {w}")
    code = parsed.code
    s_min = None  # stays None when no s works (a zero column)
    try:
        s_min = max_column_multiplicity(code)
        comp = complementary_code(code, args.s)
    except ValueError as exc:
        print(f"complement failed: {exc}", file=sys.stderr)
        if s_min is not None:
            print(f"(minimal feasible s is {s_min})", file=sys.stderr)
        return 1
    print(f"complementary code: [{comp.n},{comp.k}]_{comp.q} at s = {args.s}")
    out = args.output or (args.file + ".comp")
    fileio.write_gfc(out, comp, comment=f"complement of {args.file} at s={args.s}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
