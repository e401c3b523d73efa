"""Command-line frontend.

``main`` may be called any number of times in one process (a notebook, a
test suite, a benchmark loop): the argparse tree is built on the first
call and reused, since parsing leaves no state on it.  A one-shot shell
``crlab ...`` still builds it once.

Exit codes: 0 on success, 1 when a requested check or verification came
back negative (a violated bound, an UNMATCHED census entry, an invalid
difference matrix, a failed complement), 2 on usage or parse errors (a
ValueError that reaches ``main`` is a usage error).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import budgets, conditions, diffmat, families, fileio, search
from .codes import (LinearCode, complementary_code, is_projective,
                    max_column_multiplicity)
from .field import field_create, prime_power
from .regularity import dual_regularity
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
    except ValueError as exc:
        parser.error(str(exc))


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
                   help="verify by group certificate, else every row pair")
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
    inst = getattr(families, builder)(
        *(getattr(args, name) for name in required))
    tw = inst.two_weight_code
    dual_k = tw.n - tw.k
    if args.as_json:
        wd = tw.weight_distribution()
        # distinct nonzero columns give the dual d >= 3, so e >= 1
        reg = dual_regularity(tw.n, tw.q, tw.k, int(is_projective(tw)),
                              wd.nonzero_weights, lambda: tw)
        doc = {
            "family": inst.family,
            "params": inst.params,
            "two_weight_code": {"n": tw.n, "k": tw.k, "q": tw.q},
            "cr_code": {"n": tw.n, "k": dual_k, "q": tw.q},
            "predicted": {
                "weights": sorted(inst.predicted_weights),
                "intersection_array": fileio.ia_dict(inst.predicted_ia),
            },
            "computed": {
                "weights": list(wd.nonzero_weights),
                "rho": reg.rho,
                "intersection_array": fileio.ia_dict(reg.ia),
            },
            "notes": list(inst.notes),
        }
        print(fileio.dumps_json(doc))
    else:
        print(f"family {inst.family} {inst.params}")
        print(f"two-weight code: [{tw.n},{tw.k}]_{tw.q}, predicted weights "
              f"{sorted(inst.predicted_weights)}")
        print(f"completely regular dual: [{tw.n},{dual_k}]_{tw.q}, predicted "
              f"intersection array {inst.predicted_ia}")
        for note in inst.notes:
            print(f"note: {note}")
    if args.output:
        fileio.write_gfc(args.output, tw,
                         comment=f"{inst.family} {inst.params} two-weight side")
        fileio.write_gfc(args.output + ".dual", inst.cr_code,
                         comment=f"{inst.family} {inst.params} dual side")
        print(f"wrote {args.output} and {args.output}.dual")
    return 0


def _need(parser, args, *names):
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"--family {args.family} requires --{name}")


def cmd_report(args, parser) -> int:
    parsed = fileio.read_gfc(args.file)
    if not parsed.code.k:
        print(f"error: {args.file}: cannot report on the zero code "
              f"(every generator row is zero)", file=sys.stderr)
        return 2
    report = build_code_report(parsed.code, warnings=parsed.warnings)
    if args.as_json:
        print(fileio.dumps_json(fileio.report_to_dict(report)))
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
        v = report.cr_violation
        print(f"  first violating coset pair at level {v.level}: syndrome "
              f"{v.syndrome_a} has (down, up) = {v.counts_a} but syndrome "
              f"{v.syndrome_b} has {v.counts_b}")
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
    dm = diffmat.difference_matrix(args.p, args.l, args.h)
    side = dm.side
    print(f"D({dm.q},{dm.mu}): {side}x{side} over GF({dm.q})")
    if side <= 32:
        sys.stdout.writelines(fileio.format_rows(dm.entries))
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
    try:
        prime_power(q)
    except ValueError as exc:
        parser.error(f"--q: {exc}")
    if n < 1:
        parser.error(f"--n must be >= 1, got {n}")
    if not 1 <= d <= n:
        parser.error(f"--d must lie in [1, n] = [1, {n}], got {d}")
    if N < 1:
        parser.error(f"--N must be >= 1, got {N}")
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
        ok_d = right_names["window_upper_equality_d"]
        ok_d = ok_d.satisfied if ok_d.applicable else "n/a"
        print(f"cardinality bound met with equality; equality-case formulas "
              f"reproduce n: {ok_n}, d: {ok_d}")
    return 1 if violated else 0


def cmd_search_arcs(args, parser) -> int:
    res = search.search_arcs(args.q, args.size, count_all=args.count)
    print(f"exists: {str(res.exists).lower()}")
    if args.count:
        print(f"canonical arcs of size {args.size}: {res.count}")
    if res.witness:
        print("witness:", " ".join(str(p) for p in res.witness))
    return 0


def cmd_search_classify(args, parser) -> int:
    entries = search.search_antipodal_duals(args.q, args.r, args.n_max,
                                            projective=args.projective)
    if args.as_json:
        doc = {
            "q": args.q, "r": args.r, "n_max": args.n_max,
            "note": search.CENSUS_NOTE,
            "entries": [_census_entry_dict(e) for e in entries],
        }
        print(fileio.dumps_json(doc))
    else:
        print(search.render_table(entries))
    unmatched = [e for e in entries if e.unmatched]
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
        "intersection_array": fileio.ia_dict(e.ia),
        "trivial": e.trivial, "trivial_reason": e.trivial_reason,
        "families": fileio.matches_list(e.families),
        "repetition_of": ({"s": e.repetition_of[0],
                           "families": fileio.matches_list(e.repetition_of[1])}
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
        print(f"error: {exc}", file=sys.stderr)
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
