"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  All comparisons are exact integer comparisons; nothing is run at a
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np
from conftest import normalize_point
from oracles import bush_closed_form_matrix, simplex_partition

from crlab.codes import (LinearCode, is_projective, macwilliams,
                         max_column_multiplicity)
from crlab.conditions import (power_decomposition, two_weight_counts, cardinality_window_check,
                              complement_valuation_check)
from crlab.diffmat import difference_matrix, dm_code, is_difference_matrix
from crlab.families import cr4_bose_bush, cr5_delsarte, cr6_denniston, random_code
from crlab.field import field_create
from crlab.matrix import MatGF
from crlab.regularity import (IntersectionArray, brute_subconstituents,
                              complete_regularity)
from crlab.search import search_antipodal_duals, search_arcs

DIRECT_CAP = 1 << 20
BRUTE_CAP = 1 << 20


def _verdict(num: int, description: str, failures: list,
             extra: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f" [{extra}]" if extra else ""
    print(f"\n[criterion {num}] {status}: {description}{detail}")
    for f in failures[:10]:
        print(f"  failure: {f}")
    assert not failures, f"criterion {num}: {failures[:10]}"


def expected_weights(kind, params):
    if kind == "ext-hamming":
        n = 2 ** params["m"]
        return {n // 2, n}
    if kind == "dm-dual":
        q = params["p"] ** params["l"]
        mu = params["p"] ** params["h"]
        return {mu * (q - 1), q * mu}
    if kind == "mds-dual":
        return {params["n"] - 1, params["n"]}
    if kind == "bose-bush":
        return {params["q"], params["q"] + 2}
    if kind == "delsarte":
        q = params["q"]
        return {q * (q - 2) // 2, q * (q - 1) // 2}
    if kind == "denniston":
        q, h = params["q"], params["h"]
        return {q * (h - 1), 1 + (q + 1) * (h - 1)}
    raise ValueError(kind)


def expected_ia(kind, params) -> IntersectionArray:
    """The paper's intersection array of each family's completely regular
    side, restated here so that criterion 1 does not check the profile
    against the library's own prediction."""
    if kind == "ext-hamming":
        q, n = 2, 2 ** params["m"]
        b, c = (n, n - 1), (1, n)
    elif kind == "dm-dual":
        q = params["p"] ** params["l"]
        n = q * params["p"] ** params["h"]
        b, c = (n * (q - 1), n - 1), (1, n * (q - 1))
    elif kind == "mds-dual":
        q, n = params["q"], params["n"]
        b, c = (n * (q - 1), (q - n + 1) * (n - 1)), (1, n * (n - 1))
    elif kind == "bose-bush":
        q = params["q"]
        n = q + 2
        b, c = ((q + 2) * (q - 1), q * q - 1), (1, q + 2)
    elif kind == "delsarte":
        q = params["q"]
        n = q * (q - 1) // 2
        b = ((q - 1) * n, (q - 2) * (q + 1) * (q + 2) // 4)
        c = (1, q * (q - 1) * (q - 2) // 4)
    elif kind == "denniston":
        q, h = params["q"], params["h"]
        n = 1 + (q + 1) * (h - 1)
        b = ((q - 1) * n, (q + 1) * (h - 1) * (q - h + 1))
        c = (1, (h - 1) * n)
    else:
        raise ValueError(kind)
    return IntersectionArray(2, b, c, n=n, q=q)


def test_criterion_1_family_grid(family_grid):
    """Every grid instance: dual weights exactly the family's stated pair,
    covering radius exactly 2, intersection array exactly the formula."""
    start = time.monotonic()
    failures = []
    for entry in family_grid:
        weights = set(entry.tw_wd.nonzero_weights)
        want_w = expected_weights(entry.kind, entry.params)
        if weights != want_w:
            failures.append(f"{entry.label}: weights {sorted(weights)} != "
                            f"{sorted(want_w)}")
        if entry.cr_result.profile.rho != 2:
            failures.append(f"{entry.label}: rho = "
                            f"{entry.cr_result.profile.rho} != 2")
        ia = entry.cr_result.ia
        want_ia = expected_ia(entry.kind, entry.params)
        if ia is None or ia != want_ia:
            failures.append(f"{entry.label}: IA {ia} != {want_ia}")
    # the two worked examples pinned explicitly
    bb4 = next(e for e in family_grid
               if e.kind == "bose-bush" and e.params["q"] == 4)
    if not (bb4.cr_result.ia.b == (18, 15) and bb4.cr_result.ia.c == (1, 6)):
        failures.append("bose-bush q=4 IA is not {18,15;1,6}")
    d84 = next(e for e in family_grid
               if e.kind == "denniston" and e.params == {"q": 8, "h": 4})
    if not (d84.cr_result.ia.b == (196, 135)
            and d84.cr_result.ia.c == (1, 84)):
        failures.append("denniston (8,4) IA is not {196,135;1,84}")
    elapsed = family_grid.build_seconds + (time.monotonic() - start)
    if elapsed > 300:
        failures.append(f"grid verification took {elapsed:.0f}s > 300s")
    _verdict(1, f"family grid, {len(family_grid)} instances verified "
             "(weights, rho, intersection arrays all exact)", failures,
             extra=f"{elapsed:.1f}s")


def test_criterion_2_oracle_equivalence(family_grid):
    """Syndrome-graph and full-vector-space methods agree exactly on every
    grid code with q^n <= 2^20 plus 20 seeded random codes."""
    failures = []
    checked = 0
    seen = set()
    for entry in family_grid:
        for code in (entry.tw, entry.cr):
            if code.q ** code.n > BRUTE_CAP:
                continue
            key = (code.field, code.G.rows.shape, code.G.rows.tobytes())
            if key in seen:
                continue
            seen.add(key)
            fast = complete_regularity(code)
            brute = brute_subconstituents(code)
            ok = (fast.profile.rho == brute.rho
                  and fast.is_completely_regular == brute.is_completely_regular
                  and ((fast.ia is None and brute.ia is None)
                       or fast.ia == brute.ia))
            if not ok:
                failures.append(f"{entry.label}: [{code.n},{code.k}] "
                                f"syndrome {fast.ia} vs brute {brute.ia}")
            checked += 1

    random_cases = [
        (2, 8, 3), (2, 8, 4), (2, 9, 4), (2, 10, 5), (2, 12, 6), (2, 10, 3),
        (3, 6, 3), (3, 7, 3), (3, 8, 4), (3, 6, 2),
        (4, 5, 2), (4, 6, 3), (4, 7, 3), (4, 8, 4), (4, 5, 3),
        (5, 5, 2), (5, 6, 3), (5, 7, 3), (5, 4, 2), (7, 5, 2),
    ]
    assert len(random_cases) == 20
    from crlab.field import prime_power
    for i, (q, n, k) in enumerate(random_cases):
        p, m = prime_power(q)
        code = random_code(field_create(p, m), n, k, seed=1000 + i)
        fast = complete_regularity(code)
        brute = brute_subconstituents(code)
        ok = (fast.profile.rho == brute.rho
              and fast.is_completely_regular == brute.is_completely_regular
              and ((fast.ia is None and brute.ia is None)
                   or fast.ia == brute.ia))
        if not ok:
            failures.append(f"random (q={q}, n={n}, k={k}, seed={1000 + i})")
        checked += 1
    _verdict(2, "syndrome method agrees exactly with the full-space oracle",
             failures, extra=f"{checked} codes")


def _independent_dual_distance_k3(code: LinearCode) -> int:
    """Minimum dependent-column count of a 3-row generator, by geometry:
    1 for a zero column, 2 for a scalar pair, 3 for a collinear triple,
    else 4 (any four vectors of a 3-space are dependent, and if no smaller
    set is dependent the dependency has full support)."""
    f = code.field
    pts = []
    for col in code.G.rows.T.tolist():
        rep = normalize_point(f, col)
        if rep is None:
            return 1
        pts.append(rep)
    point_set = set(pts)
    if len(point_set) < len(pts):
        return 2
    pts_list = sorted(point_set)
    for i in range(len(pts_list)):
        a = pts_list[i]
        for j in range(i + 1, len(pts_list)):
            b = pts_list[j]
            for t in range(1, f.q):
                third = normalize_point(
                    f, tuple(f.add(x, f.mul(t, y)) for x, y in zip(a, b)))
                if third != a and third != b and third in point_set:
                    return 3
    return 4


def test_criterion_3_macwilliams_round_trip(family_grid):
    """macwilliams(weight_distribution(C)) equals the dual's distribution
    entrywise.  Where both sides are enumerable the comparison is between
    two independent enumerations; where the dual is too large to
    enumerate, its distribution is the transform itself, so the check
    pins the transform against an independently computed dual minimum
    distance plus the inverse transform."""
    failures = []
    direct = transform_only = 0
    for entry in family_grid:
        tw, cr = entry.tw, entry.cr
        n, q = tw.n, tw.q
        wd_tw = entry.tw_wd
        mw_of_tw = macwilliams(wd_tw, n, tw.k, q)
        if q ** cr.k <= DIRECT_CAP:
            wd_cr = cr.weight_distribution()
            if mw_of_tw != wd_cr:
                failures.append(f"{entry.label}: transform of the small side "
                                "differs from the dual enumeration")
            mw_of_cr = macwilliams(wd_cr, n, cr.k, q)
            if mw_of_cr != wd_tw:
                failures.append(f"{entry.label}: reverse transform differs")
            direct += 1
        else:
            if mw_of_tw.counts[0] != 1 or sum(mw_of_tw.counts) != q ** cr.k:
                failures.append(f"{entry.label}: transform is not a valid "
                                "distribution")
            if macwilliams(mw_of_tw, n, cr.k, q) != wd_tw:
                failures.append(f"{entry.label}: transform does not invert")
            d_geom = _independent_dual_distance_k3(tw)
            if mw_of_tw.d != d_geom:
                failures.append(
                    f"{entry.label}: transform min weight {mw_of_tw.d} != "
                    f"geometric dual distance {d_geom}")
            transform_only += 1
    _verdict(3, "MacWilliams transform matches dual enumerations exactly",
             failures,
             extra=f"{direct} both-sides, {transform_only} transform-side")


def _dichotomy_failure(p, l, h):
    """The first row pair of the stacked translates whose distance is not
    n (translates of one row of D) or (q-1)mu (any other pair), or None;
    every pair is compared."""
    dm = difference_matrix(p, l, h)
    q, mu, side = dm.q, dm.mu, dm.side
    rows = np.array(dm_code(dm).rows)
    base = np.arange(len(rows)) % side
    for i in range(len(rows) - 1):
        dist = (rows[i + 1:] != rows[i]).sum(axis=1)
        want = np.where(base[i + 1:] == base[i], side, (q - 1) * mu)
        bad = np.nonzero(dist != want)[0]
        if len(bad):
            return i, i + 1 + int(bad[0])
    return None


def test_criterion_4_difference_matrices():
    """Exhaustive verification for all p^(l+h) <= 256; the row-distance
    dichotomy compared literally on all row pairs for all p^(l+h) <= 64;
    linearity (|S| = q^rank S), PDM detection and difference-matrix
    reassembly for the linear difference-matrix codes."""
    failures = []
    cases = []
    for p in (2, 3, 5, 7, 11, 13):
        u = 2
        while p ** u <= 256:
            for l in range(1, u):
                cases.append((p, l, u - l))
            u += 1
    for (p, l, h) in cases:
        dm = difference_matrix(p, l, h)
        if not is_difference_matrix(dm.entries, dm.group_field):
            failures.append(f"D({p}^{l},{p}^{h}) failed verification")

    direct_cases = [(p, l, h) for (p, l, h) in cases if p ** (l + h) <= 64]
    for (p, l, h) in direct_cases:
        pair = _dichotomy_failure(p, l, h)
        if pair is not None:
            failures.append(f"dm_code({p},{l},{h}): row-distance dichotomy "
                            f"fails for rows {pair}")

    linear_cases = [(p, l, h) for (p, l, h) in direct_cases if h % l == 0]
    for (p, l, h) in linear_cases:
        built = dm_code(difference_matrix(p, l, h))
        if built.N != built.field.q ** MatGF(built.field, built.rows).rank:
            failures.append(f"dm_code({p},{l},{h}) is not linear")
            continue
        sp = simplex_partition(built, p ** l)
        if not (sp and sp.is_simplex_partition and sp.pdm):
            failures.append(f"dm_code({p},{l},{h}): PDM not detected")
        elif sp.dm_reassembled is None or not is_difference_matrix(
                sp.dm_reassembled.entries, sp.dm_reassembled.group_field):
            failures.append(f"dm_code({p},{l},{h}): reassembly failed")
    _verdict(4, "difference matrices verified exhaustively; row-distance "
             "dichotomy and PDM reassembly hold", failures,
             extra=f"{len(cases)} matrices, {len(direct_cases)} direct "
             f"dichotomy, {len(linear_cases)} PDM reassemblies")


RIGHT_EQUALITY_KINDS = {"bose-bush", "delsarte", "denniston", "dm-dual"}


def test_criterion_5_bounds_and_integrality(family_grid):
    failures = []
    for entry in family_grid:
        tw = entry.tw
        n, q, k = tw.n, tw.q, tw.k
        N = q ** k
        d = entry.tw_wd.d
        checks = {c.name: c for c in cardinality_window_check(n, N, d, q)}
        for c in checks.values():
            if c.applicable and not c.satisfied:
                failures.append(f"{entry.label}: {c.name} violated")
        if entry.kind in RIGHT_EQUALITY_KINDS:
            if not checks["window_upper"].witnesses.get("equality"):
                failures.append(f"{entry.label}: expected right-bound "
                                "equality")
            if not (checks["window_upper_equality_n"].satisfied
                    and checks["window_upper_equality_d"].satisfied):
                failures.append(f"{entry.label}: equality formulas do not "
                                "reproduce n, d")

        # predicted weight counts against the enumerated distribution
        mu = two_weight_counts(n, k, q, d)
        if not isinstance(mu[0], int):
            failures.append(f"{entry.label}: weight-count system "
                            "non-integral")
        else:
            mu1, mu2 = mu
            if (entry.tw_wd.counts[d] != mu1
                    or entry.tw_wd.counts[n] != mu2):
                failures.append(
                    f"{entry.label}: (mu1, mu2) = ({mu1}, {mu2}) != "
                    f"enumerated ({entry.tw_wd.counts[d]}, "
                    f"{entry.tw_wd.counts[n]})")

        if is_projective(tw):
            if power_decomposition(n, d, q) is None:
                failures.append(f"{entry.label}: power decomposition failed")
            s_mult = max_column_multiplicity(tw)
            if s_mult != 1:
                failures.append(f"{entry.label}: projective but s = {s_mult}")
            d_c = q ** (k - 1) - n
            if d_c > 0:
                rep = complement_valuation_check(n, k, d, q, 1)
                if not rep.some_valuation_equality:
                    failures.append(f"{entry.label}: no valuation equality")
            else:
                # difference-matrix-type instances: the complementary code
                # degenerates (d_c <= 0) and the check must refuse them
                try:
                    complement_valuation_check(n, k, d, q, 1)
                    failures.append(f"{entry.label}: degenerate complement "
                                    "not refused")
                except ValueError:
                    pass
    bb4 = next(e for e in family_grid
               if e.kind == "bose-bush" and e.params["q"] == 4)
    if two_weight_counts(6, 3, 4, 4) != (45, 18) or \
            bb4.tw_wd.counts[4] != 45 or bb4.tw_wd.counts[6] != 18:
        failures.append("bose-bush q=4 counts are not (45, 18)")
    _verdict(5, "cardinality bounds, equality-case formulas, weight-count "
             "system, power decomposition and valuation conditions all "
             "hold", failures)


def test_criterion_6_arc_nonexistence():
    start = time.monotonic()
    failures = []
    for q in (3, 5):
        if search_arcs(q, q + 2).exists:
            failures.append(f"found a (q+2)-arc at odd q = {q}")
    for q in (2, 4, 8):
        if not search_arcs(q, q + 2).exists:
            failures.append(f"no hyperoval found at q = {q}")
    elapsed = time.monotonic() - start
    if elapsed > 60:
        failures.append(f"arc searches took {elapsed:.0f}s > 60s")
    _verdict(6, "no (q+2)-arcs for q in {3, 5}; hyperovals found for "
             "q in {2, 4, 8}", failures, extra=f"{elapsed:.1f}s")


def test_criterion_7_census():
    start = time.monotonic()
    failures = []
    stats = []
    for (q, r, n_max) in [(2, 3, 8), (2, 4, 10), (3, 3, 9), (4, 3, 6)]:
        entries = search_antipodal_duals(q, r, n_max)
        unmatched = [e for e in entries if e.unmatched]
        stats.append(f"(q={q},r={r},n<={n_max}): {len(entries)} entries")
        for e in unmatched:
            failures.append(f"UNMATCHED at (q={q}, r={r}): n={e.n}, "
                            f"weights={e.weights}, IA={e.ia}")
    elapsed = time.monotonic() - start
    if elapsed > 600:
        failures.append(f"census took {elapsed:.0f}s > 600s")
    _verdict(7, "census: every nontrivial completely regular rho=2 dual "
             "matches a family; " + "; ".join(stats), failures,
             extra=f"{elapsed:.1f}s")


def test_criterion_8_cross_family_identities():
    failures = []
    for q in (8, 16):
        a = cr5_delsarte(q)
        b = cr6_denniston(q, q // 2)
        if a.two_weight_code.n != b.two_weight_code.n:
            failures.append(f"q={q}: lengths differ")
        if a.two_weight_code.weight_distribution() != \
                b.two_weight_code.weight_distribution():
            failures.append(f"q={q}: weight distributions differ")
        ia_a = complete_regularity(a.cr_code).ia
        ia_b = complete_regularity(b.cr_code).ia
        if ia_a is None or ia_b is None or ia_a != ia_b:
            failures.append(f"q={q}: intersection arrays differ")

        bb = cr4_bose_bush(q)
        h2 = cr6_denniston(q, 2)
        same_params = (
            bb.two_weight_code.n == h2.two_weight_code.n
            and bb.two_weight_code.k == h2.two_weight_code.k
            and set(bb.two_weight_code.weight_distribution().nonzero_weights)
            == set(h2.two_weight_code.weight_distribution().nonzero_weights)
            and bb.predicted_ia == h2.predicted_ia)
        if not same_params:
            failures.append(f"q={q}: h=2 arc does not reproduce the "
                            "hyperoval parameters")

    G8 = bush_closed_form_matrix(8)
    code8 = LinearCode(field_create(2, 3), G8)
    if set(code8.weight_distribution().nonzero_weights) != {8, 10}:
        failures.append("closed-form matrix at q=8 has wrong weights")
    try:
        bush_closed_form_matrix(4)
        failures.append("closed-form matrix at q=4 did not fail")
    except ValueError as exc:
        if "alpha" not in str(exc):
            failures.append("q=4 diagnostic does not name the vanishing "
                            "denominator")
    _verdict(8, "Delsarte/Denniston coincidence at h=q/2, hyperoval "
             "reduction at h=2, closed-form matrix domain", failures)
