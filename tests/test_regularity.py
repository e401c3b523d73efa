import tracemalloc

import numpy as np
import pytest
from conftest import CONSTRUCT_SPEC, RANDOM_CODE_SHAPES, build_instance
from oracles import codeword_matrix, tuple_span

from crlab import budgets, families, regularity
from crlab.codes import CodewordMatrix, LinearCode
from crlab.families import cr1_extended_hamming, cr4_bose_bush, random_code
from crlab.field import digit_add, field_create, prime_power
from crlab.matrix import MatGF
from crlab.regularity import (BRUTE_LIMIT, BruteResult,
                              brute_subconstituents, complete_regularity,
                              oa_strength, packing_radius,
                              IntersectionArray, SyndromeProfile)
from crlab.report import build_code_report


def ext_hamming():
    return cr1_extended_hamming(3).cr_code


def vector_counts(prof) -> dict:
    """Size of each subconstituent C(i) in vectors: q^k per coset."""
    size_coset = prof.q ** prof.code.k
    return {l: c * size_coset for l, c in prof.level_coset_counts.items()}


def test_syndrome_profile_ext_hamming():
    prof = SyndromeProfile(ext_hamming())
    assert prof.level_coset_counts == {0: 1, 1: 8, 2: 7}
    assert prof.rho == 2
    assert vector_counts(prof) == {0: 16, 1: 128, 2: 112}


def test_syndrome_profile_counts_invariants(family_grid):
    """One coset at level 0 and q^(n-k) cosets in total, for every grid
    profile."""
    for entry in family_grid:
        prof = entry.cr_result.profile
        counts = prof.level_coset_counts
        code = entry.cr
        assert counts[0] == 1, entry.label
        assert sum(counts.values()) == code.q ** (code.n - code.k), entry.label


def test_syndrome_profile_full_space():
    f = field_create(2, 1)
    full = LinearCode(f, MatGF.identity(f, 5))
    prof = SyndromeProfile(full)
    assert prof.rho == 0 and prof.level_coset_counts == {0: 1}
    res = complete_regularity(full)
    assert res.ia is not None and res.ia.rho == 0


def test_syndrome_profile_bose_bush_dual():
    prof = SyndromeProfile(cr4_bose_bush(4).cr_code)
    assert prof.size == 64 and prof.rho == 2


def test_covering_radius_and_external_distance():
    eh = ext_hamming()
    assert SyndromeProfile(eh).rho == 2
    assert build_code_report(eh).external_distance == 2
    f = field_create(2, 1)
    ew = LinearCode.from_rows(f, [(1, 1, 1, 1)]).dual()
    assert SyndromeProfile(ew).rho == 1
    assert build_code_report(ew).external_distance == 1


def test_complete_regularity_ext_hamming():
    res = complete_regularity(ext_hamming())
    assert res.is_completely_regular
    assert res.ia.b == (8, 7) and res.ia.c == (1, 8)
    assert res.ia.a == (0, 0, 0)   # a_l = (q-1) n - b_l - c_l


def test_intersection_array_validation():
    with pytest.raises(ValueError):
        IntersectionArray(2, (4,), (1, 2), n=4, q=2)
    with pytest.raises(ValueError):
        IntersectionArray(1, (4,), (0,), n=4, q=2)   # c_1 >= 1


def test_brute_oracle_hand_checkable():
    f = field_create(2, 1)
    rep = LinearCode.from_rows(f, [(1, 1, 1, 1)])
    res = brute_subconstituents(rep)
    assert res.rho == 2
    assert res.ia.b == (4, 3) and res.ia.c == (1, 4)

    ew = rep.dual()
    res = brute_subconstituents(ew)
    assert res.rho == 1
    assert res.ia.b == (4,) and res.ia.c == (4,)


def test_brute_agrees_with_syndrome_method():
    for code in (ext_hamming(), cr4_bose_bush(4).cr_code,
                 cr4_bose_bush(4).two_weight_code):
        a = complete_regularity(code)
        b = brute_subconstituents(code)
        assert a.is_completely_regular == b.is_completely_regular
        if a.ia is not None:
            assert a.ia == b.ia


def test_subconstituent_sizes_match_brute_histogram(family_grid):
    """|C(l)| from the syndrome profile equals the full-space level
    histogram on every grid side with q^n <= 2^20 and on a code at the
    limit."""
    cases = []
    for entry in family_grid:
        cases.append((entry.cr, entry.cr_result, entry.label))
        cases.append((entry.tw, None, entry.label))
    cases.append((random_q_code(2, 20, 10, 1500), None, "[20,10]_2"))
    checked = 0
    for code, res, label in cases:
        if code.q ** code.n > BRUTE_LIMIT:
            continue
        prof = (res or complete_regularity(code)).profile
        brute = brute_subconstituents(code)
        vals, counts = np.unique(brute.levels, return_counts=True)
        assert brute.rho == prof.rho, label
        assert dict(zip(vals.tolist(), counts.tolist())) == \
            vector_counts(prof), label
        checked += 1
    assert checked >= 45


def test_brute_rejects_big_spaces():
    f = field_create(2, 1)
    big = LinearCode.from_rows(
        f, [[1 if i == j else 0 for j in range(25)] for i in range(10)])
    with pytest.raises(ValueError):
        brute_subconstituents(big)


def test_up_wide_check():
    """Wide-sense uniform packing is rho = s, the number of nonzero dual
    weights; the report decides it."""
    v = build_code_report(ext_hamming())
    assert v.rho == 2 and v.external_distance == 2 and v.uniformly_packed


def damaged_code():
    """Extended Hamming with its first generator column duplicated."""
    eh = ext_hamming()
    f = eh.field
    rows = [[r[0]] + r for r in eh.G.rows.tolist()]
    return LinearCode(f, MatGF(f, rows))


def test_damaged_code_regression():
    """The lengthened [9,4] code pins rho = 2 against s = 4."""
    damaged = damaged_code()
    v = build_code_report(damaged)
    assert (v.rho, v.external_distance) == (2, 4)
    assert not v.uniformly_packed
    res = complete_regularity(damaged)
    assert not res.is_completely_regular
    assert res.violation is not None
    brute = brute_subconstituents(damaged)
    assert not brute.is_completely_regular and brute.rho == 2


def test_oa_strength_hadamard():
    had = cr1_extended_hamming(3).two_weight_code
    assert oa_strength(codeword_matrix(had), 2) == 3


def test_oa_strength_full_space():
    f = field_create(2, 1)
    rows = [tuple((v >> i) & 1 for i in range(3)) for v in range(8)]
    assert oa_strength(CodewordMatrix(f, rows), 2) == 3


def test_oa_strength_bose_bush():
    bb = cr4_bose_bush(4).two_weight_code
    assert oa_strength(codeword_matrix(bb), 4) >= 2


def test_oa_strength_unbalanced_column():
    f = field_create(2, 1)
    m = CodewordMatrix(f, [(0, 0), (0, 1)])
    assert oa_strength(m, 2) == 0


def test_report_oa_strength_matches_brute_force(family_grid):
    """The report reads the strength off d(C^perp) - 1; the brute-force
    column-subset scan is the oracle, on every grid side and random code
    where it is cheap, a zero-column code (strength 0) and the full space
    (strength n)."""
    from crlab.report import build_code_report
    cases = [c for entry in family_grid for c in (entry.tw, entry.cr)]
    for i, (p, m) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                (2, 3), (3, 2)] * 3):
        f = field_create(p, m)
        n = 3 + i % 5
        cases.append(random_code(f, n, 1 + i % (n - 1), seed=900 + i))
    f = field_create(3, 1)
    zero_col = LinearCode.from_rows(f, [(1, 0, 1, 2), (0, 0, 1, 1)])
    full = LinearCode(f, MatGF.identity(f, 3))
    cases += [zero_col, full]
    checked = 0
    for c in cases:
        if c.q ** c.k * 2 ** c.n > 1 << 17 or c.q ** (c.n - c.k) > 1 << 16:
            continue
        rep = build_code_report(c)
        assert rep.oa_strength == oa_strength(codeword_matrix(c), c.q), c
        checked += 1
    assert checked >= 50
    assert build_code_report(zero_col).oa_strength == 0
    assert build_code_report(full).oa_strength == 3


def test_packing_radius_le_rho(family_grid):
    for entry in family_grid:
        # the completely regular side: rho = 2 is already profiled
        e_cr = packing_radius(entry.cr.weight_distribution_auto().d)
        assert e_cr <= entry.cr_result.profile.rho, entry.label
        # the two-weight side, where its syndrome space stays desk-sized
        if entry.tw.q ** (entry.tw.n - entry.tw.k) <= 1 << 16:
            e_tw = packing_radius(entry.tw_wd.d)
            assert e_tw <= SyndromeProfile(entry.tw).rho, entry.label


def test_syndrome_budget(monkeypatch):
    monkeypatch.setenv(budgets.SYND_BUDGET_VAR, "8")
    f = field_create(2, 1)
    code = LinearCode.from_rows(f, [(1, 1, 1, 1, 1, 1)])
    with pytest.raises(budgets.BudgetExceeded, match=budgets.SYND_BUDGET_VAR):
        SyndromeProfile(code)


def test_odd_characteristic_matches_brute():
    f = field_create(3, 1)
    code = LinearCode.from_rows(f, [(1, 1, 1), (0, 1, 2)]).dual()
    res = complete_regularity(code)
    brute = brute_subconstituents(code)
    assert res.is_completely_regular == brute.is_completely_regular
    if res.ia:
        assert res.ia == brute.ia


def test_random_codes_syndrome_vs_brute():
    cases = [(2, 8, 3), (2, 9, 4), (3, 6, 3), (4, 5, 2), (5, 5, 2),
             (9, 5, 2)]
    for i, (q, n, k) in enumerate(cases):
        p, m = prime_power(q)
        code = random_code(field_create(p, m), n, k, seed=500 + i)
        a = complete_regularity(code)
        b = brute_subconstituents(code)
        assert a.profile.rho == b.rho
        assert a.is_completely_regular == b.is_completely_regular
        if a.ia is not None:
            assert a.ia == b.ia


# -- the full-space oracle against the digit loop ----------------------------

def _digit_loop_subconstituents(code):
    """BruteResult by int64 digit arithmetic: a BFS that moves each
    frontier vector to its q values at every coordinate, then per vector
    and per (coordinate, value) the level of the moved vector."""
    q, n = code.q, code.n
    space = q ** n
    powers = [q ** i for i in range(n)]
    levels = np.full(space, -1, dtype=np.int8)
    sources = np.array([sum(x * pw for x, pw in zip(w, powers))
                        for w in tuple_span(code.field, code.G.rows, n)],
                       dtype=np.int64)
    levels[sources] = 0
    frontier = sources
    depth = 0
    seen = frontier.size
    while frontier.size and seen < space:
        depth += 1
        collected = []
        for pos in range(n):
            pw = powers[pos]
            digit = (frontier // pw) % q
            base = frontier - digit * pw
            for v in range(q):
                nb = base + v * pw
                fresh = nb[levels[nb] < 0]
                if fresh.size:
                    levels[fresh] = depth
                    collected.append(fresh)
        if collected:
            frontier = np.unique(np.concatenate(collected))
            seen = int(np.count_nonzero(levels >= 0))
        else:
            frontier = np.empty(0, dtype=np.int64)
    rho = int(levels.max())

    idx = np.arange(space, dtype=np.int64)
    lv = levels.astype(np.int16)
    down = np.zeros(space, dtype=np.int64)
    up = np.zeros(space, dtype=np.int64)
    for pos in range(n):
        pw = powers[pos]
        digit = (idx // pw) % q
        base = idx - digit * pw
        for v in range(q):
            nb_lv = lv[base + v * pw]
            moved = v != digit
            down += moved & (nb_lv == lv - 1)
            up += moved & (nb_lv == lv + 1)

    b = [0] * (rho + 1)
    c = [0] * (rho + 1)
    for l in range(rho + 1):
        members = np.nonzero(levels == l)[0]
        d0 = int(down[members[0]])
        u0 = int(up[members[0]])
        bad = np.nonzero((down[members] != d0) | (up[members] != u0))[0]
        if bad.size:
            j = int(members[bad[0]])
            viol = (l, int(members[0]), (d0, u0), j,
                    (int(down[j]), int(up[j])))
            return BruteResult(levels=levels, rho=rho, ia=None,
                               violation=viol)
        c[l] = d0
        b[l] = u0
    ia = IntersectionArray(rho=rho, b=tuple(b[:rho]), c=tuple(c[1:rho + 1]),
                           n=n, q=q)
    return BruteResult(levels=levels, rho=rho, ia=ia, violation=None)


def assert_brute_matches_loop(code, label=""):
    got = brute_subconstituents(code)
    want = _digit_loop_subconstituents(code)
    assert got.levels.dtype == want.levels.dtype, label
    assert np.array_equal(got.levels, want.levels), label
    assert (got.rho, got.ia, got.violation) == (
        want.rho, want.ia, want.violation), label
    return got


def random_q_code(q, n, k, seed):
    return random_code(field_create(*prime_power(q)), n, k, seed=seed)


def test_brute_matches_loop_on_benchmark_sides():
    """The `report` workload's random-code shapes, code and dual, at its
    seed-1 seeds; none is completely regular, so each pins a violation."""
    for i, (p, m, n, k) in enumerate(RANDOM_CODE_SHAPES):
        code = families.random_multiweight_code(field_create(p, m), n, k,
                                                seed=100 + i)
        for side in (code, code.dual()):
            res = assert_brute_matches_loop(side, (p, m, n, k, side.k))
            assert res.violation is not None


def test_brute_matches_loop_on_damaged_and_large_fields():
    assert assert_brute_matches_loop(damaged_code()).violation is not None
    for i, (q, n, k) in enumerate(((9, 5, 2), (16, 4, 2), (32, 3, 1))):
        assert_brute_matches_loop(random_q_code(q, n, k, 1400 + i), q)


def test_brute_matches_loop_at_the_limit():
    """[20,10]_2 fills q^n = BRUTE_LIMIT with q = 2 and 20 line axes."""
    code = random_q_code(2, 20, 10, 1500)
    assert code.q ** code.n == BRUTE_LIMIT
    assert_brute_matches_loop(code)


def test_brute_matches_loop_past_int16_counts():
    """The zero code of length 1 over GF(32771): the up count on level 0
    is n(q - 1) = 32770, past int16."""
    f = field_create(32771, 1)
    code = LinearCode.from_rows(f, [(1,)]).dual()
    assert (code.n, code.k) == (1, 0)
    res = assert_brute_matches_loop(code)
    assert (res.rho, res.ia.b, res.ia.c) == (1, (32770,), (1,))


def test_brute_never_reads_syndromes(monkeypatch):
    """The oracle stays independent of what it checks: with the syndrome
    profile, the dual and the transform all raising, it still answers."""
    bb = cr4_bose_bush(4)
    codes = [ext_hamming(), bb.cr_code, bb.two_weight_code,
             random_q_code(3, 7, 3, 1600)]
    want = [brute_subconstituents(c) for c in codes]

    def refuse(*args, **kwargs):
        raise AssertionError("the full-space oracle read the syndrome side")
    monkeypatch.setattr(SyndromeProfile, "__init__", refuse)
    monkeypatch.setattr(LinearCode, "dual", refuse)
    monkeypatch.setattr(regularity, "_dft", refuse)
    for code, res in zip(codes, want):
        got = brute_subconstituents(code)
        assert np.array_equal(got.levels, res.levels)
        assert (got.rho, got.ia, got.violation) == (
            res.rho, res.ia, res.violation)
    with pytest.raises(AssertionError, match="syndrome side"):
        complete_regularity(codes[0])


# -- the transform kernel against the per-delta loops ------------------------

def loop_profile(code):
    """(levels, down, up) by one pass per column delta: a BFS over each
    frontier, then one count over all q^r syndromes per delta.  The
    deltas are built here from scalar field operations."""
    f, q, r = code.field, code.q, code.n - code.k
    size = q ** r
    if r == 0:
        return (np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64))
    H = code.dual().G.rows
    deltas = [sum(f.mul(gamma, row[j]) * q ** i for i, row in enumerate(H))
              for j in range(code.n) for gamma in range(1, q)]
    p, ndigits = f.p, r * f.m
    levels = np.full(size, -1, dtype=np.int8)
    levels[0] = 0
    frontier = np.array([0], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        mask = np.zeros(size, dtype=bool)
        for d in deltas:
            mask[digit_add(frontier, d, p, ndigits)] = True
        mask &= levels < 0
        frontier = np.nonzero(mask)[0]
        levels[frontier] = depth
    assert (levels >= 0).all()
    down = np.zeros(size, dtype=np.int64)
    up = np.zeros(size, dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    lv = levels.astype(np.int16)
    below, above = lv - 1, lv + 1
    for d in deltas:
        nb = lv[digit_add(idx, d, p, ndigits)]
        down += nb == below
        up += nb == above
    return levels, down, up


# Every level scattered, or every level transformed, in place of the
# per-level choice of regularity._scatter_cheaper
FORCED_PLANS = {"scatter": lambda *args: True,
                "transform": lambda *args: False}
# Every q > 2 space on orbit cells, or every space one syndrome a cell,
# in place of the size threshold regularity._MAPPED
FORCED_MAPS = {"mapped": 0, "unmapped": float("inf")}


def forced_profile(code, plan=None, cells="mapped"):
    """The profile on FORCED_PLANS[plan] (the per-level choice when plan
    is None) and FORCED_MAPS[cells]."""
    with pytest.MonkeyPatch.context() as mp:
        if plan is not None:
            mp.setattr(regularity, "_scatter_cheaper", FORCED_PLANS[plan])
        mp.setattr(regularity, "_MAPPED", FORCED_MAPS[cells])
        return SyndromeProfile(code)


def per_syndrome(prof, values):
    """Per-cell values at every syndrome, through the orbit map."""
    return values if prof.orbit is None else values[prof.orbit]


def orbit_minima(f, r):
    """The smallest syndrome gamma*s over the nonzero gamma, for every
    syndrome s, by scalar multiplication of its radix-q digits."""
    q = f.q
    syndromes = np.arange(q ** r, dtype=np.int64)
    digits = syndromes[:, None] // q ** np.arange(r) % q
    least = syndromes
    for gamma in range(2, q):
        scaled = f.mul_array(digits, gamma) @ q ** np.arange(r)
        least = np.minimum(least, scaled)
    return least


def assert_cells_are_orbit_minima(code, prof, label=""):
    """The cells are the orbit minima in ascending order, and the map
    sends every syndrome to the cell of its orbit's minimum; without a
    map every cell is one syndrome."""
    f, r = code.field, code.n - code.k
    size = f.q ** r
    if prof.orbit is None:
        assert prof.levels.size == size, label
        assert np.array_equal(prof.minima(np.arange(size)),
                              np.arange(size)), label
        return
    least = orbit_minima(f, r)
    minima = np.unique(least)
    assert minima.size == 1 + (size - 1) // (f.q - 1), label
    assert prof.levels.size == minima.size, label
    assert np.array_equal(prof.minima(np.arange(minima.size)), minima), label
    assert np.array_equal(prof.orbit, np.searchsorted(minima, least)), label


def assert_matches_loops(code, prof=None, label=""):
    """The profile (prof, when it is already built) with its chosen mix
    of scattered and transformed levels, and the profiles with every
    level scattered and every level transformed, against the loops at
    every syndrome."""
    levels, down, up = loop_profile(code)
    vals, counts = np.unique(levels, return_counts=True)
    profs = {"chosen": prof if prof is not None else SyndromeProfile(code)}
    for cells in FORCED_MAPS if code.q > 2 else ("mapped",):
        profs.update(((plan, cells), forced_profile(code, plan, cells))
                     for plan in FORCED_PLANS)
    for plan, prof in profs.items():
        got_down, got_up = prof.neighbor_level_counts()
        assert np.array_equal(per_syndrome(prof, prof.levels), levels), (
            label, plan)
        assert np.array_equal(per_syndrome(prof, got_down), down), (
            label, plan)
        assert np.array_equal(per_syndrome(prof, got_up), up), (label, plan)
        assert prof.rho == int(levels.max()), (label, plan)
        assert prof.level_coset_counts == dict(
            zip(vals.tolist(), counts.tolist())), (label, plan)
    if profs["chosen"].size <= 1 << 18:
        for prof in profs.values():
            assert_cells_are_orbit_minima(code, prof, label)
    # step 0 reads conv_0 off the deltas; every later transformed step
    # costs two transforms, plus F(1_D) once
    rho = profs["chosen"].rho
    for (plan, cells), prof in list(profs.items())[1:]:
        if plan == "transform":
            assert prof.transforms == (2 * rho - 1 if rho > 1 else 0)
            assert prof.scattered_pairs == 0
        else:
            assert prof.transforms == 0


def test_kernel_matches_loops_on_grid(family_grid):
    """Every grid side with at most 2^21 syndromes."""
    checked = 0
    for entry in family_grid:
        for code, prof in ((entry.cr, entry.cr_result.profile),
                           (entry.tw, None)):
            if code.q ** (code.n - code.k) <= 1 << 21:
                assert_matches_loops(code, prof, entry.label)
                checked += 1
    assert checked >= 50


def test_kernel_matches_loops_on_construct_sides():
    """Only the completely regular sides of the construct families have
    at most 2^21 syndromes."""
    for kind, params in CONSTRUCT_SPEC:
        inst = build_instance(kind, params)
        for code in (inst.cr_code, inst.two_weight_code):
            if code.q ** (code.n - code.k) <= 1 << 21:
                assert_matches_loops(code, label=(kind, params))


def test_kernel_matches_loops_on_random_codes():
    """Seeded random codes over fields of characteristic 2, 3, 5, 7 and
    11, prime and extension, both sides of each."""
    shapes = {2: (9, 3), 3: (7, 3), 4: (6, 2), 5: (6, 3), 7: (5, 2),
              8: (5, 2), 9: (5, 2), 11: (4, 1), 16: (5, 2), 25: (4, 2),
              27: (4, 2)}
    for i, (q, (n, k)) in enumerate(shapes.items()):
        f = field_create(*prime_power(q))
        for seed in (700 + i, 800 + i):
            code = random_code(f, n, k, seed=seed)
            assert_matches_loops(code, label=(q, seed))
            assert_matches_loops(code.dual(), label=(q, seed, "dual"))


def test_kernel_matches_loops_past_the_counted_spaces(monkeypatch):
    """Spaces over regularity._COUNTED syndromes with no orbit map scatter
    by fancy-index adds, one shift to a run of cells or every shift to
    one cell: odd p, prime and extension fields, and p = 2.  Only p = 2
    has no map in production, so the odd p profiles choose their plan
    on one syndrome a cell; every case takes that branch."""
    scatter, fancy = regularity._scatter, []

    def spy(conv, sources, deltas, p, ndigits, orbit):
        fancy.append(orbit is None and conv.size > regularity._COUNTED)
        scatter(conv, sources, deltas, p, ndigits, orbit)

    monkeypatch.setattr(regularity, "_scatter", spy)
    for i, (q, n, k) in enumerate(((3, 12, 2), (9, 7, 2), (5, 9, 2),
                                   (2, 19, 3))):
        code = random_q_code(q, n, k, 1800 + i)
        assert code.q ** (code.n - code.k) > regularity._COUNTED
        fancy.clear()
        prof = forced_profile(code, cells="unmapped" if q > 2 else "mapped")
        assert prof.orbit is None and any(fancy), (q, n, k)
        assert_matches_loops(code, prof, label=(q, n, k))


def test_kernel_counts_at_the_count_dtype_limits():
    """Counts are held in the smallest signed dtype that holds |D|: the
    single-check codes of length 128 over GF(2) and GF(257) have
    |D| = 2^7 and 2^15, the up count of level 0, one past int8 and
    int16."""
    for q, n in ((2, 128), (257, 128)):
        f = field_create(q, 1)
        code = LinearCode.from_rows(f, [(1,) * n]).dual()
        total = n * (q - 1)
        assert total == 1 << (7 if q == 2 else 15)
        prof = SyndromeProfile(code)
        assert int(prof.neighbor_level_counts()[1][0]) == total
        assert_matches_loops(code, prof, label=(q, n))


def test_kernel_matches_loops_past_the_int32_buffers():
    """Long codes whose |D| forces int64 buffers, at p = 2, 3, 5 and 7."""
    from crlab.regularity import _ring
    for i, (q, n, r) in enumerate(((32, 530, 2), (9, 256, 2), (25, 50, 2),
                                   (7, 100, 3))):
        f = field_create(*prime_power(q))
        code = random_code(f, n, r, seed=900 + i).dual()
        assert _ring(f.p, (n * (q - 1)).bit_length())[2] is np.int64
        assert_matches_loops(code, label=(q, n, r))


def test_kernel_matches_loops_on_multisets():
    """A zero column (self-loops), repeated columns and proportional
    ones (a column and alpha times it: the same orbit cell) make D a true
    multiset; r = 0 and k = 0 are the two ends."""
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)):
        f = field_create(p, m)
        zero_col = LinearCode.from_rows(f, [(1, 0, 1, 1, 0), (0, 0, 1, 1, 1)])
        repeated = LinearCode.from_rows(f, [(1, 1, 0, 1, 1), (0, 0, 1, 1, 1)])
        scaled = LinearCode.from_rows(
            f, [(1, 0, 1, f.alpha, 1), (0, 1, 1, f.alpha, 0)])
        full = LinearCode(f, MatGF.identity(f, 3))
        zero_code = full.dual()
        assert (full.n - full.k, zero_code.k) == (0, 0)
        for code in (zero_col, zero_col.dual(), repeated, repeated.dual(),
                     scaled, scaled.dual(), full, zero_code):
            assert_matches_loops(code, label=(p, m, code.n, code.k))
    # the parity-check columns of a code are the generator columns of its
    # dual: here a zero column (q - 1 zero deltas) and a repeated one
    f = field_create(3, 1)
    deltas = SyndromeProfile(
        LinearCode.from_rows(f, [(1, 0, 2, 2), (0, 0, 1, 1)]).dual()).deltas
    assert np.count_nonzero(deltas == 0) == 2
    assert np.array_equal(deltas[4:6], deltas[6:8])


def syndrome_of(code, vector):
    """The packed syndrome of the vector packed in radix q, by scalar
    field operations on the parity-check rows."""
    f, q = code.field, code.q
    x = [vector // q ** j % q for j in range(code.n)]
    syndrome = 0
    for i, row in enumerate(code.dual().G.rows.tolist()):
        coord = 0
        for h, xj in zip(row, x):
            coord = f.add(coord, f.mul(h, xj))
        syndrome += coord * q ** i
    return syndrome


def test_violations_match_the_full_space_oracle(family_grid):
    """Every violation complete_regularity reports, wherever q^n <= 2^20:
    on the grid sides, random codes over eleven fields and codes with a
    zero or a proportional parity-check column.  The full-space oracle
    finds one at the same level, and the per-syndrome loops give its two
    vectors' counts at their syndromes; the profile's own pair is the
    first syndrome of that level and the first whose loop counts differ
    from it, on orbit cells and one syndrome a cell alike."""
    codes = [side for entry in family_grid for side in (entry.tw, entry.cr)]
    for i, (q, n, k) in enumerate(((2, 12, 4), (3, 9, 3), (4, 7, 3),
                                   (5, 6, 2), (7, 5, 2), (8, 5, 2),
                                   (9, 5, 2), (11, 4, 1), (16, 4, 1),
                                   (25, 4, 2), (27, 4, 1))):
        code = random_q_code(q, n, k, 2000 + i)
        codes += [code, code.dual()]
    for q in (3, 4, 7):
        f = field_create(*prime_power(q))
        codes += [LinearCode.from_rows(f, [(1, 0, 1, 1, 0), (0, 0, 1, 1, 1)]),
                  LinearCode.from_rows(f, [(1, 0, 1, f.alpha, 1),
                                           (0, 1, 1, f.alpha, 0)])]
        codes += [codes[-2].dual(), codes[-1].dual()]
    checked = 0
    for code in codes:
        if code.q ** code.n > BRUTE_LIMIT:
            continue
        got = complete_regularity(code).violation
        for cells in FORCED_MAPS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regularity, "_MAPPED", FORCED_MAPS[cells])
                assert complete_regularity(code).violation == got, (code,
                                                                    cells)
        want = brute_subconstituents(code).violation
        assert (got is None) == (want is None), code
        if got is None:
            continue
        levels, down, up = loop_profile(code)
        level, a, counts_a, b, counts_b = want
        assert got.level == level, code
        for vector, counts in ((a, counts_a), (b, counts_b)):
            s = syndrome_of(code, vector)
            assert (int(down[s]), int(up[s])) == counts, code
        members = np.flatnonzero(levels == level)
        first = members[0]
        differ = (down[members] != down[first]) | (up[members] != up[first])
        other = members[differ][0]
        assert (got.syndrome_a, got.syndrome_b) == (first, other), code
        assert got.counts_a == (down[first], up[first]), code
        assert got.counts_b == (down[other], up[other]), code
        checked += 1
    assert checked >= 30


def test_q64_families_completely_regular():
    """Bose-Bush 64, Delsarte 64 and Denniston (64, 2): 2^18 syndromes
    each, intersection arrays by the restated formulas."""
    q = 64
    n_del = q * (q - 1) // 2
    cases = [
        (families.cr4_bose_bush(q),
         ((q + 2) * (q - 1), q * q - 1), (1, q + 2)),
        (families.cr5_delsarte(q),
         ((q - 1) * n_del, (q - 2) * (q + 1) * (q + 2) // 4),
         (1, q * (q - 1) * (q - 2) // 4)),
        (families.cr6_denniston(q, 2),
         ((q - 1) * (q + 2), (q + 1) * (q - 1)), (1, q + 2)),
    ]
    for inst, b, c in cases:
        res = complete_regularity(inst.cr_code)
        assert res.profile.size == 1 << 18
        assert res.is_completely_regular, inst.family
        assert (res.ia.rho, res.ia.b, res.ia.c) == (2, b, c), inst.family


def test_profile_memory_of_the_2_18_two_weight_side():
    """The [8,2]_8 two-weight side of mds-dual(8, 8): 2^18 syndromes in
    37450 orbit cells, rho = 6; profile plus counts stay under 16 MB."""
    code = families.cr3_mds_dual(8, 8).two_weight_code
    code.dual()
    tracemalloc.start()
    try:
        prof = SyndromeProfile(code)
        prof.neighbor_level_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (prof.size, prof.rho) == (1 << 18, 6)
    assert peak < 16 << 20


def test_profile_counters_on_the_2_18_two_weight_side():
    """Levels of 1, 56, 1372, 19208, 142345, 99092 and 70 cosets, in 1, 8,
    196, 2744, 20335, 14156 and 10 orbit cells of 7 syndromes (0 alone):
    step 0 is read off the deltas, the next three steps scatter their
    levels, the step from 20335 cells scatters the 14166 unreached ones,
    and the last step the 10 unreached cells; no transform runs.  On
    every syndrome the profile ran three transforms, and eleven when only
    level 0 was scattered."""
    code = families.cr3_mds_dual(8, 8).two_weight_code
    prof = SyndromeProfile(code)
    assert list(prof.level_coset_counts.values()) == [
        1, 56, 1372, 19208, 142345, 99092, 70]
    assert np.bincount(prof.levels).tolist() == [
        1, 8, 196, 2744, 20335, 14156, 10]
    assert prof.transforms == 0
    assert prof.scattered_pairs == 56 * (8 + 196 + 2744 + 14166 + 10)


def test_profile_counters_on_delsarte_64():
    """The [2016,2013]_64 completely regular side of Delsarte 64: 2^18
    syndromes in 4162 orbit cells, |D| = 127008.  Step 0 reads level 1
    (2016 cells) off the parity-check columns, and the one later step is
    transformed (F(1_D), forward, inverse): scattering level 1 would take
    2016 |D| pairs."""
    prof = SyndromeProfile(families.cr5_delsarte(64).cr_code)
    assert np.bincount(prof.levels).tolist() == [1, 2016, 2145]
    assert list(prof.level_coset_counts.values()) == [1, 127008, 135135]
    assert (prof.transforms, prof.scattered_pairs) == (3, 0)


def test_profile_counters_on_census_sized_codes():
    """Census-sized spaces scatter every level after step 0: no
    transform runs, and each step scatters the smaller of its level and
    the unreached rest, counted in cells."""
    f = field_create(3, 1)
    for code in (LinearCode.from_rows(f, [(1, 0, 1, 1, 2), (0, 1, 1, 2, 2)]),
                 random_q_code(4, 6, 3, 1700), random_q_code(5, 5, 2, 1701)):
        prof = SyndromeProfile(code)
        cells = np.bincount(prof.levels).tolist()
        rests = [prof.levels.size - sum(cells[:j + 1])
                 for j in range(prof.rho)]
        assert prof.transforms == 0, code
        steps = zip(cells[1:], rests[1:])
        assert prof.scattered_pairs == len(prof.deltas) * sum(
            min(level, rest) for level, rest in steps), code


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduction_matches_python_mod_at_the_dtype_limits(p):
    """_reduce is x mod P for every x from P - 1 above the dtype's
    minimum up to its maximum, with the moduli that _ring picks for
    int32 and for int64 buffers, smallest and largest."""
    from crlab.regularity import _reduce, _ring
    rings = {}
    for bits in range(1, 64):
        try:
            P, _, dtype = _ring(p, bits)
        except ValueError:
            break
        rings.setdefault(dtype, []).append(P)
    rng = np.random.default_rng(p)
    for dtype, moduli in rings.items():
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        for P in (moduli[0], moduli[-1]):
            edge = np.arange(min(2 * P, 1 << 16))
            values = np.concatenate([
                hi - edge, lo + P - 1 + edge, edge - P,
                rng.integers(lo + P - 1, hi, 1000, endpoint=True)])
            x = values.astype(dtype)
            _reduce(x, P, np.empty_like(x))
            assert x.tolist() == [v % P for v in values.tolist()], (dtype, P)
