import dataclasses
import hashlib
import itertools
import math
import operator

import numpy as np
import pytest
from oracles import field_matmul

from crlab import budgets, cli, regularity, search
from crlab.codes import LinearCode, projective_points
from crlab.field import digit_add, field_create, prime_power
from crlab.matrix import MatGF
from crlab.regularity import brute_subconstituents, complete_regularity
from crlab.search import (CENSUS_NOTE, PlaneGeometry, SymmetryCountError,
                          render_table, search_antipodal_duals, search_arcs)


def is_arc(field, points) -> bool:
    """No 3 of the given projective points collinear."""
    for a, b, c in itertools.combinations(points, 3):
        M = MatGF(field, [a, b, c])
        if M.rank < 3:
            return False
    return True


def test_hyperovals_exist_even_q():
    for q in (2, 4, 8):
        res = search_arcs(q, q + 2)
        assert res.exists, q
        p, m = prime_power(q)
        assert is_arc(field_create(p, m), res.witness)
        assert len(res.witness) == q + 2


def test_no_hyperovals_odd_q():
    assert not search_arcs(3, 5).exists
    assert not search_arcs(5, 7).exists


def test_hyperoval_q16():
    res = search_arcs(16, 18)
    assert res.exists and len(res.witness) == 18


def test_hyperoval_witnesses_pinned():
    """The first witness in DFS order is fixed; these are the tuples the
    search has always printed, so a change of visiting order shows."""
    assert search_arcs(4, 6).witness == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 2, 3), (1, 3, 2))
    assert search_arcs(16, 18).witness == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 2, 3), (1, 3, 2),
        (1, 4, 8), (1, 5, 11), (1, 6, 13), (1, 7, 9), (1, 8, 10),
        (1, 9, 5), (1, 10, 14), (1, 11, 15), (1, 12, 4), (1, 13, 6),
        (1, 14, 12), (1, 15, 7))


@pytest.mark.parametrize("argv,digest", [
    (["--q", "2", "--r", "3", "--n-max", "8"],
     "3880bf13a72046f99a68335903e35cf8a37f306b357f5b97b15328e9b81a71f8"),
    (["--q", "3", "--r", "3", "--n-max", "9"],
     "008ce0ed86c5d0c12291ee6d0f66057cfc48c2c83b7c5884095779d45a4cbae1"),
    (["--q", "4", "--r", "3", "--n-max", "6", "--projective"],
     "a2a4d145fdd7efbe828717638d8d7a8026597194e56897feff20caffd26e17cc"),
    # the first census whose weight fields take two bytes
    (["--q", "2", "--r", "2", "--n-max", "256"],
     "a955a4dbfbcfc5776f16e487ac0ce5dac7e8e29ee508fd8e3d4389c7782801b5"),
])
def test_census_json_pinned(argv, digest, capsys):
    """The census JSON is byte-stable: these are the sha256 digests of
    the stdout the search has always printed."""
    assert cli.main(["search", "classify", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_census_witnesses_pinned():
    """Each entry's example is the first survivor of its key in
    lexicographic order of the index tuples; a change of visiting order
    shows here."""
    entries = search_antipodal_duals(2, 3, 8)
    assert [e.example_columns for e in entries] == [
        ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)),
        ((0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0),
         (1, 0, 0), (1, 0, 0), (1, 1, 1), (1, 1, 1))]


def test_oval_counts_are_conic_counts():
    """Segre: for odd q every oval of PG(2, q) is a conic, and PG(2, q)
    has q^2 (q^3 - 1) conics."""
    for q in (3, 5, 7):
        assert search_arcs(q, q + 1, count_all=True).count == \
            q * q * (q ** 3 - 1), q


def test_hyperoval_count_q4():
    """PG(2, 4) has 168 hyperovals."""
    assert search_arcs(4, 6, count_all=True).count == 168


def test_arc_counting_mode():
    # ovals of PG(2,2): count of canonical 4-arcs = number of frames
    res = search_arcs(2, 4, count_all=True)
    assert res.count == 168 // 24   # 7 unordered frames
    res = search_arcs(3, 4, count_all=True)
    assert res.count == 234         # 4-arcs of PG(2,3)
    assert not search_arcs(3, 5, count_all=True).exists


def test_q_bound():
    with pytest.raises(ValueError):
        search_arcs(17, 5)


@pytest.mark.parametrize("r,n_max,name", [(0, 4, "r"), (-1, 4, "r"),
                                         (3, -1, "n_max")])
def test_census_rejects_bad_arguments(r, n_max, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        search_antipodal_duals(3, r, n_max)


def test_arc_search_rejects_negative_size():
    with pytest.raises(ValueError, match="^size must be >= 0"):
        search_arcs(5, -1)


def test_census_tiny_hand_auditable():
    """(q=2, r=2, n<=4): three point-pair multisets give the full space
    [2,2,{1,2}], three doubled pairs give [4,2,{2,4}]; all trivial."""
    entries = search_antipodal_duals(2, 2, 4)
    summary = {(e.n, e.weights): e.count for e in entries}
    assert summary == {(2, (1, 2)): 3, (4, (2, 4)): 3}
    assert all(e.trivial for e in entries)
    doubled = next(e for e in entries if e.n == 4)
    assert doubled.rho == 2 and doubled.completely_regular
    assert doubled.ia.b == (4, 2) and doubled.ia.c == (2, 4)
    assert not doubled.unmatched   # trivial: repeated column
    # the doubled pair is a 2-fold repetition of the n = 2 Latin-square code
    assert doubled.repetition_of
    s, matches = doubled.repetition_of
    assert s == 2 and any(f == "CR3" for f, _ in matches)


def test_census_repetition_annotation_doubled_frames():
    entries = search_antipodal_duals(2, 3, 8)
    doubled = next(e for e in entries if e.n == 8)
    assert doubled.repetition_of
    s, matches = doubled.repetition_of
    assert s == 2 and any(f == "CR1" for f, _ in matches)


def _naive_census(f, q, r, n_max, combos):
    """(n, weights) -> count by rescanning every nonzero message."""
    points = projective_points(f, r)
    naive = {}
    for n in range(2, n_max + 1):
        for combo in combos(range(len(points)), n):
            cols = [points[i] for i in combo]
            G = MatGF(f, list(zip(*cols)))
            if G.rank != r:
                continue
            ws = set()
            for v in range(1, q ** r):
                msg = []
                x = v
                for _ in range(r):
                    msg.append(x % q)
                    x //= q
                w = 0
                for pt in cols:
                    acc = 0
                    for a, b in zip(msg, pt):
                        if a and b:
                            acc = f.add(acc, f.mul(a, b))
                    if acc:
                        w += 1
                ws.add(w)
            ws = sorted(ws)
            if len(ws) == 2 and ws[1] == n and ws[0] > 0:
                key = (n, tuple(ws))
                naive[key] = naive.get(key, 0) + 1
    return naive


def _profiled_key(field, points, chosen, d, r) -> tuple:
    """The census key of a survivor with weights {d, n}, its dual's rho
    and intersection array read off a syndrome profile whatever the
    columns: the slow path that Delsarte's closed form replaces for
    column sets in :func:`search._census_key`."""
    n = len(chosen)
    dual_k = n - r
    reasons = []
    if dual_k < 2:
        reasons.append(f"dual dimension {dual_k} < 2")
    if len(set(chosen)) < n:
        reasons.append("repeated column: dual minimum distance 2")
    rho, cr, ia = None, False, None
    if dual_k >= 1:
        code = LinearCode.from_rows(field, np.transpose(
            [points[i] for i in chosen]))
        res = complete_regularity(code.dual())
        rho, cr, ia = res.profile.rho, res.is_completely_regular, res.ia
    if rho != 2:
        reasons.append(f"dual covering radius {rho} != 2")
    return n, (d, n), rho, cr, ia, tuple(reasons)


def _full_census(q, r, n_max, projective=False):
    """The census over every index tuple, with no symmetry reduction: one
    depth-first pass over all sizes up to n_max, each key profiled
    (:func:`_profiled_key`), counted one survivor at a time and annotated
    from its lexicographically first survivor."""
    p, m = prime_power(q)
    field = field_create(p, m)
    points = projective_points(field, r)
    P = len(points)
    n_min = max(r, 2)
    hits = (field_matmul(field, points, points.T) != 0).astype(int).tolist()
    counts, first = {}, {}
    chosen = []

    def recurse(start, weights):
        depth = len(chosen)
        missed = [w for w in weights if w != depth]
        if depth and len(missed) == len(weights):
            return
        low, high = min(missed, default=0), max(missed, default=0)
        if high - low > n_max - depth:
            return
        if depth >= n_min and low == high >= 1:
            key = _profiled_key(field, points, chosen, low, r)
            counts[key] = counts.get(key, 0) + 1
            first.setdefault(key, tuple(chosen))
        if depth < n_max:
            for i in range(start, P):
                chosen.append(i)
                recurse(i if not projective else i + 1,
                        list(map(operator.add, weights, hits[i])))
                chosen.pop()

    recurse(0, [0] * P)
    entries = [search._census_entry(
        key, first[key], count,
        search._repetition_annotation(first[key], key[0], key[1], q, r),
        points, q, r) for key, count in counts.items()]
    return sorted(entries, key=lambda e: (e.n, e.weights, not e.trivial))


def _collinear_masks(field, points):
    """[i][j]: the mask of the points collinear with points i != j (None
    when i == j).  A point k != i lies on the line through i and j iff the
    cross products i x k and i x j are proportional; each is scaled to
    lead with 1, in scalar field arithmetic."""
    mul = field.mul

    def line_key(u, v):
        line = [digit_add(mul(u[a], v[b]), mul(u[b], v[a]), field.p,
                          field.m, -1)
                for a, b in ((1, 2), (2, 0), (0, 1))]
        scale = field.inv(next(x for x in line if x))
        return tuple(mul(scale, x) for x in line)

    table = []
    for i, u in enumerate(points):
        keys = [line_key(u, v) if k != i else None
                for k, v in enumerate(points)]
        lines = {}
        for k, key in enumerate(keys):
            if key is not None:
                lines[key] = lines.get(key, 1 << i) | 1 << k
        table.append([lines[key] if key is not None else None
                      for key in keys])
    return table


def _lex_arc_count(q, size):
    """(count, first arc) of the arcs of a given size in PG(2, q), by
    lexicographic backtracking over every point, no frame fixed, with
    lines from :func:`_collinear_masks`."""
    p, m = prime_power(q)
    field = field_create(p, m)
    points = list(map(tuple, projective_points(field, 3).tolist()))
    pair_line = _collinear_masks(field, points)
    all_points = (1 << len(points)) - 1
    found = []
    count = 0

    def extend(arc, forbidden, start):
        nonlocal count
        if len(arc) == size:
            count += 1
            if not found:
                found.append(tuple(points[i] for i in arc))
            return
        free = ~forbidden & all_points >> start << start
        if free.bit_count() < size - len(arc):
            return
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            extra = low
            for j in arc:
                extra |= pair_line[i][j]
            extend(arc + [i], forbidden | extra, i + 1)

    extend([], 0, 0)
    return count, (found[0] if found else None)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_pair_line_is_the_collinear_set(q):
    """Every off-diagonal entry of the plane's line table is the set of
    points collinear with its two points: q + 1 of them."""
    p, m = prime_power(q)
    field = field_create(p, m)
    geom = PlaneGeometry(field)
    oracle = _collinear_masks(field, geom.points)
    n = len(geom.points)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert geom.pair_line[i][j] == oracle[i][j], (q, i, j)
                assert oracle[i][j].bit_count() == q + 1
    assert sorted(set(geom.line_mask)) == sorted(set(
        mask for row in oracle for mask in row if mask is not None))


def test_census_matches_naive_enumeration():
    """The incremental-pruning enumerator, which keeps one message per
    scalar class, agrees with a naive rescan of all q^r - 1 messages;
    GF(4) and GF(5) have classes of 3 and 4 messages."""
    cases = [(2, 2, 1, 2, 5, False), (2, 2, 1, 3, 6, False),
             (3, 3, 1, 2, 5, False), (4, 2, 2, 2, 5, False),
             (5, 5, 1, 2, 5, False), (3, 3, 1, 3, 6, True)]
    for (q, p, m, r, n_max, projective) in cases:
        combos = (itertools.combinations if projective
                  else itertools.combinations_with_replacement)
        naive = _naive_census(field_create(p, m), q, r, n_max, combos)
        mine = {}
        for e in search_antipodal_duals(q, r, n_max, projective=projective):
            key = (e.n, e.weights)
            mine[key] = mine.get(key, 0) + e.count
        assert mine == naive, (q, r, n_max, projective)


def test_census_finds_bose_bush():
    entries = search_antipodal_duals(4, 3, 6)
    bb = [e for e in entries if e.n == 6 and e.weights == (4, 6)]
    assert len(bb) == 1
    e = bb[0]
    assert e.count == 168          # hyperovals of PG(2,4)
    assert e.rho == 2 and e.completely_regular
    assert e.ia.b == (18, 15) and e.ia.c == (1, 6)
    assert any(f == "CR4" for f, _ in e.families)
    assert not e.trivial


def test_census_projective_flag():
    all_entries = search_antipodal_duals(2, 2, 4)
    proj_entries = search_antipodal_duals(2, 2, 4, projective=True)
    assert {(e.n, e.weights) for e in proj_entries} <= \
        {(e.n, e.weights) for e in all_entries}
    assert all(len(set(e.example_columns)) == e.n for e in proj_entries)


def test_census_budget_cap():
    with pytest.raises(budgets.BudgetExceeded):
        search_antipodal_duals(4, 4, 30)


def test_census_budget_counts_sets_when_projective():
    """A set census is sized by the sets on every searched level, not by
    the multiset count C(P + n_max - 1, n_max); PG(2, 2) has only 7
    points."""
    wide = search_antipodal_duals(2, 3, 60, projective=True)
    narrow = search_antipodal_duals(2, 3, 7, projective=True)
    assert wide == narrow


def test_census_budget_projective_counts_middle_levels():
    """C(40, 40) = 1, but the levels near n = 20 of PG(3, 3) hold about
    1.4e11 sets; the refusal must see them."""
    with pytest.raises(budgets.BudgetExceeded, match="column sets"):
        search_antipodal_duals(3, 4, 40, projective=True)


def test_classify_report_rendering():
    entries = search_antipodal_duals(2, 3, 6)
    lines = render_table(entries).splitlines()
    assert lines[0] == "#" + CENSUS_NOTE
    assert "families" in lines[1]
    assert len(lines) == 2 + len(entries)
    assert not any(e.unmatched for e in entries)


def test_census_deterministic():
    a = search_antipodal_duals(3, 3, 9)
    b = search_antipodal_duals(3, 3, 9)
    assert [(e.n, e.weights, e.count, e.families) for e in a] == \
        [(e.n, e.weights, e.count, e.families) for e in b]


def test_census_regularity_confirmed_by_brute_oracle():
    """Every census verdict at tiny parameters is re-derived on the full
    vector space, ignoring syndromes: profiled multisets, and at q = 2, 3
    and 4 column sets, whose verdicts come from Delsarte's theorem (each
    set census has one within reach: [4,1]_2, [9,6]_3 and [6,3]_4)."""
    for (q, r, n_max, projective) in [
            (2, 2, 4, False), (2, 3, 8, False), (3, 2, 5, False),
            (2, 3, 7, True), (3, 3, 9, True), (4, 3, 6, True)]:
        p, m = prime_power(q)
        f = field_create(p, m)
        checked = 0
        for e in search_antipodal_duals(q, r, n_max, projective=projective):
            if e.dual_k < 1 or q ** e.n > 1 << 16:
                continue
            checked += 1
            code = LinearCode(f, MatGF(f, list(zip(*e.example_columns))))
            brute = brute_subconstituents(code.dual())
            assert brute.rho == e.rho, (q, r, e.n)
            assert brute.is_completely_regular == e.completely_regular
            if e.ia is not None:
                assert brute.ia == e.ia
        assert checked, (q, r, n_max, projective)


def test_family_instances_rediscovered_in_census(family_grid):
    """Every grid instance inside the census budgets shows up."""
    census_cache = {}
    for entry in family_grid:
        tw = entry.tw
        q, r, n = tw.q, tw.k, tw.n
        if (q, r) not in [(2, 3), (2, 4), (3, 3), (4, 3)]:
            continue
        n_cap = {(2, 3): 8, (2, 4): 10, (3, 3): 9, (4, 3): 6}[(q, r)]
        if n > n_cap:
            continue
        if (q, r) not in census_cache:
            census_cache[(q, r)] = search_antipodal_duals(q, r, n_cap)
        found = [e for e in census_cache[(q, r)]
                 if e.n == n and e.weights == tuple(sorted(
                     entry.tw_wd.nonzero_weights))]
        assert found, entry.label


# q = 2...9, r = 1...4, sets and multisets, n_max = 0 and 2 included
COMPARISON_POINTS = [
    (2, 1, 4, False), (2, 2, 0, False), (3, 2, 2, False), (2, 2, 6, True),
    (3, 2, 6, False), (2, 3, 7, True), (2, 4, 8, True), (3, 3, 6, False),
    (3, 3, 8, True), (4, 2, 6, False), (4, 3, 5, False), (5, 2, 6, False),
    (5, 3, 5, False), (7, 2, 5, False), (8, 2, 6, True), (9, 2, 4, False),
    # the last census with one-byte weight fields, and the first with two
    (2, 2, 255, False), (2, 2, 256, False)]
# the census points of the benchmark
CLASSIFY_POINTS = [(2, 3, 8, False), (2, 4, 10, False), (3, 3, 9, False),
                   (4, 3, 7, False), (4, 3, 6, True), (5, 3, 6, True)]


@pytest.mark.parametrize("q,r,n_max,projective",
                         COMPARISON_POINTS + CLASSIFY_POINTS)
def test_reduced_census_matches_full_census(q, r, n_max, projective):
    """The fixed-basis census gives every entry field of the search over
    all tuples, counts and repetition annotations included; its example
    is the full search's whenever that one holds the standard basis."""
    reduced = search_antipodal_duals(q, r, n_max, projective=projective)
    full = _full_census(q, r, n_max, projective)

    def fields(e):
        return dataclasses.replace(e, example_columns=None)
    assert [fields(e) for e in reduced] == [fields(e) for e in full]
    basis = {tuple(int(i == j) for j in range(r)) for i in range(r)}
    for mine, theirs in zip(reduced, full):
        assert basis <= set(mine.example_columns)
        if basis <= set(theirs.example_columns):
            assert mine.example_columns == theirs.example_columns


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_frame_arc_count_matches_lex_count(q):
    """Fixing the frame and double counting under PGL(3, q) gives the
    count of the search over every point at every size, and the same
    first arc in both modes."""
    for size in range(q + 3):
        count, first = _lex_arc_count(q, size)
        res = search_arcs(q, size, count_all=True)
        assert (res.count, res.witness) == (count, first), (q, size)
        res = search_arcs(q, size)
        assert (res.exists, res.witness) == (count > 0, first), (q, size)


@pytest.mark.parametrize("q", [9, 11])
def test_oval_counts_beyond_lex_reach(q):
    """Segre's q^2 (q^3 - 1) conics at odd q past the lexicographic
    search's reach."""
    assert search_arcs(q, q + 1, count_all=True).count == q * q * (q ** 3 - 1)


def test_hyperoval_count_q8(capsys):
    """PG(2, 8) has 32704 hyperovals, and the CLI prints that count."""
    assert search_arcs(8, 10, count_all=True).count == 32704
    assert cli.main(["search", "arcs", "--q", "8", "--size", "10",
                     "--count"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["exists: true", "canonical arcs of size 10: 32704"]
    assert lines[2].startswith("witness: (0, 0, 1) (0, 1, 0) (1, 0, 0) (1, 1, 1)")


@pytest.mark.parametrize("q,r,n_max,projective",
                         [(5, 3, 8, False), (2, 5, 10, True)])
def test_census_admits_reduced_points(q, r, n_max, projective):
    """Points refused while the cap sized every tuple now run."""
    search_antipodal_duals(q, r, n_max, projective=projective)


def test_census_refuses_q8_hyperoval_before_searching(monkeypatch, capsys):
    """(8, 3, 10 --projective) still needs C(70, n - 3) basis-holding sets
    per level; the refusal states that count and builds nothing first."""
    reduced = sum(math.comb(70, n - 3) for n in range(3, 11))

    def no_points(*args):
        raise AssertionError("the census built its points before refusing")
    monkeypatch.setattr(search, "projective_points", no_points)
    with pytest.raises(budgets.BudgetExceeded, match=f"about {reduced} "):
        search_antipodal_duals(8, 3, 10, projective=True)
    assert cli.main(["search", "classify", "--q", "8", "--r", "3",
                     "--n-max", "10", "--projective"]) == 1
    assert capsys.readouterr().err.startswith("error: census would scan ")


def test_census_rejects_non_integral_orbit_count(monkeypatch):
    """A tuple count that breaks the double counting is an error, not a
    rounded count."""
    monkeypatch.setattr(search, "_independent_tuples", lambda *a: 5)
    with pytest.raises(SymmetryCountError, match="not an integer"):
        search_antipodal_duals(2, 3, 4)


def test_census_rejects_key_with_two_annotations(monkeypatch):
    """Survivors of one key must share their repetition annotation."""
    calls = itertools.count()
    monkeypatch.setattr(search, "_repetition_annotation",
                        lambda *a: (next(calls),))
    with pytest.raises(SymmetryCountError, match="repetition annotations"):
        search_antipodal_duals(4, 3, 6, projective=True)


def test_census_charges_its_incidence_table():
    """One basis-holding tuple of PG(12, 2) is cheap, but the census
    would first build its 8191^2 point/message table."""
    with pytest.raises(budgets.BudgetExceeded, match="incidence table"):
        search_antipodal_duals(2, 13, 13)


def test_census_refuses_depth_past_its_weight_fields():
    """PG(0, 2) has one point, and its chain of nodes would reach depth
    2^64, past the widest weight field; that refusal comes before the
    multiset count is taken."""
    with pytest.raises(budgets.BudgetExceeded, match=f"depth {1 << 64},"):
        search_antipodal_duals(2, 1, 1 << 64)


def test_census_set_level_sum_stops_at_the_point_count(capsys):
    """A set census has no level past n = P, so PG(0, 2) with a huge n_max
    sums one level and walks one node instead of summing 10^12 terms."""
    assert search_antipodal_duals(2, 1, 10 ** 12, projective=True) == []
    assert cli.main(["search", "classify", "--q", "2", "--r", "1",
                     "--n-max", str(10 ** 12), "--projective"]) == 0


def test_census_set_weight_fields_stop_at_the_point_count():
    """A set holds at most P columns, so a set census sizes its weight
    fields by min(n_max, P): PG(0, 2) with n_max = 2^64 walks its one
    node instead of being refused as past the widest field."""
    assert search_antipodal_duals(2, 1, 1 << 64, projective=True) == \
        search_antipodal_duals(2, 1, 1, projective=True)


@pytest.mark.parametrize("q,r", [(2, 3), (3, 3)])
def test_census_set_entries_past_the_point_count(q, r):
    """With P < 256 <= n_max the set census keeps one-byte weight fields
    and gives the entries of n_max = P."""
    P = (q ** r - 1) // (q - 1)
    assert search_antipodal_duals(q, r, 256, projective=True) == \
        search_antipodal_duals(q, r, P, projective=True)


def test_census_multiset_count_covers_every_level(monkeypatch, capsys):
    """The multisets of PG(0, 2) that hold its point number one per level,
    C(P + n_max - r, n_max - r) = n_max in all, so a chain of 10^12 nodes
    is refused before any table is built."""
    def no_points(*args):
        raise AssertionError("the census built its points before refusing")
    monkeypatch.setattr(search, "projective_points", no_points)
    with pytest.raises(budgets.BudgetExceeded,
                       match=f"about {10 ** 12} column multisets "):
        search_antipodal_duals(2, 1, 10 ** 12)
    assert cli.main(["search", "classify", "--q", "2", "--r", "1",
                     "--n-max", str(10 ** 12)]) == 1
    assert capsys.readouterr().err.startswith("error: census would scan ")


@pytest.mark.parametrize("q,r,n_max,regular", [
    (4, 3, 6, [6]), (7, 3, 6, []), (5, 2, 6, [3, 4, 5])])
def test_census_sets_take_delsarte_arrays(monkeypatch, q, r, n_max, regular):
    """Every column set's dual has d >= 3 and a two-weight dual, so its
    rho and array come from Delsarte's theorem: a set census builds no
    profile at all.  ``regular`` lists the lengths of its completely
    regular entries."""
    def no_profile(*args):
        raise AssertionError("a column set's dual was profiled")
    monkeypatch.setattr(regularity, "complete_regularity", no_profile)
    entries = search_antipodal_duals(q, r, n_max, projective=True)
    assert [e.n for e in entries if e.completely_regular] == regular
    assert all(e.rho == 2 and e.ia.rho == 2 for e in entries
               if e.completely_regular)


def test_census_profiles_only_repeated_columns(monkeypatch):
    """A multiset census profiles the dual of exactly its survivors with
    a repeated column and dual dimension >= 1."""
    keyed, profiled = [], []
    census_key = search._census_key

    def recording_key(field, points, chosen, d, r):
        keyed.append(chosen)
        return census_key(field, points, chosen, d, r)

    def counting_profile(code):
        profiled.append(code)
        return complete_regularity(code)
    monkeypatch.setattr(search, "_census_key", recording_key)
    monkeypatch.setattr(regularity, "complete_regularity", counting_profile)
    search_antipodal_duals(2, 3, 8)
    repeated = [c for c in keyed if len(set(c)) < len(c) and len(c) > 3]
    assert repeated and len(repeated) < len(keyed)
    assert len(profiled) == len(repeated)
