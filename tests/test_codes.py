import itertools
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from conftest import (column_point_counts, min_distance, normalize_point,
                      row_space_equal)
from oracles import (concatenate, equidistant_check, field_matmul, krawtchouk,
                     tuple_span)

from crlab import budgets, codes, matrix
from crlab.codes import (CodewordMatrix, LinearCode, complementary_code,
                         complementary_generator, is_antipodal_two_weight,
                         is_projective, krawtchouk_column,
                         macwilliams, max_column_multiplicity,
                         point_index, projective_dual_transform,
                         projective_points, WeightDistribution)
from crlab.families import cr4_bose_bush, random_code
from crlab.field import field_create, prime_power, span
from crlab.regularity import brute_subconstituents
from crlab.matrix import MatGF


def bose_bush_4():
    f = field_create(2, 2)
    cols = [(1, t, f.mul(t, t)) for t in range(4)] + [(0, 1, 0), (0, 0, 1)]
    return LinearCode(f, MatGF(f, list(zip(*cols))))


def test_dual_repetition_even_weight():
    f = field_create(2, 1)
    rep = LinearCode.from_rows(f, [(1, 1, 1, 1)])
    ew = rep.dual()
    assert (ew.n, ew.k) == (4, 3)
    assert ew.weight_distribution().counts == (1, 0, 6, 0, 1)
    assert row_space_equal(ew.dual().G, rep.G)


def test_double_dual_row_space():
    for code in (bose_bush_4(),
                 LinearCode.from_rows(field_create(3, 1),
                                      [(1, 1, 1, 0), (0, 1, 2, 1)])):
        assert row_space_equal(code.dual().dual().G, code.G)


def test_dual_link_is_identity_while_the_original_lives():
    """The code -> dual link is strong and the dual -> code link weak:
    identity both ways while the original is held, the same row space
    (eliminated afresh) once only the dual is."""
    code = bose_bush_4()
    dual = code.dual()
    assert dual.dual() is code and code.dual() is dual
    assert dual.dual().dual() is dual

    original = MatGF(code.field, code.G.rows)
    gone = weakref.ref(code)
    del code
    assert gone() is None       # freed at once: no cycle holds it
    again = dual.dual()
    assert row_space_equal(again.G, original)
    assert again.dual() is dual and dual.dual() is again


def test_bose_bush_weight_distribution():
    wd = bose_bush_4().weight_distribution()
    assert wd.sparse() == {0: 1, 4: 45, 6: 18}
    assert wd.d == 4 and wd.s_count == 2


def test_bose_bush_dual_distance():
    dual = bose_bush_4().dual()
    assert dual.k == 3
    assert dual.weight_distribution().d == 4


def test_weight_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution((2, 0, 1), q=2, k=1)   # A_0 != 1
    with pytest.raises(ValueError):
        WeightDistribution((1, 0, 0), q=2, k=1)   # sum != q^k


def test_macwilliams_known_pairs():
    full = WeightDistribution((1, 3, 3, 1), q=2, k=3)   # full space [3,3]
    dual = macwilliams(full, 3, 3, 2)
    assert dual.counts == (1, 0, 0, 0)

    ew = WeightDistribution((1, 0, 6, 0, 1), q=2, k=3)
    assert macwilliams(ew, 4, 3, 2).counts == (1, 0, 0, 0, 1)


def test_macwilliams_round_trip_bose_bush():
    bb = bose_bush_4()
    wd = bb.weight_distribution()
    dual_wd = bb.dual().weight_distribution()
    assert macwilliams(wd, 6, 3, 4) == dual_wd
    assert macwilliams(dual_wd, 6, 3, 4) == wd


def test_macwilliams_rejects_inconsistent():
    bad = WeightDistribution((1, 2, 0, 1, 0), q=2, k=2)
    with pytest.raises(ValueError):
        macwilliams(bad, 4, 2, 2)
    negative = WeightDistribution((1, 0, 3), q=2, k=2)  # B = (1, -1, 1)
    with pytest.raises(ValueError, match="negative"):
        macwilliams(negative, 2, 2, 2)


def test_krawtchouk_recurrence_matches_binomial_sum():
    """The transform's recurrence columns equal the closed-form sum."""
    for q in (2, 3, 4, 5, 8):
        for n in range(41):
            for i in range(n + 1):
                assert krawtchouk_column(n, q, i) == \
                    [krawtchouk(n, q, j, i) for j in range(n + 1)], (n, q, i)


def test_antipodal_predicate():
    hadamard = WeightDistribution((1, 0, 0, 0, 14, 0, 0, 0, 1), q=2, k=4)
    assert is_antipodal_two_weight(hadamard, 8) is True
    assert hadamard.d == 4

    ew = WeightDistribution((1, 0, 6, 0, 1), q=2, k=3)
    assert is_antipodal_two_weight(ew, 4) is True
    assert ew.d == 2

    # equidistant simplex-type: a single weight is not two-weight
    f5 = field_create(5, 1)
    simplex = LinearCode.from_rows(
        f5, [(1, 1, 1, 1, 1, 1), (0, 1, 2, 3, 4, 5 % 5)])
    wd = simplex.weight_distribution()
    if wd.s_count == 1:
        assert is_antipodal_two_weight(wd, simplex.n) is False


def test_is_projective():
    assert is_projective(bose_bush_4())
    f = field_create(2, 2)
    rep_col = LinearCode.from_rows(f, [(1, 1, 0), (0, 0, 1)])
    assert not is_projective(rep_col)
    scal = LinearCode.from_rows(f, [(1, 2, 0), (0, 0, 1)])
    assert not is_projective(scal)  # column 2 = alpha * column 1
    zero_col = LinearCode.from_rows(f, [(1, 0, 0), (0, 0, 1)])
    assert not is_projective(zero_col)


def test_is_projective_matches_scalar_normalization(family_grid):
    """The vectorized test agrees with normalizing one column at a time,
    on every grid side and on random codes with zero, repeated and
    scaled columns."""
    def oracle(code):
        reps = [normalize_point(code.field, col)
                for col in code.G.rows.T.tolist()]
        return None not in reps and len(set(reps)) == len(reps)

    codes_ = [c for e in family_grid for c in (e.tw, e.cr)]
    for (p, m), n, k in [((2, 1), 7, 3), ((3, 1), 6, 2), ((2, 2), 5, 2),
                         ((5, 1), 4, 2), ((2, 3), 9, 3)]:
        f = field_create(p, m)
        for seed in range(6):
            G = random_code(f, n, k, seed).G.rows
            codes_ += [LinearCode(f, MatGF(f, G)),
                       LinearCode(f, MatGF(f, np.hstack([G, G[:, :1]]))),
                       LinearCode(f, MatGF(f, np.hstack(
                           [G, f.mul_array(f.q - 1, G[:, 1:2])]))),
                       LinearCode(f, MatGF(f, np.hstack(
                           [G, np.zeros((k, 1), dtype=int)])))]
    codes_.append(LinearCode(field_create(2, 1),
                             MatGF.identity(field_create(2, 1), 3)).dual())
    verdicts = [is_projective(c) for c in codes_]
    assert verdicts == [oracle(c) for c in codes_]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("p,m,k", [(2, 1, 1), (2, 1, 2), (2, 1, 5), (3, 1, 3),
                                   (5, 1, 3), (7, 1, 2), (2, 2, 3), (2, 3, 3),
                                   (3, 2, 2), (2, 2, 4), (2, 2, 1), (3, 1, 1),
                                   (5, 1, 2), (2, 3, 2), (3, 1, 4), (5, 1, 4),
                                   (2, 3, 4), (3, 2, 3), (13, 1, 2)])
def test_projective_points_are_the_sorted_normalized_vectors(p, m, k):
    """The canonical point array is the sorted set of normalized nonzero
    vectors, row for row."""
    f = field_create(p, m)
    want = sorted({normalize_point(f, v)
                   for v in itertools.product(range(f.q), repeat=k) if any(v)})
    points = projective_points(f, k)
    assert points.dtype == f.dtype and points.shape == (len(want), k)
    assert list(map(tuple, points.tolist())) == want
    assert len(want) == (f.q ** k - 1) // (f.q - 1)


def test_projective_points_budget_counts_points(monkeypatch):
    """PG(2, 32) has 1057 points; enumerating them needs no budget for
    the 32768 vectors of GF(32)^3."""
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, "1057")
    assert len(projective_points(field_create(2, 5), 3)) == 1057
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, "1056")
    with pytest.raises(budgets.BudgetExceeded):
        projective_points(field_create(2, 5), 3)


def _complement_oracle(G, s) -> list:
    """The complementary columns of G at s by the dict of column points,
    with the library's error texts: the first zero column, the first
    over-full point, an empty completion."""
    f = G.field
    mult = column_point_counts(f, G)
    over = [p for p, c in mult.items() if c > s]
    if over:
        raise ValueError(f"point {over[0]} occurs {mult[over[0]]} times, "
                         f"more than s = {s}")
    points = sorted({normalize_point(f, v) for v in itertools.product(
        range(f.q), repeat=G.nrows) if any(v)})
    cols = [list(p) for p in points for _ in range(s - mult.get(p, 0))]
    if not cols:
        raise ValueError("degenerate: n_c = 0 (nothing left to complete)")
    return cols


def _outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _column_multisets(family_grid):
    """Generators of both grid sides, and seeded multisets of columns with
    repeated, scaled and zero columns over several fields."""
    out = [c.G for e in family_grid for c in (e.tw, e.cr)]
    rng = np.random.default_rng(23)
    for (p, m), k in [((2, 1), 3), ((3, 1), 2), ((2, 2), 3), ((5, 1), 2),
                      ((2, 3), 2), ((3, 2), 3), ((7, 1), 1)]:
        f = field_create(p, m)
        for _ in range(8):
            G = rng.integers(0, f.q, size=(k, int(rng.integers(1, 9))))
            picks = rng.integers(0, G.shape[1], size=int(rng.integers(0, 4)))
            scales = rng.integers(1, f.q, size=(1, len(picks)))
            extra = [G[:, picks], f.mul_array(G[:, picks], scales)]
            if rng.random() < 0.3:
                extra.append(np.zeros((k, 1), dtype=np.intp))
            G = np.hstack([G] + extra)
            out.append(MatGF(f, G[:, rng.permutation(G.shape[1])]))
    return out


def test_column_points_match_dict_oracle(family_grid):
    """is_projective, max_column_multiplicity and complementary_generator
    agree with the dict of normalized columns on both grid sides and on
    seeded multisets with repeated, scaled and zero columns, errors and
    their texts included.  The complement is compared where PG(k-1, q)
    has at most 2^12 points, at the smallest feasible s and one below."""
    checked = 0
    for G in _column_multisets(family_grid):
        f = G.field
        try:
            mult = column_point_counts(f, G)
            want = max(mult.values())
        except ValueError as exc:
            mult, want = None, f"ValueError: {exc}"
        assert _outcome(max_column_multiplicity, G) == want
        if G.rank == G.nrows:
            code = LinearCode(f, G)
            assert is_projective(code) == (
                mult is not None and set(mult.values()) == {1})
            assert _outcome(max_column_multiplicity, code) == want
        if f.q ** G.nrows > 1 << 12:
            continue
        for s in ({want, want - 1} if mult is not None else {1}):
            got = _outcome(complementary_generator, G, s)
            if not isinstance(got, str):
                got = got.rows.T.tolist()
            assert got == _outcome(_complement_oracle, G, s), (G.rows, s)
            checked += 1
    assert checked >= 100


def test_column_points_past_int64_packing():
    """Over GF(2^20) with k = 5, q^k = 2^100: the column kernel sorts rows
    and never packs one into an integer, so repeated and scaled columns
    are still found, and the error texts still name the first zero
    column and the first over-full point."""
    f = field_create(2, 20)
    rng = np.random.default_rng(20)
    G = rng.integers(1, f.q, size=(5, 9))
    dup = np.hstack([G, G[:, 4:5], f.mul_array(G[:, 2:3], 12345),
                     f.mul_array(G[:, 4:5], f.q - 1)])
    oracle = column_point_counts(f, MatGF(f, dup))
    assert sorted(oracle.values()) == [1] * 7 + [2, 3]
    assert is_projective(LinearCode(f, MatGF(f, G)))
    assert not is_projective(LinearCode(f, MatGF(f, dup)))
    assert max_column_multiplicity(MatGF(f, G)) == 1
    assert max_column_multiplicity(MatGF(f, dup)) == 3
    over = next(p for p, c in oracle.items() if c > 1)
    with pytest.raises(ValueError) as exc:
        complementary_generator(MatGF(f, dup), 1)
    assert str(exc.value) == \
        f"point {over} occurs {oracle[over]} times, more than s = 1"
    zero = np.hstack([dup[:, :3], np.zeros((5, 1), dtype=np.intp), dup])
    with pytest.raises(ValueError, match="^generator column 3 is zero$"):
        max_column_multiplicity(MatGF(f, zero))


def test_complementary_bose_bush():
    bb = bose_bush_4()
    cc = complementary_code(bb, 1)
    assert (cc.n, cc.k) == (15, 3)
    wd = cc.weight_distribution()
    assert wd.sparse() == {0: 1, 10: 18, 12: 45}
    # d + d_c + delta = s q^(k-1)
    assert 4 + 10 + 2 == 16
    cat = concatenate(bb, cc)
    assert equidistant_check(cat) == 16


def test_complementary_weight_sums_exhaustive():
    bb = bose_bush_4()
    cc = complementary_code(bb, 1)
    bb_words = tuple_span(bb.field, bb.G.rows, bb.n)
    cc_words = tuple_span(cc.field, cc.G.rows, cc.n)
    for a, b in zip(bb_words, cc_words):
        assert sum(1 for x in a + b if x) in (0, 16)


def test_complementary_degenerate_full_point_set():
    f = field_create(2, 1)
    # all three points of PG(1,2) as columns
    code = LinearCode.from_rows(f, [(1, 0, 1), (0, 1, 1)])
    with pytest.raises(ValueError, match="n_c = 0"):
        complementary_code(code, 1)


def test_complementary_s2_repeated_point():
    f = field_create(2, 1)
    # column multiset {P, P} with k = 2, s = 2: the generator is rank
    # deficient, so the construction runs at the message-space level
    G = MatGF(f, [(1, 1), (0, 0)])
    assert max_column_multiplicity(G) == 2
    G_c = complementary_generator(G, 2)
    assert G_c.ncols == 2 * 3 - 2 == 4
    # wt(vG) + wt(vG_c) = s * q^(k-1) = 4 for all three nonzero messages
    for v in [(0, 1), (1, 0), (1, 1)]:
        wa = sum(1 for col in G.rows.T.tolist() if _dot(f, v, col))
        wb = sum(1 for col in G_c.rows.T.tolist() if _dot(f, v, col))
        assert wa + wb == 4


def _dot(f, v, col):
    acc = 0
    for a, b in zip(v, col):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


def test_complementary_multiplicity_error():
    f = field_create(2, 1)
    G = MatGF(f, [(1, 1), (0, 0)])
    with pytest.raises(ValueError, match="more than s"):
        complementary_generator(G, 1)


def test_projective_dual_transform_bose_bush():
    bb = bose_bush_4()
    out = projective_dual_transform(bb, Fraction(1, 2), Fraction(-2))
    assert out.n == 6
    assert set(out.weight_distribution().nonzero_weights) == {4, 6}


def test_projective_dual_transform_constant():
    bb = bose_bush_4()
    out = projective_dual_transform(bb, Fraction(0), Fraction(1))
    assert out.n == (4 ** 3 - 1) // 3 == 21
    assert equidistant_check(out) == 4 ** 2
    # same property over an odd-characteristic field
    f5 = field_create(5, 1)
    code = LinearCode.from_rows(f5, [(1, 1, 1, 1), (0, 1, 2, 3)])
    out5 = projective_dual_transform(code, Fraction(0), Fraction(1))
    assert out5.n == (5 ** 2 - 1) // 4 == 6
    assert equidistant_check(out5) == 5


def test_projective_dual_transform_q8():
    from crlab.families import cr4_bose_bush
    bb8 = cr4_bose_bush(8).two_weight_code
    out = projective_dual_transform(bb8, Fraction(1, 2), Fraction(-4))
    assert out.n == 28 and out.k == 3
    # length = (number of full-weight words) / (q - 1)
    full_count = bb8.weight_distribution().counts[10]
    assert out.n == full_count // 7


def test_projective_dual_transform_errors():
    bb = bose_bush_4()
    with pytest.raises(ValueError, match="not a nonnegative integer"):
        projective_dual_transform(bb, Fraction(1, 3), Fraction(0))
    f = field_create(2, 2)
    nonproj = LinearCode.from_rows(f, [(1, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="projective"):
        projective_dual_transform(nonproj, Fraction(1), Fraction(0))


def transform_oracle(code, a, b) -> MatGF:
    """The projective dual transform one point at a time, in exact
    Fractions, over the points listed lead by lead in product order."""
    f, k = code.field, code.k
    points = [(0,) * lead + (1,) + tail for lead in range(k - 1, -1, -1)
              for tail in itertools.product(range(f.q), repeat=k - 1 - lead)]
    weights = np.count_nonzero(field_matmul(f, points, code.G.rows), axis=1)
    cols = []
    for p, w in zip(points, weights.tolist()):
        m = a * w + b
        if m.denominator != 1 or m < 0:
            raise ValueError(
                f"multiplicity a*w + b = {m} for point {p} (weight {w}) "
                f"is not a nonnegative integer")
        cols.extend([p] * int(m))
    return MatGF(f, np.transpose(cols))


@pytest.mark.parametrize("a,b", [
    (Fraction(1, 3), Fraction(0)),      # weight 4 fails, weight 6 gives 2
    (Fraction(1, 7), Fraction(0)),      # both weights fail
    (Fraction(1), Fraction(-5)),        # weight 4 goes negative
    (Fraction(-1), Fraction(5)),        # weight 6 goes negative
], ids=["non-integral", "all-non-integral", "negative-low", "negative-high"])
def test_projective_dual_transform_error_names_first_point(a, b):
    """Multiplicities are taken once per distinct weight, but a failure
    names the first failing point in point order, as the per-point
    oracle does, with the same text."""
    bb = bose_bush_4()
    with pytest.raises(ValueError) as want:
        transform_oracle(bb, a, b)
    with pytest.raises(ValueError) as got:
        projective_dual_transform(bb, a, b)
    assert str(got.value) == str(want.value)


def test_min_distance_and_equidistant():
    f = field_create(2, 1)
    rep = LinearCode.from_rows(f, [(1, 1, 1, 1)])
    assert min_distance(rep) == 4
    assert equidistant_check(rep) == 4
    m = CodewordMatrix(f, [(0, 0, 1), (1, 1, 0), (1, 0, 1)])
    assert equidistant_check(m) is None


def low_weight_min_distance(code, w_max):
    """Smallest nonzero codeword weight <= w_max, by searching all supports
    of size <= w_max; None if every codeword below that weight is zero.

    Independent of the weight-distribution path: candidates are checked by
    parity alone, so this also works when q^k is far over the enumeration
    budget.  The first nonzero value is fixed to 1, since weights are
    invariant under global scaling."""
    f = code.field
    H = code.dual().G
    if H.nrows == 0:
        return 1 if code.n >= 1 else None
    hcols = H.rows.T.tolist()
    r = H.nrows
    for w in range(1, w_max + 1):
        for support in itertools.combinations(range(code.n), w):
            for rest in itertools.product(range(1, f.q), repeat=w - 1):
                syn = [0] * r
                for pos, val in zip(support, (1,) + rest):
                    col = hcols[pos]
                    for i in range(r):
                        if col[i]:
                            syn[i] = f.add(syn[i], f.mul(val, col[i]))
                if not any(syn):
                    return w
    return None


def test_min_distance_macwilliams_path():
    """[28,25]_8 is far over the direct budget; the dual side carries it.
    The bounded-weight search independently confirms the result."""
    from crlab.families import cr6_denniston
    cr = cr6_denniston(8, 4).cr_code
    assert (cr.n, cr.k) == (28, 25)
    d = min_distance(cr)
    assert d == low_weight_min_distance(cr, 4) == 3


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, "100")
    f = field_create(2, 1)
    code = LinearCode.from_rows(
        f, [[1 if i == j else 0 for j in range(10)] for i in range(8)])
    with pytest.raises(budgets.BudgetExceeded, match=budgets.ENUM_BUDGET_VAR):
        code.weight_distribution()
    # the auto path falls back to the 2-dimensional dual
    wd = code.weight_distribution_auto()
    assert sum(wd.counts) == 2 ** 8
    # the reverse order: the auto path's transform must not stand in for
    # a direct enumeration afterwards
    code = LinearCode.from_rows(
        f, [[1 if i == j else 0 for j in range(10)] for i in range(8)])
    assert code.weight_distribution_auto() == wd
    with pytest.raises(budgets.BudgetExceeded, match=budgets.ENUM_BUDGET_VAR):
        code.weight_distribution()


def test_auto_enumerates_the_smaller_side(monkeypatch):
    weight_counts = codes._weight_counts
    sides = []

    def counting(field, G):
        sides.append(field.q ** G.nrows)
        return weight_counts(field, G)

    monkeypatch.setattr(codes, "_weight_counts", counting)
    inst = cr4_bose_bush(8)
    cr = inst.cr_code                        # [10,7]_8
    wd = cr.weight_distribution_auto()
    assert sides == [8 ** 3]
    assert wd == macwilliams(inst.two_weight_code.weight_distribution(),
                             10, 3, 8)
    # k = n - k: the code itself is enumerated
    f = field_create(2, 1)
    half = LinearCode.from_rows(f, [(1, 1, 0, 0), (0, 0, 1, 1)])
    sides.clear()
    assert half.weight_distribution_auto().counts == (1, 0, 2, 0, 1)
    assert sides == [4] and half._dual is None


def _counts_from_codewords(code):
    counts = [0] * (code.n + 1)
    for w in tuple_span(code.field, code.G.rows, code.n):
        counts[sum(1 for x in w if x)] += 1
    return tuple(counts)


def _kernel_cases():
    """Seeded random codes with q^k <= 2^12, plus k = 0, k = 1, k = n and
    a zero column."""
    cases = []
    for i, (p, m) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                (2, 3), (3, 2), (5, 2), (3, 3)]):
        f = field_create(p, m)
        for j in range(4):
            n = 3 + (i + j) % 7
            k = 1 + j % n
            while f.q ** k > 1 << 12:
                k -= 1
            cases.append(random_code(f, n, k, seed=100 * i + j))
        cases.append(LinearCode(f, MatGF(f, np.zeros((0, 4), dtype=int))))
        cases.append(random_code(f, 5, 1, seed=i))
        k = 1
        while f.q ** (k + 1) <= 1 << 12 and k < 4:
            k += 1
        cases.append(LinearCode(f, MatGF.identity(f, k)))
        rows = random_code(f, 5, 2, seed=50 + i).G.rows.tolist()
        zero_col = [row[:2] + [0] + row[2:] for row in rows]
        cases.append(LinearCode.from_rows(f, zero_col))
    return cases


def test_weight_kernel_matches_codewords(family_grid):
    """The one-message-per-scalar-class kernel against counts taken from
    every codeword, on the grid sides with q^k <= 2^12 and on random
    codes over GF(2, 3, 4, 5, 7, 8, 9, 25, 27)."""
    checked = 0
    for entry in family_grid:
        for code in (entry.tw, entry.cr):
            if code.q ** code.k <= 1 << 12:
                assert code.weight_distribution().counts == \
                    _counts_from_codewords(code), entry.label
                checked += 1
    assert checked >= 30
    for code in _kernel_cases():
        assert code.weight_distribution().counts == \
            _counts_from_codewords(code), code


@pytest.mark.parametrize("cells", [1, 7, 40])
def test_weight_kernel_head_tail_split(monkeypatch, cells):
    """A small block forces prefix walks over several leading rows."""
    monkeypatch.setattr(codes, "_BLOCK_CELLS", cells)
    for code in _kernel_cases():
        if code.q ** code.k <= 1 << 10:
            fresh = LinearCode(code.field, code.G)
            assert fresh.weight_distribution().counts == \
                _counts_from_codewords(code), code


def test_codewords_match_tuple_span(family_grid, monkeypatch):
    """The rows of field.span are the tuple oracle's words, in its order
    (row 0 most significant), on the grid sides with q^k <= 2^12 and the
    random kernel cases.  The brute-force oracle, which starts from those
    rows, is charged q^k words."""
    codes_ = [c for entry in family_grid for c in (entry.tw, entry.cr)
              if c.q ** c.k <= 1 << 12] + _kernel_cases()
    for code in codes_:
        got = list(map(tuple, span(code.field, code.G.rows).tolist()))
        assert got == tuple_span(code.field, code.G.rows, code.n), code
    bb = bose_bush_4()
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, str(4 ** 3 - 1))
    with pytest.raises(budgets.BudgetExceeded, match="enumerating"):
        brute_subconstituents(bb)
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, str(4 ** 3))
    assert brute_subconstituents(bb).levels.size == 4 ** 6


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_point_index_is_the_row_position(q):
    """point_index gives every point of PG(k-1, q) its row position in
    projective_points, for k = 1 .. 4."""
    f = field_create(*prime_power(q))
    for k in range(1, 5):
        points = projective_points(f, k)
        assert point_index(q, points).tolist() == list(range(len(points)))


def _point_words_oracle(code):
    """The words of every point of PG(k-1, q), in point order, as one
    product of the point matrix with the generator."""
    points = projective_points(code.field, code.k)
    return field_matmul(code.field, points, code.G.rows)


def _point_word_cases():
    """Seeded random generators over q in {2, 3, 4, 5, 7, 8, 9} for each
    k in 1..4, with a zero column in every other one."""
    cases = []
    for i, (p, m) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                (2, 3), (3, 2)]):
        f = field_create(p, m)
        for k in range(1, 5):
            code = random_code(f, k + 2 + (i + k) % 4, k, seed=10 * i + k)
            if (i + k) % 2:
                rows = code.G.rows.tolist()
                code = LinearCode.from_rows(
                    f, [row[:1] + [0] + row[1:] for row in rows])
            cases.append(code)
    return cases


@pytest.mark.parametrize("cells", [None, 1, 7, 40])
def test_point_words_match_the_point_product(monkeypatch, cells):
    """point_words, concatenated, equals the product of every point of
    PG(k-1, q) with G, row for row.  Small blocks split the span into
    prefix words over one to all of the leading rows; every block holds
    at most _BLOCK_CELLS cells, or one word."""
    if cells is not None:
        monkeypatch.setattr(codes, "_BLOCK_CELLS", cells)
    shapes = set()
    for code in _point_word_cases():
        blocks = list(codes.point_words(code.field, code.G.rows))
        for block in blocks:
            assert block.size <= max(codes._BLOCK_CELLS, code.n), code
        got = np.concatenate(blocks)
        assert got.tolist() == _point_words_oracle(code).tolist(), code
        shapes.add((code.k, len(blocks) == len(got)))
    # the default block spans all but the first row; the small ones leave
    # one word per block somewhere at k = 4
    assert (4, cells is not None) in shapes


def test_point_words_of_no_rows():
    """k = 0 has no points, so no words."""
    f = field_create(3, 1)
    assert list(codes.point_words(f, np.zeros((0, 4), dtype=int))) == []


def test_weight_kernel_memory_is_bounded():
    """2^20 words in bounded memory: the [40,20]_2 distribution equals the
    MacWilliams transform of its dual's."""
    code = random_code(field_create(2, 1), 40, 20, seed=3)
    dual_wd = code.dual().weight_distribution()
    tracemalloc.start()
    try:
        wd = code.weight_distribution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wd == macwilliams(dual_wd, 40, 20, 2)
    assert peak < 32 << 20


def test_dual_pairs_share_one_elimination(family_grid, monkeypatch):
    """C^perp^perp is C itself, and the null-space basis carries the rank
    the construction certifies: no elimination runs on it."""
    for entry in family_grid:
        assert entry.tw.dual() is entry.cr and entry.cr.dual() is entry.tw
        fresh = MatGF(entry.cr.field, entry.cr.G.rows)
        assert entry.cr.G.rank == fresh.rank == entry.cr.k, entry.label

    rref = matrix._rref
    calls = []

    def counting(f, rows, ncols):
        calls.append(len(rows))
        return rref(f, rows, ncols)

    monkeypatch.setattr(matrix, "_rref", counting)
    for i, (p, m) in enumerate([(3, 1), (5, 1), (7, 1), (3, 2)] * 3):
        f = field_create(p, m)
        n = 4 + i % 4
        code = random_code(f, n, 1 + i % (n - 1), seed=700 + i)
        calls.clear()                       # G's RREF is cached by now
        dual = code.dual()
        assert dual.dual() is code
        assert dual.G.rank == n - code.k and calls == []
        assert MatGF(f, dual.G.rows).rank == n - code.k


def test_projective_iff_dual_distance_3(family_grid):
    for entry in family_grid:
        proj = is_projective(entry.tw)
        d_dual = entry.cr.weight_distribution_auto().d
        assert proj == (d_dual >= 3), entry.label
