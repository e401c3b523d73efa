from fractions import Fraction

import numpy as np
import pytest
from conftest import min_distance, row_space_equal
from oracles import (antipodal_form_check, bush_closed_form_matrix,
                     codeword_matrix, simplex_partition, tuple_span)
from test_acceptance import expected_ia
from test_codes import transform_oracle

from crlab.codes import CodewordMatrix, is_projective
from crlab.diffmat import (difference_matrix, dm_code, is_additive_group,
                           is_difference_matrix)
from crlab.families import (cr1_extended_hamming, cr2_dm_dual, cr3_mds_dual,
                            cr4_bose_bush, cr5_delsarte, cr6_denniston,
                            denniston_quadratic_c, family_match,
                            random_multiweight_code)
from crlab.field import field_create
from crlab.codes import LinearCode
from crlab.matrix import MatGF
from crlab.regularity import complete_regularity, delsarte_ia


def test_cr1_shapes():
    inst = cr1_extended_hamming(3)
    assert (inst.two_weight_code.n, inst.two_weight_code.k) == (8, 4)
    assert (inst.cr_code.n, inst.cr_code.k) == (8, 4)
    assert min_distance(inst.cr_code) == 4
    assert inst.two_weight_code.weight_distribution().sparse() == \
        {0: 1, 4: 14, 8: 1}


def test_cr1_m2_trivial_boundary():
    inst = cr1_extended_hamming(2)
    assert inst.cr_code.k == 1
    assert inst.notes
    assert inst.cr_code.weight_distribution().counts == (1, 0, 0, 0, 1)


def test_cr1_m3_self_dual():
    inst = cr1_extended_hamming(3)
    assert row_space_equal(inst.two_weight_code.G, inst.cr_code.G)


def test_cr1_m4():
    inst = cr1_extended_hamming(4)
    assert (inst.cr_code.n, inst.cr_code.k, min_distance(inst.cr_code)) == \
        (16, 11, 4)
    assert set(inst.two_weight_code.weight_distribution().nonzero_weights) \
        == {8, 16}


def test_cr2_instances():
    inst = cr2_dm_dual(2, 1, 1)
    assert (inst.two_weight_code.n, inst.two_weight_code.k) == (4, 3)
    inst = cr2_dm_dual(2, 2, 2)
    assert (inst.two_weight_code.n, inst.two_weight_code.k) == (16, 3)
    assert set(inst.two_weight_code.weight_distribution().nonzero_weights) \
        == {12, 16}
    assert (inst.cr_code.n, inst.cr_code.k) == (16, 13)
    assert min_distance(inst.cr_code) == 3
    inst = cr2_dm_dual(3, 1, 1)
    assert set(inst.two_weight_code.weight_distribution().nonzero_weights) \
        == {6, 9}
    with pytest.raises(ValueError):
        cr2_dm_dual(2, 2, 3)   # l does not divide h


def test_cr2_generator_rows_span_the_translates():
    """The u/l + 1 generator rows span exactly the code of all translates
    D + g: the same RREF basis for every l | h with p^(l+h) <= 256, and
    the same codeword set for p^(l+h) <= 64."""
    cases = [(p, l, u - l) for p in (2, 3, 5, 7, 11, 13) for u in range(2, 9)
             if p ** u <= 256 for l in range(1, u) if (u - l) % l == 0]
    assert len(cases) == 22
    for p, l, h in cases:
        tw = cr2_dm_dual(p, l, h).two_weight_code
        stacked = dm_code(difference_matrix(p, l, h))
        spanned = LinearCode.from_spanning_rows(stacked.field, stacked.rows)
        assert np.array_equal(tw.G.rows, spanned.G.rows), (p, l, h)
        if p ** (l + h) <= 64:
            words = tuple_span(tw.field, tw.G.rows, tw.n)
            assert set(words) == set(stacked.rows), (p, l, h)


def test_cr2_reduces_only_its_generator_rows(monkeypatch):
    """cr2_dm_dual stacks no translates and row-reduces no matrix with
    more than u/l + 1 rows."""
    from crlab import diffmat, families, matrix
    heights = []
    rref = matrix._rref

    def recording(f, rows, ncols):
        heights.append(len(rows))
        return rref(f, rows, ncols)

    def refuse(dm):
        raise AssertionError("dm_code called")

    monkeypatch.setattr(matrix, "_rref", recording)
    monkeypatch.setattr(diffmat, "dm_code", refuse)
    monkeypatch.setattr(families, "dm_code", refuse, raising=False)
    for p, l, h in [(2, 1, 3), (2, 2, 4), (2, 3, 3), (3, 1, 2), (5, 1, 1)]:
        heights.clear()
        cr2_dm_dual(p, l, h)
        assert heights and max(heights) <= (l + h) // l + 1, (p, l, h)


def test_cr2_builds_no_difference_matrix(monkeypatch):
    """cr2_dm_dual computes its u/l rows of D directly, never the whole
    p^(l+h) x p^(l+h) table."""
    from crlab import diffmat, families

    def refuse(*args):
        raise AssertionError("difference_matrix called")

    monkeypatch.setattr(diffmat, "difference_matrix", refuse)
    monkeypatch.setattr(families, "difference_matrix", refuse, raising=False)
    for p, l, h in [(2, 1, 1), (2, 2, 4), (2, 3, 3), (3, 1, 2), (5, 1, 1)]:
        assert cr2_dm_dual(p, l, h).two_weight_code.k == (l + h) // l + 1


def test_cr2_budget_refuses_the_next_side_before_building(monkeypatch):
    """The dual generator's n(n - k) entries are charged before anything
    is built: side 3^8 = 6561 is refused at the default budget, naming
    the variable that raises it."""
    from crlab import budgets, families

    def refuse(*args):
        raise AssertionError("shortening built before the budget check")

    monkeypatch.delenv(budgets.ENUM_BUDGET_VAR, raising=False)
    monkeypatch.setattr(families, "shortening", refuse)
    with pytest.raises(budgets.BudgetExceeded, match="CRLAB_ENUM_BUDGET"):
        cr2_dm_dual(3, 1, 7)


@pytest.mark.parametrize("p,l,h", [(2, 4, 8), (5, 1, 4)])
def test_cr2_constructs_sides_the_stacking_refused(p, l, h):
    """Sides the stacked translates made the enumeration budget refuse
    (16 * 4096^2 and 5 * 3125^2 entries) now build, and their duals are
    completely regular with the CR.2 intersection array."""
    inst = cr2_dm_dual(p, l, h)
    q = p ** l
    assert inst.two_weight_code.k == (l + h) // l + 1
    ia = complete_regularity(inst.cr_code).ia
    assert ia is not None
    assert ia == expected_ia("dm-dual", {"p": p, "l": l, "h": h})
    assert ia == inst.predicted_ia


def test_cr3_region():
    inst = cr3_mds_dual(4, 4)
    assert set(inst.two_weight_code.weight_distribution().nonzero_weights) \
        == {3, 4}
    assert inst.predicted_ia.b == (12, 3) and inst.predicted_ia.c == (1, 12)
    inst = cr3_mds_dual(5, 5)
    assert inst.two_weight_code.q ** 2 == 25   # left-bound Latin square size
    with pytest.raises(ValueError):
        cr3_mds_dual(4, 5)     # n > q
    with pytest.raises(ValueError):
        cr3_mds_dual(4, 2)     # trivial boundary


@pytest.mark.parametrize("build", [
    cr4_bose_bush, cr5_delsarte, bush_closed_form_matrix,
    lambda q: cr6_denniston(q, 2)])
def test_characteristic_2_families_refuse_other_q(build):
    """The hyperoval and maximal-arc builders share one guard: odd q
    gets the empty-family reason, even q must be 2^m >= 4."""
    for q in (3, 5, 9):
        with pytest.raises(ValueError, match=f"^q = {q} is odd: .*hyperoval"):
            build(q)
    for q in (0, 2, 6, 12):
        with pytest.raises(ValueError,
                           match=f"^need q = 2\\^m >= 4, got {q}$"):
            build(q)


def test_cr4_conic_nucleus():
    inst = cr4_bose_bush(4)
    assert (inst.two_weight_code.n, inst.two_weight_code.k) == (6, 3)
    wd = inst.two_weight_code.weight_distribution()
    assert wd.sparse() == {0: 1, 4: 45, 6: 18}
    assert is_projective(inst.two_weight_code)
    assert (inst.cr_code.n, inst.cr_code.k) == (6, 3)
    assert min_distance(inst.cr_code) == 4
    with pytest.raises(ValueError):
        cr4_bose_bush(5)
    with pytest.raises(ValueError):
        cr4_bose_bush(2)


def test_cr4_q16_right_bound_equality():
    inst = cr4_bose_bush(16)
    from crlab.conditions import cardinality_window_check
    checks = {c.name: c for c in cardinality_window_check(18, 16 ** 3, 16, 16)}
    assert checks["window_upper"].witnesses["equality"]
    assert set(inst.two_weight_code.weight_distribution().nonzero_weights) \
        == {16, 18}


def test_bush_matrix_closed_form():
    G = bush_closed_form_matrix(8)
    assert G.ncols == 10
    code = LinearCode(field_create(2, 3), G)
    assert set(code.weight_distribution().nonzero_weights) == {8, 10}

    with pytest.raises(ValueError, match="alpha"):
        bush_closed_form_matrix(4)   # every denominator vanishes

    G32 = bush_closed_form_matrix(32)
    assert G32.ncols == 34
    code32 = LinearCode(field_create(2, 5), G32)
    assert is_projective(code32)
    assert set(code32.weight_distribution().nonzero_weights) == {32, 34}


def test_cr5_delsarte():
    inst = cr5_delsarte(8)
    assert (inst.two_weight_code.n, inst.two_weight_code.k) == (28, 3)
    assert set(inst.two_weight_code.weight_distribution().nonzero_weights) \
        == {24, 28}
    inst4 = cr5_delsarte(4)
    assert inst4.two_weight_code.n == 6 and inst4.notes  # degenerate note


def test_cr6_denniston():
    inst = cr6_denniston(8, 4)
    assert inst.two_weight_code.n == 1 + 9 * 3 == 28
    assert set(inst.two_weight_code.weight_distribution().nonzero_weights) \
        == {24, 28}
    inst2 = cr6_denniston(8, 2)
    assert inst2.two_weight_code.n == 10
    inst3 = cr6_denniston(16, 4)
    assert inst3.two_weight_code.n == 52
    assert set(inst3.two_weight_code.weight_distribution().nonzero_weights) \
        == {48, 52}
    with pytest.raises(ValueError):
        cr6_denniston(8, 8)    # h > q/2
    with pytest.raises(ValueError):
        cr6_denniston(8, 3)    # h not a power of 2


def denniston_oracle(q: int, h: int) -> MatGF:
    """The Denniston generator one grid cell at a time in scalar field
    arithmetic, columns (1, x, y) in x-major order."""
    f = field_create(2, q.bit_length() - 1)
    c = denniston_quadratic_c(f)
    subgroup = {0}
    for gen in [f.pow(f.alpha, i) for i in range(h.bit_length() - 1)]:
        subgroup |= {f.add(x, gen) for x in subgroup}
    cols = []
    for x in range(q):
        x2 = f.mul(x, x)
        for y in range(q):
            val = f.add(f.add(x2, f.mul(x, y)), f.mul(c, f.mul(y, y)))
            if val in subgroup:
                cols.append((1, x, y))
    return MatGF(f, np.transpose(cols))


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
def test_denniston_generator_matches_scalar_oracle(q):
    for h in (1 << u for u in range(1, q.bit_length() - 1)):
        assert cr6_denniston(q, h).two_weight_code.G == \
            denniston_oracle(q, h), h


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
def test_delsarte_generator_matches_per_point_oracle(q):
    base = cr4_bose_bush(q).two_weight_code
    assert cr5_delsarte(q).two_weight_code.G == \
        transform_oracle(base, Fraction(1, 2), Fraction(-q, 2))


def test_denniston_column_count_formula():
    for (q, h) in [(8, 2), (8, 4), (16, 2), (16, 4), (16, 8)]:
        inst = cr6_denniston(q, h)
        assert inst.two_weight_code.n == 1 + (q + 1) * (h - 1)


def test_delsarte_ia_pinned_values():
    """The closed form gives the arrays the per-family formulas gave:
    MDS (4, 4), Denniston (8, 4) and Bose-Bush 8, from n, q, the
    redundancy 3 or 2 and the two weights."""
    ia = delsarte_ia(4, 4, 2, 1, (3, 4))
    assert ia.b == (12, 3) and ia.c == (1, 12)
    ia = delsarte_ia(28, 8, 3, 1, (24, 28))
    assert ia.b == (196, 135) and ia.c == (1, 84)
    ia = delsarte_ia(10, 8, 3, 1, (8, 10))
    assert ia.b == (70, 63) and ia.c == (1, 10)
    assert cr6_denniston(8, 4).predicted_ia == delsarte_ia(
        28, 8, 3, 1, (24, 28))


def test_antipodal_form_check_families():
    for inst in (cr4_bose_bush(4), cr1_extended_hamming(3),
                 cr2_dm_dual(2, 2, 2), cr3_mds_dual(5, 4)):
        v = antipodal_form_check(inst.two_weight_code)
        assert v.ok, (inst.family, v.reason)


def test_antipodal_form_check_even_weight():
    ew = cr1_extended_hamming(2).two_weight_code
    assert antipodal_form_check(ew).ok


def test_antipodal_form_check_rejects_three_weight():
    ctrl = random_multiweight_code(field_create(2, 2), 6, 3, seed=11)
    assert ctrl.weight_distribution().s_count >= 3
    assert not antipodal_form_check(ctrl).ok


def test_antipodal_form_matches_weight_predicate(family_grid):
    from crlab.codes import is_antipodal_two_weight
    for entry in family_grid:
        if entry.tw.q ** entry.tw.k > 1 << 14:
            continue
        v = antipodal_form_check(entry.tw)
        w = is_antipodal_two_weight(entry.tw_wd, entry.tw.n)
        assert v.ok == w, entry.label


def test_simplex_partition_dm_code():
    built = dm_code(difference_matrix(2, 1, 1))
    sp = simplex_partition(built, 2)
    assert sp.is_simplex_partition and len(sp.classes) == 4
    assert sp.pdm and sp.dm_reassembled is not None
    assert is_difference_matrix(sp.dm_reassembled.entries,
                                sp.dm_reassembled.group_field)
    assert sp.symbol_multiplicity_ok and sp.distance_bound_ok


def test_simplex_partition_bose_bush_not_pdm():
    bb = cr4_bose_bush(4).two_weight_code
    sp = simplex_partition(codeword_matrix(bb), 4)
    assert sp.is_simplex_partition and len(sp.classes) == 16
    assert not sp.pdm          # n = 6 < q(n - d) = 8


def test_simplex_partition_removed_translate():
    d33 = difference_matrix(3, 1, 1)
    built = dm_code(d33)
    dropped = {tuple((int(x) + 1) % 3 for x in row)
               for row in d33.entries.tolist()}
    rows = [r for r in built.rows if r not in dropped]
    sub = CodewordMatrix(built.field, rows)
    sp = simplex_partition(sub, 3)
    assert sp.class_size == 2 and not sp.is_simplex_partition and not sp.pdm


def test_simplex_partition_full_distance_rows():
    # weights {n}: mu = n - d = 0, so no non-constant row meets the
    # symbol clause and the n % mu test is never reached
    f = field_create(3, 1)
    built = codeword_matrix(LinearCode(f, MatGF(f, [[1, 2]])))
    sp = simplex_partition(built, 3)
    assert sp.is_simplex_partition and sp.symbol_multiplicity_ok is False


def test_simplex_partition_additive_pdm_reassembly():
    built = dm_code(difference_matrix(2, 2, 1))   # additive (8,32,{6,8})_4
    sp = simplex_partition(built, 4)
    assert sp.is_simplex_partition and sp.pdm
    assert sp.dm_reassembled is not None
    assert is_difference_matrix(sp.dm_reassembled.entries,
                                sp.dm_reassembled.group_field)



def _tuple_span_is_group(rows, f):
    """The row set's additive span, grown one generator at a time over
    tuples, never outgrows the row set and ends equal to it."""
    row_set = set(rows)
    zero = (0,) * len(rows[0])
    if zero not in row_set:
        return False
    span = {zero}
    for r in rows:
        if r in span:
            continue
        new = set()
        for s in span:
            acc = s
            for _ in range(f.p - 1):
                acc = tuple(f.add(a, b) for a, b in zip(acc, r))
                new.add(acc)
        span |= new
        if len(span) > len(row_set):
            return False
    return span == row_set


def test_additive_group_matches_tuple_span():
    """The array span growth behind simplex_partition and the
    difference-matrix certificate against a tuple-at-a-time span."""
    cases = []
    for p, l, h in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (5, 1, 1)]:
        built = dm_code(difference_matrix(p, l, h))
        rows = built.rows
        cases += [(rows, built.field, True),
                  (rows[1:], built.field, False),
                  (rows[:-1], built.field, False),
                  (rows + rows[:3], built.field, True)]
    bb = codeword_matrix(cr4_bose_bush(4).two_weight_code)
    cases.append((bb.rows, bb.field, True))
    cases.append((bb.rows + ((1,) + (0,) * (bb.n - 1),), bb.field, False))
    gf2 = field_create(2, 1)
    cases.append(([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], gf2, False))
    for rows, f, want in cases:
        assert _tuple_span_is_group(rows, f) == want
        assert is_additive_group(rows, f) == want
    assert not is_additive_group(np.zeros((0, 3), dtype=int), gf2)

def test_family_match_ext_hamming_overlap():
    ia = complete_regularity(cr1_extended_hamming(3).cr_code).ia
    tags = [f for f, _ in family_match(8, 4, 2, (4, 8), ia)]
    assert "CR1" in tags and "CR2" in tags


def test_family_match_respects_ia():
    wrong = cr4_bose_bush(8).predicted_ia
    assert family_match(8, 4, 2, (4, 8), wrong) == []
