import itertools
from collections import Counter

import numpy as np
import pytest

from crlab.codes import LinearCode, equidistant_check
from crlab.matrix import MatGF
from crlab.diffmat import (difference_matrix, dm_code, dm_equidistant_code,
                           is_difference_matrix, normalize_dm)
from crlab.field import field_create
from crlab.regularity import oa_strength
from crlab.conditions import plotkin_holds


def test_d22_binary():
    dm = difference_matrix(2, 1, 1)
    assert dm.q == 2 and dm.mu == 2 and dm.side == 4
    # differences of any two distinct rows hit 0 twice and 1 twice
    rows = dm.entries
    for i in range(4):
        for j in range(i + 1, 4):
            diff = [(a - b) % 2 for a, b in zip(rows[i], rows[j])]
            assert diff.count(0) == 2 and diff.count(1) == 2


def test_d33_ternary():
    dm = difference_matrix(3, 1, 1)
    assert dm.q == 3 and dm.mu == 3 and dm.side == 9
    assert is_difference_matrix(dm.entries, dm.group_field)


def test_construction_contract():
    assert is_difference_matrix(difference_matrix(2, 1, 2).entries,
                                field_create(2, 1))


def test_all_zero_is_not_dm():
    assert not is_difference_matrix(np.zeros((4, 4), dtype=int),
                                    field_create(2, 1))


def test_mutate_and_check():
    dm = difference_matrix(2, 1, 1)
    bad = dm.entries.copy()
    bad[1, 1] ^= 1
    assert not is_difference_matrix(bad, dm.group_field)


def test_normalize_idempotent():
    dm = difference_matrix(2, 2, 1)
    norm = normalize_dm(dm)
    assert not norm.entries[0].any() and not norm.entries[:, 0].any()
    assert is_difference_matrix(norm.entries, norm.group_field)
    again = normalize_dm(norm)
    assert (again.entries == norm.entries).all()


def test_normalize_d211():
    norm = normalize_dm(difference_matrix(2, 1, 1))
    assert list(norm.entries[0]) == [0, 0, 0, 0]
    assert is_difference_matrix(norm.entries, norm.group_field)


def _spanned_dimension(matrix):
    """rank of the rows when they form a linear code (|S| = q^rank, since
    S is contained in its span), else None."""
    rank = MatGF(matrix.field, matrix.rows).rank
    return rank if matrix.N == matrix.field.q ** rank else None


def test_dm_code_211_is_even_weight_code():
    built = dm_code(difference_matrix(2, 1, 1))
    assert built.N == 8 and built.n == 4
    assert set(built.rows) == {
        (0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0),
        (1, 1, 1, 1), (1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1)}
    assert _spanned_dimension(built) == 3


def test_dm_code_221_additive_not_linear():
    """D(4,2) gives the additive (8, 32, {6,8})_4 code whose size is not a
    power of 4, so it is not linear."""
    built = dm_code(difference_matrix(2, 2, 1))
    assert built.N == 32 and built.n == 8
    assert _spanned_dimension(built) is None
    ws = sorted(set(w for w in built.weights() if w))
    assert ws == [6, 8]
    # meets the simplex-partitionable bound with equality: N/q = bound
    from crlab.conditions import gray_rankin_holds
    c = gray_rankin_holds(8, 6, 4, 32)
    assert c.satisfied and c.witnesses["equality"]


def test_dm_code_222_linear_tower():
    built = dm_code(difference_matrix(2, 2, 2))
    assert _spanned_dimension(built) == 3
    code = LinearCode.from_spanning_rows(built.field, built.rows)
    assert (code.n, code.k, code.q) == (16, 3, 4)
    assert code.weight_distribution().sparse() == {0: 1, 12: 60, 16: 3}


def test_dm_equidistant_plotkin_equality():
    for (p, l, h) in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1)]:
        dm = difference_matrix(p, l, h)
        eq = dm_equidistant_code(dm)
        q, mu = dm.q, dm.mu
        assert eq.n == q * mu - 1 and eq.N == q * mu
        d = equidistant_check(eq)
        assert d == mu * (q - 1)
        check = plotkin_holds(eq.n, d, q, eq.N)
        assert check.applicable and check.witnesses["equality"]


def test_dm_code_oa_strength_at_least_2():
    for (p, l, h) in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1)]:
        built = dm_code(difference_matrix(p, l, h))
        assert oa_strength(built, p ** l) >= 2


def test_builds_every_matrix_up_to_256():
    """Every (p, l, h) with p^(l+h) <= 256 builds a matrix of side
    p^(l+h); the exhaustive check of each is acceptance criterion 4."""
    cases = []
    for p in (2, 3, 5, 7, 11, 13):
        u = 2
        while p ** u <= 256:
            for l in range(1, u):
                cases.append((p, l, u - l))
            u += 1
    assert len(cases) > 30
    for (p, l, h) in cases:
        dm = difference_matrix(p, l, h)
        assert dm.side == p ** (l + h)


def _naive_is_difference_matrix(entries, f):
    rows = [tuple(int(x) for x in r) for r in entries]
    side = len(rows)
    if any(len(r) != side for r in rows) or side % f.q:
        return False
    mu = side // f.q
    for i, j in itertools.combinations(range(side), 2):
        diffs = Counter(f.sub(a, b) for a, b in zip(rows[j], rows[i]))
        if any(diffs[g] != mu for g in range(f.q)):
            return False
    return True


def test_check_matches_per_pair_counter():
    """The one-bincount-per-row check against a per-pair Counter, on every
    D(p^l, p^h) with side <= 64 and on broken copies of each."""
    cases = [(p, l, u - l) for p in (2, 3, 5, 7) for u in range(2, 7)
             if p ** u <= 64 for l in range(1, u)]
    assert len(cases) == 20
    for p, l, h in cases:
        dm = difference_matrix(p, l, h)
        f, M, q = dm.group_field, dm.entries, dm.q
        assert is_difference_matrix(M, f)
        assert _naive_is_difference_matrix(M, f)
        last_cell = M.copy()
        last_cell[-1, -1] = (last_cell[-1, -1] + 1) % q
        # every pair but the last one the loop visits still passes
        duplicated = M.copy()
        duplicated[-1] = M[-2]
        for bad in (last_cell, duplicated, M[:, :-1], M[:-1, :-1]):
            assert not _naive_is_difference_matrix(bad, f), (p, l, h)
            assert not is_difference_matrix(bad, f), (p, l, h)
        out_of_range = M.copy()
        out_of_range[0, 0] = q
        assert not is_difference_matrix(out_of_range, f)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        difference_matrix(2, 0, 1)
    with pytest.raises(ValueError):
        difference_matrix(2, 1, 0)


def test_plain_truncation_is_not_scalar_closed():
    """Why the l | h case uses subfield-tower coordinates: base-2
    truncation of the GF(16) multiplication table gives rows that are
    additive but not closed under GF(4) scalars."""
    from crlab.diffmat import _phi_table
    from crlab.field import digit_add
    big = field_create(2, 4)
    small = field_create(2, 2)
    phi = _phi_table(big, small, tower=False)
    rows = []
    for i in range(16):
        rows.append(tuple(int(phi[big.mul(i, j)]) for j in range(16)))
    row_set = set()
    for r in rows:
        for g in range(4):
            row_set.add(tuple(digit_add(x, g, 2, 2) for x in r))
    # additive: closed under row subtraction
    sample = list(row_set)[:12]
    for a in sample:
        for b in sample:
            diff = tuple(small.sub(x, y) for x, y in zip(a, b))
            assert diff in row_set
    # but some GF(4) scalar multiple escapes the set
    escaped = False
    for r in row_set:
        for c in (2, 3):
            if tuple(small.mul(c, x) for x in r) not in row_set:
                escaped = True
                break
        if escaped:
            break
    assert escaped
    # while the tower coordinates used by difference_matrix stay closed
    assert _spanned_dimension(dm_code(difference_matrix(2, 2, 2))) == 3
