import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from oracles import (equidistant_check, loop_phi_table,
                     loop_subfield_embedding, row_weights)

from crlab import cli, diffmat
from crlab.codes import CodewordMatrix, LinearCode
from crlab.matrix import MatGF
from crlab.diffmat import (difference_matrix, dm_code, is_difference_matrix,
                           normalize_dm)
from crlab.field import digit_add, digit_table, field_create, is_prime
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


def dm_equidistant_code(dm):
    """Normalize, drop the zero first column: an equidistant
    (q*mu - 1, q*mu, mu(q-1)) structure meeting the Plotkin bound with
    equality."""
    norm = normalize_dm(dm)
    rows = [tuple(int(x) for x in r[1:]) for r in norm.entries]
    return CodewordMatrix(dm.group_field, rows)


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
    ws = sorted(set(w for w in row_weights(built) if w))
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


def test_entries_are_the_shortened_product_table():
    """D's entries are Phi of the full multiplication table, read by one
    broadcast product here, in the small field's dtype, which
    normalize_dm uses too, for every (p, l, h) with p^(l+h) <= 256."""
    for p in (2, 3, 5, 7, 11, 13):
        u = 2
        while p ** u <= 256:
            for l in range(1, u):
                big, small, phi = diffmat.shortening(p, l, u - l)
                e = np.arange(big.q)
                got = difference_matrix(p, l, u - l).entries
                assert got.dtype == small.dtype
                assert np.array_equal(got, phi[big.mul_array(e[:, None], e)])
            u += 1


def _shortenings_up_to(side):
    """Every (p, l, h) with l, h >= 1 and p^(l+h) <= side."""
    return [(p, l, u - l) for p in range(2, 65) if is_prime(p)
            for u in range(2, side.bit_length()) if p ** u <= side
            for l in range(1, u)]


def test_tower_coordinates_match_element_loops():
    """The subfield embedding (wherever l | h) and Phi's table, both
    spans of powers of one element, equal the element-level loops for
    every (p, l, h) with p^(l+h) <= 4096."""
    cases = _shortenings_up_to(4096)
    assert len(cases) == 121
    embedded = 0
    for p, l, h in cases:
        big, small = field_create(p, l + h), field_create(p, l)
        tower = l > 1 and h % l == 0
        assert diffmat._phi_table(big, small, tower).tolist() == \
            loop_phi_table(big, small, tower), (p, l, h)
        if h % l == 0:
            assert diffmat._subfield_embedding(big, small).tolist() == \
                loop_subfield_embedding(big, small), (p, l, h)
            embedded += 1
    assert embedded == 57


def test_side_4096_is_held_once_in_one_byte_entries():
    """D(64, 64) has 4096^2 entries: one byte each, plus log sums for a
    block of rows at a time (an int64 product table was 134 MB)."""
    tracemalloc.start()
    try:
        dm = difference_matrix(2, 6, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dm.entries.dtype == np.int8 and dm.side == 4096
    assert peak < dm.entries.nbytes + (2 << 20)


def test_one_element_check_for_matrices_and_difference_matrices():
    """MatGF and is_difference_matrix share one test of which arrays are
    matrices over GF(q): a non-integral float, an integer past int64 and a
    0 x 0 array are refused by both, and exact floats, bools and unsigned
    or narrow integers pass both.  A non-square matrix is a matrix but no
    difference matrix."""
    dm = difference_matrix(2, 1, 1)
    f, D = dm.group_field, dm.entries
    huge = D.astype(object)
    huge[0, 0] = 2 ** 70
    for bad in (D + 0.5, huge, np.zeros((0, 0), dtype=int)):
        assert not is_difference_matrix(bad, f)
        with pytest.raises(ValueError):
            MatGF(f, bad)
    assert not is_difference_matrix(D[:3], f)
    assert MatGF(f, D[:3]).nrows == 3
    for good in (D.astype(float), D.astype(bool), D.astype(np.uint64),
                 D.astype(np.int32)):
        assert is_difference_matrix(good, f)
        assert MatGF(f, good) == MatGF(f, D)


def test_side_4096_check_keys_the_rows_once():
    """`dm --verify` at side 4096 holds the normalized rows and one map
    from row bytes to position, about 2 x 16 MB at its peak (a second
    row set and a second copy of the rows took it past 100 MB); the
    matrix it is given is left as it was."""
    dm = difference_matrix(2, 6, 6)
    before = dm.entries.copy()
    tracemalloc.start()
    try:
        assert is_difference_matrix(dm.entries, dm.group_field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * dm.entries.nbytes
    assert np.array_equal(dm.entries, before)


def _naive_is_difference_matrix(entries, f):
    rows = [tuple(int(x) for x in r) for r in entries]
    side = len(rows)
    if any(len(r) != side for r in rows) or side % f.q:
        return False
    mu = side // f.q
    for i, j in itertools.combinations(range(side), 2):
        diffs = Counter(digit_add(a, b, f.p, f.m, -1)
                        for a, b in zip(rows[j], rows[i]))
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
            diff = tuple(digit_add(x, y, 2, 2, -1) for x, y in zip(a, b))
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


# every (p, l, h) with p^(l+h) <= 256
DM_CASES_256 = [(p, l, u - l) for p in (2, 3, 5, 7, 11, 13)
                for u in range(2, 9) if p ** u <= 256 for l in range(1, u)]


@pytest.fixture
def pairwise_calls(monkeypatch):
    """Records every call of the pairwise loop and still runs it."""
    calls = []
    loop = diffmat._pairwise_is_difference_matrix

    def counting(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(diffmat, "_pairwise_is_difference_matrix", counting)
    return calls


@pytest.fixture
def no_pairwise(monkeypatch):
    def refuse(*args):
        raise AssertionError("the pairwise loop ran")

    monkeypatch.setattr(diffmat, "_pairwise_is_difference_matrix", refuse)


def _shifted_copy(M, f, rng):
    """M with rows and columns permuted and a random group element added
    to each row and to each column: a difference matrix iff M is one."""
    side, q = M.shape[0], f.q
    add = digit_table(f)
    out = M[rng.permutation(side)][:, rng.permutation(side)]
    out = add[out, rng.integers(0, q, size=(side, 1))]
    return add[out, rng.integers(0, q, size=(1, side))]


def test_certificate_agrees_with_pairwise_loop(pairwise_calls):
    """On every D(p^l, p^h) <= 256 and on a shifted, permuted copy of each
    the certificate decides alone and accepts; on four broken copies of
    each both paths reject."""
    assert len(DM_CASES_256) == 44
    loop = diffmat._pairwise_is_difference_matrix
    rng = np.random.default_rng(12)
    for p, l, h in DM_CASES_256:
        dm = difference_matrix(p, l, h)
        f, M, q = dm.group_field, dm.entries, dm.q
        for good in (M, _shifted_copy(M, f, rng)):
            pairwise_calls.clear()
            assert is_difference_matrix(good, f), (p, l, h)
            assert not pairwise_calls, (p, l, h)
            assert loop(np.asarray(good, dtype=np.intp), f), (p, l, h)
        last_cell = M.copy()
        last_cell[-1, -1] = (last_cell[-1, -1] + 1) % q
        duplicated = M.copy()
        duplicated[-1] = M[-2]
        for bad in (last_cell, duplicated, M[:, :-1], M[:-1, :-1]):
            assert not is_difference_matrix(bad, f), (p, l, h)
            assert not loop(np.asarray(bad, dtype=np.intp), f), (p, l, h)


def test_unbalanced_group_is_rejected_by_the_certificate(no_pairwise):
    """Rows spanned by 0011 and 0100 over GF(2) form a group with a zero
    first column, but 0100 is not balanced."""
    f = field_create(2, 1)
    rows = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 1, 1]])
    assert diffmat.is_additive_group(rows, f)
    assert not is_difference_matrix(rows, f)
    assert not _naive_is_difference_matrix(rows, f)


def test_group_that_normalizes_to_repeated_rows(pairwise_calls):
    """{0000, 1100, 0011, 1111} is a group, but shifting each row by its
    first entry sends 1111 to 0000 and 1100 to 0011; the repeated rows
    leave the decision to the pairwise loop, which rejects."""
    f = field_create(2, 1)
    rows = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    assert diffmat.is_additive_group(rows, f)
    assert not is_difference_matrix(rows, f)
    assert len(pairwise_calls) == 1
    assert not _naive_is_difference_matrix(rows, f)


def test_group_with_repeated_rows_goes_pairwise(pairwise_calls):
    """Normalized rows 0, a, a, b, b, c, c, a: their set {0, a, b, c} is a
    group of balanced rows, but equal rows differ by zero everywhere."""
    f = field_create(2, 1)
    a, b, c = ([0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 0, 0, 1, 1],
               [0, 0, 1, 1, 1, 1, 0, 0])
    rows = np.array([[0] * 8, a, a, b, b, c, c, a])
    assert diffmat.is_additive_group(rows, f)
    assert not is_difference_matrix(rows, f)
    assert len(pairwise_calls) == 1


def _paley_hadamard_12():
    """Paley's order-12 Hadamard matrix I + [[0, j^T], [-j, Q]] over
    GF(11), with +1 written 0 and -1 written 1."""
    squares = {x * x % 11 for x in range(1, 11)}
    chi = [0] + [1 if x in squares else -1 for x in range(1, 11)]
    H = np.zeros((12, 12), dtype=int)
    H[0, 1:] = 1
    H[1:, 0] = -1
    for i in range(11):
        for j in range(11):
            H[i + 1, j + 1] = chi[(j - i) % 11]
    H += np.eye(12, dtype=int)
    assert (H @ H.T == 12 * np.eye(12, dtype=int)).all()
    return (H == -1).astype(int)


def test_paley_hadamard_takes_the_pairwise_path(pairwise_calls):
    """Side 12 is not a power of 2, so the rows cannot form a group:
    the pairwise loop decides, and accepts a D(2, 6)."""
    f = field_create(2, 1)
    H = _paley_hadamard_12()
    assert is_difference_matrix(H, f)
    assert len(pairwise_calls) == 1
    assert _naive_is_difference_matrix(H, f)
    broken = H.copy()
    broken[5, 7] ^= 1
    assert not is_difference_matrix(broken, f)


def test_cli_verify_takes_the_certificate_path(no_pairwise, capsys):
    for p, l, h in DM_CASES_256:
        assert cli.main(["dm", "--p", str(p), "--l", str(l), "--h", str(h),
                         "--verify"]) == 0
        assert "difference matrix: OK" in capsys.readouterr().out, (p, l, h)


@pytest.mark.parametrize("p,l,h", [(2, 5, 5), (31, 1, 1)])
def test_verifies_beyond_pairwise_reach(no_pairwise, p, l, h):
    """Sides 1024 and 961, about 20 s each for the pairwise loop."""
    dm = difference_matrix(p, l, h)
    assert is_difference_matrix(dm.entries, dm.group_field)
    shifted = _shifted_copy(dm.entries, dm.group_field,
                            np.random.default_rng(p))
    assert is_difference_matrix(shifted, dm.group_field)
