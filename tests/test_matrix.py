import random

import numpy as np
import pytest
from conftest import row_space_equal
from oracles import field_matmul

from crlab import families
from crlab.field import digit_add, field_create
from crlab.matrix import MatGF, _dual_generator, _rref, _unit_columns


def loop_rref(f, rows, ncols):
    """The element-at-a-time elimination the array ``_rref`` replaced,
    kept as its oracle: (reduced rows as tuples, rank, pivot columns)."""
    work = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = f.inv(work[rank][col])
        if inv != 1:
            work[rank] = [f.mul(inv, a) for a in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [digit_add(a, f.mul(c, b), f.p, f.m, -1)
                           for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    nonzero = tuple(tuple(r) for r in work[:rank])
    return nonzero, rank, tuple(pivots)


def assert_rref_matches_loop(f, rows, label=None):
    """_rref and loop_rref agree on reduced rows, rank and pivots."""
    rows = np.asarray(rows, dtype=np.intp)
    red, rank, pivots = _rref(f, rows, rows.shape[1])
    want_red, want_rank, want_pivots = loop_rref(f, rows.tolist(),
                                                 rows.shape[1])
    assert (rank, pivots) == (want_rank, want_pivots), label
    assert red.shape == (rank, rows.shape[1]), label
    assert red.dtype == f.dtype and not red.flags.writeable, label
    assert [tuple(r) for r in red.tolist()] == list(want_red), label


def test_identity_rref():
    f = field_create(2, 2)
    I = MatGF.identity(f, 4)
    red, rank, pivots = I.rref()
    assert rank == 4 and pivots == (0, 1, 2, 3)
    assert I.null_space().nrows == 0


def test_zero_matrix():
    f = field_create(2, 1)
    Z = MatGF(f, [[0, 0, 0, 0], [0, 0, 0, 0]])
    red, rank, pivots = Z.rref()
    assert rank == 0 and pivots == ()
    ns = Z.null_space()
    assert ns.nrows == 4 and ns.rank == 4


def test_gf4_nullspace_annihilates():
    f = field_create(2, 2)
    G = MatGF(f, [(1, 1, 1, 1), (0, 1, 2, 3)])
    assert G.rank == 2
    ns = G.null_space()
    assert ns.nrows == 2
    assert not field_matmul(f, G.rows, np.transpose(ns.rows)).any()


def test_row_space_equality_under_row_ops():
    f = field_create(3, 1)
    A = MatGF(f, [(1, 2, 0, 1), (0, 1, 1, 1)])
    B = MatGF(f, [(1, 0, 1, 2), (0, 2, 2, 2)])  # r1 - 2 r2, 2 r2
    assert row_space_equal(A, B)
    C = MatGF(f, [(1, 2, 0, 1), (0, 1, 1, 0)])
    assert not row_space_equal(A, C)


@pytest.mark.parametrize("q_spec", [(2, 1), (2, 2), (3, 1), (5, 1), (2, 3)])
def test_nullspace_random(q_spec):
    p, m = q_spec
    f = field_create(p, m)
    rng = random.Random(p * 100 + m)
    for trial in range(12):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(rows, 7)
        M = MatGF(f, [[rng.randrange(f.q) for _ in range(cols)]
                      for _ in range(rows)])
        red, rank, pivots = M.rref()
        ns = M.null_space()
        assert ns.nrows == cols - rank
        if ns.nrows:
            assert not field_matmul(f, M.rows, np.transpose(ns.rows)).any()
            assert ns.rank == ns.nrows
        # mutual row reduction: stacking the reduced rows onto M does not
        # grow the rank, and the reduced matrix has the same rank as M
        if rank:
            stacked = MatGF(f, list(M.rows) + list(red))
            assert stacked.rank == rank
            assert MatGF(f, red).rank == rank


def test_validation():
    f = field_create(2, 1)
    with pytest.raises(ValueError):
        MatGF(f, [[0, 1], [1]])
    with pytest.raises(ValueError):
        MatGF(f, [[0, 2]])
    with pytest.raises(ValueError):
        MatGF(f, [])
    f9 = field_create(3, 2)
    for bad in ([0, 1, 2],                  # 1-d
                [[], []],                   # zero columns
                np.zeros((0, 0), dtype=int),
                np.zeros((2, 2, 2), dtype=int),
                [[0, -1]], [[9, 0]], [[0, 1], [2, 10]]):
        with pytest.raises(ValueError):
            MatGF(f9, bad)
    assert MatGF(f9, [[0, 8], [8, 0]]).nrows == 2
    assert MatGF(f9, np.zeros((0, 3), dtype=int)).rank == 0


def test_entries_must_be_exact_integers():
    """A float is not truncated and a huge int does not overflow: both
    are refused as entries; integral floats and bools convert."""
    f = field_create(2, 1)
    for bad in ([[0.5, 1]], [[2 ** 70]], [[2 ** 63]], [[float("nan")]],
                [[1e30]], np.array([[0.5, 1.0]]), [["a"]], [[None]]):
        with pytest.raises(ValueError):
            MatGF(f, bad)
    assert MatGF(f, [[1.0, 0.0]]).rows.tolist() == [[1, 0]]
    assert MatGF(f, [[True, False]]).rows.tolist() == [[1, 0]]
    assert MatGF(f, np.zeros((0, 4))).nrows == 0


def test_rows_are_read_only():
    """The cached RREF depends on the rows: MatGF.rows refuses writes, a
    caller's array is copied, and the reduced rows are read-only too."""
    f = field_create(5, 1)
    src = np.array([[1, 2, 3], [2, 4, 0]])
    M = MatGF(f, src)
    red, rank, _ = M.rref()
    src[0, 0] = 4
    assert M.rows[0, 0] == 1
    with pytest.raises(ValueError):
        M.rows[0, 0] = 2
    with pytest.raises(ValueError):
        red[0, 0] = 2
    assert MatGF(f, M.rows).rows is M.rows
    narrow = MatGF(f, src.astype(np.int32)).rows   # converted, not viewed
    assert narrow.dtype == f.dtype and narrow.base is None
    assert M.null_space().rows.flags.writeable is False
    basis = M.row_basis()
    assert basis.rref() is M.rref() and basis.rank == rank == 2


def _random_shapes(f, rng):
    """Zero, rank-deficient, tall, 1 x n, n x 1 and random matrices."""
    q = f.q
    shapes = [np.zeros((3, 5), dtype=np.intp), np.zeros((0, 4), dtype=np.intp),
              np.zeros((1, 1), dtype=np.intp)]
    for _ in range(3):
        r, c = rng.randrange(1, 6), rng.randrange(1, 8)
        shapes.append(np.array([[rng.randrange(q) for _ in range(c)]
                                for _ in range(r)]))
    for r, c in ((1, 7), (6, 1), (9, 4), (7, 3)):
        shapes.append(np.array([[rng.randrange(q) for _ in range(c)]
                                for _ in range(r)]))
    for r, c, t in ((6, 8, 2), (5, 5, 3), (8, 4, 1)):
        # rank <= t: a product through a t-dimensional space
        a = [[rng.randrange(q) for _ in range(t)] for _ in range(r)]
        b = [[rng.randrange(q) for _ in range(c)] for _ in range(t)]
        shapes.append(field_matmul(f, a, b))
    sparse = np.array([[rng.randrange(1, q) if rng.random() < 0.2 else 0
                        for _ in range(9)] for _ in range(6)])
    shapes.append(sparse)
    return shapes


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (5, 2), (3, 3), (3, 6)])
def test_rref_matches_loop_on_random_matrices(p, m):
    """Seeded random matrices over GF(2, 3, 4, 5, 7, 8, 9, 25, 27, 729):
    the array elimination equals the element loop, and the null space
    annihilates the rows through matmul with full row rank."""
    f = field_create(p, m)
    rng = random.Random(31 * p + m)
    for rows in _random_shapes(f, rng):
        assert_rref_matches_loop(f, rows, rows.shape)
        M = MatGF(f, rows)
        ns = M.null_space()
        assert ns.nrows == M.ncols - M.rank
        assert not field_matmul(f, M.rows, ns.rows.T).any()
        assert loop_rref(f, ns.rows.tolist(), ns.ncols)[1] == ns.nrows


@pytest.mark.parametrize("p,m", [(2, 6), (2, 7), (2, 10), (3, 3), (3, 4),
                                 (3, 6)])
def test_rref_matches_loop_on_both_branches(p, m):
    """Matrices with at least q rows eliminate with a table of the pivot
    row's q multiples, in the narrowest dtype digit_add takes (its width
    changes between GF(2^6) and GF(2^7), and GF(3^3) and GF(3^4)); those
    with fewer rows multiply row by row.  Both equal the element loop."""
    f = field_create(p, m)
    rng = random.Random(p * 1000 + m)
    q = f.q
    for rows, cols, t in ((q, 5, 5), (q + 3, 9, 4), (2 * q, 3, 3),
                          (q - 1, 6, 6), (7, 12, 7), (5, 8, 3)):
        # rank <= t: a product through a t-dimensional space, so the tall
        # matrices keep the element loop short
        a = [[rng.randrange(q) for _ in range(t)] for _ in range(rows)]
        b = [[rng.randrange(q) for _ in range(cols)] for _ in range(t)]
        mat = field_matmul(f, a, b)
        mat[rng.randrange(rows)] = 0
        assert_rref_matches_loop(f, mat, (p, m, rows, cols))


def test_rref_matches_loop_on_grid(family_grid):
    """Both sides of every grid instance."""
    for entry in family_grid:
        for code in (entry.tw, entry.cr):
            assert_rref_matches_loop(code.field, code.G.rows, entry.label)


def test_rref_matches_loop_on_construct_generators():
    """The two-weight generators the construct benchmark builds."""
    builds = [families.cr4_bose_bush(32),
              families.cr5_delsarte(16),
              families.cr1_extended_hamming(8),
              families.cr3_mds_dual(25, 25),
              families.cr3_mds_dual(27, 27)]
    builds += [families.cr6_denniston(32, h) for h in (2, 4, 8)]
    builds += [families.cr2_dm_dual(p, l, h)
               for p, l, h in ((2, 2, 4), (2, 3, 3), (3, 1, 2), (5, 1, 1))]
    for inst in builds:
        tw = inst.two_weight_code
        assert_rref_matches_loop(tw.field, tw.G.rows, inst.params)


# -- the systematic-form certificate against the RREF path -----------------

def assert_matches_rref_path(f, rows, systematic, label=None):
    """MatGF's rank and null space equal the RREF path's, byte for byte,
    and the certificate applies exactly when systematic says so."""
    M = MatGF(f, np.asarray(rows, dtype=np.intp))
    red, rank, pivots = _rref(f, M.rows, M.ncols)
    want = _dual_generator(f, red, pivots, M.ncols)
    assert (_unit_columns(M.rows) is not None) == systematic, label
    assert M.rank == rank, label
    ns = M.null_space()
    assert ns.rows.shape == want.shape, label
    assert ns.rows.dtype == want.dtype == f.dtype, label
    assert ns.rows.tobytes() == want.tobytes(), label
    assert ns.rows.flags.c_contiguous and not ns.rows.flags.writeable
    assert ns.rank == ns.nrows == M.ncols - rank, label
    # the certificate stands in for the elimination, never beside it
    assert (M._rref_cache is None) == systematic, label


def is_systematic(rows) -> bool:
    """k > n - k and every row has a unit column, checked column by
    column."""
    k, n = rows.shape
    cols = {tuple(col) for col in rows.T.tolist()}
    return k > n - k and all(
        tuple(int(i == j) for i in range(k)) in cols for j in range(k))


def test_systematic_path_matches_rref_on_grid(family_grid):
    """Both sides of every grid instance.  The completely regular sides
    with k > n - k, which null_space wrote with an identity on its free
    columns, take the certificate, and so does dm-dual (2, 1, 1)'s
    [4,3]_2 two-weight side; the rest take the RREF path."""
    certified = []
    for entry in family_grid:
        for code in (entry.tw, entry.cr):
            systematic = is_systematic(code.G.rows)
            assert_matches_rref_path(code.field, code.G.rows, systematic,
                                     entry.label)
            if systematic:
                certified.append((entry.label, code is entry.cr))
    assert sum(cr for _, cr in certified) == sum(
        e.cr.k > e.cr.n - e.cr.k for e in family_grid)
    assert [label for label, cr in certified if not cr] == [
        "dm-dual {'p': 2, 'l': 1, 'h': 1}"]


def test_systematic_path_matches_rref_on_random_codes():
    """Both sides of seeded random codes; a dual with k > n - k is
    systematic, as null_space writes it."""
    for i, (p, m, n, k) in enumerate(((3, 1, 10, 5), (2, 2, 8, 4),
                                      (5, 1, 7, 3), (7, 1, 6, 3),
                                      (2, 3, 9, 2), (3, 2, 8, 3))):
        f = field_create(p, m)
        code = families.random_code(f, n, k, seed=2700 + i)
        dual = code.G.null_space()
        assert_matches_rref_path(f, code.G.rows, False, (p, m, n, k))
        assert_matches_rref_path(f, dual.rows, n - k > k, (p, m, n, k))


def systematic_matrix(f, k, n, rng, duplicates=0):
    """[I | A] with random A and its columns shuffled; duplicates of the
    A columns are replaced by unit columns."""
    a = np.array([[rng.randrange(f.q) for _ in range(n - k)]
                  for _ in range(k)], dtype=np.intp).reshape(k, n - k)
    for j in rng.sample(range(n - k), duplicates):
        a[:, j] = 0
        a[rng.randrange(k), j] = 1
    mat = np.concatenate([np.eye(k, dtype=np.intp), a], axis=1)
    return mat[:, rng.sample(range(n), n)]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 6), (3, 1), (5, 1),
                                 (3, 2), (7, 1), (5, 2)])
def test_systematic_path_matches_rref_on_random_matrices(p, m):
    """Random systematic matrices over GF(2, 4, 64) and odd-p fields:
    unit columns at shuffled positions, duplicated unit columns, k = n
    (a null space with no rows) and k = n - 1."""
    f = field_create(p, m)
    rng = random.Random(27 * p + m)
    for k, n, dup in ((3, 5, 0), (4, 5, 0), (5, 5, 0), (1, 1, 0),
                      (6, 8, 1), (7, 9, 2), (9, 12, 3), (12, 13, 1),
                      (20, 30, 4), (f.q + 2, f.q + 5, 2)):
        mat = systematic_matrix(f, k, n, rng, dup)
        assert_matches_rref_path(f, mat, True, (p, m, k, n, dup))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_certificate_declines_other_matrices(p, m):
    """No certificate when a row has no unit column, or when k <= n - k;
    those matrices, rank-deficient ones included, take the RREF path
    and give its bytes."""
    f = field_create(p, m)
    rng = random.Random(270 + 10 * p + m)
    for k, n in ((5, 8), (7, 9), (4, 4)):
        mat = systematic_matrix(f, k, n, rng)
        units0 = [j for j in range(n)
                  if mat[0, j] == 1 and not mat[1:, j].any()]
        shared = mat.copy()
        shared[1, units0] = 1               # e_0 becomes e_0 + e_1
        assert_matches_rref_path(f, shared, False, (k, n))
        if n > k:
            # as many unit columns as rows, but two of them for row k - 1
            other = next(j for j in range(n) if mat[:, j].sum() != 1)
            shared[:, other] = 0
            shared[k - 1, other] = 1
            assert_matches_rref_path(f, shared, False, (k, n))
        if f.q > 2:
            scaled = mat.copy()
            scaled[0, units0] = 2           # e_0 becomes 2 e_0
            assert_matches_rref_path(f, scaled, False, (k, n))
        deficient = mat.copy()
        deficient[1] = deficient[0]         # rank k - 1
        assert_matches_rref_path(f, deficient, False, (k, n))
    for k, n in ((3, 6), (2, 5), (1, 2)):
        assert_matches_rref_path(f, systematic_matrix(f, k, n, rng), False,
                                 (k, n))
