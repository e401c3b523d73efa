"""One element dtype per field: every array of GF(q) elements that the
library stores or returns has ``FieldSpec.dtype``, the smallest signed
dtype holding -2q, and equals what the element loops give in intp.  A
narrow store would wrap an entry past its range, so the .gfc parser must
still refuse every such entry, naming its line."""

import numpy as np
import pytest
from conftest import normalize_point
from oracles import field_matmul, loop_phi_table
from test_matrix import loop_rref

from crlab import codes, diffmat, fileio
from crlab.field import digit_add, field_create
from crlab.matrix import MatGF

# q = 2, 3, 4, 49, 128, 256, 2187 and 2^20
FIELDS = [(2, 1), (3, 1), (2, 2), (7, 2), (2, 7), (2, 8), (3, 7), (2, 20)]


def loop_null_space(f, rows, ncols):
    """The identity on the free columns of the loop RREF, ascending, and
    minus the reduced rows' free entries on its pivot columns."""
    red, _, pivots = loop_rref(f, rows, ncols)
    out = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = digit_add(0, red[i][j], f.p, f.m, -1)
        out.append(v)
    return out


def loop_normalize(f, rows):
    """Each row shifted by its first entry, then the first row taken off
    every row, one element at a time."""
    shifted = [[digit_add(x, r[0], f.p, f.m, -1) for x in r] for r in rows]
    return [[digit_add(x, y, f.p, f.m, -1) for x, y in zip(r, shifted[0])]
            for r in shifted]


def assert_elements(f, array, want, label):
    assert array.dtype == f.dtype, label
    assert array.tolist() == [list(r) for r in want], label


def _matrices(f, rng):
    """A wide matrix (fewer rows than q: intp work rows), a systematic one
    (the null-space certificate) and, for q <= 2187, a rank-3 matrix with
    more rows than q (the table of pivot multiples, in the field's
    dtype)."""
    q = f.q
    systematic = np.concatenate([np.eye(5, dtype=np.intp),
                                 rng.integers(0, q, (5, 3))], axis=1)
    out = [rng.integers(0, q, (3, 8)), systematic[:, rng.permutation(8)]]
    if q <= 2187:
        out.append(field_matmul(f, rng.integers(0, q, (q + 1, 3)),
                                rng.integers(0, q, (3, 5))))
    return out


@pytest.mark.parametrize("p,m", FIELDS)
def test_element_arrays_have_the_field_dtype(tmp_path, p, m):
    f = field_create(p, m)
    q = f.q
    assert f.dtype == np.min_scalar_type(-2 * q) and f.dtype.kind == "i"
    assert f.log.dtype == f.antilog.dtype == np.intp
    rng = np.random.default_rng(q)
    assert_elements(f, MatGF.identity(f, 4).rows, np.eye(4, dtype=int),
                    "identity")
    for rows in _matrices(f, rng):
        label = (q, rows.shape)
        M = MatGF(f, rows)
        assert_elements(f, M.rows, rows.tolist(), label)
        red, rank, pivots = M.rref()
        want_red, want_rank, want_pivots = loop_rref(f, rows.tolist(),
                                                     M.ncols)
        assert (rank, pivots) == (want_rank, want_pivots), label
        assert_elements(f, red, want_red, label)
        assert_elements(f, M.row_basis().rows, want_red, label)
        fresh = MatGF(f, rows)   # no cached RREF: either null-space path
        want_ns = loop_null_space(f, rows.tolist(), M.ncols)
        assert_elements(f, fresh.null_space().rows, want_ns, label)
        if M.rank == M.nrows:
            path = tmp_path / "m.gfc"
            fileio.write_gfc(path, codes.LinearCode(f, M))
            assert_elements(f, fileio.read_gfc(path).code.G.rows,
                            rows.tolist(), label)

    # points in order, each normalized and distinct: all of PG(k-1, q)
    k = 1 if q > 2187 else 2 if q > 4 else 3
    points = codes.projective_points(f, k)
    want = sorted(set(map(tuple, points.tolist())))
    assert len(want) == len(points) == (q ** k - 1) // (q - 1)
    assert all(normalize_point(f, v) == v for v in want)
    assert_elements(f, points, want, "points")
    G = rng.integers(0, q, (k, 4)).tolist()
    want = []
    for point in points.tolist():
        word = [0] * 4
        for c, row in zip(point, G):
            word = [f.add(w, f.mul(c, x)) for w, x in zip(word, row)]
        want.append(word)
    words = list(codes.point_words(f, np.array(G)))
    assert all(block.dtype == f.dtype for block in words)
    assert_elements(f, np.concatenate(words), want, "point words")

    entries = rng.integers(0, q, (4, 4))
    got = diffmat.normalize_dm(diffmat.DifferenceMatrix(f, 1, entries))
    assert_elements(f, got.entries, loop_normalize(f, entries.tolist()),
                    "normalize_dm")


@pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2), (7, 2), (2, 7),
                                 (2, 8)])
def test_difference_matrices_have_the_group_field_dtype(p, l):
    """D(p^l, p) is Phi(xy) over GF(p^(l+1)), element by element, and it
    and its normal form are held in GF(p^l)'s dtype."""
    big, small = field_create(p, l + 1), field_create(p, l)
    phi = loop_phi_table(big, small, False)
    dm = diffmat.difference_matrix(p, l, 1)
    want = [[phi[big.mul(x, y)] for y in range(big.q)] for x in range(big.q)]
    assert_elements(small, dm.entries, want, (p, l))
    normal = diffmat.normalize_dm(dm)
    assert_elements(small, normal.entries, loop_normalize(small, want), (p, l))


@pytest.mark.parametrize("p,m", FIELDS)
def test_additive_group_check_runs_in_the_field_dtype(monkeypatch, p, m):
    """The rows reach the group order in the field's dtype, and the
    verdicts match the span they come from: all F_p combinations of two
    independent rows are a group, and without one of them they are
    not."""
    f = field_create(p, m)
    seen = []
    order = diffmat._group_order

    def spy(rows, field):
        seen.append(rows.dtype)
        return order(rows, field)

    monkeypatch.setattr(diffmat, "_group_order", spy)
    x, y = np.random.default_rng(f.q).integers(0, f.q, 2).tolist()
    a, b = (1, 0, x), (0, 1, y)
    group = [[f.add(f.mul(i, s), f.mul(j, t)) for s, t in zip(a, b)]
             for i in range(p) for j in range(p)]
    assert diffmat.is_additive_group(np.array(group), f)
    assert not diffmat.is_additive_group(np.array(group[:-1]), f)
    assert seen == [f.dtype, f.dtype]


@pytest.mark.parametrize("p,m", FIELDS)
def test_matrix_input_kinds_convert_exactly(p, m):
    """Float, bool, int32 and Python-int input give the same rows, in the
    field's dtype; a non-integral float or an out-of-range int does not
    pass."""
    f = field_create(p, m)
    rows = np.random.default_rng(f.q).integers(0, f.q, (3, 5))
    for given in (rows.astype(float), rows.astype(np.int32), rows.tolist(),
                  rows.astype(np.uint64)):
        assert_elements(f, MatGF(f, given).rows, rows.tolist(), type(given))
    bits = rows % 2
    assert_elements(f, MatGF(f, bits.astype(bool)).rows, bits.tolist(), "bool")
    for bad in ([[0.5]], [[f.q]], [[-1]], [[f.q + 256]], [[2 ** 63]],
                [[float(f.q)]]):
        with pytest.raises(ValueError):
            MatGF(f, bad)


def _gfc(f, rows) -> str:
    return (f"field {f.p} {f.m} poly {' '.join(map(str, f.modulus))}\n"
            f"code {len(rows)} 3\n" + "".join(f"{r}\n" for r in rows))


@pytest.mark.parametrize("p,m", FIELDS)
@pytest.mark.parametrize("cells", [None, 3])
def test_gfc_refuses_entries_a_narrow_store_would_wrap(tmp_path, monkeypatch,
                                                       p, m, cells):
    """q, q + 256, 2^(8 * itemsize) + 1 (which the field's dtype stores
    as 1), 10^18 - 1 and 2^63 are refused, and the error names the first
    row that holds one, in whichever block of parsed rows it falls; a
    three-cell block parses one row at a time."""
    if cells is not None:
        monkeypatch.setattr(fileio, "_STAGE_CELLS", cells)
    f = field_create(p, m)
    path = tmp_path / "w.gfc"
    for big in (f.q, f.q + 256, 2 ** (8 * f.dtype.itemsize) + 1,
                10 ** 18 - 1, 2 ** 63):
        # rows 0 and 3 both bad, then row 3 alone
        cases = (([f"1 {big} 0", "0 1 0", "0 0 1", f"0 {big} 1"], 3),
                 (["1 0 0", "0 1 0", "0 0 1", f"1 1 {big}"], 6))
        for rows, line in cases:
            path.write_text(_gfc(f, rows))
            with pytest.raises(fileio.GfcParseError) as exc:
                fileio.read_gfc(path)
            assert str(exc.value) == (
                f"{path}:{line}: entry out of range for GF({f.q})"), big
