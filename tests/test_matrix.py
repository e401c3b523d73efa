import random

import numpy as np
import pytest

from crlab.field import field_create
from crlab.matrix import MatGF


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
    assert not f.matmul(G.rows, np.transpose(ns.rows)).any()


def test_row_space_equality_under_row_ops():
    f = field_create(3, 1)
    A = MatGF(f, [(1, 2, 0, 1), (0, 1, 1, 1)])
    B = MatGF(f, [(1, 0, 1, 2), (0, 2, 2, 2)])  # r1 - 2 r2, 2 r2
    assert A.row_space_equal(B)
    C = MatGF(f, [(1, 2, 0, 1), (0, 1, 1, 0)])
    assert not A.row_space_equal(C)


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
            assert not f.matmul(M.rows, np.transpose(ns.rows)).any()
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
