"""Exact matrices over a FieldSpec: RREF, rank, null space.

Entries are canonical element codes.  A matrix holds one read-only 2-d
array, ``rows``, in ``FieldSpec.dtype``; it may have zero rows (the null
space of a full-rank square matrix) and always has a column.  Entries
outside [0, q), non-integral floats and integers past int64 raise
ValueError (:func:`element_array`, which ``is_difference_matrix`` also
applies); nothing is truncated or wrapped.  The cached RREF depends on
``rows`` never changing, so a caller's writeable array is copied, and a
read-only one in the field's dtype is shared.  Elimination works one
pivot at a time on whole rows with ``mul_array`` and ``digit_add``.  A
matrix with at least q rows builds the q multiples of each pivot row
once, a q x n table no larger than the matrix, and updates every row by
one gather from it and one ``digit_add``, in the field's dtype; one with
fewer rows multiplies the pivot row by each row's factor, in the intp of
``mul_array``'s products, which narrowing would convert at every pivot.
The reduced rows are read-only in the field's dtype either way.

A generator with more rows than the dual has (k > n - k) and, for every
row, a unit column (that row's standard basis vector) holds an identity
on k columns, so it has full row rank; this systematic-form certificate
costs two O(kn) passes and no elimination.  Entries are nonnegative,
so a column that sums to 1 is a unit column, and its sum weighted by row
index names its row.  Such a matrix [I | A], up to the order of its
columns, has the dual [-A^t | I] (MacWilliams-Sloane, ch. 1), which
``null_space`` writes directly and puts into the form the RREF path
gives: the identity on the columns F that are not pivots of this
matrix's RREF.  The pivots are the lexicographically first basis of the
column matroid, and the complement of that basis is the
lexicographically last basis of the dual matroid (Oxley, Matroid
Theory, 2.1).  So F is the set of right-to-left pivots of any generator
of the dual, and one elimination of the (n - k)-row dual with its
columns reversed gives the same bytes as the RREF path, without
eliminating the k long rows.  Every other matrix takes the RREF path.
"""

from __future__ import annotations

import numpy as np

from .field import FieldSpec, digit_add


def element_array(field: FieldSpec, rows) -> np.ndarray:
    """rows as a 2-d array, with columns, of exact integers in [0, q) (an
    integer array is not copied); ValueError if it is no such array."""
    a = np.asarray(rows)
    if a.dtype.kind not in "iu":
        # floats, bools and Python ints past int64 pass only when the
        # conversion is exact: no truncation, no overflow
        with np.errstate(invalid="ignore"):
            try:
                exact = a.astype(np.intp)
            except (TypeError, ValueError, OverflowError):
                exact = None
        if exact is None or not np.array_equal(exact, a):
            raise ValueError("entries are not all integers")
        a = exact
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError(f"not a 2-d matrix with columns: {a.shape}")
    if a.size and not (0 <= a.min() and a.max() < field.q):
        raise ValueError(f"entries not all in GF({field.q})")
    return a


class MatGF:
    __slots__ = ("field", "rows", "nrows", "ncols", "_rref_cache", "_rank",
                 "_units")

    def __init__(self, field: FieldSpec, rows):
        a = element_array(field, rows).astype(field.dtype, copy=False)
        if a is rows and a.flags.writeable:
            a = a.copy()
        a.flags.writeable = False
        self.field = field
        self.rows = a
        self.nrows, self.ncols = a.shape
        self._rref_cache = None
        self._rank = None
        self._units = False  # not looked for yet; see _unit_columns

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatGF":
        return cls(field, np.eye(n, dtype=field.dtype))

    # -- Gaussian elimination -------------------------------------------

    def rref(self):
        """(reduced row-echelon rows, rank, pivot columns) -- all exact."""
        if self._rref_cache is None:
            self._rref_cache = _rref(self.field, self.rows, self.ncols)
        return self._rref_cache

    @property
    def rank(self) -> int:
        """The rank a certificate gives (systematic form, or the identity
        null_space() wrote), else the RREF's."""
        if self._rank is None:
            self._rank = (self.nrows if self._unit_columns() is not None
                          else self.rref()[1])
        return self._rank

    def _unit_columns(self):
        """A unit column for each row, found once, or None when the
        systematic-form certificate does not apply."""
        if self._units is False:
            self._units = _unit_columns(self.rows)
        return self._units

    def row_basis(self) -> "MatGF":
        """The reduced rows as a matrix.  They are their own RREF, so the
        basis carries this matrix's and runs no elimination."""
        basis = MatGF(self.field, self.rref()[0])
        basis._rref_cache = self.rref()
        return basis

    def null_space(self) -> "MatGF":
        """Basis matrix B with self . B^t = 0, rank(B) = ncols - rank(self).

        Returned as a (ncols - rank) x ncols matrix; zero rows when self has
        full column rank.  The identity sits on the free columns, so B has
        full row rank by construction; B records it, and B.rank runs no
        elimination.
        """
        f = self.field
        units = self._unit_columns()
        if units is None:
            red, _, pivots = self.rref()
            basis = _dual_generator(f, red, pivots, self.ncols)
        else:
            # [-A^t | I], then its right-to-left RREF (module docstring)
            dual = _dual_generator(f, self.rows, units, self.ncols)
            red = MatGF(f, dual[:, ::-1]).rref()[0]
            basis = np.ascontiguousarray(red[::-1, ::-1])
            basis.flags.writeable = False
        ns = MatGF(f, basis)
        ns._rank = ns.nrows
        return ns

    def __eq__(self, other):
        return (isinstance(other, MatGF) and self.field == other.field
                and np.array_equal(self.rows, other.rows))

    def __repr__(self):
        return f"MatGF({self.nrows}x{self.ncols} over GF({self.field.q}))"


def _rref(f: FieldSpec, rows, ncols):
    nrows = len(rows)
    if f.q <= nrows:
        dtype, elements = f.dtype, np.arange(f.q)[:, None]
    else:
        # narrowing would convert mul_array's intp products at every pivot
        dtype, elements = np.intp, None
    work = np.array(rows, dtype=dtype)
    pivots = []
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        below = np.flatnonzero(work[rank:, col])
        if not below.size:
            continue
        pivot = rank + below[0]
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] = f.mul_array(f.inv(int(work[rank, col])), work[rank])
        factors = work[:, col].copy()
        factors[rank] = 0
        if elements is None:
            products = f.mul_array(factors[:, None], work[rank])
        else:
            products = (f.mul_array(elements, work[rank]).astype(dtype)
                        .take(factors, axis=0))
        work = digit_add(work, products, f.p, f.m, -1)
        pivots.append(col)
        rank += 1
    red = work[:rank].astype(f.dtype, copy=False)
    red.flags.writeable = False
    return red, rank, tuple(pivots)


def _dual_generator(f: FieldSpec, rows, pivots, ncols):
    """The dual of the row space of rows, whose row i is the unit vector
    of column pivots[i] on the columns pivots: [-A^t | I] up to column
    order, with I on the other columns in ascending order, as a
    read-only array in the field's dtype."""
    free = np.delete(np.arange(ncols), pivots)
    basis = np.zeros((len(free), ncols), dtype=f.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = digit_add(0, rows[:, free].T, f.p, f.m, -1)
    basis.flags.writeable = False
    return basis


def _unit_columns(rows):
    """The first unit column of each row of a k x n matrix with
    k > n - k, or None when the matrix is not that shape or some row has
    no unit column."""
    k, n = rows.shape
    if k <= n - k:
        return None
    unit = np.flatnonzero(rows.sum(axis=0) == 1)
    if len(unit) < k:
        return None
    row_of = np.einsum("i,ij->j", np.arange(k), rows)[unit]
    covered, first = np.unique(row_of, return_index=True)
    return unit[first] if len(covered) == k else None
