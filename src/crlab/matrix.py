"""Exact matrices over a FieldSpec: RREF, rank, null space.

Entries are canonical element codes (plain ints).  Matrices are immutable
tuples of row tuples.  A matrix may have zero rows (the null space of a
full-rank square matrix); the column count is always >= 1.  Products
are :meth:`crlab.field.FieldSpec.matmul` on the row tuples.
"""

from __future__ import annotations

from .field import FieldSpec


class MatGF:
    __slots__ = ("field", "rows", "nrows", "ncols", "_rref_cache", "_rank")

    def __init__(self, field: FieldSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            raise ValueError("use MatGF.empty for zero-row matrices")
        if ncols < 1:
            raise ValueError("matrix needs at least one column")
        for r in rows:
            for a in r:
                if not 0 <= a < field.q:
                    raise ValueError(f"entry {a!r} not in GF({field.q})")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._rref_cache = None
        self._rank = None

    @classmethod
    def empty(cls, field: FieldSpec, ncols: int) -> "MatGF":
        m = cls.__new__(cls)
        m.field = field
        m.rows = ()
        m.nrows = 0
        m.ncols = ncols
        m._rref_cache = ((), 0, ())
        m._rank = 0
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatGF":
        return cls(field, [[1 if i == j else 0 for j in range(n)]
                           for i in range(n)])

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    # -- Gaussian elimination -------------------------------------------

    def rref(self):
        """(reduced row-echelon rows, rank, pivot columns) -- all exact."""
        if self._rref_cache is None:
            self._rref_cache = _rref(self.field, self.rows, self.ncols)
        return self._rref_cache

    @property
    def rank(self) -> int:
        """The rank null_space() certified for this matrix, else the RREF's."""
        return self.rref()[1] if self._rank is None else self._rank

    def null_space(self) -> "MatGF":
        """Basis matrix B with self . B^t = 0, rank(B) = ncols - rank(self).

        Returned as a (ncols - rank) x ncols matrix; zero rows when self has
        full column rank.  The identity sits on the free columns, so B has
        full row rank by construction; B records it, and B.rank runs no
        elimination.
        """
        f = self.field
        red, rank, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        if not free:
            return MatGF.empty(f, self.ncols)
        basis = []
        for fc in free:
            v = [0] * self.ncols
            v[fc] = 1
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(red[i][fc])
            basis.append(v)
        ns = MatGF(f, basis)
        ns._rank = len(free)
        return ns

    def row_space_equal(self, other: "MatGF") -> bool:
        if self.field != other.field or self.ncols != other.ncols:
            return False
        ra, rb = self.rref(), other.rref()
        return ra[0] == rb[0]

    def __eq__(self, other):
        return (isinstance(other, MatGF) and self.field == other.field
                and self.rows == other.rows and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        return f"MatGF({self.nrows}x{self.ncols} over GF({self.field.q}))"


def _rref(f: FieldSpec, rows, ncols):
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
                work[i] = [f.sub(a, f.mul(c, b))
                           for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    nonzero = tuple(tuple(r) for r in work[:rank])
    return nonzero, rank, tuple(pivots)
