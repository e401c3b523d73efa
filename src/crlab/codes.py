"""Linear codes as first-class objects.

Duals, weight distributions (direct enumeration and MacWilliams
transform), two-weight / antipodal predicates, complementary codes and
the projective dual transform.  A code and its dual point at each other
(C^perp^perp = C), so a dual is never eliminated twice while the code is
alive.  Weight data is enumerated on the side of smaller dimension only;
the MacWilliams transform gives the other side.  All arithmetic is exact;
the MacWilliams transform runs in big integers and treats any fractional
intermediate as a hard error, never rounding.

Enumerated weight data weighs the words of :func:`point_words`, one
message per scalar class, and counts each weight q - 1 times.  The
trailing generator rows are spanned once into a block of at most
``_BLOCK_CELLS`` cells; every message led by one of the remaining rows
is a prefix word added to that whole block, so memory stays bounded by
the block whatever q^k is.

A point of PG(k-1, q) is a row of an array in the field's element dtype:
its representative, scaled so that the first nonzero entry is 1.
:func:`projective_points` lists all of them in lexicographic order, and
the generator columns become such rows in one normalize-and-sort kernel,
whose runs of equal rows give every point's multiplicity
(:func:`is_projective`, :func:`max_column_multiplicity`, the
complementary construction).  The projective dual transform weighs
every point as a message, a block of :func:`point_words` at a time.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

import numpy as np

from . import budgets
from .field import FieldSpec, digit_add, span
from .matrix import MatGF

# words x coordinates in the weight kernel's spanned block
_BLOCK_CELLS = 1 << 18


class WeightDistribution:
    """Codeword counts by Hamming weight, A_0 .. A_n."""

    __slots__ = ("counts", "n", "q", "k")

    def __init__(self, counts, q: int, k: int):
        counts = tuple(int(c) for c in counts)
        if counts[0] != 1:
            raise ValueError("A_0 must be 1")
        if any(c < 0 for c in counts):
            raise ValueError("negative weight count")
        if sum(counts) != q ** k:
            raise ValueError(
                f"weight counts sum to {sum(counts)}, expected q^k = {q ** k}"
            )
        self.counts = counts
        self.n = len(counts) - 1
        self.q = q
        self.k = k

    @property
    def nonzero_weights(self) -> tuple:
        return tuple(i for i in range(1, self.n + 1) if self.counts[i])

    @property
    def d(self):
        nz = self.nonzero_weights
        return nz[0] if nz else None

    @property
    def s_count(self) -> int:
        """Number of distinct nonzero weights."""
        return len(self.nonzero_weights)

    def sparse(self) -> dict:
        return {i: c for i, c in enumerate(self.counts) if c}

    def __eq__(self, other):
        return (isinstance(other, WeightDistribution)
                and self.counts == other.counts)

    def __repr__(self):
        return f"WeightDistribution({self.sparse()})"


class LinearCode:
    """A linear [n, k] code given by a full-rank generator matrix.

    k = 0 is allowed as the degenerate dual of the full space.  Derived
    data (dual, weight distribution) is cached; instances are immutable.

    The link from a code to the dual it computed is strong and the link
    back is a ``weakref``: two strong links form a reference cycle, and
    both generator arrays would then wait for the cycle collector.  While
    the code is alive, ``c.dual().dual() is c``; once only the dual is
    held, its ``dual()`` eliminates again and gives the same row space,
    possibly in another basis.
    """

    def __init__(self, field: FieldSpec, G: MatGF):
        if G.nrows and G.field != field:
            raise ValueError("generator field mismatch")
        if G.nrows and G.rank != G.nrows:
            raise ValueError(
                f"generator must have full row rank ({G.rank} < {G.nrows})"
            )
        self.field = field
        self.G = G
        self.n = G.ncols
        self.k = G.nrows
        self._dual = None
        self._wd = None

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "LinearCode":
        return cls(field, MatGF(field, rows))

    @classmethod
    def from_spanning_rows(cls, field: FieldSpec, rows) -> "LinearCode":
        """Reduce an arbitrary spanning set of rows to a basis."""
        return cls(field, MatGF(field, rows).row_basis())

    @property
    def q(self) -> int:
        return self.field.q

    def dual(self) -> "LinearCode":
        dual = self._dual
        if isinstance(dual, weakref.ref):
            dual = dual()
        if dual is None:
            if self.k == 0:
                dual = LinearCode(self.field,
                                  MatGF.identity(self.field, self.n))
            else:
                dual = LinearCode(self.field, self.G.null_space())
            dual._dual = weakref.ref(self)
            self._dual = dual
        return dual

    # -- enumeration ------------------------------------------------------

    def weight_distribution(self) -> WeightDistribution:
        """Exact counts by direct enumeration: one message per scalar
        class of the q^k, each weight counted q - 1 times."""
        if self._wd is None:
            budgets.check_enum(
                self.q ** self.k,
                f"weight distribution of [{self.n},{self.k}]_{self.q} code",
                (self.q, self.k))
            self._wd = WeightDistribution(
                _weight_counts(self.field, self.G), self.q, self.k)
        return self._wd

    def weight_distribution_auto(self) -> WeightDistribution:
        """Enumerate the side of smaller dimension (the code itself when
        k <= n - k); the MacWilliams transform gives the other side.  The
        transform is not cached: `weight_distribution()` stays a direct
        enumeration under its own budget check."""
        if self.k <= self.n - self.k:
            return self.weight_distribution()
        dual = self.dual()
        return macwilliams(dual.weight_distribution(), self.n, dual.k, self.q)

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"


def _weight_counts(field: FieldSpec, G: MatGF) -> list:
    """A_0 .. A_n of the code spanned by the independent rows of G: the
    weights of the words of :func:`point_words`, each counted q - 1
    times."""
    n = G.ncols
    counts = np.zeros(n + 1, dtype=np.int64)
    for words in point_words(field, G.rows):
        counts += np.bincount(np.count_nonzero(words, axis=1),
                              minlength=n + 1)
    counts *= field.q - 1
    counts[0] = 1
    return counts.tolist()


def point_words(field: FieldSpec, G):
    """Blocks of the words mG in the field's dtype, m over the points of
    PG(k-1, q) in :func:`projective_points` order, for a (k, n) array G.

    Those led by one of the t trailing rows are slices of the block that
    :func:`crlab.field.span` spans from them; each message led by one of
    the h = k - t leading rows, walked from h - 1 down to 0, is a prefix
    word added to the whole block.  t is the largest value with
    q^t * n <= _BLOCK_CELLS, but at most k - 1."""
    q, (k, n) = field.q, np.shape(G)
    rows = np.ascontiguousarray(G, dtype=field.dtype)
    t = 0
    while t < k - 1 and q ** (t + 1) * n <= _BLOCK_CELLS:
        t += 1
    h = k - t
    block = span(field, rows[h:])
    for s in range(t):
        yield block[q ** s:2 * q ** s]
    for i in range(h - 1, -1, -1):
        for word in _prefix_words(field, rows[i], rows[i + 1:h]):
            yield digit_add(block, word, field.p, field.m)


def _prefix_words(field: FieldSpec, word: np.ndarray, rows: np.ndarray):
    """word plus each combination of the rows, row 0 most significant."""
    if not len(rows):
        yield word
        return
    for c in range(field.q):
        mult = field.mul_array(c, rows[0]).astype(word.dtype)
        yield from _prefix_words(
            field, digit_add(word, mult, field.p, field.m), rows[1:])


class CodewordMatrix:
    """Explicit list of codewords; also usable for additive/nonlinear codes."""

    def __init__(self, field: FieldSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("empty codeword matrix")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged codeword matrix")
        if len(set(rows)) != len(rows):
            raise ValueError("codeword rows must be distinct")
        self.field = field
        self.rows = rows
        self.N = len(rows)
        self.n = n

    def __repr__(self):
        return f"CodewordMatrix({self.N} x {self.n} over GF({self.field.q}))"


# -- MacWilliams ----------------------------------------------------------

def krawtchouk_column(n: int, q: int, i: int) -> list:
    """K_0(i), ..., K_n(i) by the three-term recurrence
    (j+1) K_{j+1} = ((n-j)(q-1) + j - q i) K_j - (q-1)(n-j+1) K_{j-1};
    every division is exact."""
    col = [1]
    prev, cur = 0, 1
    for j in range(n):
        prev, cur = cur, (((n - j) * (q - 1) + j - q * i) * cur
                          - (q - 1) * (n - j + 1) * prev) // (j + 1)
        col.append(cur)
    return col


def macwilliams(wd: WeightDistribution, n: int, k: int, q: int) -> WeightDistribution:
    """Dual weight distribution via the MacWilliams transform, in O(n s)
    big-int steps for s nonzero input entries.

    Any non-integer or negative output entry signals an inconsistent input
    distribution and raises ValueError.
    """
    if wd.n != n:
        raise ValueError(f"distribution length {wd.n} != n = {n}")
    if sum(wd.counts) != q ** k:
        raise ValueError("input distribution does not sum to q^k")
    size = q ** k
    acc = [0] * (n + 1)
    for i, a in enumerate(wd.counts):
        if a:
            for j, kji in enumerate(krawtchouk_column(n, q, i)):
                acc[j] += a * kji
    out = []
    for j, total in enumerate(acc):
        if total % size != 0:
            raise ValueError(
                f"MacWilliams output B_{j} = {total}/{size} is not an integer; "
                f"input distribution is inconsistent")
        b = total // size
        if b < 0:
            raise ValueError(
                f"MacWilliams output B_{j} = {b} is negative; "
                f"input distribution is inconsistent")
        out.append(b)
    return WeightDistribution(out, q, n - k)


# -- predicates -----------------------------------------------------------

def is_antipodal_two_weight(wd: WeightDistribution, n: int) -> bool:
    """Whether the nonzero weights are exactly {d, n} with d < n."""
    weights = wd.nonzero_weights
    return len(weights) == 2 and weights[-1] == n


def projective_points(field: FieldSpec, k: int) -> np.ndarray:
    """All points of PG(k-1, q) as a (P, k) array of canonical
    representatives (first nonzero entry 1) in the field's dtype, in
    lexicographic order of the rows.

    Read as base-q numbers, first coordinate most significant, the
    representatives with t coordinates after their leading 1 are the
    values q^t .. 2q^t - 1, and lexicographic order is numeric order.
    The array holds P >= q^(k-1) rows, so every value fits an intp."""
    q = field.q
    budgets.check_enum((q ** k - 1) // (q - 1),
                       f"PG({k - 1},{q}) point enumeration")
    values = np.concatenate([np.arange(q ** t, 2 * q ** t) for t in range(k)])
    return (values[:, None] // q ** np.arange(k - 1, -1, -1) % q).astype(
        field.dtype)


def point_index(q: int, rows) -> np.ndarray:
    """The position in :func:`projective_points` order of each canonical
    row (first nonzero entry 1) of a (N, k) array, q^k fitting an int64:
    a row with t coordinates after its leading 1 reads q^t + x in base
    q, and it is point (q^t - 1)/(q - 1) + x."""
    rows = np.asarray(rows, dtype=np.int64)
    place = q ** np.arange(rows.shape[1] - 1, -1, -1)
    lead = place[(rows != 0).argmax(axis=1)]
    return rows @ place - lead + (lead - 1) // (q - 1)


def _column_points(G: MatGF) -> tuple:
    """(points, first, counts) of the multiset of projective points that
    the columns of G form: the distinct points as rows, in lexicographic
    order, the first column that gives each, and how many columns do.

    Every column is scaled by the inverse of its first nonzero entry, all
    at once, the scaled columns are sorted as rows, and a point is a run
    of equal rows.  No row is packed into one integer, so any q^k works.
    (``np.unique(axis=0)`` would do, but its first call imports
    ``numpy.ma``, 1 MB and about 15 ms.)  ValueError names the first zero
    column."""
    if not G.nrows:
        raise ValueError("generator column 0 is zero")
    f = G.field
    # the columns as rows of logs, zero's being z = 2(q - 1), past every
    # other; a zero column leads with its own first entry, z
    z = 2 * (f.q - 1)
    logs = f.log[G.rows.T]
    lead = logs[np.arange(len(logs)), (logs != z).argmax(axis=1)]
    zero = lead.argmax()
    if lead[zero] == z:
        raise ValueError(f"generator column {zero} is zero")
    # dividing by the lead subtracts its log: the index lands in the
    # doubled antilog table, or past z, among its zeros, for a zero
    points = f.antilog[logs + (f.q - 1 - lead)[:, None]].astype(f.dtype)
    # lexsort is stable and takes its last key first
    order = np.lexsort(points.T[::-1])
    points = points[order]
    # the runs of equal rows lie between consecutive edges; two rows are
    # equal when their bytes are, compared as one void scalar a row
    rows = points.view(np.dtype((np.void, points.itemsize * G.nrows)))[:, 0]
    edges = np.ones(len(points) + 1, dtype=bool)
    edges[1:-1] = rows[1:] != rows[:-1]
    edges = edges.nonzero()[0]
    starts = edges[:-1]
    return points[starts], order[starts], edges[1:] - starts


def is_projective(code: LinearCode) -> bool:
    """No two generator columns are scalar multiples (zero columns fail)."""
    try:
        counts = _column_points(code.G)[2]
    except ValueError:
        return False
    return len(counts) == code.n


def max_column_multiplicity(code: MatGF | LinearCode) -> int:
    """The smallest s for which the complementary construction is defined."""
    G = code.G if isinstance(code, LinearCode) else code
    return int(_column_points(G)[2].max())


def complementary_generator(G: MatGF, s: int) -> MatGF:
    """Columns completing those of G to s copies of every projective point
    of PG(k-1, q), k = number of rows.  Works at the message-space level,
    so G need not have full rank; for every message v,
    wt(vG) + wt(vG_c) = s*q^(k-1)."""
    f = G.field
    points, first, counts = _column_points(G)
    over = np.flatnonzero(counts > s)
    if over.size:
        # the over-full point whose first column comes first
        i = over[first[over].argmin()]
        raise ValueError(
            f"point {tuple(points[i].tolist())} occurs {counts[i]} times, "
            f"more than s = {s}")
    every = projective_points(f, G.nrows)
    budgets.check_enum(G.nrows * (s * len(every) - G.ncols),
                       "complementary generator entries")
    need = np.full(len(every), s)
    need[point_index(f.q, points)] -= counts
    cols = np.repeat(every, need, axis=0)
    if not len(cols):
        raise ValueError("degenerate: n_c = 0 (nothing left to complete)")
    return MatGF(f, cols.T)


def complementary_code(code: LinearCode, s: int) -> LinearCode:
    """Complete the generator columns to s copies of every projective point.

    The concatenation [C | C_c] is then equidistant with common distance
    s*q^(k-1); n + n_c = s(q^k - 1)/(q - 1).
    """
    G_c = complementary_generator(code.G, s)
    if G_c.rank != code.k:
        raise ValueError(
            f"complementary columns span only rank {G_c.rank} < k = {code.k}")
    return LinearCode(code.field, G_c)


def projective_dual_transform(code: LinearCode, a: Fraction,
                              b: Fraction) -> LinearCode:
    """Generator whose columns repeat each point of PG(k-1,q) exactly
    a*w + b times, w being the weight of the codeword of any representative
    message for that point.  a and b are exact rationals; a non-integer or
    negative multiplicity for some point is an error.
    """
    if not is_projective(code):
        raise ValueError("projective dual transform needs a projective code")
    a = Fraction(a)
    b = Fraction(b)
    f = code.field
    points = projective_points(f, code.k)
    weights = np.concatenate([np.count_nonzero(words, axis=1)
                              for words in point_words(f, code.G.rows)])
    # a*w + b once per weight that occurs; a failure names the first
    # point, in point order, whose weight fails
    mults = np.zeros(code.n + 1, dtype=np.intp)
    fails = np.zeros(code.n + 1, dtype=bool)
    for w in np.flatnonzero(np.bincount(weights)).tolist():
        m = a * w + b
        if m.denominator == 1 and m >= 0:
            mults[w] = m.numerator
        else:
            fails[w] = True
    bad = np.flatnonzero(fails[weights])
    if bad.size:
        p, w = tuple(points[bad[0]].tolist()), int(weights[bad[0]])
        raise ValueError(
            f"multiplicity a*w + b = {a * w + b} for point {p} (weight {w}) "
            f"is not a nonnegative integer")
    cols = np.repeat(points, mults[weights], axis=0)
    if not len(cols):
        raise ValueError("transform produced a zero-length code")
    G = MatGF(f, np.transpose(cols))
    if G.rank != code.k:
        raise ValueError(
            f"transform columns span only rank {G.rank} < k = {code.k}")
    return LinearCode(f, G)
