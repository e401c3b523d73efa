"""Linear codes as first-class objects.

Duals, weight distributions (direct enumeration and MacWilliams
transform), two-weight / antipodal predicates, complementary codes and
the projective dual transform.  A code and its dual point at each other
(C^perp^perp = C), so a dual is never eliminated twice while the code is
alive.  Weight data is enumerated on the side of smaller dimension only;
the MacWilliams transform gives the other side.  All arithmetic is exact;
the MacWilliams transform runs in big integers and treats any fractional
intermediate as a hard error, never rounding.

Enumerated weight data comes from a numpy kernel that weighs one message
per scalar class (first nonzero coordinate 1) and counts each weight
q - 1 times.  The trailing generator rows are spanned once into a block
of at most ``_BLOCK_CELLS`` cells; every message led by one of the
remaining rows is a prefix word added to that whole block, so memory
stays bounded by the block whatever q^k is.  Products come from the
field's log/antilog arrays and sums from :func:`crlab.field.digit_add`.
``codewords()`` still materialises every word as a tuple; it is the
input of the brute-force oracles and the reference the kernel is tested
against.  The projective dual transform weighs every point of
PG(k-1, q) as a message with one :meth:`crlab.field.FieldSpec.matmul`.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budgets
from .field import FieldSpec, digit_add
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

    def codewords(self):
        """All q^k codewords, in message order (messages counted base q).

        Subject to the enumeration budget.
        """
        budgets.check_enum(self.q ** self.k,
                           f"enumerating [{self.n},{self.k}]_{self.q} code")
        return list(_span(self.field, self.G))

    def weight_distribution(self) -> WeightDistribution:
        """Exact counts by direct enumeration: one message per scalar
        class of the q^k, each weight counted q - 1 times."""
        if self._wd is None:
            budgets.check_enum(
                self.q ** self.k,
                f"weight distribution of [{self.n},{self.k}]_{self.q} code")
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

    def min_distance(self) -> int:
        d = self.weight_distribution_auto().d
        if d is None:
            raise ValueError("the zero code has no minimum distance")
        return d

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"


def _span(field: FieldSpec, G: MatGF):
    """Iterate all codewords by extending partial sums row by row."""
    n = G.ncols
    words = [(0,) * n]
    add = field.add
    mul = field.mul
    for row in G.rows:
        scaled = [tuple(mul(c, x) for x in row) for c in range(field.q)]
        words = [tuple(add(a, b) for a, b in zip(w, s))
                 for w in words for s in scaled]
    return words


def _weight_counts(field: FieldSpec, G: MatGF) -> list:
    """A_0 .. A_n of the code spanned by the independent rows of G.

    Only the messages whose first nonzero coordinate is 1 are weighed.
    Those led by one of the t trailing rows are slices of the block
    spanned by those rows; each message led by one of the h = k - t
    leading rows is a prefix word added to the whole block.  t is the
    largest value with q^t * n <= _BLOCK_CELLS, but at most k - 1.
    """
    q, n, k = field.q, G.ncols, G.nrows
    counts = np.zeros(n + 1, dtype=np.int64)
    if k:
        # holds the digit sums inside digit_add (each below 2q)
        dtype = np.min_scalar_type(2 * q)
        rows = G.rows.astype(dtype)
        t = 0
        while t < k - 1 and q ** (t + 1) * n <= _BLOCK_CELLS:
            t += 1
        h = k - t
        block = _span_block(field, rows[h:])
        for s in range(t):
            counts += _weight_histogram(block[q ** s:2 * q ** s])
        for i in range(h):
            for word in _prefix_words(field, rows[i], rows[i + 1:h]):
                counts += _weight_histogram(
                    digit_add(block, word, field.p, field.m))
        counts *= q - 1
    counts[0] = 1
    return counts.tolist()


def _span_block(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """All q^t combinations of the t rows, one per array row: the
    combination with coefficients c_0 .. c_(t-1) sits at index
    sum_i c_i q^(t-1-i), so those led by row i (c_i = 1 and zero before
    it) fill [q^(t-1-i), 2 q^(t-1-i))."""
    elements = np.arange(field.q)[:, None]
    block = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows[::-1]:
        mults = field.mul_array(elements, row).astype(rows.dtype)
        block = digit_add(mults[:, None], block, field.p, field.m)
        block = block.reshape(-1, rows.shape[1])
    return block


def _prefix_words(field: FieldSpec, word: np.ndarray, rows: np.ndarray):
    """word plus each combination of the rows, depth first."""
    if not len(rows):
        yield word
        return
    for c in range(field.q):
        mult = field.mul_array(c, rows[0]).astype(word.dtype)
        yield from _prefix_words(
            field, digit_add(word, mult, field.p, field.m), rows[1:])


def _weight_histogram(words: np.ndarray) -> np.ndarray:
    return np.bincount(np.count_nonzero(words, axis=1),
                       minlength=words.shape[1] + 1)


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

    @classmethod
    def from_code(cls, code: LinearCode) -> "CodewordMatrix":
        return cls(code.field, code.codewords())

    def weights(self) -> list:
        return [sum(1 for x in r if x) for r in self.rows]

    def __repr__(self):
        return f"CodewordMatrix({self.N} x {self.n} over GF({self.field.q}))"


def hamming_distance(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


# -- MacWilliams ----------------------------------------------------------

def krawtchouk(n: int, q: int, j: int, i: int) -> int:
    """K_j(i) = sum_t (-1)^t (q-1)^(j-t) C(i,t) C(n-i, j-t), exact."""
    acc = 0
    for t in range(j + 1):
        acc += ((-1) ** t) * ((q - 1) ** (j - t)) \
            * math.comb(i, t) * math.comb(n - i, j - t)
    return acc


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

@dataclass(frozen=True)
class AntipodalVerdict:
    weights: tuple
    d: int | None
    is_two_weight: bool
    includes_n: bool

    @property
    def holds(self) -> bool:
        return self.is_two_weight and self.includes_n


def is_antipodal_two_weight(wd: WeightDistribution, n: int) -> AntipodalVerdict:
    """True iff the nonzero weights are exactly {d, n} with d < n."""
    weights = wd.nonzero_weights
    two = len(weights) == 2
    return AntipodalVerdict(
        weights=weights,
        d=weights[0] if weights else None,
        is_two_weight=two,
        includes_n=two and weights[-1] == n,
    )


def normalize_point(field: FieldSpec, vec):
    """Projective representative: scale so the first nonzero entry is 1.

    Returns None for the zero vector.
    """
    for x in vec:
        if x:
            if x == 1:
                return tuple(vec)
            inv = field.inv(x)
            return tuple(field.mul(inv, y) for y in vec)
    return None


def projective_points(field: FieldSpec, k: int) -> list:
    """All points of PG(k-1, q) as canonical representatives, in
    lexicographic order of the representative tuples.

    The representatives are (0, ..., 0, 1, tail) for every tail; a later
    leading 1 sorts first, and each lead's tails come in product order."""
    q = field.q
    budgets.check_enum((q ** k - 1) // (q - 1),
                       f"PG({k - 1},{q}) point enumeration")
    return [(0,) * lead + (1,) + tail
            for lead in range(k - 1, -1, -1)
            for tail in itertools.product(range(q), repeat=k - 1 - lead)]


def is_projective(code: LinearCode) -> bool:
    """No two generator columns are scalar multiples (zero columns fail)."""
    seen = set()
    for col in code.G.rows.T.tolist():
        rep = normalize_point(code.field, col)
        if rep is None or rep in seen:
            return False
        seen.add(rep)
    return True


def column_point_multiplicities(G: MatGF | LinearCode) -> dict:
    """Multiset of projective points formed by the generator columns."""
    if isinstance(G, LinearCode):
        G = G.G
    mult: dict = {}
    for j, col in enumerate(G.rows.T.tolist()):
        rep = normalize_point(G.field, col)
        if rep is None:
            raise ValueError(f"generator column {j} is zero")
        mult[rep] = mult.get(rep, 0) + 1
    return mult


def max_column_multiplicity(code: MatGF | LinearCode) -> int:
    """The smallest s for which the complementary construction is defined."""
    return max(column_point_multiplicities(code).values())


def complementary_generator(G: MatGF, s: int) -> MatGF:
    """Columns completing those of G to s copies of every projective point
    of PG(k-1, q), k = number of rows.  Works at the message-space level,
    so G need not have full rank; for every message v,
    wt(vG) + wt(vG_c) = s*q^(k-1)."""
    f = G.field
    mult = column_point_multiplicities(G)
    over = [p for p, c in mult.items() if c > s]
    if over:
        raise ValueError(
            f"point {over[0]} occurs {mult[over[0]]} times, more than s = {s}")
    cols = []
    for p in projective_points(f, G.nrows):
        cols.extend([p] * (s - mult.get(p, 0)))
    if not cols:
        raise ValueError("degenerate: n_c = 0 (nothing left to complete)")
    return MatGF(f, np.transpose(cols))


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
    weights = np.count_nonzero(f.matmul(points, code.G.rows), axis=1)
    cols = []
    for p, w in zip(points, weights.tolist()):
        m = a * w + b
        if m.denominator != 1 or m < 0:
            raise ValueError(
                f"multiplicity a*w + b = {m} for point {p} (weight {w}) "
                f"is not a nonnegative integer")
        cols.extend([p] * int(m))
    if not cols:
        raise ValueError("transform produced a zero-length code")
    G = MatGF(f, np.transpose(cols))
    if G.rank != code.k:
        raise ValueError(
            f"transform columns span only rank {G.rank} < k = {code.k}")
    return LinearCode(f, G)


def equidistant_check(obj) -> int | None:
    """The common pairwise distance if all pairwise distances agree, else None.

    For LinearCode inputs this checks that all nonzero weights are equal;
    for CodewordMatrix inputs all row pairs are compared.
    """
    if isinstance(obj, LinearCode):
        weights = obj.weight_distribution_auto().nonzero_weights
        return weights[0] if len(weights) == 1 else None
    rows = obj.rows
    d = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            dd = hamming_distance(rows[i], rows[j])
            if d is None:
                d = dd
            elif dd != d:
                return None
    return d


def concatenate(a: LinearCode, b: LinearCode) -> LinearCode:
    """[A | B]: same message space, juxtaposed coordinates."""
    if a.k != b.k or a.field != b.field:
        raise ValueError("codes must share the field and dimension")
    return LinearCode(a.field, MatGF(a.field, np.hstack([a.G.rows, b.G.rows])))


def low_weight_min_distance(code: LinearCode, w_max: int) -> int | None:
    """Smallest nonzero codeword weight <= w_max, by searching all supports
    of size <= w_max; None if every codeword below that weight is zero.

    Independent of the weight-distribution path: candidates are checked by
    parity alone, so this also works when q^k is far over the enumeration
    budget."""
    f = code.field
    H = code.dual().G
    if H.nrows == 0:
        return 1 if code.n >= 1 else None
    hcols = H.rows.T.tolist()
    r = H.nrows
    for w in range(1, w_max + 1):
        for support in itertools.combinations(range(code.n), w):
            for values in _nonzero_tuples(f, w):
                syn = [0] * r
                for pos, val in zip(support, values):
                    col = hcols[pos]
                    for i in range(r):
                        if col[i]:
                            syn[i] = f.add(syn[i], f.mul(val, col[i]))
                if not any(syn):
                    return w
    return None


def _nonzero_tuples(field: FieldSpec, w: int):
    # first entry fixed to 1: weights are invariant under global scaling
    for rest in itertools.product(range(1, field.q), repeat=w - 1):
        yield (1,) + rest
