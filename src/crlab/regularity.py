"""Covering radius, subconstituents, complete regularity, intersection
arrays, orthogonal-array strength and the uniform-packing verdict.

Complete regularity is decided on the syndrome graph rather than the full
vector space.  Justification: for a linear code the distance of a vector x
to the code depends only on its syndrome (the coset leader weight), and
the neighbors of x are exactly the vectors x + gamma*e_i, whose syndromes
are s + gamma*h_i where h_i is the i-th parity-check column.  The number
of neighbors of x lying in each subconstituent is therefore a function of
the syndrome of x alone, so per-coset constancy of the up/down neighbor
counts is equivalent to constancy over vectors.  The reduction is
oracle-tested against :func:`brute_subconstituents`, which works on the
full vector space and never looks at syndromes.

Syndromes are packed as integers in radix q (coordinate j weighs q^j).
With q = p^m a packed syndrome is a base-p integer of r*m digits, and
syndrome addition is digit-wise mod p: the syndrome graph is a Cayley
graph on F_p^(rm) whose connection set is the set of column deltas.  The
BFS and the counting pass both add deltas to whole arrays of syndromes
with :func:`crlab.field.digit_add` (XOR for p = 2), one numpy path for
every characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budgets
from .codes import LinearCode, CodewordMatrix
from .field import digit_add


@dataclass(frozen=True)
class IntersectionArray:
    """{b_0, ..., b_(rho-1); c_1, ..., c_rho} with a_l derived."""

    rho: int
    b: tuple
    c: tuple
    n: int
    q: int

    def __post_init__(self):
        if len(self.b) != self.rho or len(self.c) != self.rho:
            raise ValueError("b and c must each have rho entries")
        if self.rho and self.c[0] < 1:
            raise ValueError("c_1 must be >= 1")
        if any(x < 0 for x in self.b) or any(x < 0 for x in self.c):
            raise ValueError("intersection numbers must be nonnegative")

    @property
    def a(self) -> tuple:
        total = (self.q - 1) * self.n
        full_b = self.b + (0,)
        full_c = (0,) + self.c
        return tuple(total - bb - cc for bb, cc in zip(full_b, full_c))

    def same_array(self, other: "IntersectionArray") -> bool:
        return self.rho == other.rho and self.b == other.b and self.c == other.c

    def __str__(self):
        bs = ",".join(str(x) for x in self.b)
        cs = ",".join(str(x) for x in self.c)
        return "{%s;%s}" % (bs, cs)


class SyndromeProfile:
    """Coset-leader levels for every syndrome of a linear code."""

    def __init__(self, code: LinearCode):
        self.code = code
        self.q = code.q
        self.r = code.n - code.k
        budgets.check_synd(self.q ** self.r,
                           f"profile of [{code.n},{code.k}]_{self.q} code")
        self._build()

    def _build(self):
        code = self.code
        f = code.field
        q, r = self.q, self.r
        size = q ** r
        self.size = size

        if r == 0:
            self.levels = np.zeros(1, dtype=np.int8)
            self.deltas = []
            self.rho = 0
            self.level_coset_counts = {0: 1}
            return

        H = code.dual().G  # parity-check rows of `code`
        # one delta per (column j, nonzero gamma), j outer: the packed
        # syndrome of gamma*e_j
        cols = np.array(H.rows, dtype=np.intp).T
        gammas = np.arange(1, q)[:, None]
        places = q ** np.arange(r, dtype=np.int64)
        products = f.mul_array(cols[:, None, :], gammas)
        deltas = (products @ places).ravel().tolist()
        self.deltas = deltas

        p, ndigits = f.p, r * f.m
        levels = np.full(size, -1, dtype=np.int8)
        levels[0] = 0
        frontier = np.array([0], dtype=np.int64)
        depth = 0
        seen = 1
        while frontier.size and seen < size:
            depth += 1
            mask = np.zeros(size, dtype=bool)
            for d in deltas:
                mask[digit_add(frontier, d, p, ndigits)] = True
            mask &= levels < 0
            nxt = np.nonzero(mask)[0]
            levels[nxt] = depth
            seen += nxt.size
            frontier = nxt
        if seen != size:
            raise AssertionError("syndrome BFS did not reach every coset")
        self.levels = levels
        self.rho = int(levels.max())
        vals, counts = np.unique(levels, return_counts=True)
        self.level_coset_counts = {int(v): int(c) for v, c in zip(vals, counts)}

    def coset_counts(self) -> dict:
        """Number of cosets at each level 0..rho."""
        return dict(self.level_coset_counts)

    def vector_counts(self) -> dict:
        """Size of each subconstituent C(i) in vectors."""
        size_coset = self.q ** self.code.k
        return {l: c * size_coset for l, c in self.level_coset_counts.items()}

    def neighbor_level_counts(self):
        """(down, up) arrays: per syndrome, the number of (i, gamma) moves
        landing one level lower / higher."""
        levels = self.levels
        if self.r == 0:
            return (np.zeros(1, dtype=np.int64),) * 2
        down = np.zeros(self.size, dtype=np.int64)
        up = np.zeros(self.size, dtype=np.int64)
        p, ndigits = self.code.field.p, self.r * self.code.field.m
        idx = np.arange(self.size, dtype=np.int64)
        lv = levels.astype(np.int16)
        for d in self.deltas:
            nb = lv[digit_add(idx, d, p, ndigits)]
            down += nb == lv - 1
            up += nb == lv + 1
        return down, up


def syndrome_profile(code: LinearCode) -> SyndromeProfile:
    return SyndromeProfile(code)


def covering_radius(code: LinearCode) -> int:
    return SyndromeProfile(code).rho


def external_distance(code: LinearCode) -> int:
    """Number of distinct nonzero weights of the dual code."""
    return code.dual().weight_distribution_auto().s_count


@dataclass(frozen=True)
class PackingVerdict:
    rho: int
    s: int

    @property
    def rho_le_s(self) -> bool:
        return self.rho <= self.s

    @property
    def uniformly_packed(self) -> bool:
        """Wide-sense uniform packing, decided through rho = s."""
        return self.rho == self.s


def up_wide_check(code: LinearCode) -> PackingVerdict:
    return PackingVerdict(rho=covering_radius(code),
                          s=external_distance(code))


@dataclass(frozen=True)
class RegularityViolation:
    level: int
    syndrome_a: int
    counts_a: tuple
    syndrome_b: int
    counts_b: tuple


@dataclass(frozen=True)
class RegularityResult:
    ia: IntersectionArray | None
    violation: RegularityViolation | None
    profile: SyndromeProfile

    @property
    def is_completely_regular(self) -> bool:
        return self.ia is not None


def complete_regularity(code: LinearCode) -> RegularityResult:
    """The intersection array if the code is completely regular, otherwise
    the first per-level constancy violation (ordered by syndrome index)."""
    prof = SyndromeProfile(code)
    down, up = prof.neighbor_level_counts()
    levels = prof.levels
    b = [0] * (prof.rho + 1)
    c = [0] * (prof.rho + 1)
    for l in range(prof.rho + 1):
        members = np.nonzero(levels == l)[0]
        d0 = int(down[members[0]])
        u0 = int(up[members[0]])
        bad = np.nonzero((down[members] != d0) | (up[members] != u0))[0]
        if bad.size:
            j = int(members[bad[0]])
            viol = RegularityViolation(
                level=l,
                syndrome_a=int(members[0]),
                counts_a=(d0, u0),
                syndrome_b=j,
                counts_b=(int(down[j]), int(up[j])),
            )
            return RegularityResult(ia=None, violation=viol, profile=prof)
        c[l] = d0
        b[l] = u0
    ia = IntersectionArray(rho=prof.rho,
                           b=tuple(b[:prof.rho]),
                           c=tuple(c[1:prof.rho + 1]),
                           n=code.n, q=code.q)
    return RegularityResult(ia=ia, violation=None, profile=prof)


BRUTE_LIMIT = 1 << 20


@dataclass(frozen=True)
class BruteResult:
    levels: np.ndarray
    rho: int
    ia: IntersectionArray | None
    violation: tuple | None

    @property
    def is_completely_regular(self) -> bool:
        return self.ia is not None


def brute_subconstituents(code: LinearCode) -> BruteResult:
    """Independent oracle: distance to the code for every vector of the
    full space, then the neighbor-count definition checked verbatim over
    vectors.  Only feasible for q^n <= 2^20; never touches syndromes."""
    q, n = code.q, code.n
    space = q ** n
    if space > BRUTE_LIMIT:
        raise ValueError(
            f"brute subconstituent scan needs q^n = {space} > {BRUTE_LIMIT}")

    levels = np.full(space, -1, dtype=np.int8)
    sources = np.fromiter((_pack(w, q) for w in code.codewords()),
                          dtype=np.int64, count=q ** code.k)
    levels[sources] = 0
    frontier = sources
    depth = 0
    seen = frontier.size
    powers = [q ** i for i in range(n)]
    while frontier.size and seen < space:
        depth += 1
        collected = []
        for pos in range(n):
            pw = powers[pos]
            digit = (frontier // pw) % q
            base = frontier - digit * pw
            for v in range(q):
                nb = base + v * pw
                fresh = nb[levels[nb] < 0]
                if fresh.size:
                    levels[fresh] = depth
                    collected.append(fresh)
        if collected:
            frontier = np.unique(np.concatenate(collected))
            # batches may overlap between positions; recount exactly
            seen = int(np.count_nonzero(levels >= 0))
        else:
            frontier = np.empty(0, dtype=np.int64)
    rho = int(levels.max())

    # verbatim neighbor-count check, vector by vector
    idx = np.arange(space, dtype=np.int64)
    lv = levels.astype(np.int16)
    down = np.zeros(space, dtype=np.int64)
    up = np.zeros(space, dtype=np.int64)
    for pos in range(n):
        pw = powers[pos]
        digit = (idx // pw) % q
        base = idx - digit * pw
        for v in range(q):
            nb_lv = lv[base + v * pw]
            moved = v != digit
            down += moved & (nb_lv == lv - 1)
            up += moved & (nb_lv == lv + 1)

    b = [0] * (rho + 1)
    c = [0] * (rho + 1)
    for l in range(rho + 1):
        members = np.nonzero(levels == l)[0]
        d0 = int(down[members[0]])
        u0 = int(up[members[0]])
        bad = np.nonzero((down[members] != d0) | (up[members] != u0))[0]
        if bad.size:
            j = int(members[bad[0]])
            viol = (l, int(members[0]), (d0, u0), j,
                    (int(down[j]), int(up[j])))
            return BruteResult(levels=levels, rho=rho, ia=None,
                               violation=viol)
        c[l] = d0
        b[l] = u0
    ia = IntersectionArray(rho=rho, b=tuple(b[:rho]), c=tuple(c[1:rho + 1]),
                           n=n, q=q)
    return BruteResult(levels=levels, rho=rho, ia=ia, violation=None)


def _pack(vec, q: int) -> int:
    out = 0
    for x in reversed(vec):
        out = out * q + x
    return out


def oa_strength(matrix: CodewordMatrix, q: int) -> int:
    """Largest t such that every t-column projection hits every q-ary
    t-tuple exactly N/q^t times.  Column subsets are scanned in
    lexicographic order with early exit on the first violation."""
    import itertools

    rows = matrix.rows
    N, n = matrix.N, matrix.n
    t = 0
    while t < n:
        t += 1
        if N % (q ** t):
            return t - 1
        lam = N // (q ** t)
        ok = True
        for cols in itertools.combinations(range(n), t):
            counts: dict = {}
            for r in rows:
                key = tuple(r[c] for c in cols)
                counts[key] = counts.get(key, 0) + 1
            if len(counts) != q ** t or any(v != lam for v in counts.values()):
                ok = False
                break
        if not ok:
            return t - 1
    return n


def packing_radius(d: int) -> int:
    return (d - 1) // 2
