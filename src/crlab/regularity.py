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
oracle-tested against :func:`brute_subconstituents`, which counts
neighbors along the coordinate lines of the full vector space and never
looks at syndromes.

Syndromes are packed in radix q (coordinate j weighs q^j); with q = p^m a
packed syndrome is a base-p integer of N = r*m digits added digit-wise
mod p.  The syndrome graph is thus a Cayley graph on F_p^N whose
connection multiset D holds the n(q-1) column deltas gamma*h_j (a zero
column gives self-loops, a repeated column repeated deltas).  D = -D, so
the convolution conv_j = 1_D * 1_(L_j) counts, at each syndrome, the moves
into the level L_j of coset-leader weight j.  L_(j+1) is the support of
conv_j minus the earlier levels (L_0 = {0}, conv_0 = 1_D); on L_j the
down count is conv_(j-1) and the up count conv_(j+1), which on the last
level but one is |D| - down - conv_(rho-1).  So the profile costs
2*rho - 1 transforms (1_D once, then one forward and one inverse per
0 < j < rho), each a length-p DFT along every base-p digit.

The DFT is taken modulo a prime P = 1 (mod p), which holds the p-th roots
of unity, so all arithmetic is exact integers; for p = 2 the root is -1
and the transform is the Walsh-Hadamard transform.  P is the smallest such
prime above 2^b, b the bit length of |D|: a count lies in [0, |D|] and
|D| < P, so it is its own least residue.  Values carry a bound on their
size and are reduced mod P only when a stage or product could overflow;
buffers are int32 when a stage on reduced values fits int32, else int64
(a larger |D| than int64 allows, about 2^30, is refused).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import budgets
from .codes import LinearCode, CodewordMatrix
from .field import is_prime


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


@functools.lru_cache(maxsize=None)
def _ring(p: int, bits: int) -> tuple:
    """(P, w, dtype): the smallest prime P = 1 (mod p) above 2^bits, the
    powers w[e] = root^e of a primitive p-th root of unity mod P as
    residues of least absolute value (w = [1, -1] for p = 2), and the
    narrower of int32/int64 in which a stage on reduced values, or the
    product of two reduced values, cannot overflow."""
    P = (1 << bits) + 1 + (-(1 << bits)) % p
    while not is_prime(P):
        P += p
    root = next(x for a in range(2, P) if (x := pow(a, (P - 1) // p, P)) != 1)
    w = [(pow(root, e, P) + P // 2) % P - P // 2 for e in range(p)]
    for dtype in (np.int32, np.int64):
        if sum(map(abs, w)) * P * P <= np.iinfo(dtype).max:
            return P, w, dtype
    raise ValueError(f"no int64 transform modulus above 2^{bits} for p = {p}")


def _dft(x, y, w, sign: int, P: int, bound: int, ndigits: int):
    """Length-p DFT mod P with roots w[sign*j*k] along each of the ndigits
    base-p digits of the flat buffer x, y being the other buffer; returns
    (result, free buffer, bound on |result|) given |x| <= bound.

    A stage reads the top digit as the contiguous rows x[j] and writes
    the transformed digit as the lowest one of y, so after ndigits stages
    every digit is back in place.  x is reduced mod P only when the next
    stage could overflow its dtype."""
    p = len(w)
    m = x.size // p
    growth, limit = sum(map(abs, w)), np.iinfo(x.dtype).max
    # only p = 2 has no root other than +-1 to multiply by
    scratch = np.empty(m if p > 2 else 0, dtype=x.dtype)
    for _ in range(ndigits):
        if bound * growth > limit:
            np.remainder(x, P, out=x)
            bound = P - 1
        src, dst = x.reshape(p, m), y.reshape(m, p)
        for k in range(p):
            out, acc = dst[:, k], src[0]
            for j in range(1, p):
                root = w[sign * j * k % p]
                if root == 1:
                    np.add(acc, src[j], out=out)
                elif root == -1:
                    np.subtract(acc, src[j], out=out)
                else:
                    np.add(acc, np.multiply(src[j], root, out=scratch), out=out)
                acc = out
        x, y = y, x
        bound *= growth
    return x, y, bound


class SyndromeProfile:
    """Coset-leader levels for every syndrome of a linear code, with the
    per-syndrome down and up neighbor counts."""

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
            self._down = self._up = np.zeros(1, dtype=np.int32)
            return

        H = code.dual().G  # parity-check rows of `code`
        # one delta per (column j, nonzero gamma), j outer: the packed
        # syndrome of gamma*e_j
        cols = H.rows.T
        gammas = np.arange(1, q)[:, None]
        places = q ** np.arange(r, dtype=np.int64)
        products = f.mul_array(cols[:, None, :], gammas)
        deltas = (products @ places).ravel()
        self.deltas = deltas.tolist()

        total, ndigits = deltas.size, r * f.m
        P, w, dtype = _ring(f.p, total.bit_length())
        levels = np.full(size, -1, dtype=np.int8)
        levels[0] = 0
        down = np.zeros(size, dtype=np.int32)
        up = np.zeros(size, dtype=np.int32)
        conv = np.bincount(deltas, minlength=size).astype(dtype)
        spare = np.empty_like(conv)
        counts = {0: 1}
        d_hat = None
        depth = 0
        while True:
            # conv = conv_depth.  Masked stores are products with 0/1
            # masks into cells still 0 (-1 in levels): no branch per cell
            if depth:
                up += np.multiply(conv, levels == depth - 1, out=spare)
            fresh = conv > 0
            fresh &= levels < 0
            counts[depth + 1] = int(np.count_nonzero(fresh))
            if not counts[depth + 1]:
                raise AssertionError("syndrome BFS did not reach every coset")
            levels += fresh.view(np.int8) * np.int8(depth + 2)
            down += np.multiply(conv, fresh, out=spare)
            if sum(counts.values()) == size:
                break
            if d_hat is None:  # F(1_D) p^(-N): the inverses need no scaling
                conv, spare, _ = _dft(conv, spare, w, 1, P, total, ndigits)
                conv %= P
                conv *= pow(f.p, -ndigits, P)
                conv %= P
                d_hat = conv.astype(np.int32)
            np.copyto(conv, fresh)
            conv, spare, bound = _dft(conv, spare, w, 1, P, 1, ndigits)
            if bound * P > np.iinfo(dtype).max:
                conv %= P
                bound = P
            conv *= d_hat
            conv, spare, _ = _dft(conv, spare, w, -1, P, bound * P, ndigits)
            conv %= P
            depth += 1
        # up on L_depth, the last level but one: |D| - down - conv_depth
        conv += down
        np.subtract(total, conv, out=conv)
        up += np.multiply(conv, levels == depth, out=conv)

        self.levels = levels
        self.rho = depth + 1
        self.level_coset_counts = counts
        self._down, self._up = down, up

    def coset_counts(self) -> dict:
        """Number of cosets at each level 0..rho."""
        return dict(self.level_coset_counts)

    def vector_counts(self) -> dict:
        """Size of each subconstituent C(i) in vectors."""
        size_coset = self.q ** self.code.k
        return {l: c * size_coset for l, c in self.level_coset_counts.items()}

    def neighbor_level_counts(self):
        """(down, up) int32 arrays: per syndrome, the number of (i, gamma)
        moves landing one level lower / higher."""
        return self._down, self._up


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
    full space, then the neighbor-count definition checked over vectors.
    Only feasible for q^n <= 2^20.  It starts from ``code.codewords()``
    and never touches syndromes, the parity-check matrix or the dual.

    Vectors are packed in radix q (coordinate i weighs q^i), so the space
    viewed as a (q^(n-1-i), q, q^i) array has the coordinate-i lines of
    the Hamming graph along its middle axis.  The neighbors of x are the
    other points of its n lines, so the BFS sums the level-d counts of
    x's lines once per depth d: on unreached vectors that sum's support
    is level d + 1 and it is their down count; on level d - 1 it is the
    up count."""
    q, n = code.q, code.n
    space = q ** n
    if space > BRUTE_LIMIT:
        raise ValueError(
            f"brute subconstituent scan needs q^n = {space} > {BRUTE_LIMIT}")

    levels = np.full(space, -1, dtype=np.int8)
    words = np.array(code.codewords(), dtype=np.int64)
    levels[words @ q ** np.arange(n, dtype=np.int64)] = 0
    # a sum read off a vector outside level d is at most n(q - 1); on
    # level d it counts the vector itself, may wrap, and is never read
    count = np.empty(space, dtype=np.min_scalar_type(n * (q - 1)))
    down, up = np.zeros_like(count), np.zeros_like(count)
    rho = 0
    while True:
        _line_counts(levels == rho, q, n, count)
        # stores are products with 0/1 masks into cells still 0 (-1 in
        # levels): a masked store costs a branch per cell
        if rho:
            up += count * (levels == rho - 1)
        fresh = (levels < 0) & (count > 0)
        if not fresh.any():
            break
        rho += 1
        levels += fresh.view(np.int8) * np.int8(rho + 1)
        down += count * fresh

    b, c = [], []
    for l in range(rho + 1):
        members = levels == l
        first = int(members.argmax())
        d0, u0 = int(down[first]), int(up[first])
        bad = (down != d0) | (up != u0)
        bad &= members
        if bad.any():
            j = int(bad.argmax())
            viol = (l, first, (d0, u0), j, (int(down[j]), int(up[j])))
            return BruteResult(levels=levels, rho=rho, ia=None,
                               violation=viol)
        c.append(d0)
        b.append(u0)
    ia = IntersectionArray(rho=rho, b=tuple(b[:rho]), c=tuple(c[1:]),
                           n=n, q=q)
    return BruteResult(levels=levels, rho=rho, ia=ia, violation=None)


def _line_counts(mask, q: int, n: int, out) -> None:
    """out[x] = the number of points of mask on x's n coordinate lines
    (x itself n times when it is in mask), wrapping in out's dtype."""
    out.fill(0)
    ones = mask.view(np.uint8)
    for i in range(n):
        shape = (q ** (n - 1 - i), q, q ** i)
        lines, sums = ones.reshape(shape), out.reshape(shape)
        # numpy runs a short innermost axis slowly: split it off
        for lo in range(shape[2]) if shape[2] < 16 else (slice(None),):
            m, o = lines[:, :, lo], sums[:, :, lo]
            # and reduces a short middle axis slowly too: add its slices
            line = m[:, 0].astype(out.dtype)
            for j in range(1, q):
                line += m[:, j]
            for j in range(q):
                o[:, j] += line


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
