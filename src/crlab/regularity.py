"""Covering radius, subconstituents, complete regularity, intersection
arrays and orthogonal-array strength.

:func:`dual_regularity` is where every command gets rho and the
intersection array of a code.  By Delsarte's theorem (Inform. Control
23, 1973) a code with d >= 2s' - 1, s' the number of nonzero dual
weights, is completely regular with rho = s', and :func:`delsarte_ia`
gives its array in closed form; any other code is profiled on its
syndrome graph by :func:`complete_regularity`.

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
into the level L_j of coset-leader weight j.

Scaling s -> gamma s keeps coset-leader weights and maps D onto itself
(Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 11.1), so the levels
and every conv_j are constant on the orbits of F_q^*: {0}, and q - 1
syndromes each otherwise.  The profile keeps one cell per orbit.  An
orbit's smallest syndrome is the one whose highest nonzero coordinate
is 1, so the cells in ascending order are the minima 0 and q^t + x,
x < q^t, in ascending order, and q^t + x is cell
base_t + x, base_t = 1 + (q^t - 1)/(q - 1).  An int32 map sends every
syndrome to its cell (:func:`_orbit_map`, one broadcast add per
coordinate).  For q = 2 every orbit is one syndrome, and so is every
cell of a space of at most _MAPPED syndromes, where the map would cost
more than it saves: no map is built and nothing is gathered.

The BFS takes one step per level j < rho: L_(j+1) is the support of
conv_j on the unreached cells U_j and conv_j is its down count there, and
on L_j the up count is |D| minus the down count minus conv_j (the moves
within the level).  Step 0 reads conv_0 = 1_D off the deltas, or with a
map off the parity-check columns: a nonzero column has one multiple at
its orbit's minimum.  Each
later step gets conv_j on L_j and U_j in whichever of two ways costs
least, judged before the work from exact counts:

- scatter the cells of the smaller of L_j and U_j: add every delta to
  each cell's minimum m and count the targets per cell through the map,
  |cells| |D| pairs.  x = gamma m is reached from s by d exactly when
  gamma^-1 s = m + gamma^-1 d, so the pairs that land in s's orbit are
  the moves from s into the orbit of m.  On U_j the complement's count
  1_D * 1_(U_j) is the moves that stay in U_j, whose neighbors lie in
  L_j and U_j only, so |D| minus it is conv_j there and, on L_j, it is
  the up count itself;
- or transform: expand 1_(L_j) to every syndrome through the map, run
  two length-q^r transforms (three on the first transformed step, which
  also transforms 1_D), and read conv_j at the minima, q^t .. 2q^t - 1
  for the cells of block t.

A scatter on cells makes q - 1 times fewer pairs, so only a large |D|
is transformed: the [8,2]_8 two-weight side (2^18 syndromes in 37450
cells, rho = 6) scatters every step, where on every syndrome it ran 3
transforms, and Delsarte 64's [2016,2013]_64 side (|D| = 127008)
transforms its one step after step 0.  A profile holds the map, 4 bytes
a syndrome, and 14 to 31 bytes a cell; a transformed step adds two
syndrome-long buffers and F(1_D).

A transform is a length-p DFT along every base-p digit, modulo a prime
P = 1 (mod p), which holds the p-th roots of unity, so all arithmetic is
exact integers; for p = 2 the root is -1 and the transform is the
Walsh-Hadamard transform.  P is the smallest such prime above 2^b, b the
bit length of |D|: a count lies in [0, |D|] and |D| < P, so it is its
own least residue.  Values carry a bound on their size and are reduced
mod P, by a floor division, only when a stage or product could come
within P of overflowing; buffers are int32 when a stage on reduced values
fits int32 with that headroom, else int64 (a larger |D| than int64
allows, about 2^30, is refused).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import budgets
from .codes import LinearCode, CodewordMatrix
from .field import digit_add, is_prime, span


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

    def level_sizes(self) -> tuple:
        """(k_0, ..., k_rho): the cosets in each subconstituent of a
        completely regular code with this array, from k_0 = 1 and
        k_(i+1) c_(i+1) = k_i b_i (the moves between levels i and i + 1
        counted from both ends); times q^k they are vector counts.  A
        quotient that is not an integer raises ValueError."""
        sizes = [1]
        for b, c in zip(self.b, self.c):
            size, rest = divmod(sizes[-1] * b, c)
            if rest:
                raise ValueError(f"{self} is not the array of a completely "
                                 f"regular code: k_{len(sizes)} = "
                                 f"{sizes[-1] * b}/{c}")
            sizes.append(size)
        return tuple(sizes)

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
    product of two reduced values, stays P below the dtype's limit (the
    headroom :func:`_reduce` needs)."""
    P = (1 << bits) + 1 + (-(1 << bits)) % p
    while not is_prime(P):
        P += p
    root = next(x for a in range(2, P) if (x := pow(a, (P - 1) // p, P)) != 1)
    w = [(pow(root, e, P) + P // 2) % P - P // 2 for e in range(p)]
    for dtype in (np.int32, np.int64):
        if sum(map(abs, w)) * P * P + P <= np.iinfo(dtype).max:
            return P, w, dtype
    raise ValueError(f"no int64 transform modulus above 2^{bits} for p = {p}")


def _reduce(x, P: int, spare) -> None:
    """x mod P in place, spare being a free buffer like x: x - (x // P) * P,
    where (x // P) * P lies in [x - P + 1, x], so it is exact for every x
    at least P - 1 above its dtype's minimum (the transforms keep
    |x| <= max - P).  A floor division by a scalar costs a fraction of
    numpy's remainder."""
    np.floor_divide(x, P, out=spare)
    spare *= P
    x -= spare


def _dft(x, y, w, sign: int, P: int, bound: int, ndigits: int):
    """Length-p DFT mod P with roots w[sign*j*k] along each of the ndigits
    base-p digits of the flat buffer x, y being the other buffer; returns
    (result, free buffer, bound on |result|) given |x| <= bound.

    A stage reads the top digit as the contiguous rows x[j] and writes
    the transformed digit as the lowest one of y, so after ndigits stages
    every digit is back in place.  x is reduced mod P only when the next
    stage could come within P of its dtype's limit."""
    p = len(w)
    m = x.size // p
    growth, limit = sum(map(abs, w)), np.iinfo(x.dtype).max - P
    # only p = 2 has no root other than +-1 to multiply by
    scratch = np.empty(m if p > 2 else 0, dtype=x.dtype)
    for _ in range(ndigits):
        if bound * growth > limit:
            _reduce(x, P, y)
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


# A space with no orbit map (q = 2) of more than this many syndromes
# scatters by fancy-index adds, not np.bincount, whose size-long int64
# output would outgrow the profile's buffers.
_COUNTED = 1 << 15

# Spaces of at most this many syndromes are profiled one syndrome a
# cell: building the orbit map would cost more than it saves.
_MAPPED = 1 << 10

# ns per gathered pair and per expanded syndrome; see _scatter_cheaper
_GATHER = 6
_EXPAND = 2


def _orbit_map(f, r: int, dtype) -> np.ndarray:
    """orbit[s], the cell of the scalar orbit of each of the q^r
    syndromes s, in dtype.

    Block t, the syndromes a q^t + x with 1 <= a < q and x < q^t, maps
    to base_t + a^-1 x, base_t = 1 + (q^t - 1)/(q - 1).  As a
    (q - 1) x q x q^(t-1) array it is block t - 1 plus
    (a^-1 d + 1) q^(t-1) along the digit d: scaling is digit-wise, and
    base_t - base_(t-1) = q^(t-1).  So each block is one broadcast add."""
    q = f.q
    orbit = np.empty(q ** r, dtype=dtype)
    orbit[:q] = 1
    orbit[0] = 0
    # a^-1 d + 1 for a in [1, q) and every digit d, off the field's
    # tables: a^-1 has the log q - 1 - log a, and log 0 lands in zeros
    steps = f.antilog[(q - f.log[1:])[:, None] + (f.log - 1)] + 1
    block = orbit[1:q].reshape(q - 1, 1)
    for t in range(1, r):
        low = q ** (t - 1)
        nxt = orbit[q * low:q * q * low].reshape(q - 1, q, low)
        np.add((steps * low)[:, :, None], block[:, None, :], out=nxt)
        block = nxt.reshape(q - 1, q * low)
    return orbit


def _scatter(conv, sources, deltas, p: int, ndigits: int, orbit) -> None:
    """conv = 1_D * 1_S at every cell, D the multiset of deltas and S the
    union of the orbits whose minima are the syndromes `sources`, none of
    them 0; orbit maps syndromes to cells, None when every cell is one
    syndrome.  With a map the value at cell 0 is a (q - 1)-th of the
    count, and no step reads it.

    The pairs of sources and deltas are counted on cells, so a target is
    counted once for every source of S that reaches it, in runs of about
    max(cells, 2^12) pairs per np.bincount.  A large space with no map,
    which in production means q = 2 (every q > 2 space past _MAPPED has
    one), instead adds one distinct delta to a run of at most size/16
    sources, or every distinct delta to one source, per fancy-index add:
    no index repeats within one, and the temporaries stay a fraction of a
    buffer.  :func:`_scatter_cheaper` counts these calls."""
    size = conv.size
    counted, fancy = _runs(size, deltas.size)
    conv.fill(0)
    if orbit is None and size > _COUNTED:
        shifts, mults = np.unique(deltas, return_counts=True)
        if sources.size < shifts.size:
            for x in sources.tolist():
                conv[digit_add(shifts, x, p, ndigits)] += mults
        else:
            for lo in range(0, sources.size, fancy):
                part = sources[lo:lo + fancy]
                for d, c in zip(shifts.tolist(), mults.tolist()):
                    conv[digit_add(part, d, p, ndigits)] += c
        return
    for lo in range(0, sources.size, counted):
        moved = digit_add(sources[lo:lo + counted, None], deltas, p, ndigits)
        if orbit is not None:
            moved = orbit[moved]
        conv += np.bincount(moved.ravel(), minlength=size)


def _runs(cells: int, total: int) -> tuple:
    """Sources per np.bincount and per fancy-index add of :func:`_scatter`
    on `cells` cells (syndromes, for the adds) by |D| = total deltas."""
    return max(cells, 1 << 12) // total or 1, cells >> 4


def _scatter_cheaper(sources: int, total: int, distinct: int, cells: int,
                     size: int, ndigits: int, p: int, gathered: bool,
                     transforms: int) -> bool:
    """Whether :func:`_scatter` of `sources` orbit minima by the
    |D| = total deltas, `distinct` of them distinct, onto `cells` cells
    costs less than `transforms` transforms of the size = p^ndigits
    syndromes; gathered when the cells are orbits of q - 1 syndromes, so
    that a pair also reads the orbit map, and a transformed step expands
    a level to every syndrome and reads the cells' minima back.

    Costs are in ns, fitted to per-step timings of profiles forced to
    scatter and to transform on a 2-core x86-64 box: 1.5 us a numpy call;
    digit_add makes one XOR pass at p = 2 and about five passes per digit
    at odd p, and a scattered pair costs those passes plus four, plus
    _GATHER for the orbit map; a transform makes about p^2 calls and
    1.5 (p - 1) ns per syndrome for each digit, and a gathered step adds
    _EXPAND per syndrome."""
    digit = 1 if p == 2 else 5 * ndigits
    counted, fancy = _runs(cells, total)
    if gathered or size <= _COUNTED:
        calls = -(-sources // counted)
    elif sources < distinct:
        calls = sources
    else:
        calls = distinct * -(-sources // fancy)
    pair = digit + 4 + (_GATHER if gathered else 0)
    scatter = calls * (digit + 3) * 1500 + sources * total * pair
    transform = ndigits * (p * p * 1500 + size * (p - 1) * 1.5)
    expand = size * _EXPAND if gathered else 0
    return scatter <= transforms * transform + expand


class SyndromeProfile:
    """Coset-leader levels of a linear code's syndromes, with the down
    and up neighbor counts, on the orbit cells of the scalar action
    s -> gamma s (see the module docstring).  ``levels`` and
    :meth:`neighbor_level_counts` are indexed by cell, ``orbit`` maps
    every syndrome to its cell (None when every cell is one syndrome:
    q = 2, r = 0, or at most _MAPPED syndromes), and :meth:`minima` gives
    each cell's smallest syndrome.  ``level_coset_counts`` counts cosets,
    not cells.  ``transforms`` counts the length-q^r transforms run and
    ``scattered_pairs`` the (orbit minimum, delta) pairs scattered."""

    def __init__(self, code: LinearCode):
        self.code = code
        self.q = code.q
        self.r = code.n - code.k
        budgets.check_synd(self.q ** self.r,
                           f"profile of [{code.n},{code.k}]_{self.q} code",
                           (self.q, self.r))
        self._build()

    def _build(self):
        code = self.code
        f = code.field
        q, r = self.q, self.r
        size = q ** r
        self.size = size
        self.transforms = self.scattered_pairs = 0
        self.orbit = None

        if r == 0:
            self.levels = np.zeros(1, dtype=np.int8)
            self.rho = 0
            self.level_coset_counts = {0: 1}
            self._down = self._up = np.zeros(1, dtype=np.int8)
            return

        p, total, ndigits = f.p, code.n * (q - 1), r * f.m
        P, w, dtype = _ring(p, total.bit_length())
        limit = np.iinfo(dtype).max - P
        # counts lie in [0, |D|], in the smallest signed dtype holding
        # -|D| - 1 and so |D| itself
        count = np.min_scalar_type(-total - 1)
        # conv_0 = 1_D at every cell's minimum
        if q > 2 and size > _MAPPED:
            per_cell = q - 1
            cells = 1 + (size - 1) // per_cell
            orbit = _orbit_map(f, r, np.promote_types(
                np.int32, np.min_scalar_type(-cells)))
            self.orbit = orbit
            # a nonzero parity-check column h_j has one multiple gamma*h_j
            # at the minimum of its orbit; a zero one has q - 1 at 0
            moves = np.bincount(orbit[self._columns() @ q ** np.arange(r)],
                                minlength=cells)
            moves[0] *= per_cell
            # block t's first cell, and what its cells add to become
            # syndromes; 0 is a block of its own
            bases = [1 + (q ** t - 1) // (q - 1) for t in range(r)]
            self._starts = np.array([0] + bases)
            self._offsets = np.array(
                [0] + [q ** t - base for t, base in enumerate(bases)])
            distinct = 0
        else:
            per_cell, cells, orbit = 1, size, None
            moves = np.bincount(self.deltas, minlength=size)
            distinct = int(np.count_nonzero(moves))
        moves = moves.astype(count)

        def dft(x, y, sign, bound):
            self.transforms += 1
            return _dft(x, y, w, sign, P, bound, ndigits)

        def expand(values, out):
            """values, one per cell, at every syndrome of out."""
            if orbit is None:
                np.copyto(out, values)
            else:
                np.take(values.astype(out.dtype), orbit, out=out,
                        mode="clip")

        # step 0 reads L_1 and its down counts off conv_0; on L_0 = {0}
        # the moves that stay (zero deltas) are not up
        levels = np.full(cells, -1, dtype=np.int8)
        levels[0] = 0
        down = np.zeros(cells, dtype=count)
        up = np.zeros_like(down)
        first = np.flatnonzero(moves[1:]) + 1
        levels[first] = 1
        down[first] = moves[first]
        up[0] = total - moves[0]
        counts = {0: 1, 1: first.size}
        reached = 1 + first.size

        conv = np.empty(cells, dtype=dtype)
        spare = np.empty_like(conv)
        at = np.empty(cells, dtype=bool)
        fresh = np.empty(cells, dtype=bool)
        full = None  # the syndrome-long buffers of a transform, q > 2
        d_hat = None
        depth = 1
        while reached < cells:
            # conv = conv_depth, at least on L_depth and on the unreached
            # cells U: scatter the smaller of the two, or transform
            np.equal(levels, depth, out=at)
            level, rest = counts[depth], cells - reached
            if not _scatter_cheaper(min(level, rest), total, distinct,
                                    cells, size, ndigits, p,
                                    orbit is not None,
                                    3 if d_hat is None else 2):
                if orbit is None:
                    x, y = conv, spare
                elif full is None:
                    x, y = np.empty(size, dtype=dtype), np.empty(size, dtype)
                else:
                    x, y = full
                if d_hat is None:
                    # F(1_D) p^(-N): the inverses need no scaling
                    expand(moves, x)
                    x, y, _ = dft(x, y, 1, total)
                    _reduce(x, P, y)
                    x *= pow(p, -ndigits, P)
                    _reduce(x, P, y)
                    d_hat = x.astype(np.min_scalar_type(-P))  # [0, P)
                expand(at, x)
                x, y, bound = dft(x, y, 1, 1)
                if bound * P > limit:
                    _reduce(x, P, y)
                    bound = P - 1
                x *= d_hat
                x, y, _ = dft(x, y, -1, bound * (P - 1))
                _reduce(x, P, y)
                if orbit is None:
                    conv, spare = x, y
                else:
                    # the cells of block t hold the minima q^t .. 2q^t - 1
                    full = x, y
                    conv[0] = x[0]
                    for t, base in enumerate(bases):
                        conv[base:base + q ** t] = x[q ** t:2 * q ** t]
            elif level <= rest:
                _scatter(conv, self.minima(np.flatnonzero(at)), self.deltas,
                         p, ndigits, orbit)
                self.scattered_pairs += level * total
            else:
                # 1_D * 1_U counts the moves that stay in U: on U, |D|
                # minus it is conv_depth; on L_depth it is the up count,
                # so |D| minus it and the down count is conv_depth there
                _scatter(conv, self.minima(np.flatnonzero(levels < 0)),
                         self.deltas, p, ndigits, orbit)
                self.scattered_pairs += rest * total
                np.subtract(total, conv, out=conv)
                conv -= down
            # on L_depth the moves neither down nor within the level go up.
            # Masked stores are products with 0/1 masks into cells still 0
            # (-1 in levels): no branch per cell
            np.subtract(total, conv, out=spare)
            spare -= down
            up += np.multiply(spare, at, out=spare)
            np.greater(conv, 0, out=fresh)
            fresh &= np.less(levels, 0, out=at)
            counts[depth + 1] = int(np.count_nonzero(fresh))
            if not counts[depth + 1]:
                raise AssertionError("syndrome BFS did not reach every coset")
            # at is free again: it holds the fresh cells' level step
            levels += np.multiply(fresh.view(np.int8), np.int8(depth + 2),
                                  out=at.view(np.int8))
            down += np.multiply(conv, fresh, out=spare)
            reached += counts[depth + 1]
            depth += 1

        self.levels = levels
        self.rho = depth
        self.level_coset_counts = {
            l: c * per_cell if l else c for l, c in counts.items()}
        self._down, self._up = down, up

    def _columns(self) -> np.ndarray:
        """The parity-check columns h_j, one per row."""
        return self.code.dual().G.rows.T

    @functools.cached_property
    def deltas(self) -> np.ndarray:
        """The multiset D, read-only: the packed syndrome gamma*h_j of
        gamma*e_j for every column j and nonzero gamma, j outer.  A step
        that is read off the cells' counts or transformed never needs it."""
        q = self.q
        products = self.code.field.mul_array(self._columns()[:, None, :],
                                             np.arange(1, q)[:, None])
        deltas = (products @ q ** np.arange(self.r, dtype=np.int64)).ravel()
        deltas.flags.writeable = False
        return deltas

    def minima(self, cells):
        """The smallest syndrome of each cell's orbit, for an integer
        array of cells: cell base_t + x holds q^t + x."""
        if self.orbit is None:
            return cells
        return cells + self._offsets[
            np.searchsorted(self._starts, cells, "right") - 1]

    def neighbor_level_counts(self):
        """(down, up) arrays in the smallest signed dtype that holds
        |D| = n(q - 1): per cell, the number of (i, gamma) moves from any
        of its syndromes landing one level lower / higher."""
        return self._down, self._up


@dataclass(frozen=True)
class RegularityViolation:
    level: int
    syndrome_a: int
    counts_a: tuple
    syndrome_b: int
    counts_b: tuple


@dataclass(frozen=True)
class RegularityResult:
    """The intersection array of a completely regular code, or the first
    violation of one that is not; ``profile`` is None when Delsarte's
    theorem gave the array (:func:`dual_regularity`)."""
    ia: IntersectionArray | None
    violation: RegularityViolation | None
    profile: SyndromeProfile | None

    @property
    def is_completely_regular(self) -> bool:
        return self.ia is not None

    @property
    def rho(self) -> int:
        """The covering radius."""
        return self.ia.rho if self.profile is None else self.profile.rho

    @property
    def level_sizes(self) -> tuple:
        """(k_0, ..., k_rho): the cosets of each coset-leader weight."""
        if self.profile is None:
            return self.ia.level_sizes()
        return tuple(self.profile.level_coset_counts.values())


def dual_regularity(n: int, q: int, r: int, e: int, dual_weights,
                    dual) -> RegularityResult:
    """rho and the intersection array, or the first violation, of an
    [n, n - r]_q code of packing radius at least e whose dual has the
    nonzero weights dual_weights; dual() gives that dual code.

    When e >= s' - 1, s' = len(dual_weights), the array is
    :func:`delsarte_ia`'s and dual is never called, so e may be a lower
    bound: 1 for the dual of a code whose columns are distinct points.
    Otherwise the code, dual().dual(), is profiled by
    :func:`complete_regularity`, with dual() held meanwhile: the link
    back from a dual to its code is weak, and the profile reads its
    parity checks from it."""
    ia = delsarte_ia(n, q, r, e, dual_weights)
    if ia is not None:
        return RegularityResult(ia=ia, violation=None, profile=None)
    held = dual()
    return complete_regularity(held.dual())


def complete_regularity(code: LinearCode) -> RegularityResult:
    """The intersection array if the code is completely regular, otherwise
    the first per-level constancy violation (ordered by syndrome index)."""
    prof = SyndromeProfile(code)
    down, up = prof.neighbor_level_counts()
    levels = prof.levels
    b = [0] * (prof.rho + 1)
    c = [0] * (prof.rho + 1)
    for l in range(prof.rho + 1):
        # a level is a union of orbits, so its first syndrome, and the
        # first whose counts differ, are the minima of its first such cells
        members = np.flatnonzero(levels == l)
        d0 = int(down[members[0]])
        u0 = int(up[members[0]])
        bad = np.flatnonzero((down[members] != d0) | (up[members] != u0))
        if bad.size:
            j = int(members[bad[0]])
            first, other = prof.minima(members[[0, bad[0]]]).tolist()
            viol = RegularityViolation(
                level=l,
                syndrome_a=first,
                counts_a=(d0, u0),
                syndrome_b=other,
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
    Only feasible for q^n <= 2^20.  It starts from the rows of
    :func:`crlab.field.span`, charged to the enumeration budget, and
    never touches syndromes, the parity-check matrix or the dual.

    Vectors are packed in radix q (coordinate i weighs q^i), so the space
    viewed as a (q^(n-1-i), q, q^i) array has the coordinate-i lines of
    the Hamming graph along its middle axis.  The neighbors of x are the
    other points of its n lines, so the BFS sums the level-d counts of
    x's lines once per depth d: on unreached vectors that sum's support
    is level d + 1 and it is their down count; on level d - 1 it is the
    up count."""
    q, n, k = code.q, code.n, code.k
    space = q ** n
    if space > BRUTE_LIMIT:
        raise ValueError(
            f"brute subconstituent scan needs q^n = {space} > {BRUTE_LIMIT}")

    levels = np.full(space, -1, dtype=np.int8)
    budgets.check_enum(q ** k, f"enumerating [{n},{k}]_{q} code", (q, k))
    words = span(code.field, code.G.rows)
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


def delsarte_ia(n: int, q: int, r: int, e: int,
                dual_weights) -> IntersectionArray | None:
    """The intersection array of an [n, n - r]_q code of packing radius e
    whose dual has the s' distinct nonzero weights dual_weights; None
    when e < s' - 1, i.e. d < 2s' - 1.

    Otherwise the code is completely regular with rho = s' (Delsarte
    1973; Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 11.1).  Within
    the packing radius leaders are unique: level i holds
    k_i = C(n, i)(q - 1)^i cosets, c_i = i for i <= e and
    b_i = (n - i)(q - 1) for i < e.  b_(rho-1) and c_rho are in the ratio
    k_rho : k_(rho-1), k_rho being what the lower levels leave of the q^r
    cosets, and sum to q times the dual weights' sum less the other b_i
    and c_i: the quotient matrix's trace is the sum of its eigenvalues
    n(q - 1) - q w, w in {0} and the dual weights.  A solution that is
    not a nonnegative integer raises ValueError."""
    weights = frozenset(dual_weights)
    rho = len(weights)
    if e < rho - 1:
        return None
    if rho == 0:
        return IntersectionArray(0, (), (), n=n, q=q)
    b = [(n - i) * (q - 1) for i in range(rho - 1)]
    c = list(range(1, rho))
    below = math.comb(n, rho - 1) * (q - 1) ** (rho - 1)
    last = q ** r - sum(math.comb(n, i) * (q - 1) ** i for i in range(rho))
    moves = q * sum(weights) - sum(b) - sum(c)  # b_(rho-1) + c_rho
    if last > 0:
        c_rho, rest = divmod(moves * below, below + last)
        if not rest and 0 <= c_rho <= moves:
            return IntersectionArray(rho, tuple(b + [moves - c_rho]),
                                     tuple(c + [c_rho]), n=n, q=q)
    raise ValueError(f"no [{n},{n - r}]_{q} code has rho = {rho} and dual "
                     f"weights {sorted(weights)}: b_{rho - 1} + c_{rho} = "
                     f"{moves} does not split as b_{rho - 1} : c_{rho} = "
                     f"{last} : {below} into nonnegative integers")
