"""Exact arithmetic in GF(p^m) with log/antilog tables.

Elements are stored as integers in [0, q): the polynomial
a_0 + a_1 x + ... + a_{m-1} x^{m-1} over GF(p) is encoded as
a_0 + a_1 p + ... + a_{m-1} p^{m-1}.  In particular 0 <-> 0, 1 <-> 1,
and the integers 0..p-1 are exactly the prime subfield.

Every field is built on the lexicographically smallest primitive
polynomial of its degree (coefficient vectors (a_{m-1}, ..., a_0)
compared as base-p integers, smallest first), so all downstream
constructions are bit-reproducible without external polynomial tables.
For m = 1 the same search runs on the moduli x - g for g = 1, 2, ...,
so alpha = g is the smallest primitive root.  A candidate is certified
by exponentiation (x^(q-1) = 1 and x^((q-1)/l) != 1 for every prime
l | q - 1), so the rejected candidates cost O(log q) products each rather
than a walk of up to q - 1 powers.  One certificate serves every degree:
it takes the candidates in blocks of 32, as stacks of m x m matrices of
multiplication by powers of x, and the first primitive one wins.

The supported field order is bounded by Q_LIMIT = 2^20.  Each field
holds one log and one antilog table, read-only intp arrays built once at
creation (see :class:`FieldSpec`).  The scalar operations (``mul``,
``inv``, ``pow``, ``trace``) read single entries of them and return
Python ints; :meth:`FieldSpec.mul_array` indexes them with whole arrays,
for the weight kernel, the RREF's row operations, the difference-matrix
multiplication table and the syndrome deltas.  The antilog table is
built by block doubling: the digits of x^0 .. x^(L-1) times the matrix
of x^L give the next L powers, one array product per doubling for every
degree m.

Addition is digit-wise mod p on these encodings, and so is addition of
any vector of field elements packed in base q = p^m: such a vector is a
base-p integer with one digit per coordinate coefficient.  That
digit-wise sum (and difference) lives only in :func:`digit_add`, which
works on Python ints and on integer numpy arrays alike.  The element
method ``add`` calls it on ints, :func:`span` and the row operations of
``matrix`` on arrays, and the q x q group tables of ``diffmat`` come
from :func:`digit_table`, which is built on it.

:func:`span` forms every combination of a few rows, with coefficients
from the field or a subset of it: the block of the point-word kernel
(:func:`crlab.codes.point_words`), the tower coordinates of ``diffmat``
and the Denniston subgroup H.  Their oracles keep element-level loops.
"""

from __future__ import annotations

import numpy as np

Q_LIMIT = 1 << 20


# Miller-Rabin on the primes up to 41 decides primality exactly below
# PRIMALITY_LIMIT (Sorenson and Webster, 2015), the least strong
# pseudoprime to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, for n < PRIMALITY_LIMIT; ValueError above."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality is decided only below {PRIMALITY_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, m: int) -> int:
    """floor(n^(1/m)) for n, m >= 1: integer Newton steps down from a
    power of two above the root."""
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, or ValueError; q must lie below
    PRIMALITY_LIMIT.  The largest m with an exact m-th root is the only
    exponent that can work, so the first root found decides."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q >= PRIMALITY_LIMIT:
        raise ValueError(f"{q} is past the prime-power test's limit "
                         f"{PRIMALITY_LIMIT}")
    for m in range(q.bit_length() - 1, 0, -1):
        p = _iroot(q, m)
        if p ** m == q:
            if is_prime(p):
                return p, m
            break
    raise ValueError(f"{q} is not a prime power")


def digit_add(a, b, p: int, ndigits: int, sign: int = 1):
    """a + sign*b digit-wise mod p, for base-p integers of ndigits digits.

    a and b may be Python ints or integer numpy arrays (broadcasting as
    usual) whose dtype holds 2 p^ndigits, signed when sign = -1; sign = -1
    gives subtraction and digit_add(0, b, ..., -1) the negation.  For
    p = 2 every sign is the same XOR.
    """
    if p == 2:
        return a ^ b
    out = 0
    place = 1
    for _ in range(ndigits):
        # a // place and b // place agree with the wanted digits mod p;
        # s - s // p * p is s mod p, and on arrays it is cheaper than %
        s = a // place + sign * (b // place)
        out += (s - s // p * p) * place
        place *= p
    return out


def digit_table(f: "FieldSpec", sign: int = 1) -> np.ndarray:
    """q x q table of a + sign*b over the elements of f, in f.dtype."""
    e = np.arange(f.q, dtype=f.dtype)
    return digit_add(e[:, None], e, f.p, f.m, sign)


def span(f: "FieldSpec", rows, coeffs=None) -> np.ndarray:
    """Every combination sum_i c_i rows[i], c_i in coeffs (all of GF(q)
    when None), one per row, in the dtype of the 2-d array rows (one
    that digit_add accepts).  Taking coeffs[j_i] for row i puts it at
    sum_i j_i len(coeffs)^(t-1-i), row 0 most significant; over GF(q),
    those led by row i fill [q^(t-1-i), 2 q^(t-1-i))."""
    rows = np.asarray(rows)
    coeffs = np.arange(f.q) if coeffs is None else np.asarray(coeffs)
    block = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows[::-1]:
        mults = f.mul_array(coeffs[:, None], row).astype(rows.dtype)
        block = digit_add(mults[:, None], block, f.p, f.m)
        block = block.reshape(-1, rows.shape[1])
    return block


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _times_x(lows, p: int) -> np.ndarray:
    """The m x m int64 matrices of multiplication by x modulo the monic
    moduli with low coefficients lows (one row, or a stack of rows): row
    j of each holds the digits of x^(j+1).  A digit row v times the
    matrix of x^L, whose row j holds x^(L+j), is v x^L, and the matrix of
    x^(L+L') is the product of those of x^L and x^L'.  Every entry is
    below p, so a product of two such matrices sums at most m (p-1)^2 <
    2^41 for q <= Q_LIMIT."""
    lows = np.asarray(lows, dtype=np.int64)
    m = lows.shape[-1]
    mat = np.zeros(lows.shape + (m,), dtype=np.int64)
    mat[..., :-1, 1:] = np.eye(m - 1, dtype=np.int64)
    mat[..., -1, :] = -lows % p
    return mat


def _has_order(lows, p: int, n: int) -> np.ndarray:
    """Boolean mask over the rows of lows (a C x m array of low
    coefficients of monic moduli): whether x has multiplicative order
    exactly n modulo each, that is x^n = 1 and x^(n/l) != 1 for every
    prime l | n.  With n = q - 1 its q - 1 powers are distinct units, so
    the quotient ring is a field: the modulus is irreducible and
    primitive.  A modulus that x divides never reaches x^e = 1.

    The C matrices of x are squared once per bit of n, and every exponent
    shares those squarings: for each it carries only row 0 of x^e, the
    C digit rows of x^e times the C squares.  s - s // p * p is s mod p,
    and on arrays it is cheaper than %."""
    exps = [n] + [n // l for l in _prime_factors(n)]
    base = _times_x(lows, p)
    one = np.eye(1, base.shape[-1], dtype=np.int64)  # the digits of x^0
    rows = np.tile(one, (len(exps), len(base), 1, 1))
    for bit in range(n.bit_length()):
        hit = [e >> bit & 1 == 1 for e in exps]
        step = rows[hit] @ base
        rows[hit] = step - step // p * p
        base = base @ base
        base -= base // p * p
    is_one = (rows == one).all(axis=(2, 3))
    return is_one[0] & ~is_one[1:].any(axis=0)


def _antilog(low, p: int, q: int) -> np.ndarray:
    """x^0, ..., x^(q-2) modulo a primitive modulus, encoded, as int64.

    Block doubling: with the digits of x^0, ..., x^(L-1) in hand, the next
    L powers are those digit rows times the matrix of x^L, whose square is
    the matrix of x^(2L).  The digits are held digit-major, one row per
    coefficient, in the smallest signed dtype that holds the m (p-1)^2 a
    row product can reach."""
    m = len(low)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if m * (p - 1) ** 2 <= np.iinfo(t).max)
    digits = np.zeros((m, q - 1), dtype=dtype)
    digits[0, 0] = 1
    step = _times_x(low, p).astype(dtype)
    done = 1
    while done < q - 1:
        todo = min(done, q - 1 - done)
        new = digits[:, done:done + todo]
        np.einsum("jk,ji->ki", step, digits[:, :todo], out=new)
        new -= new // p * p
        step = step @ step % p
        done += todo
    out = digits[m - 1].astype(np.int64)
    for j in range(m - 2, -1, -1):
        out *= p
        out += digits[j]
    return out


class FieldSpec:
    """A concrete finite field GF(p^m) with its two tables.

    ``log`` (length q) holds the discrete log of every element, with
    zero taking 2(q-1), past the sum of any two nonzero logs.  ``antilog``
    (length 4(q-1)+1) holds alpha^0 .. alpha^(q-2) twice over and zeros
    from index 2(q-1) on, so the product of any two elements, zero
    included, is ``antilog[log[a] + log[b]]`` with no mask and no
    reduction mod q-1.  Both are index tables, read-only intp arrays
    built once by the constructor.  ``dtype``, the smallest signed dtype
    holding -2q (:func:`digit_add` takes it at any p), is the dtype of
    every array of elements the library stores or returns.  Immutable,
    so safe to share between threads.  Build with :func:`field_create`
    (canonical modulus) or :func:`field_from_modulus` (explicit modulus).
    """

    __slots__ = ("p", "m", "q", "modulus", "alpha", "log", "antilog", "dtype")

    def __init__(self, p: int, m: int, modulus, powers):
        """powers: the integer array x^0, ..., x^(q-2)."""
        self.p = p
        self.m = m
        self.q = q = p ** m
        self.modulus = tuple(modulus)
        self.alpha = int(powers[1]) if q > 2 else 1
        self.dtype = np.min_scalar_type(-2 * q)
        z = 2 * (q - 1)
        self.log = np.empty(q, dtype=np.intp)
        self.log[powers] = np.arange(q - 1)
        self.log[0] = z
        self.antilog = np.zeros(2 * z + 1, dtype=np.intp)
        self.antilog[:q - 1] = powers
        self.antilog[q - 1:z] = powers
        self.log.flags.writeable = False
        self.antilog.flags.writeable = False

    # -- element arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return digit_add(a, b, self.p, self.m)

    def mul(self, a: int, b: int) -> int:
        log = self.log
        return self.antilog.item(log.item(a) + log.item(b))

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise a*b over integer arrays of elements (broadcasting
        as usual), as intp."""
        return self.antilog[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.antilog.item(self.q - 1 - self.log.item(a))

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0, with the convention a^0 = 1 (including 0^0 = 1)."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self.antilog.item(self.log.item(a) * e % (self.q - 1))

    def trace(self, a: int) -> int:
        """Trace into the prime subfield: a + a^p + ... + a^(p^(m-1))."""
        acc = a
        x = a
        for _ in range(self.m - 1):
            x = self.pow(x, self.p)
            acc = self.add(acc, x)
        return acc

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m}, q={self.q}, modulus={self.modulus})"


def _field_order(p: int, m: int) -> int:
    """q = p^m, or ValueError unless p is prime, m >= 1 and q <= Q_LIMIT."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    q = p ** m
    if q > Q_LIMIT:
        raise ValueError(f"q = {q} exceeds the supported limit {Q_LIMIT}")
    return q


_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}

_BLOCK = 32  # candidate moduli certified per call of _has_order


def field_create(p: int, m: int) -> FieldSpec:
    """The canonical GF(p^m): lexicographically smallest primitive modulus;
    for m = 1, the modulus x - g of the smallest primitive root g.

    Results are cached per (p, m); FieldSpec is immutable so sharing is safe.
    """
    key = (p, m)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached

    q = _field_order(p, m)
    count = p - 1 if m == 1 else q
    for start in range(0, count, _BLOCK):
        index = np.arange(start, min(start + _BLOCK, count))
        lows = ((p - 1 - index)[:, None] if m == 1
                else index[:, None] // p ** np.arange(m) % p)
        lows = lows[lows[:, 0] != 0]  # x divides no primitive modulus
        hits = np.flatnonzero(_has_order(lows, p, q - 1))
        if hits.size:
            low = lows[hits[0]].tolist()
            break
    else:
        raise ArithmeticError(f"no primitive polynomial found for GF({q})")
    spec = FieldSpec(p, m, tuple(low) + (1,), _antilog(low, p, q))

    _FIELD_CACHE[key] = spec
    return spec


def field_from_modulus(p: int, m: int, coeffs) -> FieldSpec:
    """Build GF(p^m) on an explicit monic modulus (little-endian coefficients).

    The modulus must be primitive: x must generate the full multiplicative
    group, which is certified by exponentiation before the antilog table
    is built.
    """
    q = _field_order(p, m)
    coeffs = tuple(int(c) % p for c in coeffs)
    if len(coeffs) != m + 1:
        raise ValueError(f"modulus must have m+1 = {m + 1} coefficients")
    if coeffs[m] != 1:
        raise ValueError("modulus must be monic")

    canonical = field_create(p, m)
    if coeffs == canonical.modulus:
        return canonical

    if not _has_order([coeffs[:m]], p, q - 1)[0]:
        raise ValueError(
            f"modulus {coeffs} is not a primitive polynomial over GF({p})"
        )
    return FieldSpec(p, m, coeffs, _antilog(coeffs[:m], p, q))
