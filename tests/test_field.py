import itertools
import random

import numpy as np
import pytest

from crlab import field
from crlab.field import (PRIMALITY_LIMIT, Q_LIMIT, _antilog, _has_order,
                         _prime_factors, digit_add, field_create,
                         field_from_modulus, is_prime, prime_power)
from oracles import (coeffs, field_matmul, trial_is_prime, trial_prime_power,
                     tuple_span)


def from_coeffs(f, coeffs) -> int:
    """The element of f with little-endian coefficient vector coeffs."""
    return sum(c * f.p ** i for i, c in enumerate(coeffs))


# golden moduli pinned by the deterministic search
GOLDEN_MODULI = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 1, 1),
    (7, 1): (4, 1),
}


def test_golden_moduli():
    for (p, m), coeffs in GOLDEN_MODULI.items():
        assert field_create(p, m).modulus == coeffs


# The element-at-a-time power chain: the oracle of the exponentiation
# certificate and of the block-doubled antilog table.
def _mulx(e: list[int], mod_low, p: int) -> list[int]:
    """Multiply the element (digit list) by x modulo the monic modulus."""
    m = len(e)
    top = e[m - 1]
    out = [0] * m
    for i in range(m - 1, 0, -1):
        out[i] = (e[i - 1] - top * mod_low[i]) % p
    out[0] = (-top * mod_low[0]) % p
    return out


def _power_chain(mod_low, p: int, m: int, q: int):
    """Powers of x modulo the modulus, or None if x has order < q - 1.

    Returns the list [x^0, x^1, ..., x^(q-2)] as encoded integers exactly
    when x is a unit of full multiplicative order, which simultaneously
    certifies that the modulus is irreducible and primitive.
    """
    powers = [1]
    e = [0] * m
    e[0] = 1
    for step in range(1, q):
        e = _mulx(e, mod_low, p)
        enc = sum(c * p ** i for i, c in enumerate(e))
        if enc == 0:
            return None
        if enc == 1:
            return powers if step == q - 1 else None
        powers.append(enc)
    return None


def _candidates(p: int, m: int):
    """Low coefficients of the monic moduli in the canonical search order:
    x - g for g = 1, 2, ... when m = 1, else by base-p value."""
    if m == 1:
        return [[p - g] for g in range(1, p)]
    return [[v // p ** i % p for i in range(m)] for v in range(p ** m)]


# large fields within the supported q <= 2^20, pinned to the moduli the
# power chain found; the last five to those the one-modulus certificates
# found before the batched one.  GF(1021^2)'s is candidate 1031, past the
# first block
LARGE_MODULI = {
    (2, 20): (1, 0, 0, 1) + (0,) * 16 + (1,),
    (3, 12): (2, 2, 2, 1, 2) + (0,) * 7 + (1,),
    (5, 8): (3, 2, 1, 0, 0, 0, 0, 0, 1),
    (17, 4): (11, 1, 0, 0, 1),
    (1048573, 1): (1048571, 1),
    (1021, 2): (10, 1, 1),
    (101, 3): (3, 1, 0, 1),
    (31, 4): (17, 2, 0, 0, 1),
    (13, 5): (2, 4, 0, 0, 0, 1),
    (7, 7): (2, 6, 0, 0, 0, 0, 0, 1),
}


def test_large_field_moduli_pinned(monkeypatch):
    """Canonical moduli and a full table of the largest supported fields:
    every power of alpha once, and alpha^(q-1) = 1.  A private cache,
    emptied after each field: the two tables of a field near 2^20 take
    40 MB."""
    cache = {}
    monkeypatch.setattr(field, "_FIELD_CACHE", cache)
    for (p, m), coeffs in LARGE_MODULI.items():
        f = field_create(p, m)
        assert f.modulus == coeffs
        powers = f.antilog[:f.q - 1]
        assert powers[0] == 1
        assert np.array_equal(np.sort(powers), np.arange(1, f.q))
        assert f.mul(powers[-1], f.alpha) == 1
        cache.clear()


def _prime_powers(limit: int):
    for q in range(2, limit + 1):
        try:
            yield prime_power(q)
        except ValueError:
            continue


def test_tables_match_power_chain():
    """For every field with q <= 2^12 the canonical modulus is the first
    candidate whose power chain reaches 1 exactly at x^(q-1), and the
    antilog table is that chain."""
    count = 0
    for p, m in _prime_powers(1 << 12):
        q = p ** m
        f = field_create(p, m)
        low = list(f.modulus[:m])
        for cand in _candidates(p, m):
            if cand == low:
                break
            assert cand[0] == 0 or _power_chain(cand, p, m, q) is None, cand
        assert f.antilog[:q - 1].tolist() == _power_chain(low, p, m, q), \
            (p, m)
        count += 1
    assert count == 604  # 564 primes and 40 higher prime powers


def _coeff_add(x: int, y: int, p: int, m: int) -> int:
    """x + y on encoded elements, one coefficient at a time."""
    return sum((x // p ** i + y // p ** i) % p * p ** i for i in range(m))


def test_scalar_ops_match_power_chain():
    """For every field with q <= 2^12, mul, inv, pow and trace on a seeded
    sample of elements (0, 1, alpha and q - 1 among them) equal the same
    operations on the power chain's logs, and return Python ints."""
    rng = random.Random(23)
    count = 0
    for p, m in _prime_powers(1 << 12):
        q = p ** m
        f = field_create(p, m)
        chain = _power_chain(list(f.modulus[:m]), p, m, q)
        log = {x: i for i, x in enumerate(chain)}

        def power(a, e):
            if e == 0:
                return 1
            return chain[log[a] * e % (q - 1)] if a else 0

        sample = sorted({0, 1, f.alpha, q - 1}
                        | {rng.randrange(q) for _ in range(20)})
        for a in sample:
            for b in sample:
                got = f.mul(a, b)
                assert type(got) is int
                assert got == (chain[(log[a] + log[b]) % (q - 1)]
                               if a and b else 0), (p, m, a, b)
            for e in (0, 1, 2, p, q - 2, q - 1, q, rng.randrange(1 << 40)):
                got = f.pow(a, e)
                assert type(got) is int and got == power(a, e), (p, m, a, e)
            trace = 0
            for i in range(m):
                trace = _coeff_add(trace, power(a, p ** i), p, m)
            got = f.trace(a)
            assert type(got) is int and got == trace, (p, m, a)
            if a:
                got = f.inv(a)
                assert type(got) is int
                assert got == chain[-log[a] % (q - 1)], (p, m, a)
        count += 1
    assert count == 604


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 4), (5, 2), (3, 5),
                                 (1021, 1)])
def test_tables_are_read_only(p, m):
    """log and antilog are one read-only pair of intp arrays: the log of
    every power, 2(q - 1) for zero, the powers twice over and zeros from
    2(q - 1) on."""
    f = field_create(p, m)
    q, z = f.q, 2 * (f.q - 1)
    for table in (f.log, f.antilog):
        assert table.dtype == np.intp and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    assert f.log.shape == (q,) and f.antilog.shape == (2 * z + 1,)
    powers = f.antilog[:q - 1]
    assert np.array_equal(f.log[powers], np.arange(q - 1))
    assert f.log[0] == z
    assert np.array_equal(f.antilog[q - 1:z], powers)
    assert not f.antilog[z:].any()


def _matrix_power_is_one(low, p: int, e: int) -> bool:
    """Whether x^e = 1 modulo the monic modulus with low coefficients low,
    one modulus at a time: square-and-multiply on the m x m matrix whose
    row j holds the digits of x^(j+1), and x^e = 1 when row 0 of its
    power is (1, 0, ...)."""
    m = len(low)
    base = np.eye(m, k=1, dtype=np.int64)
    base[m - 1] = [-c % p for c in low]
    acc = np.eye(m, dtype=np.int64)
    while e:
        if e & 1:
            acc = acc @ base % p
        base = base @ base % p
        e >>= 1
    return acc[0, 0] == 1 and not acc[0, 1:].any()


def _matrix_has_order(low, p: int, n: int) -> bool:
    return _matrix_power_is_one(low, p, n) and not any(
        _matrix_power_is_one(low, p, n // l) for l in _prime_factors(n))


def _matrix_modulus(p: int, m: int) -> list:
    """The canonical search run on the one-modulus matrix certificate."""
    q = p ** m
    lows = ([p - g] for g in range(1, p)) if m == 1 else (
        [v // p ** i % p for i in range(m)] for v in itertools.count())
    return next(low for low in lows
                if low[0] and _matrix_has_order(low, p, q - 1))


def test_batched_certificate_matches_matrix_certificate(monkeypatch):
    """The batched certificate decides every row of a block as the
    one-modulus matrix certificate decides it alone: on random moduli and
    exponents, one modulus at a time and as one block at each field's
    q - 1, and on a seeded sample of large p (p < 1100 for m = 2, p < 120
    for m = 3, the largest of each included) the search finds the
    modulus, and so the antilog table, that the matrix certificate
    finds."""
    rng = random.Random(22)
    for p, m in ((2, 2), (3, 3), (5, 1), (7, 2), (1021, 2), (101, 3),
                 (1048573, 1)):
        lows = []
        for _ in range(40):
            low = [rng.randrange(p) for _ in range(m)]
            e = rng.choice([p ** m - 1, (p ** m - 1) // 2 or 1,
                            rng.randrange(1, 1 << 24)])
            lows.append(low)
            assert _has_order([low], p, e).tolist() == \
                [_matrix_has_order(low, p, e)], (p, low, e)
        assert _has_order(lows, p, p ** m - 1).tolist() == \
            [_matrix_has_order(low, p, p ** m - 1) for low in lows], (p, m)
    sample = []
    for m, bound, count in ((2, 1100, 4), (3, 120, 4), (1, 1 << 20, 2)):
        primes = [p for p in range(2, bound)
                  if is_prime(p) and p ** m <= Q_LIMIT]
        sample += [(p, m) for p in rng.sample(primes[:-1], count)]
        sample.append((primes[-1], m))
    # a private cache, emptied after each field: the two tables of a
    # field near 2^20 take 40 MB
    cache = {}
    monkeypatch.setattr(field, "_FIELD_CACHE", cache)
    for p, m in sample:
        low = _matrix_modulus(p, m)
        f = field_create(p, m)
        assert f.modulus == tuple(low) + (1,), (p, m)
        assert np.array_equal(f.antilog[:f.q - 1], _antilog(low, p, p ** m)), \
            (p, m)
        cache.clear()


def test_gf2_boundary():
    f = field_create(2, 1)
    assert f.alpha == 1 and f.modulus == (1, 1)
    assert f.add(1, 1) == 0 and f.mul(1, 1) == 1


def test_prime_field_smallest_primitive_roots():
    # alpha is the smallest primitive root mod p
    for p, g in [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2), (17, 3), (19, 2)]:
        assert field_create(p, 1).alpha == g


def test_gf4_forced_arithmetic():
    f = field_create(2, 2)
    assert f.mul(2, 2) == 3           # alpha^2 = alpha + 1
    assert f.inv(2) == 3              # alpha * (alpha+1) = 1
    assert f.mul(2, 3) == 1


def test_gf8_alpha_order():
    f = field_create(2, 3)
    assert f.pow(f.alpha, 7) == 1
    assert all(f.pow(f.alpha, i) != 1 for i in range(1, 7))


def test_primitivity_exhaustive():
    for p, m in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1),
                 (5, 2), (7, 1), (2, 5), (2, 6)]:
        f = field_create(p, m)
        assert len(set(f.antilog[:f.q - 1].tolist())) == f.q - 1
        assert f.pow(f.alpha, f.q - 1) == 1


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                                 (2, 4), (7, 1), (2, 5), (2, 6), (3, 4),
                                 (5, 2), (2, 8), (2, 9), (3, 5), (7, 2),
                                 (3, 6)])
def test_field_axioms_exhaustive_small(p, m):
    """Inverses for every nonzero element; axioms on a full triple product
    for tiny fields and on a structured sample for the larger ones."""
    f = field_create(p, m)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
    if f.q <= 16:
        triples = itertools.product(range(f.q), repeat=3)
    else:
        sample = list(range(0, f.q, max(1, f.q // 11))) + [1, f.alpha, f.q - 1]
        triples = itertools.product(sample, repeat=3)
    for a, b, c in triples:
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 2),
                                 (2, 8), (3, 5)])
def test_mul_array_matches_field(p, m):
    """The log/antilog arrays give every product, zero included."""
    f = field_create(p, m)
    e = np.arange(f.q)
    assert f.mul_array(e[:, None], e).tolist() == \
        [[f.mul(a, b) for b in range(f.q)] for a in range(f.q)]
    assert f.mul_array(0, f.q - 1) == 0


def _element_matmul(f, a, b, n):
    """a @ b for an n-column b, one element-level dot product at a time."""
    out = []
    for row in a:
        out_row = []
        for j in range(n):
            acc = 0
            for x, b_row in zip(row, b):
                acc = f.add(acc, f.mul(x, b_row[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2), (5, 2), (3, 3)])
def test_span_matches_tuple_loop(p, m):
    """field.span over the whole field and over coefficient subsets
    (the prime subfield, {0, 1}, a shuffled subset) equals the tuple
    loop, in the same order; no rows span the one zero word."""
    f = field_create(p, m)
    rng = random.Random(7 * p + m)
    subsets = [None, list(range(p)), [0, 1],
               rng.sample(range(f.q), min(f.q, 3))]
    for t in range(4):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(t)]
        for coeffs in subsets:
            if len(coeffs or range(f.q)) ** t > 1 << 12:
                continue
            got = field.span(f, np.array(rows, dtype=np.int64).reshape(t, n),
                             coeffs)
            want = tuple_span(f, rows, n, coeffs)
            assert list(map(tuple, got.tolist())) == want, (t, coeffs)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (5, 2), (3, 3), (3, 6)])
def test_matmul_matches_element_loops(p, m):
    """Seeded random shapes, zero rows, a zero inner dimension and sparse
    entries: the array product that the tests use as an oracle equals
    the element-level dot products."""
    f = field_create(p, m)
    rng = random.Random(1000 * p + m)
    shapes = [(0, 3, 4), (3, 0, 4), (1, 1, 1)]
    shapes += [(rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 7))
               for _ in range(12)]
    for a_rows, k, n in shapes:
        density = rng.choice((0.0, 0.3, 1.0))

        def entry():
            return rng.randrange(1, f.q) if rng.random() < density else 0

        a = [[entry() for _ in range(k)] for _ in range(a_rows)]
        b = [[entry() for _ in range(n)] for _ in range(k)]
        got = field_matmul(f, np.array(a, dtype=np.int64).reshape(a_rows, k),
                           np.array(b, dtype=np.int64).reshape(k, n))
        assert got.shape == (a_rows, n)
        assert got.tolist() == _element_matmul(f, a, b, n)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2), (3, 3), (3, 6)])
def test_digit_add_matches_field(p, m):
    """The scalar field add and digit_add on ints and on arrays are
    coefficient-vector arithmetic mod p, and an r*m-digit packed add is
    the coordinate-wise field add in base q."""
    f = field_create(p, m)
    q = f.q
    if q <= 32:
        pairs = list(itertools.product(range(q), repeat=2))
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        pairs += [(0, q - 1), (q - 1, q - 1), (1, q - 1)]

    def by_coeffs(x, y, sign):
        return from_coeffs(f, [(u + sign * v) % p
                                for u, v in zip(coeffs(f, x), coeffs(f, y))])

    sums = [by_coeffs(x, y, 1) for x, y in pairs]
    diffs = [by_coeffs(x, y, -1) for x, y in pairs]
    negs = [by_coeffs(0, x, -1) for x, _ in pairs]
    assert [f.add(x, y) for x, y in pairs] == sums
    assert [digit_add(x, y, p, m, -1) for x, y in pairs] == diffs
    assert [digit_add(0, x, p, m, -1) for x, _ in pairs] == negs
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    assert digit_add(a, b, p, m).tolist() == sums
    assert digit_add(a, b, p, m, -1).tolist() == diffs
    assert digit_add(0, a, p, m, -1).tolist() == negs

    r = 3

    def pack(vec):
        return sum(x * q ** j for j, x in enumerate(vec))

    rng = random.Random(7 * q)
    us = [[rng.randrange(q) for _ in range(r)] for _ in range(200)]
    vs = [[rng.randrange(q) for _ in range(r)] for _ in range(200)]
    want = [pack([f.add(x, y) for x, y in zip(u, v)]) for u, v in zip(us, vs)]
    pu = np.array([pack(u) for u in us], dtype=np.int64)
    pv = np.array([pack(v) for v in vs], dtype=np.int64)
    assert digit_add(pu, pv, p, r * m).tolist() == want
    assert [digit_add(pack(u), pack(v), p, r * m)
            for u, v in zip(us, vs)] == want


def _digit_add_by_remainder(a, b, p, ndigits, sign):
    """digit_add restated with % (np.remainder on arrays)."""
    out = 0
    place = 1
    for _ in range(ndigits):
        out += (a // place + sign * (b // place)) % p * place
        place *= p
    return out


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 2), (11, 2), (13, 2)])
def test_digit_add_floor_division_matches_remainder(p, m):
    """The floor-division reduction equals % at odd p for every pair of
    elements and both signs: on Python ints, and on int64 and the
    smallest signed dtype, where sign = -1 makes negative digit sums."""
    q = p ** m
    pairs = list(itertools.product(range(q), repeat=2))
    for sign in (1, -1):
        want = [_digit_add_by_remainder(x, y, p, m, sign) for x, y in pairs]
        assert [digit_add(x, y, p, m, sign) for x, y in pairs] == want
        for dtype in (np.int64, np.min_scalar_type(-2 * q)):
            a = np.array([x for x, _ in pairs], dtype=dtype)
            b = np.array([y for _, y in pairs], dtype=dtype)
            got = digit_add(a, b, p, m, sign)
            assert got.dtype == dtype
            assert got.tolist() == want
            if sign == -1:
                assert (a // p - b // p).min() < 0
                assert np.array_equal(digit_add(0, b, p, m, -1),
                                      _digit_add_by_remainder(0, b, p, m, -1))


def test_pow_conventions():
    f = field_create(2, 3)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    assert f.pow(3, 0) == 1
    with pytest.raises(ValueError):
        f.pow(2, -1)


def test_inv_zero_raises():
    f = field_create(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_trace_gf4():
    f = field_create(2, 2)
    assert f.trace(2) == 1
    assert f.trace(0) == 0


def test_trace_balance_gf8():
    f = field_create(2, 3)
    values = [f.trace(x) for x in range(8)]
    assert values.count(0) == 4 and values.count(1) == 4


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2),
                                 (2, 8), (3, 4)])
def test_trace_linear_surjective_frobenius(p, m):
    """Exhaustive on the whole field (q <= 256 here): prime-subfield
    values, Frobenius invariance, additivity, surjectivity."""
    f = field_create(p, m)
    imgs = set()
    for a in range(f.q):
        t = f.trace(a)
        assert t < p
        imgs.add(t)
        assert f.trace(f.pow(a, p)) == t
    assert imgs == set(range(p))
    traces = [f.trace(a) for a in range(f.q)]
    for a in range(f.q):
        ta = traces[a]
        for b in range(f.q):
            assert traces[f.add(a, b)] == (ta + traces[b]) % p


def test_element_encoding_roundtrip():
    """The integer sum_i a_i p^i encodes sum_i a_i x^i: x^i is p^i below
    degree m, and field arithmetic on an element's digits rebuilds it."""
    f = field_create(3, 2)
    for a in range(f.q):
        acc = 0
        for i, c in enumerate(coeffs(f, a)):
            acc = f.add(acc, f.mul(c, f.pow(f.p, i)))
        assert acc == a
        assert from_coeffs(f, coeffs(f, a)) == a
    assert coeffs(f, 5) == (2, 1)      # 5 = 2 + 1*3


def test_field_create_errors():
    with pytest.raises(ValueError):
        field_create(4, 1)            # not prime
    with pytest.raises(ValueError):
        field_create(2, 0)
    with pytest.raises(ValueError):
        field_create(2, 21)           # exceeds Q_LIMIT
    assert Q_LIMIT == 1 << 20


def test_field_from_modulus():
    # x^3 + x^2 + 1 is the other primitive cubic over GF(2)
    f = field_from_modulus(2, 3, (1, 0, 1, 1))
    assert f.modulus == (1, 0, 1, 1)
    assert len(set(f.antilog[:7].tolist())) == 7
    # non-primitive (x^4 + x^3 + x^2 + x + 1 has order-5 root)
    with pytest.raises(ValueError):
        field_from_modulus(2, 4, (1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        field_from_modulus(2, 3, (1, 1, 0, 0))   # not monic


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _prime_power_or_none(fn, q):
    try:
        return fn(q)
    except ValueError:
        return None


def test_primality_matches_trial_division_to_1e5():
    """Miller-Rabin and the integer-root prime power test agree with
    trial division on every n <= 10^5."""
    for n in range(-2, 10 ** 5 + 1):
        assert is_prime(n) == trial_is_prime(n), n
        assert (_prime_power_or_none(prime_power, n)
                == _prime_power_or_none(trial_prime_power, n)), n


# the least strong pseudoprimes to the prime bases 2; 2, 3; 2, 3, 5; ...
# up to 2..23 (318665857834031151167461, for 2..37, has its own test),
# and Carmichael numbers
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
              29341, 41041, 46657, 52633, 62745, 63973, 75361, 101101,
              115921, 126217, 162401, 172081, 188461, 252601, 278545,
              294409, 314821, 334153, 340561, 399001, 410041, 449065,
              488881, 512461, 1050985]


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_are_composite(n):
    """Each is composite with a least factor small enough for trial
    division; neither n nor its square is a prime power."""
    assert not trial_is_prime(n)
    assert not is_prime(n)
    assert _prime_power_or_none(trial_prime_power, n) is None
    assert _prime_power_or_none(prime_power, n) is None
    assert _prime_power_or_none(prime_power, n * n) is None


def test_strong_pseudoprime_to_bases_up_to_37():
    """318665857834031151167461 = 399165290221 * 798330580441 passes
    Miller-Rabin to every prime base up to 37; base 41 exposes it."""
    n, a, b = 318665857834031151167461, 399165290221, 798330580441
    assert a * b == n and trial_is_prime(a) and trial_is_prime(b)
    assert not is_prime(n)
    assert _prime_power_or_none(prime_power, n) is None


@pytest.mark.parametrize("p", [2, 3, 65537, 1000003, 999999937,
                               1000000007, 2 ** 31 - 1])
def test_prime_powers_with_large_p(p):
    """p^m for every m with p^m below the limit, p checked by trial
    division; 3 p^m is no prime power for p > 3."""
    assert trial_is_prime(p) and is_prime(p)
    m = 1
    while p ** m < PRIMALITY_LIMIT:
        assert prime_power(p ** m) == (p, m)
        assert is_prime(p ** m) == (m == 1)
        if p > 3 and 3 * p ** m < PRIMALITY_LIMIT:
            assert _prime_power_or_none(prime_power, 3 * p ** m) is None
        m += 1


def test_products_of_large_primes_are_not_prime_powers():
    for a, b in [(1000003, 1000033), (999999937, 1000000007),
                 (2, 2 ** 61 - 1)]:
        assert _prime_power_or_none(prime_power, a * b) is None
        assert not is_prime(a * b)


def test_primality_limit_is_refused_by_name():
    """The least strong pseudoprime to bases 2..41 is the limit: it and
    anything past it is refused, naming the limit, not guessed."""
    assert PRIMALITY_LIMIT == 3317044064679887385961981
    for q in (PRIMALITY_LIMIT, PRIMALITY_LIMIT + 2, 2 ** 100, 3 ** 60):
        with pytest.raises(ValueError, match=str(PRIMALITY_LIMIT)):
            prime_power(q)
        with pytest.raises(ValueError, match=str(PRIMALITY_LIMIT)):
            is_prime(q)
    assert prime_power(2 ** 81) == (2, 81)
    assert prime_power(1000000000000000003) == (1000000000000000003, 1)
