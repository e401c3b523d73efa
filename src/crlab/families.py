"""The six families of completely regular codes with covering radius 2
and antipodal dual, and parameter-level family matching.

Each constructor returns a FamilyInstance holding the two-weight code
(the antipodal side) and the predicted weight set.  The completely
regular dual is the two-weight code's null space; ``cr_code`` builds it
on first use and the two-weight code caches it, so a caller that needs
only parameters, weights or the intersection array never eliminates.
``predicted_ia`` is :func:`crlab.regularity.delsarte_ia` of the
predicted weights, the same for all six families.  Predictions are
verified by the test suite, not silently trusted at construction; the
structural safety nets (column counts, weight sets of the small side,
the CR.2 dimension) do run here.  The weight sets take 0.81 of the
0.82 s of Delsarte 128's builder and 0.79 of the 0.79 s of Denniston
(128, 64)'s (2-core x86-64 box).  CR.2 is built from the all-ones row
and u/l rows of its difference matrix, computed without building the
matrix or stacking its q^2 mu translates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import budgets
from .codes import LinearCode, projective_dual_transform
from .diffmat import shortening
from .field import FieldSpec, digit_add, field_create, prime_power, span
from .matrix import MatGF
from .regularity import IntersectionArray, delsarte_ia


@dataclass(frozen=True)
class FamilyInstance:
    """One member of a family: its two-weight code and predicted weights.

    Only the two-weight side is held.  ``cr_code`` eliminates the dual on
    first use, and ``predicted_ia`` needs no dual at all."""
    family: str                      # "CR1" .. "CR6"
    params: dict
    two_weight_code: LinearCode
    predicted_weights: frozenset     # {d, n} of the two-weight side
    notes: tuple = dc_field(default_factory=tuple)

    @property
    def cr_code(self) -> LinearCode:
        """The completely regular dual: the two-weight code's null space,
        eliminated on first use and cached by the two-weight code."""
        return self.two_weight_code.dual()

    @property
    def predicted_ia(self) -> IntersectionArray:
        """The dual's intersection array by Delsarte's closed form: its
        redundancy is the two-weight side's dimension and its packing
        radius 1."""
        tw = self.two_weight_code
        return delsarte_ia(tw.n, tw.q, tw.k, 1, self.predicted_weights)

    def __repr__(self):
        return (f"FamilyInstance({self.family}, {self.params}, "
                f"two_weight={self.two_weight_code!r})")


def _char2_field(q: int) -> FieldSpec:
    """GF(q) for q = 2^m >= 4, where hyperovals and maximal arcs live;
    ValueError otherwise."""
    if q % 2:
        raise ValueError(
            f"q = {q} is odd: no (q+2, 3, q) hyperoval codes and no maximal "
            "arcs exist in odd characteristic, so these families are empty")
    if q < 4 or q & (q - 1):
        raise ValueError(f"need q = 2^m >= 4, got {q}")
    return field_create(2, q.bit_length() - 1)


# -- CR.1: duals of binary Hadamard codes (extended Hamming) ---------------

def cr1_extended_hamming(m: int) -> FamilyInstance:
    """Parity check: all 2^m binary columns of length m plus an all-ones
    row.  Two-weight side [2^m, m+1, {2^(m-1), 2^m}], dual
    [2^m, 2^m - m - 1, 4]."""
    if m < 2:
        raise ValueError("need m >= 2")
    what = f"CR.1 generator (m = {m}) entries"
    budgets.check_enum_bits(m + (m + 1).bit_length(), what)
    budgets.check_enum((m + 1) << m, what)
    f = field_create(2, 1)
    n = 2 ** m
    rows = np.empty((m + 1, n), dtype=f.dtype)
    for i in range(m + 1):  # bit i of n + j: the bits of j, then all ones
        rows[i] = np.arange(n, 2 * n) >> i & 1
    tw = LinearCode(f, MatGF(f, rows))
    notes = ()
    if m == 2:
        notes = ("trivial boundary: dual dimension 1",)
    return FamilyInstance(
        family="CR1", params={"m": m},
        two_weight_code=tw,
        predicted_weights=frozenset({n // 2, n}),
        notes=notes)


# -- CR.2: duals of difference-matrix codes --------------------------------

def cr2_dm_dual(p: int, l: int, h: int) -> FamilyInstance:
    """Linear difference-matrix code over GF(p^l) (needs l | h) and its
    completely regular dual.

    The code of all translates D + g is GF(p^l)-linear and spanned by the
    all-ones row and the rows of D at alpha^j, j < u/l (u = l + h), the
    basis over GF(p^l) in which Phi is linear (see :mod:`crlab.diffmat`),
    so it is built from those u/l + 1 rows."""
    if l < 1 or h < 1:
        raise ValueError("l and h must be >= 1")
    if h % l:
        raise ValueError("need l | h for a linear difference-matrix code")
    # the completely regular dual's (n - k) x n generator is the largest
    # object built when the dual is read (``cr_code``, ``construct -o``),
    # named as powers: Python prints no int of more than 4300 digits.
    # n = p^(l+h) has at least (l+h)(bits(p) - 1) + 1 bits, and n - k - 1
    # >= n/2 wherever that bound can refuse, so the entries have at least
    # twice that less 2
    what = f"CR.2 dual generator for D({p}^{l},{p}^{h}) entries"
    budgets.check_enum_bits(2 * (l + h) * (p.bit_length() - 1), what)
    q, mu = p ** l, p ** h
    n = q * mu
    k_dim = (l + h) // l
    budgets.check_enum(n * (n - k_dim - 1), what)
    big, small, phi = shortening(p, l, h)
    elements = np.arange(big.q)
    rows = [[1] * n] + [phi[big.mul_array(big.pow(big.alpha, j), elements)]
                        for j in range(k_dim)]
    tw = LinearCode.from_spanning_rows(small, rows)
    if tw.k != k_dim + 1:
        raise AssertionError(
            f"generator rows span dimension {tw.k}, expected u/l + 1 = "
            f"{k_dim + 1}; this is a bug")
    notes = ()
    if tw.k <= 3 and n - tw.k <= 1:
        notes = ("trivial boundary: dual dimension <= 1",)
    return FamilyInstance(
        family="CR2", params={"p": p, "l": l, "h": h, "q": q},
        two_weight_code=tw,
        predicted_weights=frozenset({mu * (q - 1), n}),
        notes=notes)


# -- CR.3: duals of Latin-square (MDS) codes --------------------------------

def cr3_mds_dual(q: int, n: int) -> FamilyInstance:
    """Two-weight side generated by (1,...,1) and (0, 1, a_2, ..., a_(n-1))
    over the first n field elements in canonical order; weights {n-1, n}."""
    p, m = prime_power(q)
    if not 3 <= n <= q:
        raise ValueError("need 3 <= n <= q (n = 2 is the trivial boundary)")
    f = field_create(p, m)
    elems = list(range(n))
    G = MatGF(f, [[1] * n, elems])
    tw = LinearCode(f, G)
    notes = ()
    if n == 3:
        notes = ("boundary: dual dimension 1",)
    return FamilyInstance(
        family="CR3", params={"q": q, "n": n},
        two_weight_code=tw,
        predicted_weights=frozenset({n - 1, n}),
        notes=notes)


# -- CR.4: duals of Bose-Bush (hyperoval) codes ------------------------------

def hyperoval_conic_columns(f: FieldSpec) -> list:
    """Conic plus nucleus: {(1, t, t^2)} followed by (0,1,0), (0,0,1)."""
    cols = [(1, t, f.mul(t, t)) for t in range(f.q)]
    cols.append((0, 1, 0))
    cols.append((0, 0, 1))
    return cols


def cr4_bose_bush(q: int) -> FamilyInstance:
    """Hyperoval code [q+2, 3, {q, q+2}] for q = 2^m >= 4, dual
    [q+2, q-1, 4].  Uses the conic-plus-nucleus hyperoval, which exists
    for every such q (unlike Bush's closed-form matrix, whose
    denominators vanish when 3 | q-1)."""
    f = _char2_field(q)
    G = MatGF(f, np.transpose(hyperoval_conic_columns(f)))
    tw = LinearCode(f, G)
    return FamilyInstance(
        family="CR4", params={"q": q},
        two_weight_code=tw,
        predicted_weights=frozenset({q, q + 2}))


# -- CR.5: duals of Delsarte codes ------------------------------------------

def cr5_delsarte(q: int) -> FamilyInstance:
    """Projective dual of the hyperoval code with (a, b) = (1/2, -q/2):
    the unique affine map sending weight q to multiplicity 0 and weight
    q+2 to multiplicity 1.  [q(q-1)/2, 3, {q(q-2)/2, q(q-1)/2}]; the
    dual is [n, n-3] (dual distance 3 for q >= 8, see cr6_denniston)."""
    base = cr4_bose_bush(q)
    tw = projective_dual_transform(base.two_weight_code,
                                   Fraction(1, 2), Fraction(-q, 2))
    n = q * (q - 1) // 2
    if tw.n != n:
        raise AssertionError(f"transform length {tw.n} != q(q-1)/2 = {n}")
    weights = set(tw.weight_distribution().nonzero_weights)
    want = {q * (q - 2) // 2, n}
    if weights != want:
        raise AssertionError(
            f"transform weights {sorted(weights)} != {sorted(want)}")
    notes = ()
    if q == 4:
        notes = ("degenerate: length 6 coincides with the hyperoval code",)
    return FamilyInstance(
        family="CR5", params={"q": q},
        two_weight_code=tw,
        predicted_weights=frozenset(want),
        notes=notes)


# -- CR.6: duals of Denniston codes ------------------------------------------

def denniston_quadratic_c(f: FieldSpec) -> int:
    """Canonically smallest c with trace 1: x^2 + xy + c y^2 is then an
    irreducible (anisotropic) quadratic form in characteristic 2."""
    for c in range(f.q):
        if f.trace(c) == 1:
            return c
    raise AssertionError("trace is surjective; unreachable")


def cr6_denniston(q: int, h: int) -> FamilyInstance:
    """Maximal-arc code: columns (1, x, y) over all pairs with
    x^2 + xy + c y^2 in H, where H is the additive subgroup spanned by
    1, alpha, ..., alpha^(u-1) and h = 2^u.  Gives
    [1 + (q+1)(h-1), 3, {q(h-1), n}]; dual [n, n-3].

    The dual minimum distance is 4 only for h = 2: secant lines of an
    arc of degree h >= 3 carry h collinear points, so three dependent
    columns exist and the dual distance drops to 3."""
    f = _char2_field(q)
    u = h.bit_length() - 1
    if h < 2 or (1 << u) != h or h > q // 2:
        raise ValueError("need h = 2^u with 2 <= h <= q/2")
    # the quadratic form is evaluated over the whole q x q grid
    budgets.check_enum(q * q, f"Denniston quadratic form grid over GF({q})")
    c = denniston_quadratic_c(f)

    # membership table of H, the span of the u powers over {0, 1}
    in_h = np.zeros(q, dtype=bool)
    in_h[span(f, [[f.pow(f.alpha, i)] for i in range(u)], (0, 1))] = True
    if np.count_nonzero(in_h) != h:
        raise AssertionError("additive subgroup has the wrong order")

    # x^2 + xy + c y^2 over the q x q grid; nonzero() reads it x-major
    elements = np.arange(q)
    squares = f.mul_array(elements, elements)
    form = digit_add(
        digit_add(squares[:, None], f.mul_array(elements[:, None], elements),
                  f.p, f.m),
        f.mul_array(c, squares), f.p, f.m)
    xs, ys = np.nonzero(in_h[form])
    n = 1 + (q + 1) * (h - 1)
    if len(xs) != n:
        raise AssertionError(
            f"arc has {len(xs)} points, expected 1 + (q+1)(h-1) = {n}")
    tw = LinearCode(f, MatGF(f, np.stack([np.ones_like(xs), xs, ys])))
    weights = set(tw.weight_distribution().nonzero_weights)
    want = {q * (h - 1), n}
    if weights != want:
        raise AssertionError(
            f"arc code weights {sorted(weights)} != {sorted(want)}")
    notes = ()
    if h == 2:
        notes = ("h = 2 reproduces the hyperoval-code parameters",)
    return FamilyInstance(
        family="CR6", params={"q": q, "h": h},
        two_weight_code=tw,
        predicted_weights=frozenset(want),
        notes=notes)


# -- parameter-level family matching ----------------------------------------

def family_match(n: int, k: int, q: int, dual_weights,
                 ia: IntersectionArray | None) -> list:
    """Every family whose parameters fit an [n, k]_q code whose dual has
    the nonzero weights dual_weights (iterable) and whose intersection
    array is ia (None matches any array).  Matching is parameter-level,
    not monomial-equivalence-level.  Returns (family, params) pairs.

    Every family predicts the closed-form array with packing radius 1,
    computed only once some family's parameters fit."""
    dual_weights = frozenset(dual_weights)
    m = n - k - 1           # the dual's dimension less one
    out = []
    if q == 2 and m >= 2 and n == 2 ** m \
            and dual_weights == frozenset({n // 2, n}):
        out.append(("CR1", {"m": m}))
    if m >= 1 and n == q ** m \
            and dual_weights == frozenset({n // q * (q - 1), n}):
        out.append(("CR2", {"q": q, "m": m}))
    if m == 1 and 2 <= n <= q and dual_weights == frozenset({n - 1, n}):
        out.append(("CR3", {"q": q, "n": n}))
    if m == 2 and q >= 4 and q & (q - 1) == 0:
        if n == q + 2 and dual_weights == frozenset({q, q + 2}):
            out.append(("CR4", {"q": q}))
        if n == q * (q - 1) // 2 \
                and dual_weights == frozenset({q * (q - 2) // 2, n}):
            out.append(("CR5", {"q": q}))
        for h in (1 << u for u in range(1, q.bit_length() - 1)):
            if n == 1 + (q + 1) * (h - 1) \
                    and dual_weights == frozenset({q * (h - 1), n}):
                out.append(("CR6", {"q": q, "h": h}))
    if out and ia is not None \
            and ia != delsarte_ia(n, q, n - k, 1, dual_weights):
        return []
    return out


def random_code(field: FieldSpec, n: int, k: int, seed: int) -> LinearCode:
    """Seeded full-rank random generator matrix; deterministic per seed."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
        M = MatGF(field, rows)
        if M.rank == k:
            return LinearCode(field, M)


def random_multiweight_code(field: FieldSpec, n: int, k: int,
                            seed: int) -> LinearCode:
    """Seeded random code with at least three distinct nonzero weights."""
    s = seed
    while True:
        code = random_code(field, n, k, s)
        if code.weight_distribution().s_count >= 3:
            return code
        s += 1
