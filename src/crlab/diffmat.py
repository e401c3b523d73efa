"""Difference matrices D(q, mu) over the additive group of GF(p^l).

Construction: take the multiplication table F of GF(p^u), u = l + h, with
rows and columns indexed by the field elements in canonical integer
order, and shorten every entry to the additive group of GF(p^l) through
an F_p-linear surjection Phi that keeps the first l coordinates of the
entry's coefficient vector.

Two coordinate systems are used for Phi:

* l does not divide h, or l = 1: coefficients in the power basis of
  GF(p^u) over GF(p), i.e. plain truncation of the base-p digits.  The
  resulting matrix is additive.
* l divides h: coefficients over the embedded subfield K = GF(p^l), in
  the K-basis {1, beta, ..., beta^(u/l - 1)} with beta the canonical
  primitive element.  Keeping the first l base-p coordinates of this
  adapted system makes Phi K-linear, so the induced code is closed under
  GF(p^l) scalars, i.e. linear.  (The plain power-basis truncation is
  only F_p-linear and verifiably fails scalar closure already for
  p = 2, l = h = 2.)  For l = 1 both systems are the same.

Generator rows: when l divides h, row x of D is (Phi(x y))_y, and Phi is
K-linear, so x -> row x is K-linear and the rows of D are the K-span of
the u/l rows at x = beta^j.  The code {D + g} of all translates is
therefore the GF(p^l)-linear code spanned by those rows and the
all-ones row, of dimension u/l + 1;
:func:`crlab.families.cr2_dm_dual` builds it from exactly these rows.
:func:`dm_code` stacks all q^2 mu translates explicitly, for the tests
that compare the two and for codeword-level checks.

:func:`shortening` returns the two fields and the table of Phi;
:func:`difference_matrix` reads the whole of F through it and
:func:`crlab.families.cr2_dm_dual` only the u/l generator rows, so the
CR.2 builder never holds the full matrix.  Products come from the big
field's log/antilog arrays (:meth:`crlab.field.FieldSpec.mul_array`), a
block of rows at a time, so D is held once, in the small field's dtype.
The subfield embedding and the tower coordinates are spans of powers of
one element (:func:`crlab.field.span`).

The construction is a theorem (a shortened field multiplication table
is a difference matrix), so it is not re-checked here.
:func:`is_difference_matrix` (``crlab dm --verify``) refuses non-square
arrays and what :func:`crlab.matrix.element_array` refuses, then
normalizes; if the rows are then distinct and form an additive group,
r_i - r_j (i != j) runs over exactly the nonzero rows, so O(side^2) work
decides: D is one iff each nonzero row holds every element mu times.
Every D(p^l, p^h) qualifies (x -> Phi(xy) is additive); any other
matrix (side not a power of p, rows not closed, a corrupted cell) goes
through the Theta(side^3) loop over all row pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budgets
from .codes import CodewordMatrix
from .field import FieldSpec, digit_add, digit_table, field_create, span
from .matrix import element_array


@dataclass(frozen=True)
class DifferenceMatrix:
    """Square q*mu x q*mu array over the additive group of GF(q)."""

    group_field: FieldSpec
    mu: int
    entries: np.ndarray

    @property
    def q(self) -> int:
        return self.group_field.q

    @property
    def side(self) -> int:
        return self.q * self.mu

    def __repr__(self):
        return f"DifferenceMatrix(D({self.q},{self.mu}))"


def is_difference_matrix(entries, group_field: FieldSpec) -> bool:
    """Whether entries is a difference matrix over GF(q)'s additive group:
    by the group certificate when it applies, else by every row pair."""
    try:
        M = element_array(group_field, entries)
    except ValueError:
        return False
    q = group_field.q
    side = M.shape[0]
    if side != M.shape[1] or side % q:
        return False
    rows = normalize_dm(DifferenceMatrix(group_field, side // q, M)).entries
    if _group_order(rows, group_field) != side:
        return _pairwise_is_difference_matrix(M.astype(np.intp, copy=False),
                                              group_field)
    # row 0 is zero; each other row, sorted, must read 0^mu 1^mu ...
    # (rows is normalize_dm's own copy, so it is sorted in place)
    rows[1:].sort(axis=1, kind="stable")
    balanced = np.repeat(np.arange(q, dtype=rows.dtype), side // q)
    return bool((rows[1:] == balanced).all())


def _pairwise_is_difference_matrix(M: np.ndarray, group_field) -> bool:
    """Every row pair of a square intp M in range.  Row i is checked
    against all later rows at once: the differences come from one gather
    on the flat subtraction table, each row pair's differences are offset
    into its own q bins, and one bincount must give mu in every bin."""
    q = group_field.q
    side = M.shape[0]
    mu = side // q
    key = np.min_scalar_type(side * q)
    sub = digit_table(group_field, -1).astype(key).ravel()
    scaled = M * q
    offsets = (np.arange(side, dtype=key) * q)[:, None]
    for i in range(side - 1):
        later = side - 1 - i
        keys = sub[scaled[i + 1:] + M[i]]
        keys += offsets[:later]
        if not (np.bincount(keys.ravel(), minlength=later * q) == mu).all():
            return False
    return True


def is_additive_group(rows, f: FieldSpec) -> bool:
    """Whether the set of rows (vectors over GF(q)) is an additive group."""
    rows = np.asarray(rows).astype(f.dtype, copy=False)
    return _group_order(rows, f) > 0


def _group_order(rows: np.ndarray, f: FieldSpec) -> int:
    """The order of the additive group that the set of rows (in a dtype
    digit_add accepts) forms, or 0 when it is not a group.  The span,
    grown one generator at a time with digit_add, must stay inside the
    row set: it is held as row positions, and each new coset is formed a
    block of rows at a time and looked up in the one map from row bytes
    to position, so the rows are keyed once and never copied whole."""
    index = {r.tobytes(): i for i, r in enumerate(rows)}
    zero = index.get(np.zeros(rows.shape[-1], dtype=rows.dtype).tobytes())
    if zero is None:
        return 0
    span = np.array([zero])
    in_span = np.zeros(len(rows), dtype=bool)
    in_span[zero] = True
    block = max(1, (1 << 16) // max(1, rows.shape[-1]))
    for r in rows:
        if in_span[index[r.tobytes()]]:
            continue
        if len(span) * f.p > len(index):
            return 0
        cosets = [span]
        for _ in range(f.p - 1):
            found = []
            for lo in range(0, len(span), block):
                for c in digit_add(rows[cosets[-1][lo:lo + block]], r,
                                   f.p, f.m):
                    pos = index.get(c.tobytes())
                    if pos is None:
                        return 0
                    found.append(pos)
            cosets.append(np.array(found))
        span = np.concatenate(cosets)
        in_span[span] = True
    return len(index)


def _subfield_embedding(big: FieldSpec, small: FieldSpec) -> np.ndarray:
    """sigma(e) for every e in the small field, as elements of the big one.

    sigma sends the small field's primitive element to the canonically
    smallest root of the small modulus inside the big field.
    """
    p = small.p
    t = (big.q - 1) // (small.q - 1)
    # 0 and the powers alpha^(i t), i < small.q - 1: the small field
    members = [0] + sorted(big.antilog[:big.q - 1:t].tolist())
    roots = []
    coeffs = small.modulus
    for y in members:
        acc = 0
        for c in reversed(coeffs):
            acc = big.add(big.mul(acc, y), c)
        if acc == 0:
            roots.append(y)
    if not roots:
        raise AssertionError("small modulus has no root in the big field")
    # the base-p digits of e are its coefficients on the powers of the
    # root, the last digit the most significant
    powers = [[big.pow(roots[0], i)] for i in range(small.m - 1, -1, -1)]
    return span(big, powers, np.arange(p))[:, 0]


def _phi_table(big: FieldSpec, small: FieldSpec, tower: bool) -> np.ndarray:
    """Phi(e), in GF(p^l)'s dtype, for every element e of the big field.

    Plain truncation keeps the first l base-p digits.  In tower
    coordinates, e = sum_j sigma(c_j) alpha^j (j < u/l) with c_j in the
    small field, and Phi(e) = c_0: the span of the alpha^j over sigma(K),
    c_0 most significant, reaches every element exactly once."""
    if not tower:
        return (np.arange(big.q) % small.q).astype(small.dtype)
    powers = [[big.pow(big.alpha, j)] for j in range(big.m // small.m)]
    words = span(big, powers, _subfield_embedding(big, small))[:, 0]
    tab = np.empty(big.q, dtype=small.dtype)
    tab[words] = np.arange(big.q) // (big.q // small.q)
    return tab


def shortening(p: int, l: int, h: int) -> tuple:
    """(GF(p^(l+h)), GF(p^l), Phi): row x of D(p^l, p^h) is
    Phi[x * y] over the big field's elements y."""
    big = field_create(p, l + h)
    small = field_create(p, l)
    return big, small, _phi_table(big, small, l > 1 and h % l == 0)


def difference_matrix(p: int, l: int, h: int) -> DifferenceMatrix:
    """D(p^l, p^h) from the shortened multiplication table of GF(p^(l+h))."""
    if l < 1 or h < 1:
        raise ValueError("l and h must be >= 1")
    # named as powers: Python prints no int of more than 4300 digits;
    # p^e has at least e (bits(p) - 1) + 1 bits
    what, e = f"difference matrix D({p}^{l},{p}^{h}) entries", 2 * (l + h)
    budgets.check_enum_bits(e * (p.bit_length() - 1) + 1, what, (p, e))
    budgets.check_enum(p ** e, what, (p, e))
    big, small, phi = shortening(p, l, h)
    # the intp products are formed 2^16 entries at a time
    elements = np.arange(big.q)
    D = np.empty((big.q, big.q), dtype=small.dtype)
    rows = max(1, (1 << 16) // big.q)
    for lo in range(0, big.q, rows):
        D[lo:lo + rows] = phi[big.mul_array(elements[lo:lo + rows, None],
                                            elements)]
    return DifferenceMatrix(group_field=small, mu=p ** h, entries=D)


def normalize_dm(dm: DifferenceMatrix) -> DifferenceMatrix:
    """Zero first row and zero first column, difference property intact:
    each row is shifted by its own first entry, then the resulting first
    row is subtracted from every row.  Idempotent; the entries come back
    in the group field's dtype."""
    f = dm.group_field
    ent = np.asarray(dm.entries).astype(f.dtype, copy=False)
    ent = digit_add(ent, ent[:, :1], f.p, f.m, -1)
    return DifferenceMatrix(f, dm.mu, digit_add(ent, ent[:1], f.p, f.m, -1))


def dm_code(dm: DifferenceMatrix) -> CodewordMatrix:
    """The translates D + g for all g in the group, stacked: q^2 mu rows
    of length n = q mu, row i of D + g at index g * q mu + i.

    Two rows are at distance n (the same row of D, different g) or
    mu(q-1) (different rows of D): r_i + g1 and r_j + g2 agree where
    r_i - r_j = g2 - g1, which the difference property pins to mu
    positions for i != j."""
    q = dm.q
    budgets.check_enum(q * dm.side * dm.side, "difference-matrix code entries")
    addt = digit_table(dm.group_field)
    stacked = np.concatenate([addt[dm.entries, g] for g in range(q)])
    return CodewordMatrix(dm.group_field, stacked.tolist())

