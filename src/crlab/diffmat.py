"""Difference matrices D(q, mu) over the additive group of GF(p^l).

Construction: take the multiplication table F of GF(p^u), u = l + h, with
rows and columns indexed by the field elements in canonical integer
order, and shorten every entry to the additive group of GF(p^l) through
an F_p-linear surjection Phi that keeps the first l coordinates of the
entry's coefficient vector.

Two coordinate systems are used for Phi:

* l does not divide h: coefficients in the power basis of GF(p^u) over
  GF(p), i.e. plain truncation of the base-p digits.  The resulting
  matrix is additive.
* l divides h: coefficients over the embedded subfield K = GF(p^l), in
  the K-basis {1, beta, ..., beta^(u/l - 1)} with beta the canonical
  primitive element.  Keeping the first l base-p coordinates of this
  adapted system makes Phi K-linear, so the induced code is closed under
  GF(p^l) scalars, i.e. linear.  (The plain power-basis truncation is
  only F_p-linear and verifiably fails scalar closure already for
  p = 2, l = h = 2.)

The multiplication table F is one broadcast over the big field's
log/antilog arrays (:meth:`crlab.field.FieldSpec.mul_array`).  Group
arithmetic on whole arrays of entries goes through q x q addition and
subtraction tables from :func:`crlab.field.digit_table`; the
element-level ``FieldSpec`` methods are used only where single entries
are combined.

The construction is a theorem (a shortened field multiplication table
is a difference matrix), so it is not re-checked here;
:func:`is_difference_matrix` is the exhaustive check, run by
``crlab dm --verify`` and by the tests on every D(p^l, p^h) with
p^(l+h) <= 256.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budgets
from .codes import CodewordMatrix, LinearCode
from .field import FieldSpec, digit_table, field_create
from .matrix import MatGF

# direct all-pairs Eq-(3.1) checking is bounded by N^2 * n elementary ops
_DICHOTOMY_DIRECT_WORK = 1 << 29


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

    def row_tuples(self):
        return [tuple(int(x) for x in row) for row in self.entries]

    def __repr__(self):
        return f"DifferenceMatrix(D({self.q},{self.mu}))"


def is_difference_matrix(entries, group_field: FieldSpec) -> bool:
    """Exhaustive check over all row pairs.

    Row i is checked against every later row at once: the differences
    come from one gather on the flat subtraction table, each row pair's
    differences are offset into its own q bins, and one bincount must
    give mu in every bin."""
    M = np.asarray(entries, dtype=np.intp)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    q = group_field.q
    side = M.shape[0]
    if side % q:
        return False
    if M.size and (M.min() < 0 or M.max() >= q):
        return False
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


def _subfield_embedding(big: FieldSpec, small: FieldSpec) -> list:
    """sigma(e) for every e in the small field, as elements of the big one.

    sigma sends the small field's primitive element to the canonically
    smallest root of the small modulus inside the big field.
    """
    p = small.p
    t = (big.q - 1) // (small.q - 1)
    members = {0} | {big.alpha_powers[(i * t) % (big.q - 1)]
                     for i in range(small.q - 1)}
    roots = []
    coeffs = small.modulus
    for y in sorted(members):
        acc = 0
        for c in reversed(coeffs):
            acc = big.add(big.mul(acc, y), c)
        if acc == 0:
            roots.append(y)
    if not roots:
        raise AssertionError("small modulus has no root in the big field")
    root = roots[0]
    alpha_img = [big.pow(root, i) for i in range(small.m)]
    table = []
    for e in range(small.q):
        digits = small.coeffs(e)
        acc = 0
        for d, im in zip(digits, alpha_img):
            if d:
                acc = big.add(acc, big.mul(d, im))
        table.append(acc)
    return table


def _phi_table(big: FieldSpec, small: FieldSpec, tower: bool) -> np.ndarray:
    """Phi(e) for every element of the big field, exploiting F_p-linearity:
    Phi(e) = sum_i digit_i(e) * Phi(x^i) computed in the small field."""
    p, u, l = big.p, big.m, small.m
    if not tower:
        basis_img = [(p ** i if i < l else 0) for i in range(u)]
    else:
        sigma = _subfield_embedding(big, small)
        k_dim = u // l
        cols = []
        for j in range(k_dim):
            beta_j = big.pow(big.alpha, j)
            for i in range(l):
                b = big.mul(sigma[small.pow(small.alpha, i)], beta_j)
                cols.append(big.coeffs(b))
        # columns of the change-of-basis matrix over GF(p); invert it
        gfp = field_create(p, 1)
        Mrows = [[cols[c][r] for c in range(u)] for r in range(u)]
        aug = [Mrows[r] + [1 if r == c else 0 for c in range(u)]
               for r in range(u)]
        red, rank, _ = MatGF(gfp, aug).rref()
        if rank != u:
            raise AssertionError("tower basis is singular")
        inv = [row[u:] for row in red]
        basis_img = []
        for i in range(u):
            digits = [0] * u
            digits[i] = 1
            coords = [sum(inv[r][c] * digits[c] for c in range(u)) % p
                      for r in range(u)]
            basis_img.append(small.from_coeffs(coords[:l]))
    tab = np.empty(big.q, dtype=np.int64)
    for e in range(big.q):
        digits = big.coeffs(e)
        acc = 0
        for d, img in zip(digits, basis_img):
            if d and img:
                acc = small.add(acc, small.mul(d, img))
        tab[e] = acc
    return tab


def difference_matrix(p: int, l: int, h: int) -> DifferenceMatrix:
    """D(p^l, p^h) from the shortened multiplication table of GF(p^(l+h))."""
    if l < 1 or h < 1:
        raise ValueError("l and h must be >= 1")
    u = l + h
    budgets.check_enum(p ** (2 * u),
                       f"difference matrix D({p ** l},{p ** h}) entries")
    big = field_create(p, u)
    small = field_create(p, l)
    tower = l > 1 and h % l == 0
    phi = _phi_table(big, small, tower)

    elements = np.arange(big.q)
    D = phi[big.mul_array(elements[:, None], elements)]
    return DifferenceMatrix(group_field=small, mu=p ** h, entries=D)


def normalize_dm(dm: DifferenceMatrix) -> DifferenceMatrix:
    """Zero first row and zero first column, difference property intact.

    Each row is shifted by its own first entry (row-constant shifts), then
    the resulting first row is subtracted from every row (per-column
    constant shifts).  Both operations preserve the difference property;
    the map is idempotent.
    """
    sub = digit_table(dm.group_field, -1)
    ent = dm.entries
    ent = sub[ent, ent[:, :1]]
    ent = sub[ent, ent[:1, :]]
    return DifferenceMatrix(group_field=dm.group_field, mu=dm.mu, entries=ent)


@dataclass(frozen=True)
class DMCode:
    """Stacked translates of a difference matrix: an (n, q^2 mu) code with
    n = q mu, weights {mu(q-1), n}."""

    matrix: CodewordMatrix
    linear: LinearCode | None
    dichotomy_mode: str  # "direct" (all row pairs compared) or "derived"

    @property
    def is_linear(self) -> bool:
        return self.linear is not None


def dm_code(dm: DifferenceMatrix) -> DMCode:
    """Stack the translates D + g for all g in the group and check the
    two-value row-distance property (q*mu against (q-1)*mu).

    When all pairwise distances fit the direct work cap they are compared
    literally; beyond it the property follows from the difference
    property plus the translate arithmetic (the number of agreements
    between r_i + g1 and r_j + g2 is the number of positions where
    r_i - r_j equals g2 - g1, which the difference property pins to mu for
    i != j), and the mode is reported as "derived".
    """
    f = dm.group_field
    q, mu = dm.q, dm.mu
    n = q * mu
    N = q * q * mu
    budgets.check_enum(N * n, "difference-matrix code entries")
    addt = digit_table(f)
    blocks = [addt[dm.entries, g] for g in range(q)]
    stacked = np.concatenate(blocks, axis=0)

    if N * N * n <= _DICHOTOMY_DIRECT_WORK:
        mode = "direct"
        base = np.arange(N) % dm.side
        for i in range(N - 1):
            dist = (stacked[i + 1:] != stacked[i]).sum(axis=1)
            same = base[i + 1:] == base[i]
            want = np.where(same, n, (q - 1) * mu)
            if not (dist == want).all():
                j = int(np.nonzero(dist != want)[0][0]) + i + 1
                raise AssertionError(
                    f"row-distance dichotomy fails for rows {i}, {j}; "
                    "this is a bug")
    else:
        mode = "derived"

    rows = [tuple(int(x) for x in r) for r in stacked]
    matrix = CodewordMatrix(f, rows)
    linear = _extract_linear(f, rows)
    return DMCode(matrix=matrix, linear=linear, dichotomy_mode=mode)


def additive_span_basis(f: FieldSpec, rows):
    """(basis, closed): a prime-field basis of the additive span of the
    rows, and whether the row set is itself that span (i.e. a group)."""
    row_set = set(rows)
    n = len(rows[0])
    zero = (0,) * n
    if zero not in row_set:
        return [], False
    basis = []
    span = {zero}
    for r in rows:
        if r in span:
            continue
        basis.append(r)
        new = set()
        for s in span:
            acc = s
            for _ in range(f.p - 1):
                acc = tuple(f.add(a, b) for a, b in zip(acc, r))
                new.add(acc)
        span |= new
        if len(span) > len(row_set):
            return basis, False
    return basis, span == row_set


def _extract_linear(f: FieldSpec, rows) -> LinearCode | None:
    """The spanned LinearCode when the row set is closed under addition and
    scalar multiplication; None otherwise."""
    row_set = set(rows)
    basis, closed = additive_span_basis(f, rows)
    if not closed:
        return None
    for c in range(2, f.q):
        for b in basis:
            scaled = tuple(f.mul(c, x) for x in b)
            if scaled not in row_set:
                return None
    code = LinearCode.from_spanning_rows(f, list(row_set))
    if f.q ** code.k != len(row_set):
        return None
    return code


def dm_equidistant_code(dm: DifferenceMatrix) -> CodewordMatrix:
    """Normalize, drop the zero first column: an equidistant
    (q*mu - 1, q*mu, mu(q-1)) structure meeting the Plotkin bound with
    equality."""
    norm = normalize_dm(dm)
    rows = [tuple(int(x) for x in r[1:]) for r in norm.entries]
    return CodewordMatrix(dm.group_field, rows)
