"""The six families of completely regular codes with covering radius 2
and antipodal dual, plus the structural checkers that certify them.

Each constructor returns a FamilyInstance holding the two-weight code
(the antipodal side), its completely regular dual, and the predicted
weight set and intersection array.  Predictions are verified by the test
suite, not silently trusted at construction; the cheap structural
safety nets (column counts, weight sets of the small side) do run here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .codes import (CodewordMatrix, LinearCode, hamming_distance,
                    projective_dual_transform)
from .diffmat import DifferenceMatrix, dm_code, difference_matrix, \
    is_difference_matrix
from .field import FieldSpec, field_create
from .matrix import MatGF
from .regularity import IntersectionArray


@dataclass(frozen=True)
class FamilyInstance:
    family: str                      # "CR1" .. "CR6"
    params: dict
    two_weight_code: LinearCode
    cr_code: LinearCode
    predicted_weights: frozenset     # {d, n} of the two-weight side
    predicted_ia: IntersectionArray
    notes: tuple = dc_field(default_factory=tuple)

    @property
    def q(self) -> int:
        return self.two_weight_code.q

    def __repr__(self):
        return (f"FamilyInstance({self.family}, {self.params}, "
                f"two_weight={self.two_weight_code!r})")


def _power_of_two(q: int) -> int:
    """m with q = 2^m, or ValueError."""
    m = q.bit_length() - 1
    if q < 2 or (1 << m) != q:
        raise ValueError(f"{q} is not a power of 2")
    return m


def ia_formula(family: str, **params) -> IntersectionArray:
    """The predicted intersection array of the completely regular dual."""
    if family == "CR1":
        n = 2 ** params["m"]
        return IntersectionArray(2, (n, n - 1), (1, n), n=n, q=2)
    if family == "CR2":
        q, n = params["q"], params["n"]
        return IntersectionArray(2, (n * (q - 1), n - 1),
                                 (1, n * (q - 1)), n=n, q=q)
    if family == "CR3":
        q, n = params["q"], params["n"]
        return IntersectionArray(2, (n * (q - 1), (q - n + 1) * (n - 1)),
                                 (1, n * (n - 1)), n=n, q=q)
    if family == "CR4":
        q = params["q"]
        return IntersectionArray(2, ((q + 2) * (q - 1), q * q - 1),
                                 (1, q + 2), n=q + 2, q=q)
    if family == "CR5":
        q = params["q"]
        n = q * (q - 1) // 2
        return IntersectionArray(
            2, ((q - 1) * n, (q - 2) * (q + 1) * (q + 2) // 4),
            (1, q * (q - 1) * (q - 2) // 4), n=n, q=q)
    if family == "CR6":
        q, h = params["q"], params["h"]
        n = 1 + (q + 1) * (h - 1)
        return IntersectionArray(
            2, ((q - 1) * n, (q + 1) * (h - 1) * (q - h + 1)),
            (1, (h - 1) * n), n=n, q=q)
    raise ValueError(f"unknown family {family!r}")


# -- CR.1: duals of binary Hadamard codes (extended Hamming) ---------------

def cr1_extended_hamming(m: int) -> FamilyInstance:
    """Parity check: all 2^m binary columns of length m plus an all-ones
    row.  Two-weight side [2^m, m+1, {2^(m-1), 2^m}], dual
    [2^m, 2^m - m - 1, 4]."""
    if m < 2:
        raise ValueError("need m >= 2")
    f = field_create(2, 1)
    n = 2 ** m
    rows = [[(j >> i) & 1 for j in range(n)] for i in range(m)]
    rows.append([1] * n)
    tw = LinearCode(f, MatGF(f, rows))
    notes = ()
    if m == 2:
        notes = ("trivial boundary: dual dimension 1",)
    return FamilyInstance(
        family="CR1", params={"m": m},
        two_weight_code=tw, cr_code=tw.dual(),
        predicted_weights=frozenset({n // 2, n}),
        predicted_ia=ia_formula("CR1", m=m),
        notes=notes)


# -- CR.2: duals of difference-matrix codes --------------------------------

def cr2_dm_dual(p: int, l: int, h: int) -> FamilyInstance:
    """Linear difference-matrix code over GF(p^l) (needs l | h) and its
    completely regular dual."""
    if h % l:
        raise ValueError("need l | h for a linear difference-matrix code")
    built = dm_code(difference_matrix(p, l, h))
    if built.linear is None:
        raise AssertionError(
            "difference-matrix rows did not span a linear code; this is a bug")
    tw = built.linear
    q = p ** l
    n = tw.n
    mu = p ** h
    notes = ()
    if tw.k <= 3 and n - tw.k <= 1:
        notes = ("trivial boundary: dual dimension <= 1",)
    return FamilyInstance(
        family="CR2", params={"p": p, "l": l, "h": h, "q": q},
        two_weight_code=tw, cr_code=tw.dual(),
        predicted_weights=frozenset({mu * (q - 1), n}),
        predicted_ia=ia_formula("CR2", q=q, n=n),
        notes=notes)


# -- CR.3: duals of Latin-square (MDS) codes --------------------------------

def cr3_mds_dual(q: int, n: int) -> FamilyInstance:
    """Two-weight side generated by (1,...,1) and (0, 1, a_2, ..., a_(n-1))
    over the first n field elements in canonical order; weights {n-1, n}."""
    from .conditions import prime_power
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
        two_weight_code=tw, cr_code=tw.dual(),
        predicted_weights=frozenset({n - 1, n}),
        predicted_ia=ia_formula("CR3", q=q, n=n),
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
    for every such q (unlike the closed-form matrix of
    :func:`bush_closed_form_matrix`, whose denominators vanish when 3 | q-1)."""
    m = _power_of_two(q)
    if q < 4:
        raise ValueError("need q = 2^m >= 4")
    f = field_create(2, m)
    G = MatGF(f, list(zip(*hyperoval_conic_columns(f))))
    tw = LinearCode(f, G)
    return FamilyInstance(
        family="CR4", params={"q": q},
        two_weight_code=tw, cr_code=tw.dual(),
        predicted_weights=frozenset({q, q + 2}),
        predicted_ia=ia_formula("CR4", q=q))


def bush_closed_form_matrix(q: int) -> MatGF:
    """The closed-form hyperoval generator with columns (1, x_i, y_i),
    x_i = alpha^i / (1 + alpha^i + alpha^(2i)),
    y_i = alpha^(2i) / (1 + alpha^i + alpha^(2i)), i = 1..q-2,
    preceded by the four columns (1,0,0), (1,1,0), (1,0,1), (1,1,1).

    Defined only when no denominator vanishes, i.e. when 3 does not
    divide q - 1; otherwise raises with the first failing index."""
    m = _power_of_two(q)
    if q < 4:
        raise ValueError("need q = 2^m >= 4")
    f = field_create(2, m)
    cols = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    for i in range(1, q - 1):
        ai = f.pow(f.alpha, i)
        a2i = f.mul(ai, ai)
        denom = f.add(f.add(1, ai), a2i)
        if denom == 0:
            raise ValueError(
                f"1 + alpha^{i} + alpha^{2 * i} = 0 in GF({q}): the "
                f"closed-form hyperoval matrix is undefined (3 divides q-1)")
        inv = f.inv(denom)
        cols.append((1, f.mul(ai, inv), f.mul(a2i, inv)))
    G = MatGF(f, list(zip(*cols)))
    code = LinearCode(f, G)
    weights = set(code.weight_distribution().nonzero_weights)
    if weights != {q, q + 2}:
        raise AssertionError(
            f"closed-form matrix gave weights {sorted(weights)}, "
            f"expected {{{q}, {q + 2}}}; this is a bug")
    return G


# -- CR.5: duals of Delsarte codes ------------------------------------------

def cr5_delsarte(q: int) -> FamilyInstance:
    """Projective dual of the hyperoval code with (a, b) = (1/2, -q/2):
    the unique affine map sending weight q to multiplicity 0 and weight
    q+2 to multiplicity 1.  [q(q-1)/2, 3, {q(q-2)/2, q(q-1)/2}]; the
    dual is [n, n-3] (dual distance 3 for q >= 8, see cr6_denniston)."""
    _power_of_two(q)
    if q < 4:
        raise ValueError("need q = 2^m >= 4")
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
        two_weight_code=tw, cr_code=tw.dual(),
        predicted_weights=frozenset(want),
        predicted_ia=ia_formula("CR5", q=q),
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
    m = _power_of_two(q)
    if q < 4:
        raise ValueError("need q = 2^m >= 4")
    u = h.bit_length() - 1
    if h < 2 or (1 << u) != h or h > q // 2:
        raise ValueError("need h = 2^u with 2 <= h <= q/2")
    f = field_create(2, m)
    c = denniston_quadratic_c(f)

    subgroup = {0}
    for gen in [f.pow(f.alpha, i) for i in range(u)]:
        subgroup |= {f.add(x, gen) for x in subgroup}
    if len(subgroup) != h:
        raise AssertionError("additive subgroup has the wrong order")

    cols = []
    for x in range(q):
        x2 = f.mul(x, x)
        for y in range(q):
            val = f.add(f.add(x2, f.mul(x, y)), f.mul(c, f.mul(y, y)))
            if val in subgroup:
                cols.append((1, x, y))
    n = 1 + (q + 1) * (h - 1)
    if len(cols) != n:
        raise AssertionError(
            f"arc has {len(cols)} points, expected 1 + (q+1)(h-1) = {n}")
    tw = LinearCode(f, MatGF(f, list(zip(*cols))))
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
        two_weight_code=tw, cr_code=tw.dual(),
        predicted_weights=frozenset(want),
        predicted_ia=ia_formula("CR6", q=q, h=h),
        notes=notes)


# -- structural checkers -----------------------------------------------------

@dataclass(frozen=True)
class AntipodalFormVerdict:
    ok: bool
    reason: str
    d_star: int | None = None
    multiplicity: int | None = None


def antipodal_form_check(code: LinearCode) -> AntipodalFormVerdict:
    """Generator-form test for antipodal two-weight codes.

    Normalizes the code by column scaling so some full-weight codeword
    becomes the all-ones vector, splits off the subcode with first
    coordinate zero, and demands that subcode be equidistant with every
    occurring symbol of every nonzero codeword appearing exactly n - d
    times.  True exactly when the code is antipodal two-weight."""
    f = code.field
    n = code.n
    full = None
    for w in code.codewords():
        if all(x for x in w):
            full = w
            break
    if full is None:
        return AntipodalFormVerdict(
            ok=False, reason="no codeword without zero coordinates; "
            "cannot normalize an all-ones row")
    scale = [f.inv(x) for x in full]
    rows = [tuple(f.mul(s, x) for s, x in zip(scale, row))
            for row in code.G.rows]
    scaled = LinearCode(f, MatGF(f, rows))

    words = [tuple(w) for w in scaled.codewords()]
    star = [w for w in words if w[0] == 0 and any(w)]
    if not star:
        return AntipodalFormVerdict(ok=False,
                                    reason="first-coordinate-zero subcode is trivial",
                                    d_star=None)
    d_star = min(sum(1 for x in w if x) for w in star)
    mu = n - d_star
    for w in star:
        counts: dict = {}
        for x in w:
            counts[x] = counts.get(x, 0) + 1
        if any(v != mu for v in counts.values()):
            return AntipodalFormVerdict(
                ok=False,
                reason=f"symbol multiplicities {sorted(counts.values())} "
                f"are not constant {mu} on a residual codeword",
                d_star=d_star, multiplicity=mu)
    return AntipodalFormVerdict(ok=True, reason="", d_star=d_star,
                                multiplicity=mu)


@dataclass(frozen=True)
class SimplexPartition:
    classes: tuple                    # tuples of row indices
    class_size: int
    is_simplex_partition: bool        # classes of size exactly q
    mu: int | None                    # n - d symbol multiplicity
    symbol_multiplicity_ok: bool | None
    distance_bound_ok: bool | None    # d <= n(q-1)/q
    pdm: bool                         # n = mu q, N = mu q^2, d = mu(q-1)
    dm_reassembled: DifferenceMatrix | None
    failure: str | None


def simplex_partition(matrix: CodewordMatrix, q: int) -> SimplexPartition:
    """Partition the rows into classes pairwise at full distance n.

    Additive codes containing all constant rows use the constant-coset
    classes; linear codes without constants use cosets of a full-weight
    scalar line; anything else falls back to backtracking.  On a valid
    size-q partition the symbol-multiplicity, distance-bound and PDM
    clauses are evaluated, and for additive PDM codes a difference matrix
    is reassembled from class representatives and re-verified.
    """
    rows = matrix.rows
    f = matrix.field
    N, n = matrix.N, matrix.n
    weights = sorted(set(w for w in matrix.weights() if w))
    if len(weights) > 2:
        return _simplex_fail("input is not a two-weight matrix")
    d = weights[0] if weights else 0

    classes = _partition_classes(rows, f, q, n)
    if classes is None:
        return _simplex_fail("no partition into full-distance classes found")
    sizes = {len(c) for c in classes}
    if len(sizes) != 1:
        return _simplex_fail(f"class sizes are not uniform: {sorted(sizes)}")
    size = sizes.pop()

    is_simplex = size == q
    mu = n - d if d else None
    sym_ok = None
    bound_ok = None
    pdm = False
    reassembled = None
    if d:
        bound_ok = d * q <= n * (q - 1)
        sym_ok = True
        for r in rows:
            if len(set(r)) == 1:
                continue
            counts: dict = {}
            for x in r:
                counts[x] = counts.get(x, 0) + 1
            if any(v != mu for v in counts.values()):
                sym_ok = False
                break
        if sym_ok and n % mu:
            sym_ok = False
        pdm = (is_simplex and d * q == n * (q - 1) and N == q * n
               and n == mu * q and N == mu * q * q)
        if pdm:
            additive = _is_additive(rows, f)
            if additive:
                reps = [rows[cls[0]] for cls in classes]
                import numpy as np
                cand = np.array(reps, dtype=np.int64)
                if is_difference_matrix(cand, f):
                    reassembled = DifferenceMatrix(group_field=f, mu=mu,
                                                   entries=cand)
    return SimplexPartition(
        classes=tuple(tuple(c) for c in classes),
        class_size=size,
        is_simplex_partition=is_simplex,
        mu=mu,
        symbol_multiplicity_ok=sym_ok,
        distance_bound_ok=bound_ok,
        pdm=pdm,
        dm_reassembled=reassembled,
        failure=None)


def _simplex_fail(reason: str) -> SimplexPartition:
    return SimplexPartition(classes=(), class_size=0,
                            is_simplex_partition=False, mu=None,
                            symbol_multiplicity_ok=None,
                            distance_bound_ok=None, pdm=False,
                            dm_reassembled=None, failure=reason)


def _is_additive(rows, f: FieldSpec) -> bool:
    from .diffmat import additive_span_basis
    return additive_span_basis(f, rows)[1]


def _partition_classes(rows, f: FieldSpec, q: int, n: int):
    row_index = {r: i for i, r in enumerate(rows)}

    constants = [tuple([g] * n) for g in range(q)]
    if all(c in row_index for c in constants):
        classes = _coset_classes(rows, row_index, f, constants)
        if classes is not None:
            return classes

    full = next((r for r in rows if all(x for x in r)), None)
    if full is not None:
        line = [tuple(f.mul(c, x) for x in full) for c in range(q)]
        if all(v in row_index for v in line):
            classes = _coset_classes(rows, row_index, f, line)
            if classes is not None:
                return classes

    return _greedy_classes(rows, q, n)


def _coset_classes(rows, row_index, f: FieldSpec, subgroup):
    seen = set()
    classes = []
    for i, r in enumerate(rows):
        if i in seen:
            continue
        cls = []
        for s in subgroup:
            member = tuple(f.add(x, y) for x, y in zip(r, s))
            j = row_index.get(member)
            if j is None or j in seen:
                return None
            cls.append(j)
            seen.add(j)
        classes.append(sorted(cls))
    return classes


def _greedy_classes(rows, q: int, n: int, node_cap: int = 200000):
    """Backtracking partition into maximal pairwise-full-distance classes.

    Classes may come out smaller than q uniformly (reported upstream);
    the search is exact up to the node cap."""
    N = len(rows)
    target = q
    while target >= 1:
        assigned = [False] * N
        classes: list = []
        nodes = 0

        def extend(cls, start) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > node_cap:
                raise RuntimeError("partition search exceeded its node cap")
            if len(cls) == target:
                return True
            for j in range(start, N):
                if assigned[j]:
                    continue
                if all(hamming_distance(rows[j], rows[i]) == n for i in cls):
                    cls.append(j)
                    assigned[j] = True
                    if extend(cls, j + 1):
                        return True
                    assigned[j] = False
                    cls.pop()
            return False

        try:
            ok = True
            for i in range(N):
                if assigned[i]:
                    continue
                assigned[i] = True
                cls = [i]
                if not extend(cls, i + 1):
                    ok = False
                    break
                classes.append(cls)
            if ok:
                return classes
        except RuntimeError:
            return None
        target -= 1
    return None


# -- parameter-level family matching ----------------------------------------

def family_match(n: int, k: int, q: int, dual_weights,
                 ia: IntersectionArray | None) -> list:
    """Every family whose parameters fit an [n, k]_q code whose dual has
    the nonzero weights dual_weights (iterable) and whose intersection
    array is ia (None matches any array).  Matching is parameter-level,
    not monomial-equivalence-level.  Returns (family, params) pairs."""
    dual_weights = frozenset(dual_weights)
    out = []

    def ia_fits(predicted: IntersectionArray) -> bool:
        return ia is None or ia.same_array(predicted)

    if q == 2 and n >= 4 and (n & (n - 1)) == 0:
        m = n.bit_length() - 1
        if k == n - m - 1 and dual_weights == frozenset({n // 2, n}) \
                and ia_fits(ia_formula("CR1", m=m)):
            out.append(("CR1", {"m": m}))

    nm = n
    m = 0
    while nm % q == 0:
        nm //= q
        m += 1
    if nm == 1 and m >= 1:
        mu = n // q
        if k == n - m - 1 and dual_weights == frozenset({mu * (q - 1), n}) \
                and ia_fits(ia_formula("CR2", q=q, n=n)):
            out.append(("CR2", {"q": q, "m": m}))

    if 2 <= n <= q and k == n - 2 \
            and dual_weights == frozenset({n - 1, n}) \
            and ia_fits(ia_formula("CR3", q=q, n=n)):
        out.append(("CR3", {"q": q, "n": n}))

    is_2power = q >= 4 and (q & (q - 1)) == 0
    if is_2power and n == q + 2 and k == q - 1 \
            and dual_weights == frozenset({q, q + 2}) \
            and ia_fits(ia_formula("CR4", q=q)):
        out.append(("CR4", {"q": q}))

    if is_2power and n == q * (q - 1) // 2 and k == n - 3 \
            and dual_weights == frozenset({q * (q - 2) // 2, n}) \
            and ia_fits(ia_formula("CR5", q=q)):
        out.append(("CR5", {"q": q}))

    if is_2power and k == n - 3:
        h = 2
        while h <= q // 2:
            if n == 1 + (q + 1) * (h - 1) \
                    and dual_weights == frozenset({q * (h - 1), n}) \
                    and ia_fits(ia_formula("CR6", q=q, h=h)):
                out.append(("CR6", {"q": q, "h": h}))
            h *= 2
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
