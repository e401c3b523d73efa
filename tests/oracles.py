"""Slow, independent checks of the paper's structural lemmas on the
families, and small helpers that only the tests use.  No crlab command
reaches them; the tests run them against the library's fast paths."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from crlab.codes import CodewordMatrix, LinearCode
from crlab.diffmat import (DifferenceMatrix, is_additive_group,
                           is_difference_matrix)
from crlab.families import _char2_field
from crlab.field import FieldSpec, digit_add
from crlab.matrix import MatGF


def trial_is_prime(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def trial_prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, or ValueError: p is q's least divisor above 1,
    found by trial division up to sqrt(q)."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = None
    for f in range(2, q + 1):
        if f * f > q:
            p = q
            break
        if q % f == 0:
            p = f
            break
    m = 0
    x = q
    while x % p == 0:
        x //= p
        m += 1
    if x != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def coeffs(f: FieldSpec, a: int) -> tuple:
    """Little-endian coefficient vector of the element a, length m."""
    return tuple(a // f.p ** i % f.p for i in range(f.m))


def tuple_span(f: FieldSpec, rows, n: int, scalars=None) -> list:
    """Every combination of the rows of length n, coefficients from
    scalars (all of GF(q) when None), as tuples of Python ints: each row
    extends every partial sum by each of its multiples, so row 0 is most
    significant."""
    words = [(0,) * n]
    for row in rows:
        scaled = [tuple(f.mul(c, x) for x in row)
                  for c in (range(f.q) if scalars is None else scalars)]
        words = [tuple(f.add(a, b) for a, b in zip(w, s))
                 for w in words for s in scaled]
    return words


def codeword_matrix(code: LinearCode) -> CodewordMatrix:
    """All q^k codewords of the code as a CodewordMatrix, by tuple_span."""
    return CodewordMatrix(code.field, tuple_span(code.field, code.G.rows,
                                                 code.n))


def field_matmul(f: FieldSpec, a, b) -> np.ndarray:
    """a @ b over the field for 2-d integer arrays of elements, as intp.

    The inner index is folded in one step at a time, so only the result
    and one product are held at once."""
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.intp)
    for t in range(a.shape[1]):
        out = digit_add(out, f.mul_array(a[:, t, None], b[t]), f.p, f.m)
    return out


def loop_subfield_embedding(big: FieldSpec, small: FieldSpec) -> list:
    """sigma(e) for every e in the small field: the smallest root of the
    small modulus among all elements of the big field, found by Horner's
    rule, and e's base-p digits as its coefficients on the root's powers,
    summed one element at a time."""
    root = next(y for y in range(big.q) if _horner(big, small.modulus, y) == 0)
    out = []
    for e in range(small.q):
        acc = 0
        for i, d in enumerate(coeffs(small, e)):
            acc = big.add(acc, big.mul(d, big.pow(root, i)))
        out.append(acc)
    return out


def _horner(f: FieldSpec, coeffs, y: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, y), c)
    return acc


def loop_phi_table(big: FieldSpec, small: FieldSpec, tower: bool) -> list:
    """Phi(e) for every element e of the big field, one coefficient tuple
    at a time: plain truncation to the first l base-p digits, or in tower
    coordinates the c_0 of e = sum_j sigma(c_j) alpha^j."""
    if not tower:
        return [e % small.q for e in range(big.q)]
    sigma = loop_subfield_embedding(big, small)
    tab = [None] * big.q
    for cs in itertools.product(range(small.q), repeat=big.m // small.m):
        e = 0
        for j, c in enumerate(cs):
            e = big.add(e, big.mul(sigma[c], big.pow(big.alpha, j)))
        tab[e] = cs[0]
    return tab


def hamming_distance(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def row_weights(matrix) -> list:
    """The Hamming weight of each row of a CodewordMatrix."""
    return [sum(1 for x in r if x) for r in matrix.rows]


def krawtchouk(n: int, q: int, j: int, i: int) -> int:
    """K_j(i) = sum_t (-1)^t (q-1)^(j-t) C(i,t) C(n-i, j-t), exact."""
    return sum((-1) ** t * (q - 1) ** (j - t)
               * math.comb(i, t) * math.comb(n - i, j - t)
               for t in range(j + 1))


def equidistant_check(obj) -> int | None:
    """The common pairwise distance if all pairwise distances agree, else
    None: for a LinearCode, its one nonzero weight; for a CodewordMatrix,
    over every row pair."""
    if isinstance(obj, LinearCode):
        weights = obj.weight_distribution_auto().nonzero_weights
        return weights[0] if len(weights) == 1 else None
    rows = obj.rows
    distances = {hamming_distance(rows[i], rows[j])
                 for i in range(len(rows)) for j in range(i + 1, len(rows))}
    return distances.pop() if len(distances) == 1 else None


def concatenate(a: LinearCode, b: LinearCode) -> LinearCode:
    """[A | B]: same message space, juxtaposed coordinates."""
    if a.k != b.k or a.field != b.field:
        raise ValueError("codes must share the field and dimension")
    return LinearCode(a.field, MatGF(a.field, np.hstack([a.G.rows, b.G.rows])))


def bush_closed_form_matrix(q: int) -> MatGF:
    """Bush's closed-form hyperoval generator with columns (1, x_i, y_i),
    x_i = alpha^i / (1 + alpha^i + alpha^(2i)),
    y_i = alpha^(2i) / (1 + alpha^i + alpha^(2i)), i = 1..q-2,
    preceded by the four columns (1,0,0), (1,1,0), (1,0,1), (1,1,1), for
    q = 2^m >= 4 (the hyperoval builders' guard refuses any other q).

    Defined only when no denominator vanishes, i.e. when 3 does not
    divide q - 1; otherwise raises with the first failing index.  Checks
    that the code it generates has weights exactly {q, q + 2}."""
    f = _char2_field(q)
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
    G = MatGF(f, np.transpose(cols))
    weights = set(LinearCode(f, G).weight_distribution().nonzero_weights)
    if weights != {q, q + 2}:
        raise AssertionError(
            f"closed-form matrix gave weights {sorted(weights)}, "
            f"expected {{{q}, {q + 2}}}")
    return G


class FormVerdict(NamedTuple):
    ok: bool
    reason: str


def antipodal_form_check(code: LinearCode) -> FormVerdict:
    """Generator-form test for antipodal two-weight codes.

    Normalizes the code by column scaling so some full-weight codeword
    becomes the all-ones vector, splits off the subcode with first
    coordinate zero, and demands that every nonzero codeword of that
    subcode hold each of its symbols exactly n - d* times, d* its
    minimum weight.  True exactly when the code is antipodal two-weight."""
    f = code.field
    full = next((w for w in tuple_span(f, code.G.rows, code.n) if all(w)),
                None)
    if full is None:
        return FormVerdict(False, "no codeword without zero coordinates; "
                                  "cannot normalize an all-ones row")
    scale = [f.inv(x) for x in full]
    scaled = LinearCode(f, MatGF(f, f.mul_array(code.G.rows, scale)))
    star = [w for w in tuple_span(f, scaled.G.rows, code.n)
            if w[0] == 0 and any(w)]
    if not star:
        return FormVerdict(False, "first-coordinate-zero subcode is trivial")
    mu = code.n - min(sum(1 for x in w if x) for w in star)
    for w in star:
        counts = sorted(w.count(x) for x in set(w))
        if any(c != mu for c in counts):
            return FormVerdict(False, f"symbol multiplicities {counts} are "
                                      f"not constant {mu} on a residual "
                                      f"codeword")
    return FormVerdict(True, "")


class SimplexPartition(NamedTuple):
    classes: tuple                    # tuples of row indices
    class_size: int
    is_simplex_partition: bool        # classes of size exactly q
    symbol_multiplicity_ok: bool | None
    distance_bound_ok: bool | None    # d <= n(q-1)/q
    pdm: bool                         # n = mu q, N = mu q^2, d = mu(q-1)
    dm_reassembled: DifferenceMatrix | None


def simplex_partition(matrix, q: int) -> SimplexPartition | None:
    """Partition the rows of a CodewordMatrix into classes pairwise at
    full distance n; None when the rows have more than two nonzero
    weights or fall into no uniform partition.

    Additive codes containing all constant rows use the constant-coset
    classes; linear codes without constants use cosets of a full-weight
    scalar line; anything else falls back to backtracking.  On a
    partition the symbol-multiplicity, distance-bound and PDM clauses are
    evaluated, and for additive PDM codes a difference matrix is
    reassembled from class representatives and re-verified."""
    rows = matrix.rows
    f = matrix.field
    N, n = matrix.N, matrix.n
    weights = sorted(set(w for w in row_weights(matrix) if w))
    if len(weights) > 2:
        return None
    d = weights[0] if weights else 0

    classes = _partition_classes(rows, f, q, n)
    if classes is None or len({len(c) for c in classes}) != 1:
        return None
    size = len(classes[0])

    is_simplex = size == q
    sym_ok = bound_ok = None
    pdm = False
    reassembled = None
    if d:
        mu = n - d
        bound_ok = d * q <= n * (q - 1)
        sym_ok = all(
            r.count(x) == mu for r in rows if len(set(r)) > 1
            for x in set(r)) and n % mu == 0
        pdm = (is_simplex and d * q == n * (q - 1) and N == q * n
               and n == mu * q and N == mu * q * q)
        if pdm and is_additive_group(rows, f):
            cand = np.array([rows[cls[0]] for cls in classes], dtype=np.int64)
            if is_difference_matrix(cand, f):
                reassembled = DifferenceMatrix(f, mu, cand)
    return SimplexPartition(
        classes=tuple(tuple(c) for c in classes), class_size=size,
        is_simplex_partition=is_simplex, symbol_multiplicity_ok=sym_ok,
        distance_bound_ok=bound_ok, pdm=pdm, dm_reassembled=reassembled)


def _partition_classes(rows, f, q: int, n: int):
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


def _coset_classes(rows, row_index, f, subgroup):
    seen = set()
    classes = []
    for i, r in enumerate(rows):
        if i in seen:
            continue
        cls = []
        for s in subgroup:
            j = row_index.get(tuple(f.add(x, y) for x, y in zip(r, s)))
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
