"""Desk-scale exhaustive searches, each reduced by the projective group
and brought back to exact counts by double counting.

* arcs / hyperovals in PG(2, q) by lexicographic backtracking with
  collinearity pruning over line bitsets: the line through each pair of
  points is read from a table filled once from the incidence masks, and
  a branch ends when fewer free points remain than the arc still needs.
  Arcs of size >= 4 are searched only through the standard frame;
  PGL(3, q) carries every frame to it;
* a census of all antipodal two-weight column multisets for small
  (q, r, n), each survivor's dual run through the covering-radius and
  complete-regularity machinery and matched against the known families.
  Its messages are the points of PG(r-1, q), one per scalar class: a
  message and its nonzero multiples have the same weight, so the weight
  values of the code -- all the census looks at -- come from q - 1 times
  fewer messages.  Only the multisets that hold the standard basis are
  visited; PGL(r, q) carries every ordered basis of points to it.  One
  depth-first pass covers every size up to n_max: at each node the
  weights of the messages that miss some chosen column drive both the
  prunes and the completion test.  A completed multiset has weights
  {d, n} with d >= 1, so its columns span GF(q)^r: a nonzero message
  orthogonal to all of them would have weight 0.  No rank is computed
  before ``LinearCode``, whose full-rank check stays the guard.

Every total is an exact ``Fraction`` that must come out integral, or
:class:`SymmetryCountError` is raised.

Both searches take point/hyperplane incidences from one exact product
of the point matrix with its transpose (:meth:`crlab.field.FieldSpec.matmul`):
the lines of PG(2, q) are its dual points, and a census message misses
a column point exactly when their product is zero.

Matching is parameter-level (n, k, q, weight set, intersection array),
not monomial-equivalence-level; census tables note this.  Entries whose
dual violates the nontriviality window (dimension >= 2 and dual minimum
distance >= 3) are reported but flagged trivial: only nontrivial,
completely regular, covering-radius-2 entries count as UNMATCHED when no
family fits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budgets
from .codes import LinearCode, projective_points
from .field import FieldSpec, field_create, prime_power
from .matrix import MatGF
from .regularity import IntersectionArray, complete_regularity
from .families import family_match

ARC_Q_MAX = 16          # the ovals of PG(2, 13) count in 0.4 s, and the
                        # 1.2e8 hyperovals of PG(2, 16) in about 20 s
CENSUS_CANDIDATE_CAP = 1 << 26    # multisets that hold the standard basis


class SymmetryCountError(RuntimeError):
    """A symmetry-reduced search met something the group action rules
    out: a non-integral orbit total, or two survivors of one census key
    with different annotations."""


def _exact_total(total: Fraction, what: str) -> int:
    if total.denominator != 1:
        raise SymmetryCountError(f"{what}: double count gives {total}, "
                                 f"not an integer")
    return total.numerator


# -- arcs in PG(2, q) --------------------------------------------------------


class PlaneGeometry:
    """Points and lines of PG(2, q) with incidence bitsets;
    ``pair_line[i][j]`` is the mask of the line through points i != j."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.points = projective_points(field, 3)
        n = len(self.points)
        # lines are dual points: line j holds the points orthogonal to it
        pts = np.array(self.points)
        incident = field.matmul(pts, pts.T) == 0
        self.line_mask = []
        self.pair_line = [[0] * n for _ in range(n)]
        for line in incident:
            on_line = np.flatnonzero(line).tolist()
            mask = sum(1 << i for i in on_line)
            self.line_mask.append(mask)
            for i in on_line:
                row = self.pair_line[i]
                for j in on_line:
                    row[j] = mask


@dataclass(frozen=True)
class ArcSearchResult:
    exists: bool
    count: int | None              # canonical arcs of the target size
    witness: tuple | None          # point tuples, when one exists


# the standard frame; its indices in ``projective_points`` order are the
# four smallest ones that form an arc
FRAME = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))


def search_arcs(q: int, target_size: int, count_all: bool = False) -> ArcSearchResult:
    """Arcs of a given size in PG(2, q): existence (early exit) or the
    exhaustive count of canonical (index-increasing) arcs.

    Any 4 points of an arc form a frame, and PGL(3, q) is sharply
    transitive on ordered frames, so an arc of size k >= 4 exists iff one
    contains ``FRAME``; only those are searched.  Counting pairs (arc,
    ordered frame inside it) gives N_k = M_k |PGL(3, q)| / (24 C(k, 4)),
    where M_k counts the k-arcs that contain ``FRAME``.  The free points
    left by the frame all have larger indices than it, so the first arc
    met is also the lexicographically first arc of PG(2, q): the witness.
    Sizes below 4 are searched directly."""
    if target_size < 0:
        raise ValueError(f"size must be >= 0, got {target_size}")
    p, m = prime_power(q)
    if q > ARC_Q_MAX:
        raise ValueError(f"arc search is desk-bounded to q <= {ARC_Q_MAX}")
    geom = PlaneGeometry(field_create(p, m))
    pair_line = geom.pair_line
    all_points = (1 << len(geom.points)) - 1
    if target_size < 4:
        arc, forbidden = [], 0
    else:
        arc = [geom.points.index(pt) for pt in FRAME]
        forbidden = functools.reduce(operator.or_, (
            pair_line[i][j] for i, j in itertools.combinations(arc, 2)))

    count, witness = 0, None
    # depth first over (arc, forbidden points, first index left), children
    # pushed in reverse so that arcs are met in lexicographic order.  A
    # nested function calling itself would hold the plane's tables in a
    # reference cycle that only the cycle collector frees.
    stack = [(arc, forbidden, arc[-1] + 1 if arc else 0)]
    while stack:
        arc, forbidden, start = stack.pop()
        missing = target_size - len(arc)
        if not missing:
            count += 1
            if witness is None:
                witness = tuple(geom.points[i] for i in arc)
            if not count_all:
                break
            continue
        # every completion takes its points from the free ones above start
        free = ~forbidden & all_points >> start << start
        if free.bit_count() < missing:
            continue
        children = []
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            row = pair_line[i]
            extra = low
            for j in arc:
                extra |= row[j]
            children.append((arc + [i], forbidden | extra, i + 1))
        stack.extend(reversed(children))

    if count_all and target_size >= 4:
        pgl = q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)
        count = _exact_total(
            Fraction(count * pgl, 24 * math.comb(target_size, 4)),
            f"{target_size}-arcs of PG(2, {q})")
    return ArcSearchResult(exists=count > 0,
                           count=count if count_all else None,
                           witness=witness)


def is_arc(field: FieldSpec, points) -> bool:
    """No 3 of the given projective points collinear."""
    for a, b, c in itertools.combinations(points, 3):
        M = MatGF(field, [a, b, c])
        if M.rank < 3:
            return False
    return True


# -- census of antipodal two-weight column multisets -------------------------


@dataclass(frozen=True)
class CensusEntry:
    q: int
    r: int
    n: int
    weights: tuple                 # (d, n) of the two-weight side
    rho: int
    completely_regular: bool
    ia: IntersectionArray | None
    dual_k: int
    dual_d_ge3: bool               # multiset has no repeated point
    trivial: bool
    trivial_reason: str
    families: tuple                # (family, params) pairs
    repetition_of: tuple           # (s, matches) when the multiset is an
                                   # s-fold copy of a projective set
    count: int
    example_columns: tuple         # the lexicographically first survivor
                                   # of the key that holds the standard
                                   # basis, as points

    @property
    def unmatched(self) -> bool:
        return (not self.trivial and self.completely_regular
                and self.rho == 2 and not self.families)


def search_antipodal_duals(q: int, r: int, n_max: int,
                           projective: bool = False) -> list[CensusEntry]:
    """All column multisets of size <= n_max over the points of
    PG(r-1, q) that span GF(q)^r and produce a two-weight code with
    weights {d, n}; each one's dual is profiled and family-matched.

    Multisets are nondecreasing index tuples of length <= n_max (sets,
    strictly increasing ones, with ``projective=True``).  PGL(r, q) moves
    a multiset to one with the same census key, and it is transitive on
    the set X of ordered independent r-tuples of points, so only the
    tuples that contain the standard basis B0 are visited: a node is cut
    as soon as it skips a basis index or has fewer free slots than basis
    indices still missing.  Counting pairs (multiset S, tuple of X drawn
    from S's distinct points) gives each key's exact count as
    |X| * sum over its visited survivors of 1 / beta(S), with beta(S) the
    number of such tuples.  A node of depth n is pruned unless some
    message hits every chosen column and the messages that miss one can
    still finish on one common weight; it completes when they already
    share a weight d >= 1.

    Tuples of each size are met in lexicographic order, so an entry's
    ``example_columns`` is the lexicographically first survivor of its
    key that contains B0.  ``repetition_of`` is PGL-invariant, and every
    visited survivor of a key must give the same one.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    p, m = prime_power(q)
    P = (q ** r - 1) // (q - 1)
    n_min = max(r, 2)
    # every searched tuple holds B0; the rest is a set (multiset) of
    # n - r points drawn from the P - r (P) others
    if projective:
        # every searched level counts; C(P - r, n - r) falls again past
        # the middle
        candidates = sum(math.comb(P - r, n - r)
                         for n in range(n_min, n_max + 1))
        kind = "column sets"
    else:
        candidates = (math.comb(P + n_max - r - 1, n_max - r)
                      if n_max >= r else 0)
        kind = "column multisets"
    if candidates > CENSUS_CANDIDATE_CAP:
        raise budgets.BudgetExceeded(
            f"census would scan about {candidates} {kind} that contain "
            f"the standard basis, over the cap {CENSUS_CANDIDATE_CAP}")
    budgets.check_enum(P * P, f"census incidence table of PG({r - 1},{q})")
    field = field_create(p, m)
    points = projective_points(field, r)
    basis = sorted(points.index(tuple(int(i == j) for j in range(r)))
                   for i in range(r))

    # a message's weight is shared by its nonzero multiples, so one
    # representative per scalar class gives every weight value
    pts = np.array(points)
    orthogonal = field.matmul(pts, pts.T) == 0
    hits = (~orthogonal).astype(int).tolist()
    # r points are dependent iff some message misses all of them; the
    # table is symmetric, so row i holds the messages that miss point i
    misses = [sum(1 << j for j in np.flatnonzero(row).tolist())
              for row in orthogonal]
    orbit = math.prod((q ** r - q ** i) // (q - 1) for i in range(r))

    shares: dict = {}      # census key -> sum of 1 / beta over survivors
    first: dict = {}       # census key -> its first survivor's indices
    repetition: dict = {}  # census key -> its repetition annotation
    add = operator.add

    # depth first over (chosen, start, weights, covered), children pushed
    # in reverse so that tuples are met in lexicographic order.  A nested
    # function calling itself would hold the tables and codes in a
    # reference cycle that only the cycle collector frees.
    stack = [((), 0, [0] * P, 0)]
    while stack:
        chosen, start, weights, covered = stack.pop()
        depth = len(chosen)
        if r - covered > n_max - depth:
            continue
        missed = [w for w in weights if w != depth]
        # the full weight must stay reachable by some message
        if depth and len(missed) == len(weights):
            continue
        low, high = min(missed, default=0), max(missed, default=0)
        # messages already missed must finish on one common weight
        if high - low > n_max - depth:
            continue
        if covered == r and depth >= n_min and low == high >= 1:
            key = _census_key(field, points, chosen, low, r)
            rep = _repetition_annotation(chosen, depth, (low, depth), q, r)
            if key not in first:
                first[key] = chosen
                repetition[key] = rep
                shares[key] = Fraction(0)
            elif repetition[key] != rep:
                raise SymmetryCountError(
                    f"census key {key} has survivors {first[key]} and "
                    f"{chosen} with repetition annotations "
                    f"{repetition[key]} and {rep}")
            shares[key] += Fraction(1, _independent_tuples(chosen, misses, r))
        if depth < n_max:
            # a tuple that passes a basis index without taking it never
            # holds B0
            stop = basis[covered] if covered < r else P - 1
            stack.extend((chosen + (i,), i if not projective else i + 1,
                          list(map(add, weights, hits[i])),
                          covered + (i == stop and covered < r))
                         for i in range(stop, start - 1, -1))

    entries = [_census_entry(
        key, first[key],
        _exact_total(orbit * share, f"census count of {key}"),
        repetition[key], points, q, r) for key, share in shares.items()]
    return sorted(entries, key=lambda e: (e.n, e.weights, not e.trivial))


def _independent_tuples(chosen, misses, r) -> int:
    """Ordered r-tuples of distinct points of ``chosen`` that span
    GF(q)^r; ``misses[i]`` is the mask of the messages orthogonal to
    point i."""
    support = sorted(set(chosen))
    bases = sum(1 for subset in itertools.combinations(support, r)
                if not functools.reduce(operator.and_,
                                        (misses[i] for i in subset)))
    return bases * math.factorial(r)


def _census_key(field, points, chosen, d, r) -> tuple:
    """(n, weights, rho, completely regular, intersection array, trivial
    reasons) of a survivor with weights {d, n}."""
    n = len(chosen)
    dual_k = n - r
    reasons = []
    if dual_k < 2:
        reasons.append(f"dual dimension {dual_k} < 2")
    if len(set(chosen)) < n:
        reasons.append("repeated column: dual minimum distance 2")
    rho, cr, ia = None, False, None
    if dual_k >= 1:
        cols = [points[i] for i in chosen]
        # held while its dual is profiled: the dual's link back to it is
        # weak, and the profile reads the parity checks from it
        code = LinearCode.from_rows(field, np.transpose(cols))
        res = complete_regularity(code.dual())
        rho, cr, ia = res.profile.rho, res.is_completely_regular, res.ia
    if rho != 2:
        reasons.append(f"dual covering radius {rho} != 2")
    return n, (d, n), rho, cr, ia, tuple(reasons)


def _census_entry(key, chosen, count, repetition_of, points, q,
                  r) -> CensusEntry:
    n, weights, rho, cr, ia, reasons = key
    fams: tuple = ()
    if rho is not None:
        fams = tuple(family_match(n, n - r, q, weights, ia))
    return CensusEntry(
        q=q, r=r, n=n, weights=weights,
        rho=rho if rho is not None else -1,
        completely_regular=cr, ia=ia, dual_k=n - r,
        dual_d_ge3=len(set(chosen)) == n,
        trivial=bool(reasons),
        trivial_reason="; ".join(reasons),
        families=fams,
        repetition_of=repetition_of,
        count=count,
        example_columns=tuple(points[i] for i in chosen))


def _repetition_annotation(chosen, n, weights, q, r) -> tuple:
    """When the multiset is s >= 2 copies of a projective point set whose
    weights scale accordingly, the underlying set's family matches."""
    from collections import Counter
    mult = Counter(chosen)
    s_values = set(mult.values())
    if len(s_values) != 1:
        return ()
    s = s_values.pop()
    if s < 2:
        return ()
    d, _ = weights
    if d % s or n % s:
        return ()
    n0 = n // s
    matches = tuple(family_match(n0, n0 - r, q, (d // s, n0), None))
    return (s, matches) if matches else ()


@dataclass(frozen=True)
class ClassifyTable:
    q: int
    r: int
    n_max: int
    entries: tuple
    header_note: str = ("family matching is parameter-level "
                        "(n, k, q, weights, intersection array)")

    @property
    def unmatched(self) -> tuple:
        return tuple(e for e in self.entries if e.unmatched)


def classify_report(q: int, r: int, n_max: int,
                    projective: bool = False) -> ClassifyTable:
    entries = search_antipodal_duals(q, r, n_max, projective=projective)
    return ClassifyTable(q=q, r=r, n_max=n_max, entries=tuple(entries))


def render_table(table: ClassifyTable) -> str:
    lines = ["#" + table.header_note,
             "\t".join(["n", "weights", "dual_k", "rho", "CR", "IA",
                        "families", "count", "status"])]
    for e in table.entries:
        fams = ",".join(f"{f}{p}" for f, p in e.families) or "-"
        if e.repetition_of:
            s, matches = e.repetition_of
            reps = ",".join(f"{f}{p}" for f, p in matches)
            rep_text = f"[{s}x {reps}]"
            fams = rep_text if fams == "-" else f"{fams} {rep_text}"
        if e.unmatched:
            status = "UNMATCHED"
        elif e.trivial:
            status = f"trivial ({e.trivial_reason})"
        else:
            status = "matched"
        lines.append("\t".join([
            str(e.n), str(e.weights), str(e.dual_k), str(e.rho),
            str(e.completely_regular), str(e.ia) if e.ia else "-",
            fams, str(e.count), status]))
    return "\n".join(lines)
