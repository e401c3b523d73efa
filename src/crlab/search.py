"""Desk-scale exhaustive searches.

* arcs / hyperovals in PG(2, q) by lexicographic backtracking with
  collinearity pruning over line bitsets: the line through each pair of
  points is read from a table filled once from the incidence masks, and
  a branch ends when fewer free points remain than the arc still needs;
* a census of all antipodal two-weight column multisets for small
  (q, r, n), each survivor's dual run through the covering-radius and
  complete-regularity machinery and matched against the known families.
  Its messages are the points of PG(r-1, q), one per scalar class: a
  message and its nonzero multiples have the same weight, so the weight
  values of the code -- all the census looks at -- come from q - 1 times
  fewer messages.  One depth-first pass covers every size up to n_max:
  at each node the weights of the messages that miss some chosen column
  drive both the prunes and the completion test.  A completed multiset
  has weights {d, n} with d >= 1, so its columns span GF(q)^r: a nonzero
  message orthogonal to all of them would have weight 0.  No rank is
  computed before ``LinearCode``, whose full-rank check stays the guard.

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

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import budgets
from .codes import LinearCode, projective_points
from .field import FieldSpec, field_create, prime_power
from .matrix import MatGF
from .regularity import IntersectionArray, complete_regularity
from .families import family_match

ARC_Q_MAX = 16          # full searches; counting is practical up to q = 8
CENSUS_CANDIDATE_CAP = 1 << 26


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


def search_arcs(q: int, target_size: int, count_all: bool = False) -> ArcSearchResult:
    """Arcs of a given size in PG(2, q): existence (early exit) or the
    exhaustive count of canonical (index-increasing) arcs."""
    if target_size < 0:
        raise ValueError(f"size must be >= 0, got {target_size}")
    p, m = prime_power(q)
    if q > ARC_Q_MAX:
        raise ValueError(f"arc search is desk-bounded to q <= {ARC_Q_MAX}")
    geom = PlaneGeometry(field_create(p, m))
    pair_line = geom.pair_line
    all_points = (1 << len(geom.points)) - 1

    found: list = []
    count = 0

    def extend(arc: list, forbidden: int, start: int) -> bool:
        nonlocal count
        if len(arc) == target_size:
            count += 1
            if not found:
                found.append(tuple(geom.points[i] for i in arc))
            return not count_all
        # every completion takes its points from the free ones above start
        free = ~forbidden & all_points >> start << start
        if free.bit_count() < target_size - len(arc):
            return False
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            row = pair_line[i]
            extra = low
            for j in arc:
                extra |= row[j]
            if extend(arc + [i], forbidden | extra, i + 1):
                return True
        return False

    extend([], 0, 0)
    return ArcSearchResult(exists=count > 0,
                           count=count if count_all else None,
                           witness=found[0] if found else None)


def is_arc(field: FieldSpec, points) -> bool:
    """No 3 of the given projective points collinear."""
    import itertools
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
    example_columns: tuple         # one witness multiset of points

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
    strictly increasing ones, with ``projective=True``), visited in one
    pass that meets the tuples of each size in lexicographic order, so
    each entry's example is the first survivor of its key.  A node of
    depth n is pruned unless some message hits every chosen column and
    the messages that miss one can still finish on one common weight;
    it completes when they already share a weight d >= 1.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    p, m = prime_power(q)
    field = field_create(p, m)
    points = projective_points(field, r)
    P = len(points)
    n_min = max(r, 2)
    if projective:
        # every searched level counts; C(P, n) falls again past n = P/2
        candidates = sum(math.comb(P, n) for n in range(n_min, n_max + 1))
        kind = "column sets"
    else:
        candidates = math.comb(P + n_max - 1, n_max)
        kind = "column multisets"
    if candidates > CENSUS_CANDIDATE_CAP:
        raise budgets.BudgetExceeded(
            f"census would scan about {candidates} {kind}, over "
            f"the cap {CENSUS_CANDIDATE_CAP}")

    # a message's weight is shared by its nonzero multiples, so one
    # representative per scalar class gives every weight value
    pts = np.array(points)
    hits = (field.matmul(pts, pts.T) != 0).astype(int).tolist()

    counts: dict = {}      # census key -> survivors with that key
    first: dict = {}       # census key -> its first survivor's indices
    chosen: list = []
    add = operator.add

    def recurse(start: int, weights: list):
        depth = len(chosen)
        missed = [w for w in weights if w != depth]
        # the full weight must stay reachable by some message
        if depth and len(missed) == len(weights):
            return
        low, high = min(missed, default=0), max(missed, default=0)
        # messages already missed must finish on one common weight
        if high - low > n_max - depth:
            return
        if depth >= n_min and low == high >= 1:
            key = _census_key(field, points, chosen, low, r)
            counts[key] = counts.get(key, 0) + 1
            first.setdefault(key, tuple(chosen))
        if depth < n_max:
            for i in range(start, P):
                chosen.append(i)
                recurse(i if not projective else i + 1,
                        list(map(add, weights, hits[i])))
                chosen.pop()

    recurse(0, [0] * P)
    entries = [_census_entry(key, first[key], count, points, q, r)
               for key, count in counts.items()]
    return sorted(entries, key=lambda e: (e.n, e.weights, not e.trivial))


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
        res = complete_regularity(
            LinearCode.from_rows(field, np.transpose(cols)).dual())
        rho, cr, ia = res.profile.rho, res.is_completely_regular, res.ia
    if rho != 2:
        reasons.append(f"dual covering radius {rho} != 2")
    return n, (d, n), rho, cr, ia, tuple(reasons)


def _census_entry(key, chosen, count, points, q, r) -> CensusEntry:
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
        repetition_of=_repetition_annotation(chosen, n, weights, q, r),
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
