"""Desk-scale exhaustive searches, each reduced by the projective group
and brought back to exact counts by double counting.

* arcs / hyperovals in PG(2, q) by lexicographic backtracking with
  collinearity pruning over line bitsets: the line through each pair of
  points is gathered once from a numpy table of line indices, and a
  branch ends when fewer free points remain than the arc still needs.
  Arcs of size >= 4 are searched only through the standard frame;
  PGL(3, q) carries every frame to it;
* a census of all antipodal two-weight column multisets for small
  (q, r, n), each survivor's dual given its covering radius and
  intersection array (:func:`crlab.regularity.dual_regularity`) and
  matched against the known families.  Its messages are the points of
  PG(r-1, q), one per scalar class: a message and its nonzero
  multiples have the same weight, so the weight values of the code --
  all the census looks at -- come from q - 1 times fewer messages.
  Only the multisets that hold the standard basis are visited;
  PGL(r, q) carries every ordered basis of points to it.  One
  depth-first pass covers every size up to n_max.  It walks blocks of
  nodes of one depth, a node being a row of its chosen indices and its
  message weights, unsigned ints of ``width`` bytes, the fewest of 1, 2,
  4 or 8 that hold the deepest level (n_max, or P for a set census with
  n_max > P); no weight passes the depth, so a child adds its column's
  hits without overflow.  A few whole-block numpy operations prune a
  block, the weights of the messages that miss some chosen column
  driving both the prunes and the completion test, and one gather
  expands its live nodes into the next block.  A block holds at most
  256 KiB of weights and indices (or the at most P children of one
  node); a block whose children would pass that expands its first
  parents and pushes the rest back, so the nodes of each depth are still
  met in lexicographic order, and the walk holds at most one block per
  depth plus the one it expands.  A completed multiset has weights
  {d, n} with d >= 1, so its columns span GF(q)^r: a nonzero message
  orthogonal to all of them would have weight 0.  No rank is computed.

Every total is an exact ``Fraction`` that must come out integral, or
:class:`SymmetryCountError` is raised.

Both searches take point/hyperplane incidences from the zeros of the
words of every point with the points as generator columns
(:func:`crlab.codes.point_words`): the lines of PG(2, q) are the dual
points, and a census message misses a column point exactly when their
product is zero.

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
from .codes import LinearCode, point_index, point_words, projective_points
from .field import FieldSpec, field_create, prime_power
from .regularity import IntersectionArray, dual_regularity
from .families import family_match

ARC_Q_MAX = 16          # the ovals of PG(2, 13) count in 0.4 s, and the
                        # 1.2e8 hyperovals of PG(2, 16) in about 20 s
CENSUS_CANDIDATE_CAP = 1 << 26    # multisets that hold the standard basis
# bytes of the weights and indices of one block of census nodes
_BLOCK_BYTES = 1 << 18


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
    ``pair_line[i][j]`` is the mask of the line through points i != j,
    and 0 when i == j."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.points = projective_points(field, 3)
        n = len(self.points)
        # lines are dual points: line j holds the points orthogonal to it
        incident, self.line_mask = _incidence(field, self.points)
        # every line holds q + 1 points, listed in row order; through[i, j]
        # is the one line through i != j, and the diagonal reads the
        # sentinel line n, whose mask is 0
        on = np.flatnonzero(incident).reshape(n, -1) % n
        through = np.empty((n, n), dtype=np.intp)
        through[on[:, :, None], on[:, None, :]] = np.arange(n)[:, None, None]
        np.fill_diagonal(through, n)
        masks = np.array(self.line_mask + [0], dtype=object)
        self.pair_line = masks[through].tolist()


def _incidence(field: FieldSpec, points: np.ndarray) -> tuple:
    """(table, masks) of the points of PG(r-1, q) against the hyperplanes,
    the dual points in the same order: table[i, j] is True when point i
    lies on hyperplane j, their product being zero, and masks[i] has bit
    j set wherever table[i, j] is.  The table is symmetric, so masks[j]
    is also the set of points on hyperplane j."""
    table = np.concatenate([words == 0
                            for words in point_words(field, points.T)])
    return table, _row_masks(table)


def _row_masks(table) -> list:
    """Each row of a boolean table as an int with bit j set for column j."""
    rows = np.packbits(table, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _as_tuples(points: np.ndarray, chosen) -> tuple:
    """The chosen rows of points as tuples of Python ints."""
    return tuple(map(tuple, points[list(chosen)].tolist()))


@dataclass(frozen=True)
class ArcSearchResult:
    exists: bool
    count: int | None              # canonical arcs of the target size
    witness: tuple | None          # point tuples, when one exists


# the standard frame; its rows in ``projective_points`` order are the
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
        arc = point_index(q, FRAME).tolist()
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
                witness = _as_tuples(geom.points, arc)
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
    weights {d, n}; each one's dual gets rho and its intersection array
    (:func:`_census_key`) and is family-matched.

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
    n_min = max(r, 2)
    # the cheap refusals come first, so that no count below is summed
    # over a huge n_max or P, and P = (q^r - 1)/(q - 1) >= q^(r-1), of at
    # least `bits` bits, is formed only once it is known to be small or
    # n_max is as long.  A node's weights are unsigned ints of `width`
    # bytes; no weight passes the depth, so adding a column's hits never
    # overflows.  A set holds at most P columns, so a set census descends
    # no deeper than P
    bits = (r - 1) * (q.bit_length() - 1) + 1
    deepest = n_max
    if projective and n_max.bit_length() >= bits:
        deepest = min(n_max, (q ** r - 1) // (q - 1))
    width = next((w for w in (1, 2, 4, 8) if deepest < 1 << 8 * w), None)
    if width is None:
        raise budgets.BudgetExceeded(
            f"census would descend to depth {deepest}, past its 8-byte "
            f"weight fields")
    what = f"census incidence table of PG({r - 1},{q})"
    budgets.check_enum_bits(2 * bits - 1, what)
    P = (q ** r - 1) // (q - 1)
    budgets.check_enum(P * P, what)
    # every searched tuple holds B0; the rest is a set (multiset) of
    # n - r points drawn from the P - r (P) others
    if projective:
        # every searched level counts; C(P - r, n - r) falls again past
        # the middle, and is 0 past n = P
        candidates = sum(math.comb(P - r, n - r)
                         for n in range(n_min, min(n_max, P) + 1))
        kind = "column sets"
    else:
        # every level n = r ... n_max counts, and
        # sum_(j <= J) C(P - 1 + j, j) = C(P + J, J)
        candidates = (math.comb(P + n_max - r, n_max - r)
                      if n_max >= r else 0)
        kind = "column multisets"
    if candidates > CENSUS_CANDIDATE_CAP:
        raise budgets.BudgetExceeded(
            f"census would scan about {candidates} {kind} that contain "
            f"the standard basis, over the cap {CENSUS_CANDIDATE_CAP}")
    field = field_create(p, m)
    points = projective_points(field, r)
    basis = sorted(point_index(q, np.eye(r, dtype=np.intp)).tolist())

    # a message's weight is shared by its nonzero multiples, so one
    # representative per scalar class gives every weight value.  r points
    # are dependent iff some message misses all of them; the table is
    # symmetric, so misses[i] holds the messages that miss point i
    orthogonal, misses = _incidence(field, points)
    # hits[i, j] is 1 when message j hits point i
    hits = (~orthogonal).astype(f"u{width}")
    # a tuple passes no basis index without taking it, so after column j
    # it takes one from j (j + 1 in a set) up to the next basis index, or
    # up to the last point once it holds the basis: children[j] marks them
    column = np.arange(P)
    following = np.array(basis + [P - 1])[
        np.searchsorted(basis, column, "right")]
    children = ((column >= column[:, None] + projective)
                & (column <= following[:, None]))
    child_count = children.sum(1)
    index = np.min_scalar_type(P - 1)
    orbit = math.prod((q ** r - q ** i) // (q - 1) for i in range(r))

    shares: dict = {}      # census key -> sum of 1 / beta over survivors
    first: dict = {}       # census key -> its first survivor's indices
    repetition: dict = {}  # census key -> its repetition annotation

    # depth first over blocks of nodes of one depth, one node a row of
    # (chosen indices, message weights).  A block's children are pushed
    # above what is left of it, so the nodes of each depth are met in
    # lexicographic order.  Point 0 is (0, ..., 0, 1), the first basis
    # index, so every tuple that holds the basis starts with it.  A nested
    # function calling itself would hold the tables and codes in a
    # reference cycle that only the cycle collector frees.
    stack = [(np.zeros((1, 1), index), hits[:1], False)] if n_max >= r else []
    while stack:
        chosen, weights, pruned = stack.pop()
        depth = chosen.shape[1]
        last = chosen[:, -1]
        if not pruned:
            # no weight passes the depth; high is the greatest weight
            # below it, that of the messages that miss some chosen column
            below = weights < depth
            high = (weights * below).max(1)
            # the full weight must stay reachable by some message
            live = ~below.all(1)
            # with n_max - depth columns left to take, the tuple must
            # already hold `need` basis indices: all those up to its last
            need = r - (n_max - depth)
            if need > 0:
                live &= last >= basis[need - 1]
            low = weights.min(1)
            # messages already missed must finish on one common weight;
            # low is depth when none is missed, and high - low < depth
            if n_max - depth < depth:
                live &= high <= low.astype(np.intp) + (n_max - depth)
            if depth >= n_min:
                done = live & (last >= basis[-1]) & (low == high) & (high > 0)
                for row, d in zip(chosen[done].tolist(), low[done].tolist()):
                    chosen_t = tuple(row)
                    key = _census_key(field, points, chosen_t, d, r)
                    rep = _repetition_annotation(chosen_t, depth, (d, depth),
                                                 q, r)
                    if key not in first:
                        first[key] = chosen_t
                        repetition[key] = rep
                        shares[key] = Fraction(0)
                    elif repetition[key] != rep:
                        raise SymmetryCountError(
                            f"census key {key} has survivors {first[key]} "
                            f"and {chosen_t} with repetition annotations "
                            f"{repetition[key]} and {rep}")
                    shares[key] += Fraction(
                        1, _independent_tuples(chosen_t, misses, r))
            if depth == n_max:
                continue
            chosen, weights, last = chosen[live], weights[live], last[live]
            if not len(last):
                continue
        # the parents whose children fit one block go first, and at least
        # one: its at most P children fit the P x P hits table
        ends = np.cumsum(child_count[last])
        rows = _BLOCK_BYTES // (P * width + (depth + 1) * index.itemsize)
        if ends[-1] > rows:
            head = max(1, int(np.searchsorted(ends, rows, "right")))
            if head < len(last):
                stack.append((chosen[head:], weights[head:], True))
                chosen, weights, last = (chosen[:head], weights[:head],
                                         last[:head])
        parent, i = np.nonzero(children[last])
        kids = np.empty((len(i), depth + 1), index)
        kids[:, :depth] = chosen[parent]
        kids[:, depth] = i
        stack.append((kids, weights[parent] + hits[i], False))

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
    reasons) of a survivor with weights {d, n}, 1 <= d < n.

    The survivor's code has the r x n generator of its columns, and the
    census asks about its [n, n - r] dual, whose packing radius is at
    least 1 when the columns are distinct points (its d >= 3), and 0
    when one repeats (its d = 2).  The columns span GF(q)^r, as d >= 1:
    a nonzero message orthogonal to all of them would have weight 0."""
    n = len(chosen)
    dual_k = n - r
    projective = len(set(chosen)) == n
    reasons = []
    if dual_k < 2:
        reasons.append(f"dual dimension {dual_k} < 2")
    if not projective:
        reasons.append("repeated column: dual minimum distance 2")
    rho, cr, ia = None, False, None
    if dual_k >= 1:
        res = dual_regularity(
            n, field.q, r, int(projective), (d, n),
            lambda: LinearCode.from_rows(field, points[list(chosen)].T))
        rho, cr, ia = res.rho, res.is_completely_regular, res.ia
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
        trivial=bool(reasons),
        trivial_reason="; ".join(reasons),
        families=fams,
        repetition_of=repetition_of,
        count=count,
        example_columns=_as_tuples(points, chosen))


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


CENSUS_NOTE = ("family matching is parameter-level "
               "(n, k, q, weights, intersection array)")


def render_table(entries) -> str:
    lines = ["#" + CENSUS_NOTE,
             "\t".join(["n", "weights", "dual_k", "rho", "CR", "IA",
                        "families", "count", "status"])]
    for e in entries:
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
