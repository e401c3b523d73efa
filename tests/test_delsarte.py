"""Delsarte's closed form for the intersection array
(:func:`crlab.regularity.delsarte_ia`) against the syndrome profile, the
full-space oracle, the per-family formulas restated in the acceptance
module, and the spectrum of the quotient matrix; and the report's use of
it in place of the profile."""

import numpy as np
import pytest
from conftest import (CONSTRUCT_SPEC, RANDOM_CODE_SHAPES, build_instance,
                      min_distance)
from test_acceptance import expected_ia, expected_weights

from crlab import budgets, families, regularity
from crlab.codes import LinearCode, projective_points
from crlab.families import family_match, random_code
from crlab.field import field_create, prime_power
from crlab.matrix import MatGF
from crlab.regularity import (BRUTE_LIMIT, IntersectionArray,
                              brute_subconstituents, complete_regularity,
                              delsarte_ia, dual_regularity, packing_radius)
from crlab.report import build_code_report
from crlab.search import search_antipodal_duals

# sides with more syndromes are not profiled here
PROFILE_CAP = 1 << 21

# (q, n, k) of further seeded random codes: the report workload's shapes
# never meet d >= 2s' - 1, and these small ones often do
SMALL_SHAPES = ((2, 9, 3), (3, 7, 3), (4, 6, 2), (5, 6, 3), (7, 5, 2),
                (8, 5, 2), (9, 5, 2), (25, 4, 2), (27, 4, 2))


class Side:
    """One code with its d, dual weights, closed form and, when it has at
    most PROFILE_CAP syndromes, its profiled intersection array."""

    def __init__(self, label, code, result=None):
        self.label, self.code = label, code
        self.d = min_distance(code)
        self.dual_weights = code.dual().weight_distribution_auto() \
            .nonzero_weights
        self.closed = delsarte_ia(code.n, code.q, code.n - code.k,
                                  packing_radius(self.d), self.dual_weights)
        if result is None and code.q ** (code.n - code.k) <= PROFILE_CAP:
            result = complete_regularity(code)
        self.result = result


def _hamming_codes():
    """Hamming codes of redundancy 2, 3 and 4 over GF(2..9), up to length
    200."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field_create(*prime_power(q))
        for r in (2, 3, 4):
            points = projective_points(f, r)
            if len(points) <= 200:
                columns = LinearCode.from_rows(f, np.transpose(points))
                yield (q, r), columns.dual()


@pytest.fixture(scope="module")
def sides(family_grid):
    """Both sides of the grid and of the construct families, Hamming and
    simplex codes, and both sides of the report workload's random codes
    at run seeds 1-5 and of random codes of SMALL_SHAPES."""
    out = []
    for entry in family_grid:
        out.append(Side(("grid cr", entry.label), entry.cr, entry.cr_result))
        out.append(Side(("grid tw", entry.label), entry.tw))
    for kind, params in CONSTRUCT_SPEC:
        inst = build_instance(kind, params)
        out.append(Side(("construct cr", kind, params), inst.cr_code))
        out.append(Side(("construct tw", kind, params),
                        inst.two_weight_code))
    for qr, ham in _hamming_codes():
        out.append(Side(("hamming", qr), ham))
        out.append(Side(("simplex", qr), ham.dual()))
    for seed in range(1, 6):
        for i, (p, m, n, k) in enumerate(RANDOM_CODE_SHAPES):
            code = random_code(field_create(p, m), n, k, seed * 100 + i)
            out.append(Side(("random", seed, i), code))
            out.append(Side(("random dual", seed, i), code.dual()))
        for i, (q, n, k) in enumerate(SMALL_SHAPES):
            code = random_code(field_create(*prime_power(q)), n, k,
                               seed * 100 + i)
            out.append(Side(("random", seed, q), code))
            out.append(Side(("random dual", seed, q), code.dual()))
    return out


def test_closed_form_matches_profile(sides):
    """Wherever d >= 2s' - 1 the code is completely regular and the
    closed form is its profiled array."""
    qualifying = [s for s in sides if s.closed is not None]
    for s in qualifying:
        assert s.result is not None, s.label
        assert s.result.ia is not None, s.label
        assert s.result.ia == s.closed, \
            (s.label, s.result.ia, s.closed)
    assert len(sides) == 258 and len(qualifying) == 99
    kinds = {s.label[0] for s in qualifying}
    assert kinds == {"grid cr", "grid tw", "construct cr", "hamming",
                     "simplex", "random", "random dual"}


def test_closed_form_none_exactly_below_the_bound(sides):
    """None exactly where d < 2s' - 1; some completely regular codes lie
    there, so None does not say a code is not completely regular."""
    for s in sides:
        s_prime = len(s.dual_weights)
        assert (s.closed is None) == (s.d < 2 * s_prime - 1), s.label
    outside = [s for s in sides if s.closed is None and s.result is not None
               and s.result.is_completely_regular]
    assert outside
    assert delsarte_ia(7, 2, 3, 0, (4, 6)) is None
    assert delsarte_ia(7, 2, 3, 1, (4,)) == IntersectionArray(
        1, (7,), (1,), n=7, q=2)
    # the whole space: no dual weights, rho = 0
    whole = LinearCode.from_rows(field_create(3, 1), np.eye(4, dtype=int))
    assert delsarte_ia(4, 3, 0, 0, ()) == complete_regularity(whole).ia


def _char_poly(ia: IntersectionArray, x: int) -> int:
    """det(x I - B) for the tridiagonal quotient matrix B of ia, by the
    three-term recurrence p_(i+1) = (x - a_i) p_i - b_(i-1) c_i p_(i-1)."""
    a = ia.a
    prev, cur = 0, 1
    for i in range(ia.rho + 1):
        coupling = ia.b[i - 1] * ia.c[i - 1] if i else 0
        prev, cur = cur, (x - a[i]) * cur - coupling * prev
    return cur


def test_quotient_spectrum_is_the_dual_weights(sides):
    """For every completely regular code profiled here, the quotient
    matrix's characteristic polynomial vanishes at the rho + 1 distinct
    values n(q - 1) - q w, w in {0} and the dual weights: the BFS agrees
    with MacWilliams with no new enumeration."""
    checked = 0
    for s in sides:
        if s.result is None or s.result.ia is None:
            continue
        ia = s.result.ia
        big_k = ia.n * (ia.q - 1)
        assert len(s.dual_weights) == ia.rho, s.label
        for w in (0,) + s.dual_weights:
            assert _char_poly(ia, big_k - ia.q * w) == 0, (s.label, w)
        assert _char_poly(ia, big_k + 1) != 0
        checked += 1
    assert checked == 102


def test_grid_duals_have_distance_3_or_4(family_grid):
    """Every grid family's completely regular side has d in {3, 4}, so
    the prediction with packing radius 1 is the closed form for it."""
    for entry in family_grid:
        d = min_distance(entry.cr)
        assert d in (3, 4), (entry.label, d)
        weights = entry.tw_wd.nonzero_weights
        assert entry.instance.predicted_ia == delsarte_ia(
            entry.cr.n, entry.cr.q, entry.tw.k, packing_radius(d), weights)
        assert entry.instance.predicted_ia == entry.cr_result.ia


def _family_parameter_sets():
    """(kind, params, two-weight dimension) for every family with
    q <= 256: extended Hamming m <= 16, difference-matrix duals with
    l | h <= 4l, MDS duals with 3 <= n <= q, and the characteristic-2
    families."""
    for m in range(2, 17):
        yield "ext-hamming", {"m": m}, m + 1
    for q in range(2, 257):
        try:
            p, l = prime_power(q)
        except ValueError:
            continue
        for h in range(l, 4 * l + 1, l):
            yield "dm-dual", {"p": p, "l": l, "h": h}, (l + h) // l + 1
        for n in range(3, q + 1):
            yield "mds-dual", {"q": q, "n": n}, 2
        if q >= 4 and p == 2:
            yield "bose-bush", {"q": q}, 3
            yield "delsarte", {"q": q}, 3
            for u in range(1, l):
                yield "denniston", {"q": q, "h": 2 ** u}, 3


def test_closed_form_matches_family_formulas():
    """The closed form with packing radius 1 is each family's restated
    array, over every family parameter set with q <= 256."""
    count = 0
    for kind, params, k in _family_parameter_sets():
        weights = expected_weights(kind, params)
        want = expected_ia(kind, params)
        got = delsarte_ia(want.n, want.q, k, 1, weights)
        assert got is not None and got == want, (kind, params)
        assert max(weights) == want.n
        count += 1
    assert count == 7635


def test_closed_form_refuses_impossible_parameters():
    """A split that is not a nonnegative integer raises, and so does a
    level size that is not an integer; nothing is rounded."""
    with pytest.raises(ValueError, match="nonnegative integers"):
        delsarte_ia(5, 2, 3, 1, (2, 4))       # c_2 = 30/7
    with pytest.raises(ValueError, match="nonnegative integers"):
        delsarte_ia(4, 2, 2, 1, (1, 3))       # k_2 = -1
    with pytest.raises(ValueError, match="nonnegative integers"):
        delsarte_ia(10, 8, 3, 1, (8, 9))
    with pytest.raises(ValueError, match="k_2 = 28/3"):
        IntersectionArray(2, (7, 4), (1, 3), n=7, q=2).level_sizes()


def test_family_match_skips_the_closed_form_without_a_fit(monkeypatch):
    """family_match computes the closed form only once some family's
    parameters fit: census codes with d = 2 never reach it."""
    ia = complete_regularity(families.cr1_extended_hamming(3).cr_code).ia

    def refuse(*args):
        raise AssertionError("closed form computed without a family fit")

    monkeypatch.setattr(families, "delsarte_ia", refuse)
    assert family_match(9, 5, 2, (4, 6), ia) == []
    assert family_match(8, 4, 2, (4, 8), None) == [("CR1", {"m": 3}),
                                                   ("CR2", {"q": 2, "m": 3})]
    with pytest.raises(AssertionError, match="without a family fit"):
        family_match(8, 4, 2, (4, 8), ia)


# projective census points run by the tier-1 census tests
CENSUS_POINTS = ((2, 3, 7), (2, 4, 8), (3, 3, 8), (4, 3, 6), (5, 3, 6),
                 (8, 2, 6))


def _census_sides():
    """Both sides of the example of every projective census entry at
    CENSUS_POINTS with a nonzero dual."""
    for q, r, n_max in CENSUS_POINTS:
        f = field_create(*prime_power(q))
        for e in search_antipodal_duals(q, r, n_max, projective=True):
            if e.dual_k < 1:
                continue
            tw = LinearCode(f, MatGF(f, list(zip(*e.example_columns))))
            yield Side(("census tw", q, r, e.n), tw)
            yield Side(("census cr", q, r, e.n), tw.dual())


def test_report_matches_profile_and_oracle(sides, monkeypatch):
    """On every side with at most PROFILE_CAP syndromes (the grid sides
    the default budgets admit, the construct sides, Hamming and simplex
    codes, the seeded random codes and the projective census survivors),
    the report's rho, array, verdict, witness and subconstituent sizes
    are what complete_regularity gives, whichever path the report took;
    where q^n <= 2^20 the full-space oracle gives them too.  On every
    completely regular side the array's level sizes are the profile's
    coset counts."""
    monkeypatch.delenv(budgets.SYND_BUDGET_VAR, raising=False)
    monkeypatch.delenv(budgets.ENUM_BUDGET_VAR, raising=False)
    checked = closed = brute_checked = 0
    for s in sides + list(_census_sides()):
        if s.result is None:
            continue
        code, reg = s.code, s.result
        prof = reg.profile
        report = build_code_report(code)
        assert report.rho_source == ("profile" if s.closed is None
                                     else "delsarte"), s.label
        closed += s.closed is not None
        assert report.rho == prof.rho, s.label
        assert report.ia == reg.ia, s.label
        assert report.completely_regular == reg.is_completely_regular
        assert report.cr_violation == reg.violation, s.label
        assert report.subconstituents == {
            l: c * code.q ** code.k
            for l, c in prof.level_coset_counts.items()}, s.label
        if reg.ia is not None:
            sizes = reg.ia.level_sizes()
            assert sizes == tuple(prof.level_coset_counts.values()), s.label
            assert sum(sizes) == code.q ** (code.n - code.k)
        if code.q ** code.n <= BRUTE_LIMIT:
            brute = brute_subconstituents(code)
            levels, counts = np.unique(brute.levels, return_counts=True)
            assert brute.rho == report.rho, s.label
            assert brute.ia == report.ia, s.label
            assert (brute.violation is None) == (report.cr_violation is None)
            assert dict(zip(levels.tolist(), counts.tolist())) == \
                report.subconstituents, s.label
            brute_checked += 1
        checked += 1
    assert (checked, closed, brute_checked) == (243, 111, 200)


def test_dual_regularity_matches_profile(sides):
    """On the same 243 sides the one entry point gives complete_regularity's
    rho, array, level sizes and violation.  Where Delsarte's theorem
    applies it never calls ``dual`` and holds no profile; elsewhere it
    calls ``dual`` once and profiles."""
    checked = closed = 0
    for s in sides + list(_census_sides()):
        if s.result is None:
            continue
        code, want = s.code, s.result
        calls = []

        def dual():
            calls.append(code)
            return code.dual()
        got = dual_regularity(code.n, code.q, code.n - code.k,
                              packing_radius(s.d), s.dual_weights, dual)
        assert (got.rho, got.ia, got.level_sizes, got.violation) == \
            (want.rho, want.ia, want.level_sizes, want.violation), s.label
        assert got.is_completely_regular == want.is_completely_regular
        if s.closed is None:
            assert len(calls) == 1 and got.profile is not None, s.label
        else:
            assert not calls and got.profile is None, s.label
            closed += 1
        checked += 1
    assert (checked, closed) == (243, 111)


def test_dual_regularity_takes_a_lower_bound_on_e():
    """The packing radius may be given as a lower bound: e = 1 for the
    dual of a projective two-weight code is enough for the theorem, and
    a bound too weak for it (e = 0 for the [8,6]_8 MDS code, whose e is
    1) profiles the code instead, to the same array."""
    def never():
        pytest.fail("dual asked for")

    tw = families.cr4_bose_bush(8).two_weight_code      # dual d = 4, e = 1
    got = dual_regularity(tw.n, tw.q, tw.k, 1, (8, 10), never)
    assert str(got.ia) == "{70,63;1,10}" and got.level_sizes == (1, 70, 441)
    mds = families.cr3_mds_dual(8, 8).two_weight_code   # [8,2]_8
    want = complete_regularity(mds.dual())
    got = dual_regularity(mds.n, mds.q, mds.k, 0, (7, 8), lambda: mds)
    assert got.profile is not None and got.ia == want.ia and got.rho == 2


def test_report_takes_the_closed_form_without_a_profile(family_grid,
                                                        monkeypatch):
    """With the profile refused, every grid side that meets d >= 2s' - 1
    still reports, from the closed form; the [8,2]_8 MDS side and a
    random code still reach the profile."""

    class Refused(Exception):
        pass

    def refuse(code):
        raise Refused(f"[{code.n},{code.k}]_{code.q} profiled")

    monkeypatch.setattr(regularity, "SyndromeProfile", refuse)
    qualifying = 0
    for entry in family_grid:
        for code in (entry.tw, entry.cr):
            dual_weights = code.dual().weight_distribution_auto() \
                .nonzero_weights
            if delsarte_ia(code.n, code.q, code.n - code.k,
                           packing_radius(min_distance(code)),
                           dual_weights) is None:
                continue
            report = build_code_report(code)
            assert report.rho_source == "delsarte", entry.label
            assert report.rho == len(dual_weights), entry.label
            qualifying += 1
    assert qualifying == 48
    mds = families.cr3_mds_dual(8, 8).two_weight_code
    assert (mds.n, mds.k, mds.q) == (8, 2, 8)
    random_side = random_code(field_create(3, 1), 10, 5, 101)
    for code in (mds, random_side):
        with pytest.raises(Refused, match="profiled"):
            build_code_report(code)
