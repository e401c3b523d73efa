"""Full diagnostic pipeline for a single linear code.

Collects the weight data of both sides (the smaller-dimensional side is
enumerated, the MacWilliams transform gives the other), covering radius,
external distance, intersection array, complete-regularity and antipodal
verdicts, orthogonal-array strength, family matches, and the two-weight
condition checks; the cli module serializes the result as
schema-versioned JSON.  A linear code is an orthogonal array of strength
exactly d(C^perp) - 1 (Delsarte 1973; Hedayat-Sloane-Stufken, Thm 4.6),
so the strength is read off the dual distribution, never searched for.

rho, the intersection array and the subconstituent sizes come from
:func:`~crlab.regularity.dual_regularity`, by the closed form or by a
syndrome profile; ``CodeReport.rho_source`` records which, and is not
serialised.  A code that takes the closed form builds no profile, so
the syndrome budget does not apply to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import conditions
from .codes import (LinearCode, is_antipodal_two_weight,
                    max_column_multiplicity)
from .families import family_match
from .regularity import (IntersectionArray, RegularityViolation,
                         dual_regularity, packing_radius)


@dataclass
class ConditionsSide:
    """Two-weight side the conditions were evaluated on."""
    side: str                  # "self" or "dual"
    n: int
    k: int
    N: int
    d: int
    s_multiplicity: int
    checks: tuple              # ConditionCheck items
    complement_valuations: conditions.ComplementValuations | None
    power_decomp: tuple | None
    weight_counts: tuple | None


@dataclass
class CodeReport:
    n: int
    k: int
    q: int
    d: int
    e: int
    weight_distribution: dict
    dual_weights: tuple
    rho: int
    external_distance: int
    subconstituents: dict
    ia: IntersectionArray | None
    completely_regular: bool
    cr_violation: RegularityViolation | None
    antipodal_dual: bool
    uniformly_packed: bool
    oa_strength: int
    family_matches: tuple
    conditions: ConditionsSide | None
    rho_source: str            # what gave rho, ia and subconstituents:
                               # "delsarte" or "profile"; not serialised
    warnings: tuple = ()


def build_code_report(code: LinearCode, warnings=()) -> CodeReport:
    wd = code.weight_distribution_auto()
    dual = code.dual()
    dual_wd = dual.weight_distribution_auto()
    d = wd.d
    if d is None:
        raise ValueError("cannot report on the zero code")

    e = packing_radius(d)
    s = dual_wd.s_count
    reg = dual_regularity(code.n, code.q, code.n - code.k, e,
                          dual_wd.nonzero_weights, code.dual)
    rho, ia = reg.rho, reg.ia

    return CodeReport(
        n=code.n, k=code.k, q=code.q, d=d, e=e,
        weight_distribution=wd.sparse(),
        dual_weights=dual_wd.nonzero_weights,
        rho=rho, external_distance=s,
        subconstituents={l: c * code.q ** code.k
                         for l, c in enumerate(reg.level_sizes)},
        ia=ia,
        completely_regular=ia is not None,
        cr_violation=reg.violation,
        antipodal_dual=is_antipodal_two_weight(dual_wd, code.n),
        uniformly_packed=rho == s,
        oa_strength=code.n if dual_wd.d is None else dual_wd.d - 1,
        family_matches=tuple(family_match(
            code.n, code.k, code.q, dual_wd.nonzero_weights, ia)),
        conditions=_conditions_side(code, wd, dual, dual_wd),
        rho_source="delsarte" if reg.profile is None else "profile",
        warnings=tuple(warnings),
    )


def _conditions_side(code, wd, dual, dual_wd) -> ConditionsSide | None:
    """Run the two-weight conditions on whichever side is antipodal
    two-weight (the code itself preferred, else its dual)."""
    n, q = code.n, code.q
    if is_antipodal_two_weight(wd, n):
        side, tw, tw_wd = "self", code, wd
    elif is_antipodal_two_weight(dual_wd, n):
        side, tw, tw_wd = "dual", dual, dual_wd
    else:
        return None

    k, d = tw.k, tw_wd.d
    N = q ** k
    s_mult = max_column_multiplicity(tw)
    checks = conditions.bound_checks(n, N, d, q)
    complement_valuations = None
    if d < n:
        try:
            complement_valuations = conditions.complement_valuation_check(n, k, d, q, s_mult)
        except ValueError:
            # d_c = s q^(k-1) - n <= 0: the complementary construction
            # degenerates (difference-matrix-type codes); nothing to check
            complement_valuations = None
    power_decomp = weight_counts = None
    # multiplicity 1 means projective: no two columns are proportional,
    # and max_column_multiplicity raises on a zero column
    if s_mult == 1:
        power_decomp = conditions.power_decomposition(n, d, q)
        mu = conditions.two_weight_counts(n, k, q, d)
        weight_counts = mu if isinstance(mu[0], int) else None
    return ConditionsSide(side=side, n=n, k=k, N=N, d=d,
                          s_multiplicity=s_mult,
                          checks=tuple(checks), complement_valuations=complement_valuations,
                          power_decomp=power_decomp, weight_counts=weight_counts)
