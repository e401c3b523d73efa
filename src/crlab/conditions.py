"""Bounds and necessary conditions for two-weight codes with weights
{d, n}, as pure predicates with exact witness arithmetic.

Every check reports `applicable` and `satisfied` separately: several of
the conditions are gated (positive denominators, gcd gates), and a
vacuous pass must stay distinguishable from a real one.  No floating
point anywhere; witnesses are ints or Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .field import prime_power


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    applicable: bool
    satisfied: bool | None
    witnesses: dict = dc_field(default_factory=dict)


def p_valuation(a: int, p: int) -> int:
    """Largest gamma with p^gamma dividing a (a > 0)."""
    if a <= 0:
        raise ValueError("valuation needs a positive integer")
    g = 0
    while a % p == 0:
        a //= p
        g += 1
    return g


def plotkin_holds(n: int, d: int, q: int, N: int) -> ConditionCheck:
    """N <= qd / (qd - (q-1)n) when the denominator is positive."""
    denom = q * d - (q - 1) * n
    if denom <= 0:
        return ConditionCheck("plotkin", False, None,
                              {"denominator": denom})
    bound = Fraction(q * d, denom)
    return ConditionCheck("plotkin", True, N <= bound,
                          {"bound": bound, "denominator": denom, "N": N,
                           "equality": N == bound})


def gray_rankin_holds(n: int, d: int, q: int, N: int) -> ConditionCheck:
    """N/q <= q(qd - (q-2)n)(n-d) / (n - ((q-1)n - qd)^2) when the
    denominator is positive, for codes partitionable into simplexes;
    the caller asserts that structure."""
    gap = (q - 1) * n - q * d
    denom = n - gap * gap
    if denom <= 0:
        return ConditionCheck("gray_rankin", False, None,
                              {"denominator": denom})
    bound = Fraction(q * (q * d - (q - 2) * n) * (n - d), denom)
    lhs = Fraction(N, q)
    return ConditionCheck("gray_rankin", True, lhs <= bound,
                          {"bound_on_N_over_q": bound, "denominator": denom,
                           "N_over_q": lhs, "equality": lhs == bound})


def max_distance_bound(n: int, d: int, q: int) -> ConditionCheck:
    """N <= q^2 d / (dq - (q-1)(n-1)) when the denominator is positive."""
    denom = d * q - (q - 1) * (n - 1)
    if denom <= 0:
        return ConditionCheck("max_distance", False, None,
                              {"denominator": denom})
    bound = Fraction(q * q * d, denom)
    return ConditionCheck("max_distance", True, True,
                          {"bound": bound, "denominator": denom})


def max_distance_holds(n: int, d: int, q: int, N: int) -> ConditionCheck:
    c = max_distance_bound(n, d, q)
    if not c.applicable:
        return c
    bound = c.witnesses["bound"]
    return ConditionCheck("max_distance", True, N <= bound,
                          {**c.witnesses, "N": N, "equality": N == bound})


def cardinality_window_check(n: int, N: int, d: int, q: int) -> list[ConditionCheck]:
    """Cardinality window, equality-case reconstruction of n and d, the
    Latin-square flag on the left equality, and the divisibility pair.

    The divisibility clause is stated for N = q^2 codes but checked for
    general N here; callers that care can look at the `n_is_q2` witness.
    """
    out = []
    left = max((q - 1) * n + 1, q * q)
    out.append(ConditionCheck(
        "window_lower", True, left <= N,
        {"left": left, "N": N, "equality": left == N}))

    upper = max_distance_holds(n, d, q, N)
    right_eq = upper.applicable and upper.witnesses["equality"]
    out.append(ConditionCheck(
        "window_upper", upper.applicable, upper.satisfied,
        {"right": upper.witnesses["bound"], "N": N, "equality": right_eq}
        if upper.applicable else upper.witnesses))

    if right_eq:
        n_back = Fraction(N * (q * (d + 1) - 1) - q * q * d, N * (q - 1))
        out.append(ConditionCheck(
            "window_upper_equality_n", True, n_back == n,
            {"reconstructed_n": n_back, "n": n}))
    else:
        out.append(ConditionCheck("window_upper_equality_n", False, None, {}))
    # at N = q the equality holds only for n = 1, and there for every d
    if right_eq and N != q:
        d_back = Fraction((n - 1) * (q - 1) * N, q * (N - q))
        out.append(ConditionCheck(
            "window_upper_equality_d", True, d_back == d,
            {"reconstructed_d": d_back, "d": d}))
    else:
        out.append(ConditionCheck("window_upper_equality_d", False, None, {}))

    if left == N:
        latin = N == q * q and d == n - 1
        out.append(ConditionCheck(
            "window_lower_equality_latin_square", True, latin,
            {"N": N, "q2": q * q, "d": d, "n": n}))
    else:
        out.append(ConditionCheck(
            "window_lower_equality_latin_square", False, None, {}))

    out.append(ConditionCheck(
        "window_divisibility_N", True, (q * q * d) % N == 0,
        {"q2d": q * q * d, "N": N, "n_is_q2": N == q * q}))
    out.append(ConditionCheck(
        "window_divisibility_q_minus_1", True, ((N - 1) * d) % (q - 1) == 0,
        {"Nm1_d": (N - 1) * d, "q_minus_1": q - 1}))
    return out


def bound_checks(n: int, N: int, d: int, q: int) -> list[ConditionCheck]:
    """The cardinality window, Plotkin, Gray-Rankin and maximum-distance
    checks of a code of length n, size N and minimum distance d."""
    return cardinality_window_check(n, N, d, q) + [
        plotkin_holds(n, d, q, N), gray_rankin_holds(n, d, q, N),
        max_distance_holds(n, d, q, N)]


@dataclass(frozen=True)
class ComplementValuations:
    val_d: int
    val_delta: int
    val_dc: int
    d_c: int
    n_c: int
    val_eq_d: bool      # val_d == val_delta
    val_eq_c: bool      # val_dc == val_delta
    gcd_eq_d: bool       # (q, d) == (q, delta)
    gcd_eq_c: bool       # (q, d_c) == (q, delta)
    checks: tuple

    @property
    def some_valuation_equality(self) -> bool:
        return self.val_eq_d or self.val_eq_c


def complement_valuation_check(n: int, k: int, d: int, q: int, s: int) -> ComplementValuations:
    """Valuation and gcd conditions tying a two-weight {d, n} code to its
    complementary code (delta = n - d, d_c = s q^(k-1) - n).

    Clause gates, exactly as stated:
      (i)   s = 1, k >= 4: both gcd equalities must hold;
      (ii)  s = 1, k = 3:  the gcd equalities are forced only under the
            stated gcd gate;
      (iii) s = 1, k >= 2: at least one valuation equality;
      (iv)  s >= 1, k >= 3: at least one valuation equality.
    """
    p, _ = prime_power(q)
    delta = n - d
    if delta <= 0:
        raise ValueError("need d < n")
    d_c = s * q ** (k - 1) - n
    if d_c <= 0:
        raise ValueError(f"d_c = s q^(k-1) - n = {d_c} <= 0; inputs inconsistent")
    n_c = s * (q ** k - 1) // (q - 1) - n

    val_d = p_valuation(d, p)
    val_delta = p_valuation(delta, p)
    val_dc = p_valuation(d_c, p)
    val_eq_d = val_d == val_delta
    val_eq_c = val_dc == val_delta
    gcd_eq_d = math.gcd(q, d) == math.gcd(q, delta)
    gcd_eq_c = math.gcd(q, d_c) == math.gcd(q, delta)
    some_val_eq = val_eq_d or val_eq_c

    gate = None
    if s == 1 and k == 3:
        g1 = math.gcd(d, q) ** 2 <= q * math.gcd(n * (n - 1), q)
        g2 = math.gcd(d + delta, q) ** 2 > q * math.gcd(n_c * (n_c - 1), q)
        gate = g1 or g2
    # each clause is (name, its gate, what it asserts, witnesses); a clause
    # whose gate is closed is neither satisfied nor violated
    clauses = (
        ("valuation_clause_i", s == 1 and k >= 4, gcd_eq_d and gcd_eq_c,
         {"gcd_q_d": math.gcd(q, d), "gcd_q_delta": math.gcd(q, delta),
          "gcd_q_dc": math.gcd(q, d_c)}),
        ("valuation_clause_ii", s == 1 and k == 3 and bool(gate),
         gcd_eq_d and gcd_eq_c, {"gate": gate}),
        ("valuation_clause_iii", s == 1 and k >= 2, some_val_eq,
         {"val_d": val_d, "val_delta": val_delta, "val_dc": val_dc}),
        ("valuation_clause_iv", s >= 1 and k >= 3, some_val_eq,
         {"val_d": val_d, "val_delta": val_delta, "val_dc": val_dc}))
    checks = [ConditionCheck(name, gated, holds if gated else None, wit)
              for name, gated, holds, wit in clauses]

    return ComplementValuations(
        val_d=val_d, val_delta=val_delta, val_dc=val_dc,
        d_c=d_c, n_c=n_c,
        val_eq_d=val_eq_d, val_eq_c=val_eq_c,
        gcd_eq_d=gcd_eq_d, gcd_eq_c=gcd_eq_c,
        checks=tuple(checks))


def power_decomposition(n: int, w: int, q: int) -> tuple[int, int] | None:
    """(u, h) with w = h p^u and n = (h+1) p^u, for projective two-weight
    {w, n} codes; None when no such pair exists (a nonexistence witness)."""
    p, _ = prime_power(q)
    t = n - w
    if t < 1:
        return None
    u = p_valuation(t, p)
    if t != p ** u or w % t:
        return None  # n - w is not a power of p, or does not divide w
    h = w // t
    assert w == h * p ** u and n == (h + 1) * p ** u
    return (u, h)


def two_weight_counts(n: int, k: int, q: int, w: int):
    """Solve w mu1 + n mu2 = n(q-1)q^(k-1),
             w^2 mu1 + n^2 mu2 = n(q-1)(n(q-1)+1)q^(k-2)
    exactly.  Returns (mu1, mu2) as ints when both are nonnegative
    integers, else the Fraction pair as a non-integrality verdict."""
    if w >= n:
        raise ValueError("need w < n (otherwise the system is singular)")
    b1 = Fraction(n * (q - 1)) * q ** (k - 1)
    b2 = Fraction(n * (q - 1) * (n * (q - 1) + 1)) * Fraction(q ** k, q * q)
    det = Fraction(w * n * (n - w))
    mu1 = (b1 * n * n - b2 * n) / det
    mu2 = (w * b2 - w * w * b1) / det
    if mu1.denominator == 1 and mu2.denominator == 1 and mu1 >= 0 and mu2 >= 0:
        return int(mu1), int(mu2)
    return mu1, mu2
