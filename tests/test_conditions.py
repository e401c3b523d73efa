from fractions import Fraction

import pytest

from crlab.conditions import (gray_rankin_holds,
                              power_decomposition, two_weight_counts,
                              max_distance_bound, max_distance_holds,
                              p_valuation, plotkin_holds,
                              cardinality_window_check, complement_valuation_check)
from crlab.field import prime_power


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        prime_power(12)
    with pytest.raises(ValueError):
        prime_power(1)


def test_p_valuation():
    assert p_valuation(24, 2) == 3
    assert p_valuation(36, 2) == 2
    assert p_valuation(7, 2) == 0


def test_plotkin_examples():
    c = plotkin_holds(3, 2, 2, 4)
    assert c.applicable and c.witnesses["bound"] == 4
    # the (3,4,2) equidistant code from D(2,2) meets it with equality
    assert c.satisfied and c.witnesses["equality"]
    assert not plotkin_holds(4, 2, 2, 4).applicable          # denominator 0
    assert plotkin_holds(5, 4, 4, 16).witnesses["bound"] == 16


def test_gray_rankin_examples():
    c = gray_rankin_holds(8, 4, 2, 16)
    assert c.satisfied and c.witnesses["equality"]
    assert c.witnesses["bound_on_N_over_q"] == 8
    c = gray_rankin_holds(8, 6, 4, 32)
    assert c.satisfied and c.witnesses["equality"]
    # n - ((q-1)n - qd)^2 <= 0: inapplicable
    assert not gray_rankin_holds(4, 1, 2, 4).applicable


def test_max_distance_examples():
    c = max_distance_holds(6, 4, 4, 64)
    assert c.witnesses["equality"]
    c = max_distance_holds(28, 24, 8, 512)
    assert c.witnesses["equality"]
    assert not max_distance_bound(9, 4, 2).applicable


def test_cardinality_window_bose_bush():
    checks = {c.name: c for c in cardinality_window_check(6, 64, 4, 4)}
    right = checks["window_upper"]
    assert right.witnesses["right"] == 64 and right.witnesses["equality"]
    assert checks["window_upper_equality_n"].satisfied
    assert checks["window_upper_equality_d"].satisfied
    assert checks["window_divisibility_N"].satisfied
    assert checks["window_divisibility_q_minus_1"].satisfied


def test_latin_square_lower_equality():
    checks = {c.name: c for c in cardinality_window_check(4, 16, 3, 4)}
    assert checks["window_lower"].witnesses["equality"]
    assert checks["window_lower_equality_latin_square"].satisfied


def test_cardinality_window_denniston():
    checks = {c.name: c for c in cardinality_window_check(28, 512, 24, 8)}
    assert checks["window_upper"].witnesses["equality"]
    assert checks["window_divisibility_N"].satisfied


def test_complement_valuations_denniston():
    r = complement_valuation_check(28, 3, 24, 8, 1)
    assert (r.val_d, r.val_delta, r.val_dc) == (3, 2, 2)
    assert r.d_c == 36
    assert r.val_eq_c and not r.val_eq_d and r.some_valuation_equality
    # the clause-(ii) gate is not triggered at these numbers
    gate = next(c for c in r.checks if c.name == "valuation_clause_ii")
    assert not gate.applicable


def test_complement_valuations_bose_bush_q8():
    r = complement_valuation_check(10, 3, 8, 8, 1)
    assert (r.val_d, r.val_delta, r.val_dc) == (3, 1, 1)
    assert r.d_c == 54 and r.some_valuation_equality


def test_complement_valuations_inconsistent_inputs():
    with pytest.raises(ValueError):
        complement_valuation_check(100, 2, 50, 4, 1)   # d_c <= 0


def test_power_decomposition():
    assert power_decomposition(6, 4, 4) == (1, 2)
    assert power_decomposition(28, 24, 8) == (2, 6)
    assert power_decomposition(7, 4, 2) is None       # n - w = 3, not a 2-power
    assert power_decomposition(10, 4, 2) is None      # n - w = 6


def test_weight_count_system():
    assert two_weight_counts(6, 3, 4, 4) == (45, 18)
    assert two_weight_counts(8, 4, 2, 4) == (14, 1)
    mu1, mu2 = two_weight_counts(7, 3, 2, 4)
    assert (mu1, mu2) == (7, 0)                     # degenerate: one weight
    with pytest.raises(ValueError):
        two_weight_counts(6, 3, 4, 6)


def test_weight_counts_non_integral_is_nonexistence_evidence():
    mu = two_weight_counts(8, 3, 3, 5)
    assert isinstance(mu[0], Fraction) or mu[1] < 0 or isinstance(mu[1], Fraction)


def test_exactness_no_floats():
    for c in cardinality_window_check(6, 64, 4, 4):
        for v in c.witnesses.values():
            assert not isinstance(v, float)
