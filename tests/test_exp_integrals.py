"""The exact exponential-sum integrator behind the simplex weights."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from hopfalg.errors import DomainError
from hopfalg.exp_integrals import ExpSum, finite_simplex_integral, simplex_integral


def test_one_and_shift():
    one = ExpSum.one()
    assert one.coeffs == {0: Fraction(1)}
    assert one.shift(3).coeffs == {3: Fraction(1)}


def test_integrate_to_variable():
    # int_0^S e^(-2s) ds = 1/2 - e^(-2S)/2
    combo = ExpSum({2: Fraction(1)}).integrate_to_variable()
    assert combo == ExpSum({0: Fraction(1, 2), 2: Fraction(-1, 2)})


def test_constant_under_variable_integral_rejected():
    with pytest.raises(DomainError):
        ExpSum({0: Fraction(1)}).integrate_to_variable()


def test_integral_to_infinity():
    assert ExpSum({1: Fraction(1), 2: Fraction(-1)}).integrate_to_infinity() == Fraction(1, 2)
    with pytest.raises(DomainError):
        ExpSum({0: Fraction(1)}).integrate_to_infinity()


def test_single_rate_integral():
    for k in range(1, 6):
        assert simplex_integral((k,)) == Fraction(1, k)


def test_nested_integral_closed_form():
    # int over s1 >= s2 >= 0 of e^(-k1 s1 - k2 s2) = 1/(k2 (k1 + k2))?  No:
    # substitute u2 = s2, u1 = s1 - s2; the rates accumulate outer-to-inner,
    # giving 1/(k1 (k1 + k2)).
    for k1, k2 in iproduct((1, 2, 3), repeat=2):
        assert simplex_integral((k1, k2)) == Fraction(1, k1) * Fraction(1, k1 + k2)


def test_finite_limit_matches_infinite():
    for n in range(1, 5):
        for rates in iproduct((1, 2), repeat=n):
            finite = finite_simplex_integral(rates)
            # the constant term is the infinite integral; the rest decays
            assert finite.coeffs.get(0, Fraction(0)) == simplex_integral(rates)
            assert all(a > 0 for a in finite.coeffs if a != 0)


def test_zero_rate_rejected():
    with pytest.raises(DomainError):
        simplex_integral((1, 0))
