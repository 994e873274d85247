"""The exact exponential-sum integrator behind the simplex weights."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from hopfalg.errors import DomainError
from hopfalg.exp_integrals import finite_simplex_integral


def test_empty_simplex_is_one():
    assert finite_simplex_integral(()) == {0: Fraction(1)}


def test_single_rate_integral():
    # int_0^t e^(-k s) ds = 1/k - e^(-k t)/k
    for k in range(1, 6):
        assert finite_simplex_integral((k,)) == {0: Fraction(1, k), k: Fraction(-1, k)}


def test_nested_integral_closed_form():
    # int over s1 >= s2 >= 0 of e^(-k1 s1 - k2 s2) = 1/(k2 (k1 + k2))?  No:
    # substitute u2 = s2, u1 = s1 - s2; the rates accumulate outer-to-inner,
    # giving 1/(k1 (k1 + k2)) in the t -> infinity limit.
    for k1, k2 in iproduct((1, 2, 3), repeat=2):
        assert finite_simplex_integral((k1, k2))[0] == Fraction(1, k1) * Fraction(1, k1 + k2)


def test_finite_limit_matches_infinite():
    for n in range(1, 5):
        for rates in iproduct((1, 2), repeat=n):
            finite = finite_simplex_integral(rates)
            # the constant term is the limit; the rest decays, and at t = 0
            # the simplex is a point
            assert all(c != 0 for c in finite.values()) and all(a > 0 for a in finite if a != 0)
            assert sum(finite.values()) == 0
            # the limit is int_0^oo e^(-k s) (inner integral up to s) ds
            inner = finite_simplex_integral(rates[1:])
            assert finite[0] == sum(c / (a + rates[0]) for a, c in inner.items())


def test_zero_rate_rejected():
    with pytest.raises(DomainError):
        finite_simplex_integral((1, 0))
