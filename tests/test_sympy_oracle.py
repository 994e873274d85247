"""Laurent exp and invert_unit against sympy's series expansion, and the
finite-time simplex integral against sympy's iterated integral.

sympy expands and integrates the same functions by its own algorithms, so
agreement here is independent of the ring's Maclaurin and geometric-series
loops and of the integrator's recursion.  It is a development dependency only.
"""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from hopfalg.exp_integrals import finite_simplex_integral
from hopfalg.hopf import theta_factors
from hopfalg.rg import simplex_weight
from hopfalg.rings import EPS_RING

sympy = pytest.importorskip("sympy")

Z = sympy.Symbol("z")
L = EPS_RING


def as_sympy(a):
    return sum(sympy.Rational(c.numerator, c.denominator) * Z**k for k, c in a.coeffs)


def assert_matches_series(got, expr, low, high):
    """Every coefficient of ``got`` from z^low through z^high equals sympy's."""
    expansion = sympy.series(expr, Z, 0, high + 1).removeO()
    for k in range(low, high + 1):
        expected = sympy.Rational(expansion.coeff(Z, k))
        value = L.coefficient(got, k)
        assert sympy.Rational(value.numerator, value.denominator) == expected, (k, value, expected)


def test_theta_factors_match_sympy_exp():
    order = 4
    factors = theta_factors(L, L.monomial(1, trunc=order), 8)
    assert len(factors) == 9
    for n, factor in enumerate(factors):
        assert factor.trunc == order
        assert_matches_series(factor, sympy.exp(n * Z), 0, order)


@pytest.mark.parametrize(
    "coeffs, to_order",
    [
        ({0: 1, 1: 1}, 6),
        ({-1: 2, 0: 3, 1: 1}, 5),
        ({-2: Fraction(1, 3), 1: -4, 3: Fraction(5, 2)}, 4),
    ],
)
def test_invert_exact_series_matches_sympy(coeffs, to_order):
    a = L.make({k: Fraction(v) for k, v in coeffs.items()}, None)
    inverse = L.invert_unit(a, to_order=to_order)
    assert inverse.trunc == to_order
    assert_matches_series(inverse, 1 / as_sympy(a), -a.min_exp(), to_order)


@pytest.mark.parametrize(
    "coeffs, trunc",
    [
        ({0: 2, 2: -1}, 5),
        ({-1: 1, 0: Fraction(1, 2), 2: 7}, 3),
        ({1: -3, 2: 1}, 6),
    ],
)
def test_invert_truncated_series_matches_sympy(coeffs, trunc):
    # Unknown terms above the truncation cannot reach the sound window of the
    # inverse, so the exactly known part stands in for the series.
    a = L.make({k: Fraction(v) for k, v in coeffs.items()}, trunc)
    v = a.min_exp()
    inverse = L.invert_unit(a)
    assert inverse.trunc == trunc - 2 * v
    assert_matches_series(inverse, 1 / as_sympy(a), -v, inverse.trunc)


SIMPLEX_RATES = [r for n in (1, 2, 3) for r in iproduct((1, 2), repeat=n)] + [(3, 1, 2), (1, 3)]


def as_exponential_sum(expr, t):
    """{a: c} for an expression that expands to sum_a c e^(-a t)."""
    out = {}
    for term in sympy.Add.make_args(sympy.powsimp(sympy.expand(expr))):
        c, e = term.as_independent(t, as_Add=False)
        a = sympy.Integer(0) if e == 1 else -e.exp / t
        assert c.is_Rational and a.is_Integer, term
        out[int(a)] = out.get(int(a), 0) + Fraction(int(c.p), int(c.q))
    return {a: c for a, c in out.items() if c != 0}


@pytest.mark.parametrize("rates", SIMPLEX_RATES, ids=lambda r: ",".join(map(str, r)))
def test_finite_simplex_integral_matches_sympy(rates):
    # int_0^t ds_1 e^(-k_1 s_1) int_0^(s_1) ds_2 e^(-k_2 s_2) ... , innermost first
    t = sympy.Symbol("t", positive=True)
    s = [sympy.Symbol(f"s{i}", positive=True) for i in range(len(rates))]
    bounds = [t] + s[:-1]
    expr = sympy.Integer(1)
    for i in reversed(range(len(rates))):
        expr = sympy.integrate(sympy.exp(-rates[i] * s[i]) * expr, (s[i], 0, bounds[i]))
    expected = as_exponential_sum(expr, t)
    assert finite_simplex_integral(rates) == expected
    # the closed-form weight is the t -> infinity limit
    assert simplex_weight(rates) == expected[0]
