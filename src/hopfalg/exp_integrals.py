"""The exact finite-time integral of exponentials over an ordered simplex.

Values are finite sums  sum_a c_a e^(-a t)  with non-negative integer rates
and rational coefficients, kept as a dict {a: c_a} without zero coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence

from .errors import DomainError


def finite_simplex_integral(rates: Sequence[int]) -> Dict[int, Fraction]:
    """int over t >= s_1 >= ... >= s_n >= 0 of prod_i e^(-rates[i] s_i), exactly,
    as {a: c} for the sum  sum_a c e^(-a t).

    Its constant term is the t -> infinity limit; every other term decays.
    Innermost first, each rate k multiplies the running sum by e^(-k s) and
    integrates it from 0 to the next outer variable S:  c e^(-a s) becomes
    c/(a + k) (1 - e^(-(a + k) S)).
    """
    if any(k < 1 for k in rates):
        raise DomainError("simplex integral needs strictly positive rates")
    combo = {0: Fraction(1)}
    for k in reversed(rates):
        out: Dict[int, Fraction] = {}
        for a, c in combo.items():
            q = c / (a + k)
            out[0] = out.get(0, 0) + q
            out[a + k] = out.get(a + k, 0) - q
        combo = {a: c for a, c in out.items() if c != 0}
    return combo
