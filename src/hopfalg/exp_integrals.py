"""Exact iterated integrals of exponential sums over ordered simplices.

Values are finite sums  sum_a c_a e^(-a s)  with non-negative integer rates
and rational coefficients, closed under the two operations the simplex
recursion needs: multiplying by e^(-k s) and integrating from 0 to the next
outer variable (or to infinity / to a final time t at the outermost step).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence

from .errors import DomainError


class ExpSum:
    """sum_a coeffs[a] * e^(-a * s), keyed by the decay rate a >= 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, Fraction]):
        self.coeffs = {a: c for a, c in coeffs.items() if c != 0}
        if any(a < 0 for a in self.coeffs):
            raise DomainError("exponential rates must be non-negative")

    @staticmethod
    def one() -> "ExpSum":
        return ExpSum({0: Fraction(1)})

    @staticmethod
    def zero() -> "ExpSum":
        return ExpSum({})

    def shift(self, k: int) -> "ExpSum":
        """Multiply by e^(-k s)."""
        return ExpSum({a + k: c for a, c in self.coeffs.items()})

    def __add__(self, other: "ExpSum") -> "ExpSum":
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, Fraction(0)) + c
        return ExpSum(out)

    def scale(self, q: Fraction) -> "ExpSum":
        return ExpSum({a: q * c for a, c in self.coeffs.items()})

    def integrate_to_variable(self) -> "ExpSum":
        """int_0^S of the sum, as an exponential sum in the upper bound S.

        Each e^(-a s) with a >= 1 integrates to (1 - e^(-a S)) / a; a
        constant term would leave a polynomial factor, which never occurs in
        the simplex recursion and is rejected.
        """
        out: Dict[int, Fraction] = {}
        for a, c in self.coeffs.items():
            if a == 0:
                raise DomainError(
                    "constant term under a variable-bound integral would "
                    "leave a non-exponential factor"
                )
            q = Fraction(c, a)
            out[0] = out.get(0, Fraction(0)) + q
            out[a] = out.get(a, Fraction(0)) - q
        return ExpSum(out)

    def integrate_to_infinity(self) -> Fraction:
        total = Fraction(0)
        for a, c in self.coeffs.items():
            if a == 0:
                raise DomainError("the integral to infinity of a constant diverges")
            total += Fraction(c, a)
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpSum) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for a in sorted(self.coeffs):
            c = self.coeffs[a]
            parts.append(str(c) if a == 0 else f"{c}*e^(-{a}t)")
        return " + ".join(parts)


def _simplex_core(rates: Sequence[int]) -> ExpSum:
    # Innermost to outermost: multiply by the stage exponential, integrate to
    # the next variable; the caller finishes the outermost integral.
    combo = ExpSum.one()
    for i in range(len(rates) - 1, 0, -1):
        combo = combo.shift(rates[i]).integrate_to_variable()
    return combo.shift(rates[0])


def simplex_integral(rates: Sequence[int]) -> Fraction:
    """int over s_1 >= ... >= s_n >= 0 of prod_i e^(-rates[i] s_i), exactly."""
    if not rates:
        return Fraction(1)
    if any(k < 1 for k in rates):
        raise DomainError("simplex integral needs strictly positive rates")
    return _simplex_core(rates).integrate_to_infinity()


def finite_simplex_integral(rates: Sequence[int]) -> ExpSum:
    """Same integral bounded by t >= s_1: an exponential sum in t.

    Its constant term is the t -> infinity limit; every other term decays.
    """
    if not rates:
        return ExpSum.one()
    if any(k < 1 for k in rates):
        raise DomainError("simplex integral needs strictly positive rates")
    return _simplex_core(rates).integrate_to_variable()
