"""Q[t]: the value type of the scale flow.

The witnesses and flow entries of ``rg.rg_limit_check`` (run by
``rg-check`` and ``verify``) are polynomials in t, read by ``coefficient``
and written by ``format_value`` and ``value_to_json``.  The flow itself is
computed over Q and checked on its t-coefficient tables over Q, so nothing
adds, scales or compares polynomials: this is not a ``Ring``.
"""

from __future__ import annotations

from .rationals import _canonical, format_rational


class PolynomialRing:
    """Polynomials in t over Q.

    Values are tuples of int or Fraction coefficients indexed by exponent,
    each an int when it is integral, with trailing zeros stripped (canonical
    form); () is the zero polynomial.
    """

    var = "t"

    def coefficient(self, p, k: int):
        if 0 <= k < len(p):
            return p[k]
        return 0

    def mul(self, a, b):
        """The schoolbook product, in canonical form."""
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        while out and not out[-1]:
            out.pop()
        return tuple(_canonical(v) for v in out)

    def value_to_json(self, a):
        return [format_rational(c) for c in a]

    def format_value(self, a):
        if not a:
            return "0"
        parts = []
        for k, c in enumerate(a):
            if not c:
                continue
            cs = format_rational(c)
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*{self.var}" if cs != "1" else self.var)
            else:
                head = f"{cs}*" if cs != "1" else ""
                parts.append(f"{head}{self.var}^{k}")
        return " + ".join(parts)


# The flow's one value type.
POLY_T = PolynomialRing()
