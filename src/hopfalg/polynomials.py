"""Q[t]: dense polynomials over the rationals in one formal variable.

The value type of the scale flow of ``rg.rg_limit_check`` (run by
``rg-check`` and ``verify``): its witnesses and flow entries are
polynomials in t, written by ``format_value`` and ``value_to_json``.  The
flow itself is computed over Q, and the flow's checks read its
t-coefficient tables over Q, so no series is ever built over Q[t].
"""

from __future__ import annotations

from .errors import HopfError, UnsupportedRingError
from .rationals import QQ, RationalField, Ring, _canonical, format_rational


def _strip(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class PolynomialRing(Ring):
    """Q[t] in the variable ``var``; any base other than Q raises.

    Values are tuples of int or Fraction coefficients indexed by exponent,
    each an int when it is integral, with trailing zeros stripped (canonical
    form); () is the zero polynomial.
    """

    def __init__(self, base: Ring, var: str):
        if not isinstance(base, RationalField):
            raise UnsupportedRingError(f"polynomials are over Q only, not over {base.tag}")
        self.base = base
        self.var = var
        self.tag = f"poly[{var}]:{base.tag}"

    def zero(self):
        return ()

    def one(self):
        return (QQ.one(),)

    def constant(self, c):
        return (c,) if c else ()

    def variable(self):
        return (QQ.zero(), QQ.one())

    def monomial(self, k: int, c):
        if k < 0:
            raise HopfError("polynomial exponents are non-negative")
        return (0,) * k + (c,) if c else ()

    def coefficient(self, p, k: int):
        if 0 <= k < len(p):
            return p[k]
        return 0

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = _canonical(out[k] + c)
        return _strip(out)

    def neg(self, a):
        return tuple(-c for c in a)

    def scale(self, q, a):
        return tuple(_canonical(q * c) for c in a) if q else ()

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _strip([_canonical(v) for v in out])

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return not a

    is_exact_zero = is_zero

    def from_rational(self, q):
        return self.constant(QQ.from_rational(q))

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
