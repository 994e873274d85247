"""Q[t]: dense polynomials over the rationals in one formal variable.

The scale flow of ``rg.rg_limit_check`` (run by ``rg-check`` and ``verify``)
is a Laurent series in eps over Q[t]; nothing else computes in it.  The
flow's checks read its t-coefficient tables over Q, so no polynomial ring
is ever built over another base.
"""

from __future__ import annotations

from math import lcm

from .errors import HopfError, UnsupportedRingError
from .rationals import QQ, RationalField, Ring, _canonical, _over, format_rational


def _strip(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class PolynomialRing(Ring):
    """Q[t] in the variable ``var``; any base other than Q raises.

    Values are tuples of int or Fraction coefficients indexed by exponent,
    with trailing zeros stripped (canonical form); () is the zero polynomial.
    Products run in the integer kernel of ``convolve_operands``.
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
            out[k] += c
        return _strip(out)

    def neg(self, a):
        return tuple(-c for c in a)

    def scale(self, q, a):
        return tuple(_canonical(q * c) for c in a) if q else ()

    def operand(self, ps):
        """ps over one common denominator: (d, ((exponent, length,
        ((t-exponent, integer numerator), ...)), ...)) without the zero
        coefficients."""
        d = lcm(*(v.denominator for _, p in ps for v in p))
        return d, tuple((i, len(p), tuple((a, v.numerator * (d // v.denominator)) for a, v in enumerate(p) if v))
                        for i, p in ps)

    def convolve(self, terms, n):
        """Ring.convolve in integers, on the operand form of each list."""
        return self.convolve_operands([(c, self.operand(xs), self.operand(ys)) for c, xs, ys in terms], n)

    def convolve_operands(self, terms, n):
        """The integer loop: all triples over the lcm of their denominators,
        plain-int sums in one row per series exponent indexed by t-exponent,
        and one canonical value per output coefficient."""
        d = lcm(*(c.denominator * dx * dy for c, (dx, _), (dy, _) in terms))
        rows = {}
        for c, (dx, xs), (dy, ys) in terms:
            f = c.numerator * (d // (c.denominator * dx * dy))
            if not f:
                continue
            for i, lx, px in xs:
                if not px:
                    continue
                if f != 1:
                    px = [(a, f * x) for a, x in px]
                for j, ly, py in ys:
                    k = i + j
                    if k >= n:
                        break
                    row = rows.get(k)
                    if row is None:
                        row = rows[k] = []
                    top = lx + ly - 1
                    if len(row) < top:
                        row.extend([0] * (top - len(row)))
                    for a, x in px:
                        for b, y in py:
                            row[a + b] += x * y
        if d == 1:
            return {k: _strip(row) for k, row in rows.items()}
        return {k: _strip([_over(v, d) for v in row]) for k, row in rows.items()}

    def mul(self, a, b):
        return self.dot([(1, a, b)])

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
