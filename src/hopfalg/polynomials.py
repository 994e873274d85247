"""Dense polynomials in one formal variable over a base ring.

Q[t] carries the scale flow of ``rg.rg_limit_check`` (run by ``rg-check`` and
``verify``), and Q[t][s] its additivity check; nothing else computes in them.
"""

from __future__ import annotations

from math import lcm

from .errors import HopfError
from .rationals import RationalField, Ring, _over


def _strip(coeffs, base: Ring):
    while coeffs and base.is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


class PolynomialRing(Ring):
    """Dense polynomials in one formal variable over a base ring.

    Values are tuples of base-ring coefficients indexed by exponent, with
    trailing zeros stripped (canonical form); () is the zero polynomial.
    """

    def __init__(self, base: Ring, var: str):
        self.base = base
        self.var = var
        self.tag = f"poly[{var}]:{base.tag}"
        self.integral = isinstance(base, RationalField)  # the integer kernel applies

    def zero(self):
        return ()

    def one(self):
        return (self.base.one(),)

    def constant(self, c):
        coeffs = [c]
        return _strip(coeffs, self.base)

    def variable(self):
        return (self.base.zero(), self.base.one())

    def monomial(self, k: int, c):
        if k < 0:
            raise HopfError("polynomial exponents are non-negative")
        coeffs = [self.base.zero()] * k + [c]
        return _strip(coeffs, self.base)

    def coefficient(self, p, k: int):
        if 0 <= k < len(p):
            return p[k]
        return self.base.zero()

    def add(self, a, b):
        n = max(len(a), len(b))
        out = []
        for k in range(n):
            out.append(self.base.add(self.coefficient(a, k), self.coefficient(b, k)))
        return _strip(out, self.base)

    def neg(self, a):
        return tuple(self.base.neg(c) for c in a)

    def operand(self, ps):
        """Over a Q base, ps over one common denominator: (d, ((exponent, length,
        ((t-exponent, integer numerator), ...)), ...)) without the zero
        coefficients.  Other bases keep the list."""
        if not self.integral:
            return ps
        d = lcm(*(v.denominator for _, p in ps for v in p))
        return d, tuple((i, len(p), tuple((a, v.numerator * (d // v.denominator)) for a, v in enumerate(p) if v))
                        for i, p in ps)

    def convolve(self, terms, n):
        """Over a Q base, Ring.convolve in integers, on the operand form of
        each list.  Other bases take the generic body."""
        if not self.integral:
            return super().convolve(terms, n)
        return self.convolve_operands([(c, self.operand(xs), self.operand(ys)) for c, xs, ys in terms], n)

    def convolve_operands(self, terms, n):
        """The integer loop over a Q base: all triples over the lcm of their
        denominators, plain-int sums in one row per series exponent indexed
        by t-exponent, and one canonical value per output coefficient."""
        if not self.integral:
            return super().convolve(terms, n)
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
            return {k: _strip(row, self.base) for k, row in rows.items()}
        return {k: _strip([_over(v, d) for v in row], self.base) for k, row in rows.items()}

    def dot(self, terms):
        """Sum of c a b over (c, a, b) triples, in one base-ring convolve."""
        n = max((len(a) + len(b) - 1 for _, a, b in terms if a and b), default=0)
        out = self.base.convolve([(c, tuple(enumerate(a)), tuple(enumerate(b))) for c, a, b in terms], n)
        zero = self.base.zero()
        return _strip([out.get(k, zero) for k in range(n)], self.base)

    def mul(self, a, b):
        return self.dot([(1, a, b)])

    def eq(self, a, b):
        return len(a) == len(b) and all(
            self.base.eq(x, y) for x, y in zip(a, b)
        )

    def is_zero(self, a):
        return not a

    is_exact_zero = is_zero

    def from_rational(self, q):
        return self.constant(self.base.from_rational(q))

    def value_to_json(self, a):
        return [self.base.value_to_json(c) for c in a]

    def value_from_json(self, data):
        if not isinstance(data, list):
            raise HopfError(f"polynomial values are encoded as lists, got {data!r}")
        return _strip([self.base.value_from_json(c) for c in data], self.base)

    def format_value(self, a):
        if not a:
            return "0"
        parts = []
        for k, c in enumerate(a):
            if self.base.is_zero(c):
                continue
            cs = self.base.format_value(c)
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*{self.var}" if cs != "1" else self.var)
            else:
                head = f"{cs}*" if cs != "1" else ""
                parts.append(f"{head}{self.var}^{k}")
        return " + ".join(parts)
