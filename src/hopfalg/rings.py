"""Exact coefficient rings: rationals, formal polynomials, truncated Laurent series.

Every ring is a commutative unital Q-algebra with decidable, canonical
equality.  Values are plain immutable data (int or Fraction, tuples,
slotted ``Frozen`` objects); the ring object knows how to combine them.  No
floating point anywhere: division is exact.  Exact sums of products run in
integers over one common denominator and build one Fraction per result; over
Q, ``dot`` is that sum directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import (
    DomainError,
    HopfError,
    SingularInputError,
    TruncationError,
    UnsupportedRingError,
)


class Frozen:
    """Slotted objects whose attributes are set once, at construction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


def parse_rational(text: str) -> Fraction:
    """Parse a rational from its decimal-string form "p" or "p/q"."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise HopfError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Ring:
    """Commutative unital ring interface. Subclasses supply exact operations."""

    tag = "ring"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    def from_rational(self, q: Fraction):
        raise NotImplementedError

    def scale(self, q: Fraction, a):
        """Multiply by a rational scalar (every ring here is a Q-algebra)."""
        return self.mul(self.from_rational(q), a)

    def operand(self, xs):
        """A sparse (exponent, coefficient) list in the form ``convolve_operands``
        reads: the list itself here.  Rings with an integer kernel convert it,
        and a value that enters many products keeps its form (see
        ``LaurentSeries.operand``), so it is converted once."""
        return xs

    def convolve(self, terms, n: int) -> dict:
        """The ring's one product kernel: the sum of c xs ys over the (c, xs, ys)
        triples of ``terms`` below exponent n, c a rational scalar and xs, ys
        sparse (exponent, coefficient) lists with increasing exponents.

        The result maps every exponent below n that a product reaches to its
        coefficient, which may be zero; work and memory follow the stored
        terms, not the exponent range.
        """
        out = {}
        for c, xs, ys in terms:
            for i, x in xs:
                x = x if c == 1 else self.scale(c, x)
                if self.is_zero(x):
                    continue
                for j, y in ys:
                    k = i + j
                    if k >= n:
                        break
                    cur = out.get(k)
                    out[k] = self.mul(x, y) if cur is None else self.add(cur, self.mul(x, y))
        return out

    def convolve_operands(self, terms, n: int) -> dict:
        """``convolve`` on triples whose lists are already in ``operand`` form."""
        return self.convolve(terms, n)

    def dot(self, terms):
        """The sum of c x y over (c, x, y) triples: the kernel at exponent 0."""
        out = self.convolve([(c, ((0, x),), ((0, y),)) for c, x, y in terms], 1)
        return out.get(0, self.zero())

    def value_to_json(self, a):
        raise NotImplementedError

    def value_from_json(self, data):
        raise NotImplementedError

    def format_value(self, a) -> str:
        raise NotImplementedError


# Fractions are immutable, so zero() and one() share these two.
_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalField(Ring):
    """The field of exact rationals; values are int or fractions.Fraction.

    The ring's own operations return Fractions (``from_rational`` returns a
    Fraction argument itself); structure constants that are integers stay
    ints (see ``hopf.HopfAlgebra``), and Python's mixed int/Fraction
    arithmetic keeps every result exact and equal-comparable.
    """

    tag = "rational"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return not a

    def from_rational(self, q):
        return q if q.__class__ is Fraction else Fraction(q)

    def scale(self, q, a):
        return q * a

    def operand(self, xs):
        """xs over one common denominator: (d, ((exponent, integer numerator), ...))."""
        d = lcm(*(x.denominator for _, x in xs))
        return d, tuple((i, x.numerator * (d // x.denominator)) for i, x in xs)

    def convolve(self, terms, n):
        """Ring.convolve in integers, on the operand form of each list."""
        return self.convolve_operands([(c, self.operand(xs), self.operand(ys)) for c, xs, ys in terms], n)

    def convolve_operands(self, terms, n):
        """The integer loop: all triples over the lcm of their denominators,
        one Fraction per output exponent."""
        d = lcm(*(c.denominator * dx * dy for c, (dx, _), (dy, _) in terms))
        out = {}
        for c, (dx, xs), (dy, ys) in terms:
            f = c.numerator * (d // (c.denominator * dx * dy))
            for i, x in xs:
                x *= f
                if x:
                    for j, y in ys:
                        k = i + j
                        if k >= n:
                            break
                        out[k] = out.get(k, 0) + x * y
        if d == 1:
            return {k: Fraction(v) for k, v in out.items()}
        return {k: Fraction(v, d) for k, v in out.items()}

    def dot(self, terms):
        """Ring.dot in integers: each c x y over the lcm of the triples'
        denominators, summed as a plain int, and one Fraction for the sum.
        c, x and y may each be an int or a Fraction."""
        dens = [c.denominator * x.denominator * y.denominator for c, x, y in terms]
        d = lcm(*dens)
        total = 0
        for (c, x, y), e in zip(terms, dens):
            total += c.numerator * x.numerator * y.numerator * (d // e)
        return Fraction(total) if d == 1 else Fraction(total, d)

    def invert(self, a):
        if a == 0:
            raise SingularInputError("division by zero in the rational field")
        return _ONE / a

    def value_to_json(self, a):
        return format_rational(a)

    def value_from_json(self, data):
        if not isinstance(data, str):
            raise HopfError(f"rational values are encoded as strings, got {data!r}")
        return parse_rational(data)

    def format_value(self, a):
        return format_rational(a)


QQ = RationalField()


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

    def degree(self, p) -> int:
        return len(p) - 1  # -1 for the zero polynomial

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
        by t-exponent, and one Fraction per output coefficient."""
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
        zero = self.base.zero()
        return {k: _strip([Fraction(v, d) if v else zero for v in row], self.base) for k, row in rows.items()}

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

    def from_rational(self, q):
        return self.constant(self.base.from_rational(q))

    def evaluate(self, p, x):
        """Evaluate at a base-ring point, Horner style."""
        acc = self.base.zero()
        for c in reversed(p):
            acc = self.base.add(self.base.mul(acc, x), c)
        return acc

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


class LaurentSeries(Frozen):
    """A truncated Laurent series value.

    ``coeffs`` maps exponent -> base-ring value, with no zero entries and no
    entries above ``trunc``.  ``trunc`` is the last exponent whose coefficient
    is known (inclusive); ``None`` means the series is exactly known (a
    Laurent polynomial). Coefficients below the smallest stored exponent are
    known to be zero; coefficients above ``trunc`` are unknown, never assumed.
    Equality and hash are on (coeffs, trunc) only.
    """

    # _operand: (base ring, coeffs in its operand form), built by the first
    # product the series enters: table values enter hundreds of them.
    __slots__ = ("coeffs", "trunc", "_operand")

    def __init__(self, coeffs: tuple, trunc: Optional[int]):
        object.__setattr__(self, "coeffs", coeffs)  # sorted tuple of (exponent, value)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_operand", None)

    def __eq__(self, other):
        if other.__class__ is not LaurentSeries:
            return NotImplemented
        return self.coeffs == other.coeffs and self.trunc == other.trunc

    def __hash__(self):
        return hash((self.coeffs, self.trunc))

    def __repr__(self):
        return f"LaurentSeries(coeffs={self.coeffs!r}, trunc={self.trunc!r})"

    def __reduce__(self):
        return (LaurentSeries, (self.coeffs, self.trunc))

    def min_exp(self) -> Optional[int]:
        return self.coeffs[0][0] if self.coeffs else None

    def operand(self, base: Ring):
        """The coefficients in ``base.operand`` form, built once per series and base ring."""
        memo = self._operand
        if memo is None or memo[0] is not base:
            memo = (base, base.operand(self.coeffs))
            object.__setattr__(self, "_operand", memo)
        return memo[1]

    def as_dict(self) -> dict:
        return dict(self.coeffs)


def _min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LaurentRing(Ring):
    """Truncated Laurent series in one variable, with a pole of finite order.

    Arithmetic propagates the tightest sound truncation bound: no operation
    ever reports a coefficient that discarded high-order terms could pollute.
    """

    def __init__(self, base: Ring, var: str = "eps"):
        self.base = base
        self.var = var
        if base is QQ and var == "eps":
            self.tag = "laurent"
        else:
            self.tag = f"laurent[{var}]:{base.tag}"

    # -- construction ------------------------------------------------------

    def make(self, coeffs: dict, trunc: Optional[int]) -> LaurentSeries:
        """Canonicalize: drop zero values and anything beyond the truncation."""
        items = []
        for k, v in coeffs.items():
            if trunc is not None and k > trunc:
                continue
            if not self.base.is_zero(v):
                items.append((k, v))
        items.sort()
        return LaurentSeries(tuple(items), trunc)

    def monomial(self, exp: int, coeff=None, trunc: Optional[int] = None) -> LaurentSeries:
        if coeff is None:
            coeff = self.base.one()
        return self.make({exp: coeff}, trunc)

    def zero(self):
        return LaurentSeries((), None)

    def one(self):
        return self.monomial(0)

    def from_rational(self, q):
        if q == 0:
            return self.zero()
        return self.monomial(0, self.base.from_rational(q))

    # -- queries -----------------------------------------------------------

    def coefficient(self, a: LaurentSeries, k: int):
        """The exponent-k coefficient; asking beyond the sound bound raises."""
        if a.trunc is not None and k > a.trunc:
            raise TruncationError(
                f"coefficient of {self.var}^{k} requested but the series is "
                f"only sound through order {a.trunc}",
                required_order=k,
            )
        for exp, v in a.coeffs:
            if exp == k:
                return v
        return self.base.zero()

    def pole_order(self, a: LaurentSeries) -> int:
        """max(0, -valuation): 0 for series with no negative exponents."""
        m = a.min_exp()
        return max(0, -m) if m is not None else 0

    # -- arithmetic --------------------------------------------------------

    def add(self, a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
        out = dict(a.coeffs)
        for k, v in b.coeffs:
            cur = out.get(k)
            out[k] = v if cur is None else self.base.add(cur, v)
        return self.make(out, _min_trunc(a.trunc, b.trunc))

    def neg(self, a: LaurentSeries) -> LaurentSeries:
        return LaurentSeries(tuple((k, self.base.neg(v)) for k, v in a.coeffs), a.trunc)

    def _pollution_floor(self, a: LaurentSeries, b: LaurentSeries) -> Optional[int]:
        # Smallest exponent of a*b that an unknown coefficient of a could touch.
        if a.trunc is None:
            return None
        b_floor = b.min_exp()
        if b.trunc is not None:
            b_floor = b.trunc + 1 if b_floor is None else min(b_floor, b.trunc + 1)
        if b_floor is None:
            return None  # b is exactly zero
        return a.trunc + 1 + b_floor

    def dot(self, terms) -> LaurentSeries:
        """Sum of c a b over (c, a, b) triples, in one base-ring convolve, on
        the narrowest sound window of any one product (empty and zero operands
        included): exactly as sound as adding the products one at a time."""
        floors = [f for _, a, b in terms for f in (self._pollution_floor(a, b), self._pollution_floor(b, a))
                  if f is not None]
        trunc = min(floors) - 1 if floors else None
        tops = [a.coeffs[-1][0] + b.coeffs[-1][0] for _, a, b in terms if a.coeffs and b.coeffs]
        n = (max(tops, default=0) if trunc is None else trunc) + 1
        base = self.base
        out = base.convolve_operands([(c, a.operand(base), b.operand(base)) for c, a, b in terms], n)
        is_zero = base.is_zero
        return LaurentSeries(tuple((k, v) for k, v in sorted(out.items()) if not is_zero(v)), trunc)

    def mul(self, a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
        return self.dot([(1, a, b)])

    def eq(self, a: LaurentSeries, b: LaurentSeries) -> bool:
        """Agreement on the common sound window.  With equal truncations that
        window holds every stored coefficient, and canonical series agree on
        it exactly when their coefficient tuples are equal."""
        if a.trunc == b.trunc:
            return a.coeffs == b.coeffs
        w = _min_trunc(a.trunc, b.trunc)
        da, db = a.as_dict(), b.as_dict()
        for k in set(da) | set(db):
            if w is not None and k > w:
                continue
            va = da.get(k, self.base.zero())
            vb = db.get(k, self.base.zero())
            if not self.base.eq(va, vb):
                return False
        return True

    def is_zero(self, a: LaurentSeries) -> bool:
        return not a.coeffs

    def invert_unit(self, a: LaurentSeries, to_order: Optional[int] = None) -> LaurentSeries:
        """Invert a series whose lowest-order coefficient is a unit.

        For an exactly-known input with several terms, ``to_order`` must say
        how far to expand the geometric series; truncated inputs default to
        their sound relative precision.
        """
        if not a.coeffs:
            raise SingularInputError("cannot invert the zero series")
        v = a.min_exp()
        lead = a.coeffs[0][1]
        try:
            lead_inv = self.base.invert(lead)
        except AttributeError:
            raise UnsupportedRingError(
                "series inversion needs an invertible leading coefficient; "
                f"the base ring {self.base.tag} does not support inversion"
            ) from None
        # a = lead * x^v * (1 + u) with u of strictly positive valuation.
        u = {}
        for k, c in a.coeffs[1:]:
            u[k - v] = self.base.mul(lead_inv, c)
        if not u:
            out_trunc = None if a.trunc is None else a.trunc - 2 * v
            return self.make({-v: lead_inv}, out_trunc)
        if a.trunc is not None:
            rel = a.trunc - v
            out_trunc = -v + rel
        else:
            if to_order is None:
                raise TruncationError(
                    "inverting an exact multi-term series needs an explicit "
                    "expansion order (to_order)"
                )
            rel = to_order + v
            out_trunc = to_order
        # Geometric series sum_{j} (-u)^j through relative order rel.
        u_series = self.make(u, rel)
        acc = self.make({0: self.base.one()}, rel)
        term = self.make({0: self.base.one()}, rel)
        for _ in range(rel):
            term = self.mul(term, self.neg(u_series))
            if self.is_zero(term):
                break
            acc = self.add(acc, term)
        shifted = {k - v: self.base.mul(lead_inv, c) for k, c in acc.coeffs}
        return self.make(shifted, out_trunc)

    def exp(self, a: LaurentSeries) -> LaurentSeries:
        """exp of a series of strictly positive valuation (the sum truncates).

        Exact inputs must still carry a finite truncation so the Maclaurin
        series has a stopping order.
        """
        if a.coeffs and a.min_exp() <= 0:
            raise DomainError(
                "exp is only defined for series of strictly positive valuation"
            )
        if a.trunc is None:
            raise TruncationError("exp of an exact series needs a finite truncation order")
        order = a.trunc
        acc = self.make({0: self.base.one()}, order)
        term = self.make({0: self.base.one()}, order)
        k = 0
        while True:
            k += 1
            if a.coeffs and k * a.min_exp() > order:
                break
            if not a.coeffs:
                break
            term = self.mul(term, a)
            term = self.scale(Fraction(1, k), term)
            if self.is_zero(term):
                break
            acc = self.add(acc, term)
        return acc

    def scale(self, q: Fraction, a: LaurentSeries) -> LaurentSeries:
        if q == 0:
            return LaurentSeries((), a.trunc)
        if q == 1:
            return a
        return LaurentSeries(
            tuple((k, self.base.scale(q, v)) for k, v in a.coeffs), a.trunc
        )

    # -- the minimal-subtraction split --------------------------------------

    def pole_part(self, a: LaurentSeries) -> LaurentSeries:
        """Strictly negative exponents; always exactly known."""
        if a.trunc is not None and a.trunc < -1:
            raise TruncationError(
                "pole part is not fully determined: series sound only through "
                f"order {a.trunc}",
                required_order=-1,
            )
        return LaurentSeries(tuple((k, v) for k, v in a.coeffs if k < 0), None)

    def regular_part(self, a: LaurentSeries) -> LaurentSeries:
        """Exponents >= 0, keeping the input's truncation bound."""
        return LaurentSeries(tuple((k, v) for k, v in a.coeffs if k >= 0), a.trunc)

    # -- encoding ------------------------------------------------------------

    def value_to_json(self, a: LaurentSeries):
        m = a.min_exp()
        return {
            "minExp": m if m is not None else 0,
            "truncation": a.trunc,
            "coeffs": {str(k): self.base.value_to_json(v) for k, v in a.coeffs},
        }

    def value_from_json(self, data):
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), dict):
            raise HopfError(f"not a Laurent series encoding: {data!r}")
        trunc = data.get("truncation")
        if trunc is not None and not isinstance(trunc, int):
            raise HopfError(f"truncation must be an integer or null, got {trunc!r}")
        min_exp = data.get("minExp")
        if min_exp is not None and not isinstance(min_exp, int):
            raise HopfError(f"minExp must be an integer or null, got {min_exp!r}")
        coeffs = {}
        for key, val in data["coeffs"].items():
            try:
                k = int(key)
            except ValueError:
                raise HopfError(f"Laurent exponents must be integers, got {key!r}") from None
            if min_exp is not None and k < min_exp:
                raise HopfError(f"stored exponent {k} below declared minExp {min_exp}")
            if trunc is not None and k > trunc:
                raise HopfError(f"stored exponent {k} above truncation order {trunc}")
            coeffs[k] = self.base.value_from_json(val)
        return self.make(coeffs, trunc)

    def format_value(self, a: LaurentSeries) -> str:
        if not a.coeffs:
            return "0"
        parts = []
        for k, v in a.coeffs:
            vs = self.base.format_value(v)
            if k == 0:
                parts.append(vs)
            else:
                pow_s = self.var if k == 1 else f"{self.var}^{k}"
                parts.append(f"{vs}*{pow_s}" if vs != "1" else pow_s)
        return " + ".join(parts)
