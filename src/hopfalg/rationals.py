"""The exact-rational core, all that a schema context and a Q-valued command
run on: the ring interface, the field Q of int and Fraction values, never
floats, and the one grammar of every number an input spells.  Sums of products
run in integers over one common denominator, and a result is an int when it is
integral.  The series rings are in ``rings``."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm

from .errors import DomainError, HopfError, SingularInputError, quoted


class Frozen:
    """Slotted objects whose attributes are set once, at construction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


def is_json_int(value) -> bool:
    """Whether a decoded JSON value is an integer; ``true`` is a ``bool``, not 1."""
    return value.__class__ is int


# The one grammar of every number an input spells: ASCII digits, with no
# whitespace, '_', decimal point or exponent, so no spelling builds a number
# larger than its digits; unsigned where the syntax has a sign of its own.
UNSIGNED_RATIONAL_PATTERN = "[0-9]+(?:/[0-9]+)?"
_INTEGER = {True: re.compile("[+-]?[0-9]+"), False: re.compile("[0-9]+")}
_RATIONAL = re.compile("([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_integer(text: str, signed: bool = True):
    """The int ``text`` spells (signed only if ``signed``) or None; past Python's digit limit, ValueError."""
    return int(text) if _INTEGER[signed].fullmatch(text) else None


def parse_rational(text: str):
    """The rational ``text`` spells, "p" or "p/q": an int when it is integral, else a Fraction."""
    match = _RATIONAL.fullmatch(text)
    try:
        return _over(int(match[1]), int(match[2] or 1))
    except (TypeError, ValueError, ZeroDivisionError):  # no match, more digits than Python reads, or q = 0
        raise HopfError(f"not a rational number: {quoted(text)}") from None


def _canonical(q):
    """A rational as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _over(v: int, d: int):
    """v / d in canonical form: an int when d divides v, else a Fraction."""
    return v // d if not v % d else Fraction(v, d)


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise.  A value
    past the interpreter's limit on the digits of an int it writes in
    decimal raises DomainError."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise DomainError(f"a value has more than {sys.get_int_max_str_digits()} decimal digits, "
                          "past the interpreter's limit on the digits of an int it writes") from None


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

    def is_exact_zero(self, a) -> bool:
        """Whether a is the exact zero ``zero()``, which tables leave out.  A
        truncated Laurent zero is not: it still narrows the sound window of
        every sum it enters."""
        return a == self.zero()

    def from_rational(self, q: Fraction):
        raise NotImplementedError

    def scale(self, q: Fraction, a):
        """Multiply by a rational scalar (every ring here is a Q-algebra)."""
        raise NotImplementedError

    def dot(self, terms):
        """The sum of c x y over (c, x, y) triples, c a rational scalar."""
        raise NotImplementedError

    def value_to_json(self, a):
        raise NotImplementedError

    def value_from_json(self, data):
        raise NotImplementedError


# Fractions are immutable, so zero() and one() share these two.
_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalField(Ring):
    """The field of exact rationals; values are int or fractions.Fraction.

    The sum-of-products kernels (``convolve_operands``, ``dot``) return an integral
    value as a plain int and a Fraction only for a denominator above 1, so
    integral data (structure constants, seeded characters, integral JSON
    values) stays in C-level int arithmetic.  ``add`` and ``mul`` are
    Python's own operators, ``from_rational`` returns an int or a Fraction
    argument itself, ``invert`` returns a Fraction, and ``zero()`` and
    ``one()`` are shared Fraction constants.  Mixed int/Fraction arithmetic
    is exact, and equal values compare and hash equal whatever their type.
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

    is_exact_zero = is_zero

    def from_rational(self, q):
        return q if q.__class__ is int or q.__class__ is Fraction else Fraction(q)

    def scale(self, q, a):
        return q * a

    def operand(self, xs):
        """xs over one common denominator: (d, ((exponent, integer numerator), ...)),
        which is (1, xs) itself when every value is an int."""
        if all(x.__class__ is int for _, x in xs):
            return 1, xs
        d = lcm(*(x.denominator for _, x in xs))
        return d, tuple((i, x.numerator * (d // x.denominator)) for i, x in xs)

    def convolve_operands(self, terms, n):
        """The sum of c xs ys below exponent n over the (c, xs, ys) triples, xs and ys
        ``operand`` forms of sparse (exponent, value) lists by increasing exponent,
        in integers: all triples over the lcm of their denominators, and every
        exponent below n that a product reaches, with its canonical coefficient
        (int, or Fraction off the integers; maybe zero)."""
        for c, (dx, _), (dy, _) in terms:
            if c.__class__ is not int or dx != 1 or dy != 1:
                d = lcm(*(c.denominator * dx * dy for c, (dx, _), (dy, _) in terms))
                break
        else:
            d = 1  # every scalar and operand integral: no lcm to take
        out = {}
        get = out.get
        for c, (dx, xs), (dy, ys) in terms:
            f = c.numerator * (d // (c.denominator * dx * dy))
            for i, x in xs:
                x *= f
                if x:
                    for j, y in ys:
                        k = i + j
                        if k >= n:
                            break
                        out[k] = get(k, 0) + x * y
        if d == 1:
            return out
        return {k: _over(v, d) for k, v in out.items()}

    def dot(self, terms):
        """The sum of c x y in integers: each c x y over the lcm of the triples'
        denominators, summed as a plain int, and the sum in canonical form.
        c, x and y may each be an int or a Fraction."""
        if all(c.__class__ is int and x.__class__ is int and y.__class__ is int for c, x, y in terms):
            return sum(c * x * y for c, x, y in terms)
        dens = [c.denominator * x.denominator * y.denominator for c, x, y in terms]
        d = lcm(*dens)
        total = 0
        for (c, x, y), e in zip(terms, dens):
            total += c.numerator * x.numerator * y.numerator * (d // e)
        return total if d == 1 else _over(total, d)

    def invert(self, a):
        if a == 0:
            raise SingularInputError("division by zero in the rational field")
        return _ONE / a

    def value_to_json(self, a):
        return format_rational(a)

    def value_from_json(self, data):
        if not isinstance(data, str):
            raise HopfError(f"rational values are encoded as strings, got {quoted(data)}")
        return parse_rational(data)


QQ = RationalField()
