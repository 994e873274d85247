"""Truncated Laurent series over Q.

A commutative unital Q-algebra with decidable, canonical equality, on the
ring interface of ``rationals`` (whose names this module re-exports); values
are immutable slotted series.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .errors import DomainError, HopfError, SingularInputError, TruncationError, UnsupportedRingError, quoted
from . import _forwarder
from .rationals import (QQ, Frozen, RationalField, Ring, _canonical, format_rational, is_json_int,  # noqa: F401
                        parse_rational)

# The polynomial ring moved to ``polynomials``; its name still resolves here.
__getattr__ = _forwarder(__name__, "polynomials", ("PolynomialRing",))


class LaurentSeries(Frozen):
    """A truncated Laurent series value.

    ``coeffs`` maps exponent -> rational value, with no zero entries and no
    entries above ``trunc``.  ``trunc`` is the last exponent whose coefficient
    is known (inclusive); ``None`` means the series is exactly known (a
    Laurent polynomial). Coefficients below the smallest stored exponent are
    known to be zero; coefficients above ``trunc`` are unknown, never assumed.
    Equality and hash are on (coeffs, trunc) only.
    """

    # _operand: the coeffs in QQ's operand form, built by the first product
    # the series enters: table values enter hundreds of them.
    __slots__ = ("coeffs", "trunc", "_operand")

    def __init__(self, coeffs: tuple, trunc: Optional[int]):
        _set_coeffs(self, coeffs)  # sorted tuple of (exponent, value)
        _set_trunc(self, trunc)
        _set_operand(self, None)

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

    def operand(self):
        """The coefficients in ``QQ.operand`` form, built once per series."""
        memo = self._operand
        if memo is None:
            memo = QQ.operand(self.coeffs)
            _set_operand(self, memo)
        return memo

    def as_dict(self) -> dict:
        return dict(self.coeffs)


# Every ring operation builds series: setting their slots through the slot
# descriptors skips the attribute lookup of object.__setattr__.
_set_coeffs = LaurentSeries.coeffs.__set__
_set_trunc = LaurentSeries.trunc.__set__
_set_operand = LaurentSeries._operand.__set__


_exponent = itemgetter(0)
_value = itemgetter(1)  # an (exponent, value) pair is kept exactly when this is truthy


def _min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LaurentRing(Ring):
    """Truncated Laurent series over Q in eps, with a pole of finite order.

    Arithmetic propagates the tightest sound truncation bound: no operation
    ever reports a coefficient that discarded high-order terms could pollute.
    Coefficients are int or Fraction: zero is exactly the falsy value, + and
    * are Python's, and products run in the integer kernel of Q
    (``operand`` and ``convolve_operands``).  ``EPS_RING`` is the one instance.
    """

    base = QQ
    var = "eps"
    tag = "laurent"
    _one = LaurentSeries(((0, QQ.one()),), None)  # one(), shared: series are immutable

    # -- construction ------------------------------------------------------

    def make(self, coeffs: dict, trunc: Optional[int]) -> LaurentSeries:
        """Canonicalize: drop zero values and anything beyond the truncation."""
        items = [(k, v) for k, v in coeffs.items() if v and (trunc is None or k <= trunc)]
        items.sort()
        return LaurentSeries(tuple(items), trunc)

    def monomial(self, exp: int, coeff=None, trunc: Optional[int] = None) -> LaurentSeries:
        if coeff is None:
            coeff = QQ.one()
        return self.make({exp: coeff}, trunc)

    def zero(self):
        return LaurentSeries((), None)

    def one(self):
        return self._one

    def from_rational(self, q):
        if q == 0:
            return self.zero()
        return self.monomial(0, QQ.from_rational(q))

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
        return QQ.zero()

    def pole_order(self, a: LaurentSeries) -> int:
        """max(0, -valuation): 0 for series with no negative exponents."""
        m = a.min_exp()
        return max(0, -m) if m is not None else 0

    # -- arithmetic --------------------------------------------------------

    def add(self, a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
        out = dict(a.coeffs)
        for k, v in b.coeffs:
            out[k] = out.get(k, 0) + v
        return self.make(out, _min_trunc(a.trunc, b.trunc))

    def neg(self, a: LaurentSeries) -> LaurentSeries:
        return LaurentSeries(tuple((k, -v) for k, v in a.coeffs), a.trunc)

    def dot(self, terms) -> LaurentSeries:
        """Sum of c a b over (c, a, b) triples, in one integer convolve, on
        the narrowest sound window of any one product (empty and zero operands
        included): exactly as sound as adding the products one at a time."""
        if len(terms) == 1 and terms[0][2] is self._one:
            # c a one() is c a: no kernel pass, and with c = 1 each
            # coefficient keeps its object.
            c, a, _ = terms[0]
            if not c:
                return LaurentSeries((), a.trunc)
            return LaurentSeries(tuple((k, _canonical(v if c == 1 else c * v)) for k, v in a.coeffs), a.trunc)
        trunc = top = None
        operands = []
        for c, a, b in terms:
            ac, at, bc, bt = a.coeffs, a.trunc, b.coeffs, b.trunc
            if at is not None or bt is not None:
                # An unknown coefficient of a (above at) reaches exponent
                # at + 1 + the lowest exponent where b may be nonzero: its
                # first stored one, or bt + 1 when b is a truncated zero.
                low_a = ac[0][0] if ac else (None if at is None else at + 1)
                low_b = bc[0][0] if bc else (None if bt is None else bt + 1)
                if at is not None and low_b is not None and (trunc is None or at + low_b < trunc):
                    trunc = at + low_b
                if bt is not None and low_a is not None and (trunc is None or bt + low_a < trunc):
                    trunc = bt + low_a
            if ac and bc:
                if top is None or ac[-1][0] + bc[-1][0] > top:
                    top = ac[-1][0] + bc[-1][0]
                operands.append((c, a.operand(), b.operand()))
        if not operands:
            return LaurentSeries((), trunc)
        out = QQ.convolve_operands(operands, (top if trunc is None else trunc) + 1)
        return LaurentSeries(tuple(filter(_value, sorted(out.items()))), trunc)

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
        return all(da.get(k, 0) == db.get(k, 0) for k in da.keys() | db.keys() if w is None or k <= w)

    def is_zero(self, a: LaurentSeries) -> bool:
        return not a.coeffs

    def is_exact_zero(self, a: LaurentSeries) -> bool:
        return not a.coeffs and a.trunc is None

    def invert_unit(self, a: LaurentSeries, to_order: Optional[int] = None) -> LaurentSeries:
        """Invert a series whose lowest-order coefficient is a unit.

        For an exactly-known input with several terms, ``to_order`` must say
        how far to expand the geometric series; truncated inputs default to
        their sound relative precision.
        """
        if not a.coeffs:
            raise SingularInputError("cannot invert the zero series")
        v = a.min_exp()
        lead_inv = QQ.invert(a.coeffs[0][1])
        # a = lead * x^v * (1 + u) with u of strictly positive valuation.
        u = {k - v: lead_inv * c for k, c in a.coeffs[1:]}
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
        acc = self.make({0: QQ.one()}, rel)
        term = self.make({0: QQ.one()}, rel)
        for _ in range(rel):
            term = self.mul(term, self.neg(u_series))
            if self.is_zero(term):
                break
            acc = self.add(acc, term)
        shifted = {k - v: lead_inv * c for k, c in acc.coeffs}
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
        # 1 and each term a^k / k! in the kernel's canonical form.
        acc = term = self.make({0: QQ.from_rational(1)}, order)
        k = 0
        while True:
            k += 1
            if a.coeffs and k * a.min_exp() > order:
                break
            if not a.coeffs:
                break
            term = self.dot([(Fraction(1, k), term, a)])
            if self.is_zero(term):
                break
            acc = self.add(acc, term)
        return acc

    def scale(self, q: Fraction, a: LaurentSeries) -> LaurentSeries:
        if q == 0:
            return LaurentSeries((), a.trunc)
        if q == 1:
            return a
        return LaurentSeries(tuple((k, q * v) for k, v in a.coeffs), a.trunc)

    # -- the minimal-subtraction split --------------------------------------

    def pole_part(self, a: LaurentSeries) -> LaurentSeries:
        """Strictly negative exponents; always exactly known."""
        if a.trunc is not None and a.trunc < -1:
            raise TruncationError(
                "pole part is not fully determined: series sound only through "
                f"order {a.trunc}",
                required_order=-1,
            )
        return LaurentSeries(a.coeffs[:bisect_left(a.coeffs, 0, key=_exponent)], None)

    def regular_part(self, a: LaurentSeries) -> LaurentSeries:
        """Exponents >= 0, keeping the input's truncation bound."""
        return LaurentSeries(a.coeffs[bisect_left(a.coeffs, 0, key=_exponent):], a.trunc)

    # -- encoding ------------------------------------------------------------

    def value_to_json(self, a: LaurentSeries):
        m = a.min_exp()
        return {
            "minExp": m if m is not None else 0,
            "truncation": a.trunc,
            "coeffs": {str(k): QQ.value_to_json(v) for k, v in a.coeffs},
        }

    def value_from_json(self, data):
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), dict):
            raise HopfError(f"not a Laurent series encoding: {quoted(data)}")
        trunc = data.get("truncation")
        if trunc is not None and not is_json_int(trunc):
            raise HopfError(f"truncation must be an integer or null, got {quoted(trunc)}")
        min_exp = data.get("minExp")
        if min_exp is not None and not is_json_int(min_exp):
            raise HopfError(f"minExp must be an integer or null, got {quoted(min_exp)}")
        from .serialize import claim_key

        coeffs, keys = {}, {}
        for key, val in data["coeffs"].items():
            try:
                k = int(key)
            except ValueError:
                raise HopfError(f"Laurent exponents must be integers, got {quoted(key)}") from None
            claim_key(keys, k, key, "Laurent exponents")
            if min_exp is not None and k < min_exp:
                raise HopfError(f"stored exponent {k} below declared minExp {min_exp}")
            if trunc is not None and k > trunc:
                raise HopfError(f"stored exponent {k} above truncation order {trunc}")
            coeffs[k] = QQ.value_from_json(val)
        return self.make(coeffs, trunc)


# The one Laurent ring: loops, JSON functionals tagged "laurent" and the theta checks.
EPS_RING = LaurentRing()


def laurent_only(ring, operation: str) -> LaurentRing:
    """``ring`` if it is Laurent, else UnsupportedRingError naming its tag."""
    if not isinstance(ring, LaurentRing):
        raise UnsupportedRingError(f"{operation} needs Laurent series values, not {ring.tag} ones")
    return ring
