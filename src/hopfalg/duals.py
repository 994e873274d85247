"""The dual side: functionals on H, characters, convolution calculus.

Functionals are closed-form evaluation rules rather than infinite tables:
characters are determined by generator values (multiplicativity), and
infinitesimal characters vanish on the unit and on every product of two
augmentation-ideal elements.  The convolution calculus (powers, exp, log,
brackets) runs on tables keyed by basis monomial: (a * b)(m) is the sum over
the coproduct of m of c a(m') b(m''), the transposes f o S, Y_*, Y_*^-1 and
theta_* are table maps, and each such sum is one call per monomial of the
ring's one sum-of-products kernel, ``ring.dot``.  A character tabulates with
one ring product per monomial.  One helper reads a table back into closed
form on the generators, verifying it on the whole basis where the caller
asks.  The flat ``ConvolutionProduct`` over iterated coproducts is an
independent oracle for the tests and the suites: it evaluates each factor
once per distinct leg over the life of the product, drops a term at its
first exact-zero leg, and multiplies out and adds the other terms one at a
time, never through ``ring.dot`` or the tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Generator, Monomial
from .errors import (
    CutoffExceededError,
    DomainError,
    RingMismatchError,
    UnsupportedRingError,
    VerificationError,
)
from .hopf import HopfAlgebra, theta_factors
from .rationals import QQ, Ring


class Functional:
    """A linear form on H, valued in a coefficient ring."""

    kind: Optional[str] = None  # the "kind" of its JSON encoding; None: not encodable

    def __init__(self, ctx: HopfAlgebra, ring: Ring):
        self.ctx = ctx
        self.ring = ring

    def value_on(self, m: Monomial):
        raise NotImplementedError

    def tabulate(self, monomials) -> Dict[Monomial, object]:
        """The values on the given monomials as a table, exact zeros left out."""
        exact_zero = self.ring.is_exact_zero
        table = {}
        for m in monomials:
            v = self.value_on(m)
            if not exact_zero(v):
                table[m] = v
        return table

    def __call__(self, h):
        """Evaluate on an Element (over Q) or a single Monomial."""
        if isinstance(h, Monomial):
            return self.value_on(h)
        if h.ring is not QQ and h.ring.tag != QQ.tag:
            raise RingMismatchError(
                "functionals evaluate elements with rational coefficients; "
                f"got an element over {h.ring.tag}"
            )
        one = self.ring.one()
        return self.ring.dot([(c, self.value_on(m), one) for m, c in h.terms.items()])

    def _check_compatible(self, other: "Functional"):
        if self.ctx is not other.ctx:
            raise DomainError("functionals live on different Hopf algebras")
        if self.ring is not other.ring and self.ring.tag != other.ring.tag:
            raise RingMismatchError(
                f"functionals over different rings: {self.ring.tag} vs {other.ring.tag}"
            )


def counit_functional(ctx: HopfAlgebra, ring: Ring) -> Character:
    """The convolution unit h -> counit(h): the character with no generator values."""
    return Character(ctx, ring, {})


class TableFunctional(Functional):
    """Explicit finite table with default value zero."""

    kind = "table"

    def __init__(self, ctx, ring, table: Dict[Monomial, object]):
        super().__init__(ctx, ring)
        self.table = {m: v for m, v in table.items() if not ring.is_exact_zero(v)}

    def value_on(self, m: Monomial):
        return self.table.get(m, self.ring.zero())


class Character(Functional):
    """Multiplicative unital functional, stored by its generator values.

    Generators missing from the table take the value zero.  When ``cutoff``
    is set, the character was only materialized up to that degree and
    evaluating beyond it is an error rather than a silent zero.
    """

    kind = "character"

    def __init__(self, ctx, ring, gen_values: Dict[Generator, object], cutoff: Optional[int] = None):
        super().__init__(ctx, ring)
        self.gen_values = dict(gen_values)
        self.cutoff = cutoff

    def _check_cutoff(self, m: Monomial):
        if self.cutoff is not None and m.y_degree > self.cutoff:
            raise CutoffExceededError(
                f"character materialized to degree {self.cutoff}; "
                f"value on degree-{m.y_degree} monomial requested"
            )

    def value_on(self, m: Monomial):
        self._check_cutoff(m)
        acc = None
        for g, e in m.powers:
            v = self.gen_values.get(g)
            if v is None:
                return self.ring.zero()
            for _ in range(e):
                acc = v if acc is None else self.ring.mul(acc, v)
        return self.ring.one() if acc is None else acc

    def tabulate(self, monomials) -> Dict[Monomial, object]:
        """``value_on`` of each monomial, built as table[m / g] chi(g) with g the
        first generator of m: one product per monomial that is not a
        generator.  Cofactors outside ``monomials`` are computed once and kept
        out of the table; an exact zero cofactor gives an exact zero without a
        product, as a missing generator does in ``value_on``.  Values equal
        ``value_on``'s: the truncation of a product of series does not depend
        on the order of its factors."""
        ring = self.ring
        zero, exact_zero = ring.zero(), ring.is_exact_zero
        values = {Monomial.unit(): ring.one()}

        def value(m):
            v = values.get(m)
            if v is None:
                (g, e), rest = m.powers[0], m.powers[1:]
                x = self.gen_values.get(g)
                if x is None:
                    v = zero
                else:
                    cofactor = Monomial(((g, e - 1),) + rest if e > 1 else rest)
                    if cofactor.is_unit:
                        v = x
                    else:
                        y = value(cofactor)
                        v = zero if exact_zero(y) else ring.mul(y, x)
                values[m] = v
            return v

        table = {}
        for m in monomials:
            self._check_cutoff(m)
            v = value(m)
            if not exact_zero(v):
                table[m] = v
        return table


class InfinitesimalCharacter(Functional):
    """A derivation-like functional: zero on 1 and on products."""

    kind = "infinitesimal"

    def __init__(self, ctx, ring, gen_values: Dict[Generator, object], cutoff: Optional[int] = None):
        super().__init__(ctx, ring)
        self.gen_values = dict(gen_values)
        self.cutoff = cutoff

    def value_on(self, m: Monomial):
        if self.cutoff is not None and m.y_degree > self.cutoff:
            raise CutoffExceededError(
                f"infinitesimal character materialized to degree {self.cutoff}; "
                f"value on degree-{m.y_degree} monomial requested"
            )
        g = m.single_generator()
        if g is None:
            return self.ring.zero()
        return self.gen_values.get(g, self.ring.zero())


_UNSEEN = object()  # a leg not yet evaluated, in ConvolutionProduct.value_on


class ConvolutionProduct(Functional):
    """Lazy convolution of finitely many functionals.

    Evaluation goes through the flat iterated coproduct, so it is
    independent of any association order by construction.
    """

    def __init__(self, factors: Sequence[Functional]):
        if not factors:
            raise DomainError("convolution needs at least one factor")
        first = factors[0]
        flat = []
        for f in factors:
            first._check_compatible(f)
            if isinstance(f, ConvolutionProduct):
                flat.extend(f.factors)
            else:
                flat.append(f)
        super().__init__(first.ctx, first.ring)
        self.factors: Tuple[Functional, ...] = tuple(flat)
        # Leg values per distinct factor, kept for the life of the product.
        by_factor = {id(f): {} for f in flat}
        self._memos = [(f, by_factor[id(f)]) for f in flat]

    def value_on(self, m: Monomial):
        """The sum over the iterated coproduct of m of c f1(m1) ... fn(mn),
        each term multiplied out and added one at a time.  Each factor is
        evaluated once per distinct leg over all calls, in the order the terms
        reach it; a term ends at its first exact-zero leg, before any product,
        since an exact zero times anything is the exact zero and adds nothing."""
        n = len(self.factors)
        if n == 1:
            return self.factors[0].value_on(m)
        tensor = self.ctx.iterated_coproduct_monomial(m, n - 1)
        ring = self.ring
        zero = ring.zero()
        total = zero
        for key, c in tensor.terms.items():
            values = []
            for (f, memo), leg in zip(self._memos, key):
                v = memo.get(leg, _UNSEEN)
                if v is _UNSEEN:
                    # None marks an exact zero.  Only an exact zero ends the
                    # term: a truncated zero times a pole of a later factor
                    # loses precision, so it multiplies through.
                    v = f.value_on(leg)
                    v = memo[leg] = None if v == zero else v
                if v is None:
                    break
                values.append(v)
            else:
                prod = ring.from_rational(c)
                for v in values:
                    prod = ring.mul(prod, v)
                total = ring.add(total, prod)
        return total


def convolve(*factors: Functional) -> ConvolutionProduct:
    return ConvolutionProduct(factors)


# -- the table kernel ------------------------------------------------------------
#
# A table maps basis monomials to ring values.  An exact zero
# (``ring.is_exact_zero``) is left out; a truncated Laurent zero is not exact
# and stays, because it still narrows the sound window of every sum it enters.


def tabulate(f: Functional, monomials) -> Dict[Monomial, object]:
    """f on the given monomials as a table (exact zeros left out)."""
    return f.tabulate(monomials)


def convolve_tables(ctx: HopfAlgebra, ring: Ring, a: dict, b: dict, monomials) -> Dict[Monomial, object]:
    """The binary convolution of tables: (a * b)(m) = sum_{Delta m} c a(m') b(m'').

    Evaluated on each of ``monomials`` by one ``ring.dot`` call each; the
    tables must hold every leg of their coproducts, a missing entry being an
    exact zero.  A coproduct term is skipped only when an operand is missing.
    """
    exact_zero = ring.is_exact_zero
    out = {}
    for m in monomials:
        total = ring.dot([(c, x, y) for (m1, m2), c in ctx.coproduct_monomial(m).terms.items()
                          if (x := a.get(m1)) is not None and (y := b.get(m2)) is not None])
        if not exact_zero(total):
            out[m] = total
    return out


def convolution_powers(ctx: HopfAlgebra, ring: Ring, a: dict, n: int, monomials) -> List[dict]:
    """The tables a, a*a, ..., a^(*n), by repeated binary steps."""
    powers: List[dict] = []
    for _ in range(n):
        powers.append(convolve_tables(ctx, ring, powers[-1], a, monomials) if powers else a)
    return powers


def power_series(ring: Ring, powers: List[dict], m: Monomial, coeff):
    """The sum over n = 1 .. deg m of coeff(n) a^(*n)(m), read from the tables
    of ``convolution_powers`` in one ``ring.dot`` call."""
    one = ring.one()
    return ring.dot([(coeff(n), v, one) for n in range(1, m.y_degree + 1)
                     if (v := powers[n - 1].get(m)) is not None])


def materialize(ctx: HopfAlgebra, ring: Ring, table: dict, max_degree: int, kind: type = Character,
                failure: Optional[str] = None):
    """Read a table back on the generators into ``kind`` with cutoff ``max_degree``.

    With ``failure`` set, the result is checked against the table on the
    whole basis up to the cutoff, and the first monomial where they differ
    raises a VerificationError whose message is ``failure`` formatted with it.
    """
    values = {}
    for g in ctx.schema.generators_up_to(max_degree):
        v = table.get(Monomial.of(g))
        if v is not None and not ring.is_exact_zero(v):
            values[g] = v
    result = kind(ctx, ring, values, cutoff=max_degree)
    if failure is not None:
        zero = ring.zero()
        basis = ctx.basis_up_to(max_degree)
        closed = tabulate(result, basis)
        for m in basis:
            if not ring.eq(closed.get(m, zero), table.get(m, zero)):
                raise VerificationError(failure.format(m), witness=str(m))
    return result


NOT_MULTIPLICATIVE = "functional is not multiplicative; materialization as a character fails on {}"


def character_inverse(chi: Character, max_degree: Optional[int] = None) -> Character:
    """The convolution inverse chi o S, materialized on generators.

    The inverse of a finitely-supported character is generally supported in
    every degree, so the materialization bound must come from somewhere: an
    explicit ``max_degree``, or the character's own cutoff.
    """
    ctx, ring = chi.ctx, chi.ring
    bound = max_degree if max_degree is not None else chi.cutoff
    if bound is None:
        if not chi.gen_values:
            return Character(ctx, ring, {}, cutoff=None)  # the counit
        raise DomainError(
            "character_inverse needs a materialization bound (max_degree) for "
            "characters without a cutoff"
        )
    gens = [Monomial.of(g) for g in ctx.schema.generators_up_to(bound)]
    support = {m1 for m in gens for m1 in ctx.antipode_monomial(m).terms}
    table = compose_antipode(ctx, ring, tabulate(chi, support), gens)
    return materialize(ctx, ring, table, bound)


def materialize_character(ctx: HopfAlgebra, f: Functional, max_degree: int, verify: bool = False) -> Character:
    """Read a known-multiplicative functional back into character closed form."""
    if verify:
        return materialize(ctx, f.ring, tabulate(f, ctx.basis_up_to(max_degree)), max_degree,
                           failure=NOT_MULTIPLICATIVE)
    gens = [Monomial.of(g) for g in ctx.schema.generators_up_to(max_degree)]
    return materialize(ctx, f.ring, tabulate(f, gens), max_degree)


def lie_bracket(z1: InfinitesimalCharacter, z2: InfinitesimalCharacter, max_degree: int) -> InfinitesimalCharacter:
    """[Z1, Z2] = Z1 * Z2 - Z2 * Z1, materialized on generators."""
    z1._check_compatible(z2)
    ctx, ring = z1.ctx, z1.ring
    basis = ctx.basis_up_to(max_degree)
    a, b = tabulate(z1, basis), tabulate(z2, basis)
    gens = [Monomial.of(g) for g in ctx.schema.generators_up_to(max_degree)]
    forward = convolve_tables(ctx, ring, a, b, gens)
    backward = convolve_tables(ctx, ring, b, a, gens)
    zero = ring.zero()
    bracket = {m: ring.sub(forward.get(m, zero), backward.get(m, zero)) for m in gens}
    return materialize(ctx, ring, bracket, max_degree, InfinitesimalCharacter)


def exp_star(z: InfinitesimalCharacter, max_degree: int) -> Character:
    """The convolution exponential, a character.

    On any h of degree d the series stops at n = d, because a convolution of
    more than d functionals vanishing on 1 kills h.  The materialized
    character is checked against the raw series on the whole basis up to the
    cutoff.
    """
    if max_degree < 1:
        raise DomainError("max_degree must be >= 1")
    ctx, ring = z.ctx, z.ring
    basis = ctx.basis_up_to(max_degree)
    powers = convolution_powers(ctx, ring, tabulate(z, basis), max_degree, basis)
    series = {m: ring.one() if m.is_unit else power_series(ring, powers, m, lambda n: Fraction(1, factorial(n)))
              for m in basis}
    return materialize(ctx, ring, series, max_degree,
                       failure="exponential failed multiplicativity on {}")


def log_star(chi: Character, max_degree: int) -> InfinitesimalCharacter:
    """The convolution logarithm sum_n (-1)^(n+1) (chi - 1_*)^{*n} / n.

    Finite on each monomial because chi - 1_* vanishes on 1; the n-th term is
    asserted to vanish once n exceeds the degree, and the result is verified
    to vanish on products (an infinitesimal character) up to the cutoff.
    """
    ctx, ring = chi.ctx, chi.ring
    basis = ctx.basis_up_to(max_degree)
    # chi - 1_* is chi off the unit, where a character takes the value 1.
    delta = tabulate(chi, [m for m in basis if not m.is_unit])
    powers = convolution_powers(ctx, ring, delta, max_degree + 1, basis)
    series = {}
    for m in basis:
        if m.is_unit:
            continue
        # One step beyond the degree must vanish (the termination argument).
        beyond = powers[m.y_degree].get(m)
        if beyond is not None and not ring.is_zero(beyond):
            raise VerificationError(
                f"logarithm series failed to terminate on {m}", witness=str(m)
            )
        series[m] = power_series(ring, powers, m, lambda n: Fraction((-1) ** (n + 1), n))
    return materialize(ctx, ring, series, max_degree, InfinitesimalCharacter,
                       failure="logarithm is not infinitesimal: nonzero on the product {}")


# -- transposes <T_* f, h> = <f, T h>, as maps on tables like the kernel --------


def compose_antipode(ctx: HopfAlgebra, ring: Ring, table: dict, monomials) -> Dict[Monomial, object]:
    """f o S on each of ``monomials``: the sum over S(m) of c table[m'], one
    ``ring.dot`` call each with the triples (c, table[m'], 1)."""
    exact_zero, one = ring.is_exact_zero, ring.one()
    out = {}
    for m in monomials:
        total = ring.dot([(c, v, one) for m1, c in ctx.antipode_monomial(m).terms.items()
                          if (v := table.get(m1)) is not None])
        if not exact_zero(total):
            out[m] = total
    return out


def scale_by_degree(ring: Ring, table: dict, factors: Sequence) -> Dict[Monomial, object]:
    """m -> factors[deg m] * table[m]: theta_* with exp(n z), Y_* with n, Y_*^-1 with 1/n."""
    exact_zero = ring.is_exact_zero
    out = {}
    for m, v in table.items():
        w = ring.mul(factors[m.y_degree], v)
        if not exact_zero(w):
            out[m] = w
    return out


def grading_transpose(ring: Ring, table: dict, inverse: bool = False) -> Dict[Monomial, object]:
    """Y_* of a table (degree-n values times n), or Y_*^-1 (times 1/n), which
    is only defined on tables vanishing at the unit."""
    if inverse and not ring.is_zero(table.get(Monomial.unit(), ring.zero())):
        raise DomainError("inverse grading transpose is only defined on functionals vanishing at the unit")
    top = max((m.y_degree for m in table), default=0)
    factors = [ring.from_rational(Fraction(1, n) if inverse else n) for n in range(1, top + 1)]
    return scale_by_degree(ring, table, [ring.zero()] + factors)


def y_star(f: Functional) -> Functional:
    """<Y_* f, h> = <f, Y h>, on an infinitesimal character or a table."""
    return _grading(f, inverse=False)


def y_star_inverse(f: Functional) -> Functional:
    """Y_*^-1, on an infinitesimal character or a table vanishing at the unit."""
    return _grading(f, inverse=True)


def _grading(f: Functional, inverse: bool) -> Functional:
    ring = f.ring
    if isinstance(f, InfinitesimalCharacter):
        values = {g: ring.scale(Fraction(1, g.degree) if inverse else g.degree, v)
                  for g, v in f.gen_values.items()}
        return InfinitesimalCharacter(f.ctx, ring, values, cutoff=f.cutoff)
    if isinstance(f, TableFunctional):
        return TableFunctional(f.ctx, ring, grading_transpose(ring, f.table, inverse))
    raise DomainError(f"the grading transpose takes an infinitesimal character or a table, "
                      f"not a {type(f).__name__}; tabulate it first")


def theta_star(f: Functional, z) -> Functional:
    """<theta_*z f, h> = <f, theta_z h>: degree-n values times exp(n z), z a
    positive-valuation series in f's ring.  theta_z is a Hopf automorphism, so
    (infinitesimal) characters keep their kind, with generator values scaled."""
    ring = f.ring
    if isinstance(f, (Character, InfinitesimalCharacter)):
        factors = theta_factors(ring, z, max((g.degree for g in f.gen_values), default=0))
        values = {g: ring.mul(factors[g.degree], v) for g, v in f.gen_values.items()}
        return type(f)(f.ctx, ring, values, cutoff=f.cutoff)
    if isinstance(f, TableFunctional):
        factors = theta_factors(ring, z, max((m.y_degree for m in f.table), default=0))
        return TableFunctional(f.ctx, ring, scale_by_degree(ring, f.table, factors))
    raise DomainError(f"the scaling transpose takes a character, an infinitesimal character "
                      f"or a table, not a {type(f).__name__}; tabulate it first")


def metric_distance(f1: Functional, f2: Functional, basis_cutoff: int) -> Tuple[Fraction, Fraction]:
    """Truncated dual-space distance plus its exact tail bound.

    Sums 2^(-i) min(|<f1 - f2, x_i>|, 1) over the first ``basis_cutoff``
    monomials, enumerated in non-decreasing degree (canonical order within a
    degree); the discarded tail is bounded by 2^(1 - basis_cutoff).
    """
    f1._check_compatible(f2)
    if f1.ring is not QQ and f1.ring.tag != QQ.tag:
        raise UnsupportedRingError(
            "the dual metric needs rational values (absolute values are "
            "not defined over this ring)"
        )
    if basis_cutoff < 1:
        raise DomainError("basis_cutoff must be >= 1")
    ctx = f1.ctx
    schema = ctx.schema
    # A generator of degree k yields monomials in every multiple of k, so the
    # scan ends; without generators the unit is the whole basis.
    has_generators = schema.max_degree is None or bool(schema.generators_up_to(schema.max_degree))
    total = Fraction(0)
    index = 0
    degree = 0
    while index < basis_cutoff and (degree == 0 or has_generators):
        for m in ctx.monomials_of_degree(degree):
            if index >= basis_cutoff:
                break
            diff = abs(f1.value_on(m) - f2.value_on(m))
            total += Fraction(1, 2**index) * min(diff, Fraction(1))
            index += 1
        degree += 1
    tail = Fraction(2) / Fraction(2**basis_cutoff)
    return total, tail
