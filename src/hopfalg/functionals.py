"""Functional-level calculus that only ``verify`` and the library API run.

The flat ``ConvolutionProduct`` over iterated coproducts is an independent
oracle: it evaluates each factor once per distinct leg over the life of the
product, drops a term at its first exact-zero leg, and multiplies out and
adds the other terms one at a time, never through ``ring.dot`` or the tables
of ``duals``, on which the other operations here run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import duals
from .algebra import Monomial
from .duals import NOT_MULTIPLICATIVE, Character, Functional, InfinitesimalCharacter, materialize
from .errors import DomainError, UnsupportedRingError
from .rationals import QQ


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
        ring = self.ring
        zero = ring.zero()
        total = zero
        for key, c in self.ctx.iterated_coproduct_terms(m, n - 1):
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


def character_inverse(chi: Character, max_degree: Optional[int] = None) -> Character:
    """The convolution inverse chi o S: ``duals.bogoliubov`` with the identity
    as projector.  The inverse of a finitely-supported character is generally
    supported in every degree, so the bound must come from somewhere: an
    explicit ``max_degree``, or the character's own cutoff."""
    bound = max_degree if max_degree is not None else chi.cutoff
    if bound is None:
        if not chi.gen_values:
            return Character(chi.ctx, chi.ring, {}, cutoff=None)  # the counit
        raise DomainError("character_inverse needs a materialization bound (max_degree) for "
                          "characters without a cutoff")
    return duals.bogoliubov(chi, bound, lambda m, b: b)[0]


def materialize_character(f: Functional, max_degree: int, verify: bool = False) -> Character:
    """Read a known-multiplicative functional back into character closed form."""
    if verify:
        return materialize(f.ctx, f.ring, f.tabulate(f.ctx.basis_up_to(max_degree)), max_degree,
                           failure=NOT_MULTIPLICATIVE)
    gens = [Monomial.of(g) for g in f.ctx.schema.generators_up_to(max_degree)]
    return materialize(f.ctx, f.ring, f.tabulate(gens), max_degree)


def lie_bracket(z1: InfinitesimalCharacter, z2: InfinitesimalCharacter, max_degree: int) -> InfinitesimalCharacter:
    """[Z1, Z2] = Z1 * Z2 - Z2 * Z1, materialized on generators."""
    z1._check_compatible(z2)
    ctx, ring = z1.ctx, z1.ring
    basis = ctx.basis_up_to(max_degree)
    a, b = z1.tabulate(basis), z2.tabulate(basis)
    gens = [Monomial.of(g) for g in ctx.schema.generators_up_to(max_degree)]
    forward = duals.convolve_tables(ctx, ring, a, b, gens)
    backward = duals.convolve_tables(ctx, ring, b, a, gens)
    zero = ring.zero()
    bracket = {m: ring.sub(forward.get(m, zero), backward.get(m, zero)) for m in gens}
    return materialize(ctx, ring, bracket, max_degree, InfinitesimalCharacter)


def metric_distance(f1: Functional, f2: Functional, basis_cutoff: int) -> Tuple[Fraction, Fraction]:
    """Truncated dual-space distance plus its exact tail bound.

    Sums 2^(-i) min(|<f1 - f2, x_i>|, 1) over the first ``basis_cutoff``
    monomials, enumerated in non-decreasing degree (canonical order within a
    degree); the discarded tail is bounded by 2^(1 - basis_cutoff).  A
    truncated schema ends the scan at its top degree, where its monomials are
    still the first of the whole algebra, and bounds the tail by 2^(1 - n) for
    the n monomials summed.
    """
    f1._check_compatible(f2)
    if f1.ring is not QQ and f1.ring.tag != QQ.tag:
        raise UnsupportedRingError("the dual metric needs rational values (absolute values are "
                                   "not defined over this ring)")
    if basis_cutoff < 1:
        raise DomainError("basis_cutoff must be >= 1")
    ctx = f1.ctx
    schema = ctx.schema
    # A generator of degree k yields monomials in every multiple of k, so the
    # scan ends; without generators the unit is the whole basis.
    has_generators = schema.max_degree is None or bool(schema.generators_up_to(schema.max_degree))
    top = None if schema.complete else schema.max_degree
    total = Fraction(0)
    index = 0
    degree = 0
    while index < basis_cutoff and (degree == 0 or has_generators) and (top is None or degree <= top):
        for m in ctx.monomials_of_degree(degree):
            if index >= basis_cutoff:
                break
            diff = abs(f1.value_on(m) - f2.value_on(m))
            total += Fraction(1, 2**index) * min(diff, Fraction(1))
            index += 1
        degree += 1
    return total, Fraction(2, 2 ** (basis_cutoff if top is None else index))
