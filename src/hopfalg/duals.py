"""The dual side: functionals on H, characters, convolution calculus.

Functionals are closed-form evaluation rules rather than infinite tables:
characters are determined by generator values (multiplicativity), and
infinitesimal characters vanish on the unit and on every product of two
augmentation-ideal elements.  The convolution calculus (powers, exp, log) runs
on tables keyed by basis monomial: (a * b)(m) is the sum over the coproduct of
m of c a(m') b(m''), the transposes f o S, Y_*, Y_*^-1 and theta_* are table
maps, and each such sum is one call per monomial of the ring's one
sum-of-products kernel, ``ring.dot``.  A character tabulates with one ring
product per monomial; ``bogoliubov`` builds the Birkhoff counterterm, the
inverse and the special loop on the generators, and ``materialize`` reads a
table back on them, checked on the whole basis where asked.  ``functionals``
holds the flat ``ConvolutionProduct`` oracle and the operations only the
suites and the library API call.  Callers read ``convolve_tables`` and
``bogoliubov`` off this module at each call, so a stand-in set here reaches
every layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence

from . import _forwarder
from .algebra import Generator, Monomial, cofactor_chain
from .errors import CheckResult, CutoffExceededError, DomainError, RingMismatchError
from .hopf import HopfAlgebra
from .rationals import Ring

# These moved to ``functionals``; their names still resolve here.
__getattr__ = _forwarder(__name__, "functionals", ("ConvolutionProduct", "materialize_character",
                                                   "character_inverse"))


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


class GeneratorFunctional(Functional):
    """A functional stored by its generator values; missing generators take
    the value zero.  When ``cutoff`` is set, it was only materialized up to
    that degree and evaluating beyond it is an error rather than a silent zero.
    """

    noun = ""  # what the cutoff message calls it

    def __init__(self, ctx, ring, gen_values: Dict[Generator, object], cutoff: Optional[int] = None):
        super().__init__(ctx, ring)
        self.gen_values = dict(gen_values)
        self.cutoff = cutoff

    def _check_cutoff(self, m: Monomial):
        if self.cutoff is not None and m.y_degree > self.cutoff:
            raise CutoffExceededError(f"{self.noun} materialized to degree {self.cutoff}; "
                                      f"value on degree-{m.y_degree} monomial requested")


class Character(GeneratorFunctional):
    """Multiplicative unital functional, determined by its generator values."""

    kind = "character"
    noun = "character"

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
        """``value_on`` of each monomial, built up its ``cofactor_chain`` as
        chi(m / g) chi(g) with g the first generator of m: one product per
        monomial that is not a generator.  Cofactors outside ``monomials`` are
        computed once and kept out of the table; a missing generator or an
        exact zero cofactor gives an exact zero without a product, as in
        ``value_on``.  Values equal ``value_on``'s: the truncation of a
        product of series does not depend on the order of its factors."""
        ring, gen_values = self.ring, self.gen_values
        zero, exact_zero = ring.zero(), ring.is_exact_zero
        values = {Monomial.unit(): ring.one()}
        table = {}
        for m in monomials:
            self._check_cutoff(m)
            for top, g, rest in cofactor_chain(m, values):
                v, x = values[rest], gen_values.get(g)
                values[top] = zero if x is None or exact_zero(v) else x if rest.is_unit else ring.mul(v, x)
            v = values[m]
            if not exact_zero(v):
                table[m] = v
        return table


def bogoliubov(phi: Character, max_degree: int, project) -> Character:
    """Bogoliubov's subtraction on the generators g, lowest degree first:
    b(g) = phi(g) + sum c phi_-(L) phi(g') over the reduced coproduct terms
    c L (x) g', and phi_-(g) = -project(g, b(g)).  Each g' is a generator and
    each L of lower degree, so phi_- is tabulated on the left legs once per
    degree.  The pole part gives the Birkhoff counterterm (whose caller records
    phi_+ = b - T(b) as it projects), the identity phi_- = phi o S, -b/|g| on
    phi = beta/eps the special loop.  Returns phi_- with cutoff ``max_degree``,
    exact zeros left out of its generator values as ``materialize`` leaves them out."""
    ctx, ring = phi.ctx, phi.ring
    values = phi.tabulate([Monomial.of(g) for g in ctx.schema.generators_up_to(max_degree)])
    minus = Character(ctx, ring, {}, max_degree)
    for degree in range(1, max_degree + 1):
        gens = [Monomial.of(g) for g in ctx.schema.generators_of_degree(degree)]
        terms = {m: list(ctx.reduced_coproduct_terms(m)) for m in gens}
        left = minus.tabulate([m1 for ts in terms.values() for (m1, _), _ in ts])
        for m, ts in terms.items():
            # An exact zero phi_-(L) or phi(g') adds nothing.
            b = ring.dot([(1, values.get(m, ring.zero()), ring.one())]
                         + [(c, x, y) for (m1, m2), c in ts
                            if (x := left.get(m1)) is not None and (y := values.get(m2)) is not None])
            v = ring.neg(project(m, b))
            if not ring.is_exact_zero(v):
                minus.gen_values[m.single_generator()] = v
    return minus


class InfinitesimalCharacter(GeneratorFunctional):
    """A derivation-like functional: zero on 1 and on products."""

    kind = "infinitesimal"
    noun = "infinitesimal character"

    def value_on(self, m: Monomial):
        self._check_cutoff(m)
        g = m.single_generator()
        if g is None:
            return self.ring.zero()
        return self.gen_values.get(g, self.ring.zero())


# -- the table kernel ------------------------------------------------------------
#
# A table maps basis monomials to ring values.  An exact zero
# (``ring.is_exact_zero``) is left out; a truncated Laurent zero is not exact
# and stays, because it still narrows the sound window of every sum it enters.


def convolve_tables(ctx: HopfAlgebra, ring: Ring, a: dict, b: dict, monomials) -> Dict[Monomial, object]:
    """The binary convolution of tables: (a * b)(m) = sum_{Delta m} c a(m') b(m'').

    Evaluated on each of ``monomials`` by one ``ring.dot`` call each; the
    tables must hold every leg of their coproducts, a missing entry being an
    exact zero.  A coproduct term is skipped only when an operand is missing.
    """
    exact_zero = ring.is_exact_zero
    out = {}
    for m in monomials:
        total = ring.dot([(c, x, y) for (m1, m2), c in ctx.coproduct_terms(m)
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
        closed = result.tabulate(basis)
        CheckResult.require((str(m) for m in basis if not ring.eq(closed.get(m, zero), table.get(m, zero))), failure)
    return result


NOT_MULTIPLICATIVE = "functional is not multiplicative; materialization as a character fails on {}"


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
    powers = convolution_powers(ctx, ring, z.tabulate(basis), max_degree, basis)
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
    delta = chi.tabulate([m for m in basis if not m.is_unit])
    powers = convolution_powers(ctx, ring, delta, max_degree + 1, basis)
    # One step beyond the degree must vanish (the termination argument).
    zero = ring.zero()
    CheckResult.require((str(m) for m in basis if not ring.is_zero(powers[m.y_degree].get(m, zero))),
                        "logarithm series failed to terminate on {}")
    series = {m: power_series(ring, powers, m, lambda n: Fraction((-1) ** (n + 1), n)) for m in basis if not m.is_unit}
    return materialize(ctx, ring, series, max_degree, InfinitesimalCharacter,
                       failure="logarithm is not infinitesimal: nonzero on the product {}")


# -- transposes <T_* f, h> = <f, T h>, as maps on tables like the kernel --------


def compose_antipode(ctx: HopfAlgebra, ring: Ring, table: dict, monomials) -> Dict[Monomial, object]:
    """f o S on each of ``monomials``: the sum over S(m) of c table[m'], one
    ``ring.dot`` call each with the triples (c, table[m'], 1)."""
    exact_zero, one = ring.is_exact_zero, ring.one()
    out = {}
    for m in monomials:
        total = ring.dot([(c, v, one) for m1, c in ctx.antipode_terms(m) if (v := table.get(m1)) is not None])
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
    exact_zero = ring.is_exact_zero
    return {m: w for m, v in table.items()
            if m.y_degree and not exact_zero(w := ring.scale(Fraction(1, m.y_degree) if inverse else m.y_degree, v))}
