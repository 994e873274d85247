"""Schema-driven Hopf structure: coproduct, counit, antipode, grading.

A schema declares graded generators together with their reduced coproducts,
whose right legs are single generators.  The full coproduct extends
multiplicatively; the antipode is defined by the degree-decreasing recursion
on the augmentation ideal and memoized per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import Element, Generator, Monomial, TensorElement
from .errors import CutoffExceededError, DomainError, SchemaError
from .rings import QQ, LaurentRing, Ring

DEFAULT_VALIDATE_DEGREE = 8


@dataclass(frozen=True)
class ReducedTerm:
    """One Sweedler term left (x) right of a generator's reduced coproduct."""

    left: Monomial
    right: Generator
    coeff: Fraction


class HopfSchema:
    """Generator data of a graded connected commutative Hopf algebra.

    Subclasses provide the generator enumeration per degree and the reduced
    coproduct table.  ``max_degree`` is None for schemas with generators in
    every degree.
    """

    name = "schema"
    max_degree: Optional[int] = None

    def generators_of_degree(self, degree: int) -> Tuple[Generator, ...]:
        raise NotImplementedError

    def reduced_terms(self, gen: Generator) -> Tuple[ReducedTerm, ...]:
        raise NotImplementedError

    def generators_up_to(self, degree: int) -> Tuple[Generator, ...]:
        out: List[Generator] = []
        for d in range(1, degree + 1):
            out.extend(self.generators_of_degree(d))
        return tuple(out)

    def generator_by_name(self, name: str, search_to: Optional[int] = None) -> Generator:
        bound = self.max_degree if self.max_degree is not None else (search_to or DEFAULT_VALIDATE_DEGREE)
        for g in self.generators_up_to(bound):
            if g.name == name:
                return g
        raise SchemaError(f"unknown generator {name!r} in schema {self.name!r}")


class TableSchema(HopfSchema):
    """A schema given by explicit finite tables (rooted trees, custom JSON).

    ``complete=True`` means the table lists every generator the algebra has
    (degrees with no entry are genuinely empty); ``complete=False`` marks a
    cutoff slice of an infinite family, where asking beyond the declared
    maximum degree is an error, never a silent truncation.
    """

    def __init__(
        self,
        name: str,
        generators: Iterable[Generator],
        reduced: Dict[Generator, Tuple[ReducedTerm, ...]],
        max_degree: Optional[int] = None,
        complete: bool = True,
    ):
        self.name = name
        self.complete = complete
        self._by_degree: Dict[int, List[Generator]] = {}
        self._by_name: Dict[str, Generator] = {}
        for g in generators:
            if g.name in self._by_name:
                raise SchemaError(f"duplicate generator name {g.name!r}")
            self._by_name[g.name] = g
            self._by_degree.setdefault(g.degree, []).append(g)
        for d in self._by_degree:
            self._by_degree[d].sort()
        self._reduced = dict(reduced)
        declared_max = max(self._by_degree) if self._by_degree else 0
        self.max_degree = max_degree if max_degree is not None else declared_max

    def generators_of_degree(self, degree: int) -> Tuple[Generator, ...]:
        if degree > self.max_degree and not self.complete:
            raise CutoffExceededError(
                f"schema {self.name!r} only declares generators up to degree "
                f"{self.max_degree}; degree {degree} requested"
            )
        return tuple(self._by_degree.get(degree, ()))

    def reduced_terms(self, gen: Generator) -> Tuple[ReducedTerm, ...]:
        if gen.name not in self._by_name:
            raise SchemaError(f"unknown generator {gen.name!r} in schema {self.name!r}")
        return self._reduced.get(gen, ())

    def generator_by_name(self, name: str, search_to: Optional[int] = None) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown generator {name!r} in schema {self.name!r}") from None


def validate_schema_structure(schema: HopfSchema, up_to: int) -> None:
    """Check the local schema invariants on all generators of degree <= up_to.

    Raised violations name the broken invariant: right legs must be single
    generators (enforced by the table type), degrees of the two legs must add
    up to the generator's degree, and both legs must have strictly positive
    degree (progressiveness).
    """
    for g in schema.generators_up_to(up_to):
        for term in schema.reduced_terms(g):
            if term.coeff == 0:
                raise SchemaError(
                    f"reduced coproduct of {g.name!r} stores a zero coefficient"
                )
            left_deg = term.left.y_degree
            if left_deg + term.right.degree != g.degree:
                raise SchemaError(
                    "reduced coproduct of "
                    f"{g.name!r} is not graded: left degree {left_deg} + right "
                    f"degree {term.right.degree} != {g.degree}"
                )
            if left_deg < 1:
                raise SchemaError(
                    f"reduced coproduct of {g.name!r} is not progressive: left "
                    "leg must have strictly positive degree"
                )
            for lg in term.left.generators():
                schema.generator_by_name(lg.name, search_to=up_to)


class HopfAlgebra:
    """A schema bound to computation caches; structure coefficients over Q.

    Coproducts, antipodes and iterated coproducts are memoized per monomial;
    the memo fill is idempotent, so sharing an instance across threads only
    risks duplicated work, never wrong answers.  Construction checks the
    schema through the binary coproduct alone: the iterated-coproduct memo
    only fills when the flat ``ConvolutionProduct`` oracle asks for it.
    """

    def __init__(self, schema: HopfSchema, validate_to: Optional[int] = None):
        self.schema = schema
        self.ring: Ring = QQ
        self._coproduct: Dict[Monomial, TensorElement] = {}
        self._antipode_r: Dict[Monomial, Element] = {}
        self._antipode_l: Dict[Monomial, Element] = {}
        self._iterated: Dict[Tuple[Monomial, int], TensorElement] = {}
        self._plus_iterated: Dict[Tuple[Monomial, int], TensorElement] = {}
        self._basis: Dict[int, Tuple[Monomial, ...]] = {}
        if validate_to is None:
            validate_to = (
                schema.max_degree
                if schema.max_degree is not None
                else DEFAULT_VALIDATE_DEGREE
            )
        validate_schema_structure(schema, validate_to)
        witness = self.coassociativity_witness(validate_to)
        if witness is not None:
            raise SchemaError(
                f"coproduct of {witness.name!r} is not coassociative: "
                f"(D(x)id)D and (id(x)D)D disagree"
            )

    def coassociativity_witness(self, up_to: int) -> Optional[Generator]:
        """The first generator of degree <= up_to on which (D (x) id) D and
        (id (x) D) D disagree, or None.

        D is multiplicative, so coassociativity on the generators gives it on
        the whole algebra.
        """
        for g in self.schema.generators_up_to(up_to):
            d = self.coproduct_monomial(Monomial.of(g))
            left = d.apply_to_leg(0, self.coproduct_monomial, 1)
            if left != d.apply_to_leg(1, self.coproduct_monomial, 1):
                return g
        return None

    # -- element constructors ------------------------------------------------

    def unit_element(self) -> Element:
        return Element.unit(self.ring)

    def generator_element(self, gen: Generator) -> Element:
        return Element.of_monomial(self.ring, Monomial.of(gen))

    def monomial_element(self, m: Monomial) -> Element:
        return Element.of_monomial(self.ring, m)

    # -- basis enumeration -----------------------------------------------------

    def monomials_of_degree(self, degree: int) -> Tuple[Monomial, ...]:
        """All basis monomials of the given Y-degree, canonically ordered."""
        if degree in self._basis:
            return self._basis[degree]
        if degree == 0:
            result: Tuple[Monomial, ...] = (Monomial.unit(),)
        else:
            gens = sorted(self.schema.generators_up_to(degree))
            out: List[Monomial] = []

            def extend(prefix: List[Tuple[Generator, int]], remaining: int, start: int):
                if remaining == 0:
                    out.append(Monomial.from_powers(prefix))
                    return
                for i in range(start, len(gens)):
                    g = gens[i]
                    if g.degree > remaining:
                        break
                    prefix.append((g, 1))
                    extend(prefix, remaining - g.degree, i)
                    prefix.pop()

            extend([], degree, 0)
            result = tuple(sorted(out, key=lambda m: m.sort_key()))
        self._basis[degree] = result
        return result

    def basis_up_to(self, degree: int) -> Tuple[Monomial, ...]:
        out: List[Monomial] = []
        for d in range(degree + 1):
            out.extend(self.monomials_of_degree(d))
        return tuple(out)

    # -- coproduct, counit ----------------------------------------------------

    def coproduct_generator(self, gen: Generator) -> TensorElement:
        one = Monomial.unit()
        m = Monomial.of(gen)
        terms = [((m, one), Fraction(1)), ((one, m), Fraction(1))]
        for t in self.schema.reduced_terms(gen):
            terms.append(((t.left, Monomial.of(t.right)), t.coeff))
        return TensorElement.from_terms(self.ring, 2, terms)

    def coproduct_monomial(self, m: Monomial) -> TensorElement:
        cached = self._coproduct.get(m)
        if cached is not None:
            return cached
        if m.is_unit:
            result = TensorElement.unit(self.ring, 2)
        else:
            gen, exp = m.powers[0]
            rest = Monomial.from_powers(
                ((gen, exp - 1),) + m.powers[1:] if exp > 1 else m.powers[1:]
            )
            result = self.coproduct_generator(gen) * self.coproduct_monomial(rest)
        self._coproduct[m] = result
        return result

    def coproduct(self, h: Element) -> TensorElement:
        out = TensorElement.zero(self.ring, 2)
        for m, c in h.terms.items():
            out = out + self.coproduct_monomial(m).scale(c)
        return out

    def counit(self, h: Element):
        return h.coefficient(Monomial.unit())

    def reduced_coproduct(self, h: Element) -> TensorElement:
        """D(h) - h(x)1 - 1(x)h for h in the augmentation ideal."""
        if not self.ring.is_zero(self.counit(h)):
            raise DomainError(
                "reduced coproduct is only defined on the augmentation ideal "
                "(counit must vanish)"
            )
        one = Monomial.unit()
        full = self.coproduct(h)
        correction = TensorElement.from_terms(
            self.ring,
            2,
            [((m, one), c) for m, c in h.terms.items()]
            + [((one, m), c) for m, c in h.terms.items()],
        )
        return full - correction

    def reduced_coproduct_monomial(self, m: Monomial) -> TensorElement:
        return self.reduced_coproduct(self.monomial_element(m))

    def iterated_coproduct_monomial(self, m: Monomial, n: int) -> TensorElement:
        """D^(n): rank n+1, with D^(0) the identity."""
        if n < 0:
            raise DomainError("iterated coproduct needs n >= 0")
        if n == 0:
            return TensorElement(self.ring, 1, {(m,): self.ring.one()})
        key = (m, n)
        cached = self._iterated.get(key)
        if cached is not None:
            return cached
        prev = self.iterated_coproduct_monomial(m, n - 1)
        result = prev.apply_to_leg(0, lambda leg: self.coproduct_monomial(leg), 1)
        self._iterated[key] = result
        return result

    def iterated_coproduct(self, h: Element, n: int) -> TensorElement:
        out = TensorElement.zero(self.ring, n + 1)
        for m, c in h.terms.items():
            out = out + self.iterated_coproduct_monomial(m, n).scale(c)
        return out

    def plus_iterated_monomial(self, m: Monomial, n: int) -> TensorElement:
        """Projection of D^(n-1) to tensors with every leg in the augmentation
        ideal: rank n, n >= 1.  Vanishes when n exceeds the degree of m."""
        if n < 1:
            raise DomainError("positive-part iterated coproduct needs n >= 1")
        if n == 1:
            if m.is_unit:
                return TensorElement.zero(self.ring, 1)
            return TensorElement(self.ring, 1, {(m,): self.ring.one()})
        key = (m, n)
        cached = self._plus_iterated.get(key)
        if cached is not None:
            return cached
        prev = self.plus_iterated_monomial(m, n - 1)
        result = prev.apply_to_leg(
            0, lambda leg: self.reduced_coproduct_monomial(leg), 1
        )
        self._plus_iterated[key] = result
        return result

    # -- antipode ---------------------------------------------------------------

    def antipode_monomial(self, m: Monomial) -> Element:
        cached = self._antipode_r.get(m)
        if cached is not None:
            return cached
        if m.is_unit:
            result = self.unit_element()
        else:
            # S(h) = -h - sum h' * S(h'') over the reduced coproduct; the
            # right legs have strictly smaller degree, so the recursion ends.
            result = -self.monomial_element(m)
            for (left, right), c in self.reduced_coproduct_monomial(m).terms.items():
                piece = Element.of_monomial(self.ring, left, c) * self.antipode_monomial(right)
                result = result - piece
        self._antipode_r[m] = result
        return result

    def antipode_left_monomial(self, m: Monomial) -> Element:
        cached = self._antipode_l.get(m)
        if cached is not None:
            return cached
        if m.is_unit:
            result = self.unit_element()
        else:
            result = -self.monomial_element(m)
            for (left, right), c in self.reduced_coproduct_monomial(m).terms.items():
                piece = self.antipode_left_monomial(left) * Element.of_monomial(
                    self.ring, right, c
                )
                result = result - piece
        self._antipode_l[m] = result
        return result

    def antipode(self, h: Element) -> Element:
        out = Element.zero(self.ring)
        for m, c in h.terms.items():
            out = out + self.antipode_monomial(m).scale(c)
        return out

    def antipode_left(self, h: Element) -> Element:
        out = Element.zero(self.ring)
        for m, c in h.terms.items():
            out = out + self.antipode_left_monomial(m).scale(c)
        return out

    # -- grading operators ---------------------------------------------------

    def apply_Y(self, h: Element) -> Element:
        return Element.from_terms(
            self.ring,
            [(m, self.ring.scale(Fraction(m.y_degree), c)) for m, c in h.terms.items()],
        )

    def apply_theta(self, h: Element, z, ring: LaurentRing) -> Element:
        """Scale each homogeneous component of degree n by exp(n z).

        ``z`` is a truncated-series value of strictly positive valuation in
        ``ring`` (the formal-variable case), so the exponential is exact to
        the carried truncation order.
        """
        degrees = {m.y_degree for m in h.terms}
        factors = {n: ring.exp(ring.scale(Fraction(n), z)) for n in degrees}
        out = Element.zero(ring)
        for m, c in h.terms.items():
            out = out + Element.of_monomial(ring, m, ring.scale(c, factors[m.y_degree]))
        return out

    # -- misc -----------------------------------------------------------------

    def element_from_generator_name(self, name: str) -> Element:
        return self.generator_element(self.schema.generator_by_name(name))
